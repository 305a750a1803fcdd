import ast
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import chartab
import chartab.permgroup
from chartab.permgroup import PermGroup

REPO = Path(__file__).resolve().parent.parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements; the self-checks use require() instead
    found = []
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_class_matrices_build_no_permutations():
    # class identification works on base-image arrays, not Permutation objects
    path = Path(chartab.__file__).parent / "chartable.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "Permutation" not in imported
    assert not modules & {"perm", "chartab.perm"}


def test_private_methods_are_called_only_on_self():
    # an object's underscore methods are its own business; dunders are public
    found = []
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name, owner = node.func.attr, node.func.value
            private = name.startswith("_") and not name.endswith("__")
            if private and not (isinstance(owner, ast.Name) and owner.id == "self"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
    assert not found, found


def test_private_fields_are_written_only_on_self():
    # an object's underscore fields are its own business: no library module
    # assigns to one on another object
    found = []
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)):
                continue
            private = node.attr.startswith("_") and not node.attr.endswith("__")
            if private and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_image_tuples_are_composed_only_in_perm():
    # the product kernel has one home: no other module imports itemgetter,
    # composes bytes words with .translate or composes image tuples itself,
    # as in tuple(q[i] for i in p.images)
    found = []
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        if path.name == "perm.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                found += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names
                          if a.name == "itemgetter"]
            elif isinstance(node, ast.Attribute) and node.attr in ("itemgetter", "translate"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                targets = {g.target.id for g in node.generators if isinstance(g.target, ast.Name)}
                elt = node.elt
                if not (isinstance(elt, ast.Subscript) and isinstance(elt.slice, ast.Name)
                        and elt.slice.id in targets):
                    continue
                sources = [elt.value] + [g.iter for g in node.generators]
                if any(isinstance(n, ast.Attribute) and n.attr == "images"
                       for src in sources for n in ast.walk(src)):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_translation_tables_are_read_only_in_perm():
    # the sift loop has one home beside translate and itemgetter: perm.py
    # reads a level's point-indexed translation tables, and other modules
    # only store what perm.translation_tables builds
    found, read_in_perm = [], False
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and node.attr == "translations" and isinstance(node.ctx, ast.Load)]
        if path.name == "perm.py":
            read_in_perm = bool(loads)
        else:
            found += [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in loads]
    assert read_in_perm
    assert not found, found


def test_images_are_converted_only_in_perm():
    # a Permutation's images are one read-only point array that the library
    # uses as it is: no module outside perm.py turns it into a tuple, a list
    # or another array
    found = []
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        if path.name == "perm.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id in ("tuple", "list")
                    or isinstance(func, ast.Attribute) and func.attr in ("array", "asarray")):
                wrapped = node.args
            elif isinstance(func, ast.Attribute) and func.attr == "tolist":
                wrapped = [func.value]
            else:
                continue
            if any(isinstance(n, ast.Attribute) and n.attr == "images"
                   for arg in wrapped for n in ast.walk(arg)):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_benchmark_tracer_targets_exist():
    # perfbench/spans.py wraps library functions and PermGroup methods by
    # name; loading it (without instrumenting) checks every name still
    # resolves, each method as a plain function on the class (a property
    # would pass hasattr) and StabilizerChain as a class
    path = REPO / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for _, module, attr in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    missing += [f"PermGroup.{attr}" for _, attr in spans.METHODS
                if not inspect.isfunction(vars(PermGroup).get(attr))]
    if not inspect.isclass(getattr(chartab.permgroup, "StabilizerChain", None)):
        missing.append("chartab.permgroup.StabilizerChain")
    assert spans.FUNCTIONS and spans.METHODS
    assert not missing, missing


def test_traced_corpus_child_is_correct(tmp_path):
    # one traced benchmark iteration of the corpus workload, in a copy of
    # perfbench/ whose src/ links to this checkout's, so nothing is written
    # under the checkout's perfbench/
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    (tmp_path / "src").symlink_to(REPO / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "child.py"),
         "--spawned-at", repr(time.monotonic()), "--workload", "corpus",
         "--seed", "7", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["fresh"]
    assert result["failed"] == 0 and result["errors"] == []
    assert result["layers"]["harness.check_group_s"] > 0


def test_no_unbounded_memo_outside_groupspec():
    # a functools memo holds every argument it ever saw; groupspec keeps
    # construct_cached, which only tests and the benchmark call
    found = []
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        if path.name == "groupspec.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names
                          if a.name in ("lru_cache", "cache")]
            elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_dataclasses_have_no_memo_fields():
    # a memo stuck onto a dataclass as field(..., init=False) is shared by
    # dataclasses.replace copies; objects hold only what they are built from
    found = []
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func) in
                    ("field", "dataclasses.field")):
                continue
            if any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is False for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_permgroup_has_one_class_index():
    # elements are found by chain rank: no byte-string key or sorted search
    # remains beside it, except the void keys of the one tuple-order sort
    path = Path(chartab.__file__).parent / "permgroup.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sort = {id(node) for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "_row_keys"
            for node in ast.walk(func)}
    found = [f"permgroup.py:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and (node.attr == "searchsorted" or (node.attr == "void" and id(node) not in sort))]
    assert not found, found


def test_point_dtype_has_one_home():
    # perm.point_dtype, beside as_word, which makes bytes words at the same
    # degrees, is the one place that picks the dtype of chain points; the
    # stabilizer chain allocates its coset tables and formed Schreier
    # generators in it and names no np.int32
    found = []
    for path in sorted(Path(chartab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if path.name == "perm.py":
            if not {"point_dtype", "as_word"} <= defined:
                found.append("perm.py defines no point_dtype beside as_word")
            continue
        if "point_dtype" in defined:
            found.append(f"{path.name} defines point_dtype")
        if path.name == "permgroup.py":
            chain = [node for node in tree.body if isinstance(node, ast.ClassDef)
                     and node.name in ("_Level", "StabilizerChain")]
            found += [f"permgroup.py:{node.lineno} {ast.unparse(node)}"
                      for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                      and node.attr == "min_scalar_type"]
            found += [f"permgroup.py:{node.lineno} {ast.unparse(node)}"
                      for cls in chain for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and node.attr == "int32"]
    assert not found, found


def test_order_and_membership_leave_the_rank_index_unbuilt(monkeypatch):
    built = []
    build = chartab.permgroup._build_index

    def counted(levels, degree):
        built.append(degree)
        return build(levels, degree)

    monkeypatch.setattr(chartab.permgroup, "_build_index", counted)
    g = chartab.construct("A(7)")
    assert g.order() == 2520
    assert g.generators[0] in g and chartab.Permutation.identity(8) not in g
    assert built == []
    g.conjugacy_classes()
    g.element_rows()
    assert built == [7]


def test_tables_leave_numpy_ma_unimported():
    # a bare np.unique(x) imports numpy.ma on numpy 2.x, which costs over a
    # megabyte of resident memory; building tables (with a central and a
    # non-central split), checking a group and testing kernels must not
    script = """
import sys
import chartab
from chartab.invariants import relative_rows
for expr in ("CentralProd(SL(2,5), C(4))", "C(12)", "S(4)"):
    g = chartab.construct(expr)
    t = chartab.compute_table(g)
    assert chartab.verify_orthogonality(t)
    chartab.format_table(t)
    [r not in relative_rows(t, g) for r in range(t.n_classes)]
    chartab.check_group(g, name=expr)
print("numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


def test_all_lists_exactly_the_public_names_of_the_package():
    # every public non-module name that chartab/__init__.py binds is in
    # __all__ once, and every listed name resolves: an export left behind
    # or a name left out of the list shows here when API is removed
    path = Path(chartab.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    public = {name for name in bound if not name.startswith("_")
              and not inspect.ismodule(getattr(chartab, name))}
    assert len(chartab.__all__) == len(set(chartab.__all__))
    assert set(chartab.__all__) == public
    namespace = {}
    exec("from chartab import *", namespace)
    assert public <= set(namespace)
