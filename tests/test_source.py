import ast
from pathlib import Path

import chartab


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
