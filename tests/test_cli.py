import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chartab
from chartab import chartable, harness
from chartab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "C(4)")
    assert code == 0
    assert "|G| = 4" in out and "z^1" in out


def test_table_text_names_classes(capsys):
    # ATLAS names head the columns; each representative is listed once, below
    code, out, _ = run(capsys, "table", "S(4)")
    assert code == 0
    lines = out.splitlines()
    names = ["1a", "2a", "3a", "2b", "4a"]
    assert lines[1].split() == ["class", *names]
    assert lines[2].split() == ["size", "1", "6", "8", "3", "6"]
    assert lines[3].split() == ["order", "1", "2", "3", "2", "4"]
    below = lines.index("representatives:")
    reps = [c["rep"] for c in chartable.table_document(chartable.compute_table(
        chartab.construct("S(4)")))["classes"]]
    assert [line.split(maxsplit=1) for line in lines[below + 1:]] == \
        [list(pair) for pair in zip(names, reps)]
    assert not any(rep in line for line in lines[:below] for rep in reps[1:])


def test_table_text_grows_as_k_squared(capsys):
    # C(n) has n classes at degree n: the text grows as k^2, up to the
    # length of the values (C(60) to C(120): 4.4 times), not as k^2 * degree
    # (8 times), which padding each column to its representative gave
    sizes = []
    for n in (60, 120):
        code, out, _ = run(capsys, "table", f"C({n})")
        assert code == 0
        sizes.append(len(out))
    assert 4 <= sizes[1] / sizes[0] < 5


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "A(5)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"] == [1, 3, 3, 4, 5]
    assert doc["order"] == 60 and doc["q"] == 31


@pytest.mark.parametrize("expr, sha256", [
    ("C(1)", "0ef00963b49031d956874a576f09d7fedd302c1434d8f628c0d5b1978ec7d7c9"),
    ("C(1) x C(2)", "7a58c4717c6683d6ca7fbbd5ba98885ed72676a04783755c928e552c0161e04d"),
])
def test_table_json_bytes_at_degree_one(capsys, expr, sha256):
    # the trivial group alone and as a factor: their JSON bytes are pinned
    code, out, _ = run(capsys, "table", expr, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("expr, sha256", [
    ("A(5)", "9c89f1a2edced90e0c88805e6a5eb8fb9f073193634143aab78811c3c440c166"),
    ("S(7)", "0199b1e9e40286f0bfcafbf812408c62ca259025efa3521f94d2bc32046aad3a"),
    ("A(8)", "833b428163e26ba302bf22c84320d4152b62294796cee36e6af244959b03daf2"),
    ("SL(2,9)", "fefa0f5643b2064a9606246f2affb4ff7172690f1ebd4caab9d4c745c47f00d2"),
    ("D(200)", "74e191ea3a11ff97440964106498fe5d7f6e5c4f4c52d0a41ba574bbc29178be"),
    (" x ".join(["C(2)"] * 7),
     "f507781140bfb13ab678e8131f323ef96c5a31c57a7cf42d1be5ff4f862fd242"),
    ("C(200)", "b57385a0a0dba3bb25acd7d51b781ec1555e9cc0afd951744f1b36d9fb0484ba"),
])
def test_table_json_bytes_of_large_tables(capsys, expr, sha256):
    # the benchmark's table groups: bytes pinned across changes of the
    # F_q product kernel and of the rendering
    code, out, _ = run(capsys, "table", expr, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_acd(capsys):
    code, out, _ = run(capsys, "acd", "A(5)", "--prime", "5")
    assert code == 0 and out.strip() == "11/4"
    code, out, _ = run(capsys, "acd", "Aff(7,3)", "--prime", "7", "--field", "Qp")
    assert code == 0 and out.strip() == "7/3"
    code, out, _ = run(capsys, "acd", "S(4)", "--prime", "2", "--field", "Q")
    assert code == 0 and out.strip() == "2/1"


def test_check(capsys):
    code, out, _ = run(capsys, "check", "A(4)")
    assert code == 0
    assert "*sharp*" in out and "VIOLATION" not in out
    code, out, _ = run(capsys, "check", "S(3)", "--json", "--prime", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["primes"][0]["p"] == 3


def test_verify_small_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# tiny corpus\nC(6)\nS(3)\nA(4)\n")
    out_file = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--corpus", str(corpus),
                       "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["violations"] == 0 and doc["num_groups"] == 3
    assert "violations: 0" in err


def test_verify_reports_parse_warnings(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C(3)\nNotAGroup(2)\n")
    code, _, err = run(capsys, "verify", "--corpus", str(corpus))
    assert code == 0  # warnings do not flip the exit status
    assert "warning" in err and "line 2" in err


def test_verify_byte_identical(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C(4)\nD(5)\nS(3)\n")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(capsys, "verify", "--corpus", str(corpus), "--seed", "5",
               "--out", str(out_a))[0] == 0
    assert run(capsys, "verify", "--corpus", str(corpus), "--seed", "5",
               "--out", str(out_b), "--jobs", "2")[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fuzz(capsys):
    code, out, _ = run(capsys, "fuzz", "S(4)", "--trials", "20", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == [] and doc["trials"] == 20


def test_centralproduct(capsys):
    code, out, _ = run(capsys, "centralproduct")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["instances"][0]["order"] == 240


def test_sharpness(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("A(5)\nS(5)\nSL(2,5)\nS(4)\n")
    code, out, _ = run(capsys, "sharpness", "--corpus", str(corpus),
                       "--prime", "2", "--mode", "solvability")
    assert code == 0
    assert out.splitlines()[0] == "3/1"
    assert "  A(5)" in out


@pytest.mark.parametrize("mode", ["solvability", "pnilpotency"])
def test_sharpness_rejects_a_non_prime(capsys, tmp_path, mode):
    # no group here is nonsolvable, so only an up-front check sees the 4
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C(4)\nS(3)\n")
    code, out, err = run(capsys, "sharpness", "--corpus", str(corpus),
                         "--prime", "4", "--mode", mode)
    assert (code, out) == (2, "")
    assert "error: 4 is not prime" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "acd", "B(5)", "--prime", "2")
    assert code == 2 and "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["acd", "C(3)"])  # missing --prime
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corpus", "default", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("max_order", ["0", "-1"])
def test_verify_rejects_max_order_below_one(capsys, max_order):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corpus", "default", "--max-order", max_order])
    assert exc.value.code == 2
    assert "--max-order" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"degree": 3, "generators": [5]},
    {"degree": 3, "generators": 7},
    {"degree": 3.5, "generators": [[1, 0, 2]]},
    {"degree": "3", "generators": [[1, 0, 2]]},
    {"degree": True, "generators": [[0]]},
    {"degree": 0, "generators": []},
    {"degree": -1, "generators": []},
    {"degree": 3, "generators": [[0, 1]]},
    {"degree": 3, "generators": [[1, 0]]},
], ids=["entry-not-a-list", "not-a-list", "float-degree", "string-degree", "bool-degree",
        "zero-degree", "negative-degree", "short-identity-generator", "short-generator"])
def test_malformed_group_file_exit_code(capsys, tmp_path, doc):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "table", f'File("{path}")')
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_dense_cap_error(capsys):
    code, _, err = run(capsys, "table", "S(9)")
    assert code == 2 and "too large" in err


@pytest.mark.parametrize("command", ["table", "check"])
def test_chain_over_the_memory_budget_exits_2(capsys, command):
    # C(20000)'s coset table would take 20000 * 20000 * 4 bytes
    code, out, err = run(capsys, command, "C(20000)")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error:")
    assert str(chartab.permgroup.MEMORY_BUDGET) in err


@pytest.mark.parametrize("command", ["table", "check"])
def test_dense_store_over_the_memory_budget_exits_2(capsys, monkeypatch, command):
    # a 1 MiB budget holds C(400)'s chain but not its dense store
    monkeypatch.setattr(chartab.permgroup, "MEMORY_BUDGET", 1 << 20)
    code, out, err = run(capsys, command, "C(400)")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: the dense store")
    assert str(1 << 20) in err


@pytest.mark.parametrize("command", ["check", "acd"])
def test_non_prime_is_refused_before_the_table(capsys, command):
    # S(9) is past the dense cap, so only a check made first sees the 4
    code, out, err = run(capsys, command, "S(9)", "--prime", "4")
    assert (code, out) == (2, "")
    assert err.strip() == "error: 4 is not prime"


def _identity_class_matrix(cd, i):
    return np.eye(len(cd.reps), dtype=np.int64)


def _no_row_fixed(table, k):
    return np.zeros(table.n_classes, dtype=bool)


def test_inconsistent_table_exit_code(capsys, monkeypatch):
    # identity class matrices split nothing, so the table cannot be finished;
    # Galois masks fixing no row leave even the trivial character outside Q
    for owner, name, fake in ((chartable, "class_matrix", _identity_class_matrix),
                              (chartable.CharTable, "galois_fixed", _no_row_fixed)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, fake)
            code, out, err = run(capsys, "table", "S(3)")
        assert code == 3 and out == "", name
        assert err.startswith("error: ") and err.count("\n") == 1, name
        assert "Traceback" not in err, name


def test_corrupt_kernel_exits_3(capsys, monkeypatch):
    # chi_1 of A(5) made to take chi_1(1) on class 1 too: that kernel's order
    # no longer divides |G|, so no conclusion is read off the table
    def corrupt_table(group):
        table = chartable.compute_table(group)
        cells = table.cells.copy()
        cells[1, 1] = cells[1, 0]
        return dataclasses.replace(table, cells=cells)

    sizes = chartable.compute_table(chartab.construct("A(5)")).class_data.sizes
    assert 60 % (1 + sizes[1])
    monkeypatch.setattr(harness, "compute_table", corrupt_table)
    code, out, err = run(capsys, "check", "A(5)", "--json")
    assert (code, out) == (3, "")
    assert err == "error: internal inconsistency: a kernel's order must divide |G|\n"


def test_inconsistent_table_exit_code_optimized():
    script = (
        "import sys, numpy as np\n"
        "from chartab import chartable\n"
        "from chartab.cli import main\n"
        "chartable.class_matrix = lambda cd, i: np.eye(len(cd.reps), dtype=np.int64)\n"
        "sys.exit(main(['table', 'S(3)']))\n"
    )
    src = str(Path(chartab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
