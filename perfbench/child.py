"""One measured iteration of a workload, in a fresh interpreter.

    python3 perfbench/child.py --spawned-at T --workload NAME --seed N --trace 0|1
    python3 perfbench/child.py --spawned-at T --setup-only

run.py starts one of these per iteration and reads the JSON line it prints.
T is run.py's ``time.monotonic()`` just before the spawn.
A fresh interpreter per iteration is required: ``construct_cached`` and the
per-group table cache make a second in-process corpus run several times
faster than the first, so a warm process would measure the caches.

chartab is imported first, before anything of the benchmark's own, so that
``setup_s`` is interpreter start-up plus ``import chartab`` and nothing else.
"""

import os
import sys
import time

WARM = "chartab" in sys.modules
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import chartab  # noqa: E402

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import chartab.cli  # noqa: E402  (not imported by the package itself)
import numpy  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

# Membership oracle for uniform random permutations, per chain_query group.
QUERY_GROUPS = {"S(16)": "symmetric", "A(12)": "alternating", "S(10)": "symmetric",
                "SL(2,9)": "dense", "PSL(2,9)": "dense"}
QUERIES_PER_GROUP = 20_000     # half words in the generators, half uniform
WORD_LENGTH = 40


def relabel(group, rng: random.Random):
    """The group conjugated by a seeded permutation of its points.

    Built through the public constructors, so chartab sees new generators."""
    n = group.degree
    sigma = list(range(n))
    rng.shuffle(sigma)
    gens = []
    for g in group.generators:
        images = [0] * n
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        gens.append(chartab.Permutation(images))
    return chartab.PermGroup(gens, n)


def item_rng(seed: int, expr: str) -> random.Random:
    return random.Random(f"{seed}:{expr}")


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, item: str, ok: bool, detail: str = "wrong output") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{item}: {detail}")

    @contextlib.contextmanager
    def attempt(self, item: str):
        """Count an item that raises as attempted and failed."""
        try:
            yield
        except Exception as exc:  # a raising item is a failed item, the run goes on
            self.record(item, False, f"{type(exc).__name__}: {exc}")


# -- workloads: prepare(seed) runs before the clock, run(inputs, ...) inside it --

def prepare_corpus(seed):
    return None


def run_corpus(_inputs, tracer, out: Outcome) -> None:
    want = EXPECTED["corpus"]
    with out.attempt("corpus"):
        report, log = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(log):
            code = chartab.cli.main(["verify", "--corpus", "default", "--jobs", "1"])
        text = report.getvalue()
        doc = json.loads(text)
        got = {"exit_code": code,
               "num_groups": doc["num_groups"],
               "violations": doc["violations"],
               "sharpness_witnesses": len(doc["sharpness_witnesses"]),
               "report_sha256": hashlib.sha256(text.encode()).hexdigest()}
        out.record("corpus", got == want, f"got {got}")


def prepare_tables(seed):
    return seed


def run_tables(seed, tracer, out: Outcome) -> None:
    for expr, want in EXPECTED["tables"].items():
        if tracer is not None:
            tracer.item = expr
        with out.attempt(expr):
            group = relabel(chartab.construct(expr), item_rng(seed, expr))
            order = group.order()
            group.elements()
            classes = group.conjugacy_classes()
            table = chartab.compute_table(group)
            orthogonal = chartab.verify_orthogonality(table)
            doc = chartab.table_document(table)
            got = {"order": order, "exponent": classes.exponent,
                   "degrees": sorted(doc["degrees"]),
                   "class_sizes": sorted(c["size"] for c in doc["classes"])}
            out.record(expr, orthogonal and got == want,
                       f"orthogonal={orthogonal}, facts differ: {got != want}")


def prepare_chain_build(seed):
    return seed


def run_chain_build(seed, tracer, out: Outcome) -> None:
    for expr, want in EXPECTED["chain_build"].items():
        if tracer is not None:
            tracer.item = expr
        with out.attempt(expr):
            group = relabel(chartab.construct(expr), item_rng(seed, expr))
            got = group.order()
            out.record(expr, got == want, f"order {got} != {want}")
            del group


def _compose(p, q):
    """p then q, as chartab composes."""
    return tuple(map(q.__getitem__, p))


def _is_even(p) -> bool:
    seen, cycles = set(), 0
    for start in range(len(p)):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = p[x]
    return (len(p) - cycles) % 2 == 0


def _dense_set(gens, n: int) -> set:
    ident = tuple(range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def prepare_chain_query(seed):
    """Per group: a relabelled group with no chain yet, and (query, answer)."""
    inputs = []
    for index, (expr, kind) in enumerate(QUERY_GROUPS.items()):
        group = relabel(chartab.construct(expr), item_rng(seed, expr))
        n, half = group.degree, QUERIES_PER_GROUP // 2
        gens = [g.images for g in group.generators]
        rng = numpy.random.default_rng([seed, index])
        # words: row r composed with a random generator, WORD_LENGTH times
        words = numpy.tile(numpy.arange(n), (half, 1))
        gen_arr = numpy.array(gens)
        for _ in range(WORD_LENGTH):
            step = gen_arr[rng.integers(len(gens), size=half)]
            words = numpy.take_along_axis(step, words, axis=1)
        uniform = rng.random((half, n)).argsort(axis=1)
        dense = _dense_set(gens, n) if kind == "dense" else None
        queries = []
        for word, perm in zip(words.tolist(), uniform.tolist()):
            queries.append((word, True))
            if kind == "symmetric":
                queries.append((perm, True))
            elif kind == "alternating":
                queries.append((perm, _is_even(perm)))
            else:
                queries.append((perm, tuple(perm) in dense))
        inputs.append((expr, group, [(chartab.Permutation(p), m) for p, m in queries]))
    return inputs


def run_chain_query(inputs, tracer, out: Outcome) -> None:
    for expr, group, queries in inputs:
        if tracer is not None:
            tracer.item = expr
        with out.attempt(expr):
            group.order()
        for perm, member in queries:
            try:
                ok = (perm in group) == member
            except Exception as exc:  # as in Outcome.attempt, without its per-call cost
                out.record(expr, False, f"{type(exc).__name__}: {exc}")
                continue
            out.record(expr, ok, "wrong membership answer")


WORKLOADS = {
    "corpus": (prepare_corpus, run_corpus),
    "tables": (prepare_tables, run_tables),
    "chain_build": (prepare_chain_build, run_chain_build),
    "chain_query": (prepare_chain_query, run_chain_query),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if Path(chartab.__file__).resolve().parent != Path(SRC, "chartab").resolve():
        print(f"error: imported chartab from {chartab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # a timed run must start cold: nothing imported or cached chartab before it
    fresh = not WARM and chartab.construct_cached.cache_info().currsize == 0
    result = {"pid": os.getpid(), "fresh": fresh, "raw_setup_s": IMPORTED - args.spawned_at,
              "numpy": numpy.__version__}
    if not args.setup_only:
        prepare, run = WORKLOADS[args.workload]
        inputs = prepare(args.seed)
        # the part of peak_rss_mb that is imports and the benchmark's own inputs
        result["inputs_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.instrument()
        out = Outcome()
        if tracer is None:
            cal = Calibrator()
            cal.start()
            run(inputs, tracer, out)
            result["raw_wall_s"], result["wall_s"] = cal.stop()
        else:   # no calibration slices inside the spans
            start = time.perf_counter()
            run(inputs, tracer, out)
            result["raw_wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(attempted=out.attempted, failed=out.failed, errors=out.errors[:20])
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["items"] = {k: {"span_s": v["span_s"], "self_s": dict(v["self_s"])}
                               for k, v in tracer.items().items()}
            dump = HERE / "results" / f"spans-{args.workload}-seed{args.seed}.json"
            dump.parent.mkdir(exist_ok=True)
            dump.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "fields": ["name", "start", "end", "parent", "item"],
                                        "spans": tracer.spans,
                                        "counters": dict(tracer.counters)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
