"""chartab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a checkout and measures chartab from its ``src/``.
Each iteration is a fresh interpreter (child.py), started back to back
(a closed loop with one client) until the next one would end after
``--seconds``.  Every output is checked; see README.md for the workloads,
the metrics and why they were chosen.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` iterations alternate untraced and
traced and it holds the per-layer metrics.  The exit code is 0 when every
output was correct, 1 when a check failed and 2 when the benchmark could not
run at all (for instance, no chartab sources next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_START_S, start_s
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "tables", "chain_build", "chain_query")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_MIN = 4              # start-ups that only import chartab, at least, per run
SETUP_MAX = 32             # ... and at most, filling the time the iterations leave
RUN_LIMIT_S = 170          # a run must end within 180 s, whatever --seconds says


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn(started: float, *args: str) -> dict:
    """Run one child iteration; returns the JSON object it printed."""
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError(f"run limit of {RUN_LIMIT_S} s reached")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    before = start_s()
    cmd = [sys.executable, str(HERE / "child.py"), "--spawned-at", repr(time.monotonic()),
           *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"iteration {' '.join(args)} passed the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"iteration {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # start-up calibrated by bare start-ups on either side of it (calibrate.py)
    result["setup_s"] = result["raw_setup_s"] * REF_START_S / ((before + start_s()) / 2)
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    spawn(started, "--setup-only")          # untimed: writes the bytecode caches
    one_setup = time.monotonic() - started
    reserve = SETUP_MIN * one_setup
    iters: list[dict] = []
    setups: list[dict] = []
    loop_start = time.monotonic()
    while True:
        traced = trace and len(iters) % 2 == 1
        it = spawn(started, "--workload", workload, "--seed", str(seed),
                   "--trace", str(int(traced)))
        it["traced"] = traced
        iters.append(it)
        # one start-up per iteration, so that setup_s samples the whole run
        setups.append(spawn(started, "--setup-only"))
        now = time.monotonic()
        per_iter = (now - loop_start) / len(iters)
        if (not trace or len(iters) >= 2) and now - started + per_iter + reserve > seconds:
            break
    # the time the iterations leave goes to more start-ups, so setup_s is a median of many
    while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and time.monotonic() - started + one_setup <= seconds):
        setups.append(spawn(started, "--setup-only"))

    plain = [it for it in iters if not it["traced"]]
    traced_iters = [it for it in iters if it["traced"]]
    samples = setups + iters
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    pids = [it["pid"] for it in samples]
    isolated = all(it["fresh"] for it in samples) and len(set(pids)) == len(pids)
    errors = [e for it in iters for e in it["errors"]]
    if not isolated:
        errors.append("an iteration ran in a warm process (chartab already imported)")

    e2e = {
        "wall_s": statistics.median(it["wall_s"] for it in plain),
        "setup_s": statistics.median(it["setup_s"] for it in samples),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
    }
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": failed == 0 and isolated, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "end_to_end": e2e,
        "samples": {"iterations": len(plain), "traced_iterations": len(traced_iters),
                    "setup": len(samples),
                    "wall_s": [it["wall_s"] for it in plain],
                    "raw_wall_s": [it["raw_wall_s"] for it in plain],
                    "setup_s": [it["setup_s"] for it in samples],
                    "raw_setup_s": [it["raw_setup_s"] for it in samples],
                    "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
                    "inputs_rss_mb": [it["inputs_rss_mb"] for it in plain]},
        "errors": errors[:20],
        "environment": environment(setups[0]["numpy"]),
    }
    if trace:
        layers = {m: statistics.median(it["layers"][m] for it in traced_iters)
                  for m in LAYER_METRICS if m != "bench.trace_overhead_s"}
        # uncalibrated on both sides: traced iterations run without slices
        layers["bench.trace_overhead_s"] = (
            statistics.median(it["raw_wall_s"] for it in traced_iters)
            - statistics.median(it["raw_wall_s"] for it in plain))
        result["per_layer"] = layers
        result["items"] = traced_iters[-1]["items"]
    return result


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit(), "src_sha256": source_digest()}


def commit() -> str:
    """The checkout's git commit, or 'unknown' when it is not a git tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 over the chartab sources, which names the code measured even
    in a checkout that is not a git tree."""
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "chartab"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and p.suffix != ".pyc"):
        digest.update(path.relative_to(pkg).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def final_line(result: dict) -> str:
    if result["trace"]:
        metrics = {m: {"value": result["per_layer"][m], "unit": unit}
                   for m, unit in LAYER_METRICS.items()}
    else:
        metrics = {m: {"value": result["end_to_end"][m], "unit": unit}
                   for m, unit in END_TO_END.items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def summary(result: dict) -> str:
    e2e = result["end_to_end"]
    lines = [f"{result['workload']} (seed {result['seed']}, "
             f"{result['samples']['iterations']} iterations):"]
    lines += [f"  {m} = {e2e[m]:.4f} {unit}" for m, unit in END_TO_END.items()]
    samples = result["samples"]
    lines.append(f"  (uncalibrated: wall_s {statistics.median(samples['raw_wall_s']):.4f} s, "
                 f"setup_s {statistics.median(samples['raw_setup_s']):.4f} s)")
    lines.append(f"  (peak_rss_mb before the clock, imports and inputs: "
                 f"{statistics.median(result['samples']['inputs_rss_mb']):.4f} MB)")
    lines.append(f"  failed_frac = {result['failed_frac']:.4f} "
                 f"({result['failed']} of {result['attempted']} items)")
    for m, v in result.get("per_layer", {}).items():
        lines.append(f"  {m} = {v:.6g} {LAYER_METRICS[m]}")
    lines += [f"  error: {e}" for e in result["errors"]]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chartab" / "__init__.py").is_file():
        print(f"error: no chartab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for res in results:
        path = out_dir / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        print(summary(res))
    print(json.dumps({"environment": results[0]["environment"]}))
    if args.workload != "all":
        print(final_line(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
