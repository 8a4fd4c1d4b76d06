"""Benchmark of lielap on four exact-spectrum workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a lielap checkout; lielap is imported from `src/`.
A run measures rounds 0, 1, 2, ... of one workload for about T seconds,
each round in a fresh interpreter (`worker.py`) with one thread and without
LIE_LAP_THREADS, one round at a time.  Every output is checked by an
oracle of `oracles.py`, which shares no code with lielap.

With --trace 0 the run reports the end-to-end metrics, each the lower
median over its rounds: wall_s (time inside the calls into lielap),
setup_s (fresh interpreter to first call: imports and inputs) and
peak_rss_mb.  The processor speed of the 2-core x86-64 VM the bounds were
set on drifts by up to a quarter over tens of minutes, and a fixed
computation timed in the same process right after the calls
(`worker.calibration_s`) drifts with it, so wall_s and setup_s are each
round's times scaled by CALIBRATION_S over that round's calibration time:
seconds at a fixed processor speed.  The raw times are printed for every
round.  With --trace 1 every round runs twice on the same inputs,
untraced and then traced, and the run reports the per-layer figures of
`tracer.py` (lower medians over the traced rounds), the traced wall time
and the tracing overhead, traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it list the
metrics by name with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import inputs
from tracer import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectrum_generic", "spectrum_berger", "witness_spin4", "operator_products")
# a round takes a few seconds; a worker past this is hung
WORKER_TIMEOUT_S = 120
# the median time of worker.calibration_s on the machine where the bounds
# were set (2-core x86-64 VM, Python 3.11.7)
CALIBRATION_S = 0.21


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


def worker_env() -> dict:
    """One thread for numpy's BLAS and none of lielap's pool."""
    env = dict(os.environ)
    env.pop("LIE_LAP_THREADS", None)
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    return env


def run_round(root: Path, out_dir: Path, workload: str, seed: int, rnd: int, traced: bool) -> dict:
    inp = inputs.round_inputs(workload, seed, rnd)
    input_path = out_dir / f"round-{rnd}.in.json"
    input_path.write_text(json.dumps(inp))
    output = out_dir / f"round-{rnd}-{int(traced)}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(input_path), str(output),
           "1" if traced else "0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"round {rnd} of {workload} ran past {WORKER_TIMEOUT_S} s") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker for round {rnd} of {workload} exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if "argv" in inp and not rec["failed"]:
        rec["problems"] += inputs.check_output(workload, inp, json.loads(output.read_text()))
    output.unlink(missing_ok=True)
    input_path.unlink()
    return rec


def measure(root: Path, out_dir: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Whole rounds until the next one, at the median round time so far,
    would end past `seconds`; a traced run's round is an untraced and a
    traced pass over the same inputs."""
    start = perf_counter()
    rounds, durations = [], []
    while True:
        t = perf_counter()
        rnd = len(rounds)
        passes = (False, True) if trace else (False,)
        rounds.append([run_round(root, out_dir, workload, seed, rnd, p) for p in passes])
        durations.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return rounds


def summarize(rounds, trace: bool) -> dict:
    records = [rec for passes in rounds for rec in passes]
    plain = [passes[0] for passes in rounds]

    def lower_median(recs, key):
        return statistics.median_low([r[key] for r in recs])

    def calibrated(recs, key):
        return statistics.median_low([r[key] * CALIBRATION_S / r["calibration_s"] for r in recs])

    if trace:
        traced = [passes[1] for passes in rounds]
        metrics = {
            name: {"value": statistics.median_low([r["layers"][name] for r in traced]), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
        traced_wall = lower_median(traced, "wall_s")
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - lower_median(plain, "wall_s"), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": calibrated(plain, "wall_s"), "unit": "s"},
            "setup_s": {"value": calibrated(plain, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": lower_median(plain, "peak_rss_mb"), "unit": "MB"},
        }
    problems = [p for r in records for p in r["problems"]]
    for p in problems:
        print(f"wrong output: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lielap" / "__init__.py").is_file():
        print(f"error: {root} holds no src/lielap; run from the root of a lielap checkout",
              file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the oracles parse certificate values of any size
    out_dir = root / ".perfbench_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        rounds = measure(root, out_dir, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    result = summarize(rounds, bool(args.trace))
    for rnd, passes in enumerate(rounds):
        print(f"round {rnd}: " + "; ".join(
            f"wall_s {r['wall_s']:.4f} setup_s {r['setup_s']:.4f} "
            f"calibration_s {r['calibration_s']:.4f} peak_rss_mb {r['peak_rss_mb']:.1f}"
            for r in passes))
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
