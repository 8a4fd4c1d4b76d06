"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD INPUT OUTPUT TRACE SPAWNED

Run from the root of a lielap checkout; `run.py` starts it.  It imports
lielap from `src/`, reads the round's inputs from the JSON file INPUT,
makes the round's calls into lielap and prints one JSON line: setup_s
(from SPAWNED, the wall-clock time at which the parent started this
process, to the first call), wall_s (time inside the calls), peak_rss_mb,
calibration_s (measured after the calls, see `calibration_s`), attempted,
failed, problems found by the in-process oracle checks, and with TRACE=1
the per-layer figures.  A CLI workload writes its result to OUTPUT,
which `run.py` checks afterwards.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles


def calibration_s() -> float:
    """Time of a fixed pure-Python computation shaped like lielap's work
    (rational arithmetic, big integers, tuple-keyed dicts).  Run in the same
    process right after the measured calls, it tracks the speed the machine
    had for them."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 12000):
        acc += Fraction(i % 89 + 1, i % 97 + 1) * i
    x = 1
    for i in range(1, 9000):
        x = x * (3 * i + 1) % ((1 << 3000) - 1)
    table = {}
    for i in range(120000):
        table[i, i + 1] = [i, i * i]
    return perf_counter() - start


def run_cli(inp: dict, output: str, tracer, spawned: float) -> dict:
    from lielap import cli

    argv = inp["argv"] + ["--format", "json", "--output", output]
    setup_s = time.time() - spawned
    if tracer:
        tracer.install()
    start = perf_counter()
    try:
        failed = int(cli.main(argv) != 0)
    except Exception as e:  # the program crashed: one failed operation
        print(f"lielap {argv[0]} raised {e!r}", file=sys.stderr)
        failed = 1
    wall_s = perf_counter() - start
    return {"setup_s": setup_s, "wall_s": wall_s, "attempted": 1, "failed": failed, "problems": []}


def run_operator_products(inp: dict, tracer, spawned: float) -> dict:
    """build_DV over the Casimir labels, then over the generic labels; each
    matrix is checked as soon as it is built, outside the timed calls, and
    dropped, so that peak memory is the program's."""
    from lielap import operator
    from lielap.algebra_core import SymTensor, identity_tensor, preset
    from lielap.irreps import label

    rows = [[Fraction(x) for x in row] for row in inp["tensor"]]
    spec = preset("su2xsu2")

    def generic_check(entries, spins):
        return oracles.check_trace(entries, spins, rows) + oracles.check_weighted_hermitian(entries, spins)

    passes = [
        (identity_tensor(spec.dim), inp["casimir_labels"], oracles.check_casimir_scalar),
        (SymTensor(tuple(map(tuple, rows))), inp["generic_labels"], generic_check),
    ]
    passes = [(t, [(tuple(s), label(s)) for s in labs], check) for t, labs, check in passes]
    setup_s = time.time() - spawned
    if tracer:
        tracer.install()
    wall_s, attempted, failed, problems = 0.0, 0, 0, []
    for tensor, labs, check in passes:
        for spins, lab in labs:
            attempted += 1
            start = perf_counter()
            try:
                op = operator.build_DV(spec, lab, tensor)
            except Exception as e:  # the program failed on this label
                wall_s += perf_counter() - start
                print(f"build_DV {spins} raised {e!r}", file=sys.stderr)
                failed += 1
                continue
            wall_s += perf_counter() - start
            entries = {(i, j): (v.re, v.im) for i, j, v in op.matrix.entries()}
            problems += check(entries, spins)
    return {"setup_s": setup_s, "wall_s": wall_s, "attempted": attempted,
            "failed": failed, "problems": problems}


def main(argv: list[str]) -> int:
    workload, input_path, output, trace, spawned = argv[1:6]
    src = Path.cwd() / "src"
    sys.path.insert(1, str(src))
    import lielap

    if Path(lielap.__file__).resolve().parent != (src / "lielap").resolve():
        raise RuntimeError(f"imported lielap from {lielap.__file__}, not from {src}")
    inp = json.loads(Path(input_path).read_text())
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
    if workload == "operator_products":
        out = run_operator_products(inp, tracer, float(spawned))
    else:
        out = run_cli(inp, output, tracer, float(spawned))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # lielap's objects out of the collector's reach, so that the calibration
    # does not depend on how much the program left alive
    gc.collect()
    gc.freeze()
    out["calibration_s"] = calibration_s()
    if tracer:
        out["layers"] = tracer.values
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
