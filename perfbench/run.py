"""choremarket benchmark: one workload per process, results as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload enum-seeds --seed 0 --seconds 20 --trace 0

Runs whole passes over the workload's operations until ``--seconds`` have
passed and at least ``MIN_OPS`` operations were measured, checks every
operation's output, and prints as the last line of standard output
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of an untraced run; ``--trace 1`` reports the per-layer
metrics of one traced pass, after untraced passes that give the tracing
overhead, and writes the spans under ``.perfbench_work/``.  The line before
the result carries the run's provenance (git sha, versions, ``nproc``,
package line count).
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP before anything imports numpy.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("enum-seeds", "solve-seeds", "gadgets-cli")
#: At least this many measured ops, so that ten latencies lie beyond p90.
MIN_OPS = 100
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60


def import_package():
    """Import ``choremarket`` from this checkout's ``src``, or exit with an error."""
    if not (SRC / "choremarket" / "__init__.py").is_file():
        sys.exit(f"error: no choremarket package under {SRC}")
    for path in (str(Path(__file__).resolve().parent), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import choremarket

    if Path(choremarket.__file__).resolve().parent != SRC / "choremarket":
        sys.exit(f"error: imported choremarket from {choremarket.__file__}")
    return choremarket


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs."""
    import_package()
    import workloads

    return workloads.build(workload, seed, workdir)


def setup_seconds(workload: str, seed: int, runs: int = SETUP_RUNS) -> float:
    """Median wall time of ``runs`` fresh processes doing only the set-up."""
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-only",
    ]
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls and rounds to ~50 ms.
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        samples.append(time.perf_counter() - start)
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, argv)
    return median(samples)


# ---------------------------------------------------------------------------
# Measuring


class Tally:
    """Latencies and verdicts of measured ops."""

    def __init__(self):
        self.latencies = []
        self.solved = 0
        self.failures = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_op(op, tally, tracer=None):
    from workloads import SOLVED, UNSOLVED

    if op.prepare is not None:
        op.prepare()
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crash
        out = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    try:
        verdict = op.check(out)
    except Exception as exc:  # a check that trips over the output fails the op
        verdict = f"check raised {type(exc).__name__}: {exc}"
    if tally is None:
        return
    tally.latencies.append(elapsed)
    if verdict == SOLVED:
        tally.solved += 1
    elif verdict != UNSOLVED:
        tally.failures.append(f"{op.name}: {verdict}")


def run_pass(ops, tally, tracer=None) -> float:
    """Run every op once; returns the summed op time."""
    gc.collect()
    before = sum(tally.latencies)
    for op in ops:
        run_op(op, tally, tracer)
    return sum(tally.latencies) - before


def run_passes(ops, tally, seconds: float, min_ops: int) -> list:
    """Whole passes until ``seconds`` of wall time and ``min_ops`` ops."""
    pass_times = []
    start = time.perf_counter()
    while True:
        pass_times.append(run_pass(ops, tally))
        if time.perf_counter() - start >= seconds and tally.attempted >= min_ops:
            return pass_times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally, pass_times, setup_s: float) -> dict:
    lat = tally.latencies
    per_pass = len(lat) / len(pass_times)
    return {
        "ops_per_s": {"value": median(per_pass / t for t in pass_times), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * median(lat), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * quantiles(lat, n=10)[8], "unit": "ms"},
        "solved_frac": {"value": tally.solved / len(lat), "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def layer_unit(name: str) -> str:
    metric = name.split(".", 1)[1]
    if metric == "s" or metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def measure(workload, seconds: float, trace: bool, min_ops: int = MIN_OPS):
    """One run of a built workload.

    Returns ``(tally, pass_times, None)`` untraced and ``(tally,
    layer_metrics, tracer)`` traced.
    """
    for op in workload.warmup:
        run_op(op, None)
    tally = Tally()
    if not trace:
        pass_times = run_passes(workload.ops, tally, seconds, min_ops)
        return tally, pass_times, None

    from tracer import Tracer

    untraced = run_passes(workload.ops, tally, seconds / 2, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload.ops, tally, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["trace.overhead_frac"] = traced / median(untraced) - 1.0
    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    return tally, metrics, tracer


# ---------------------------------------------------------------------------
# Provenance


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def pkg_loc() -> int:
    """Non-blank, non-comment lines under ``src/choremarket``."""
    count = 0
    for path in sorted((SRC / "choremarket").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
    return count


def provenance() -> dict:
    import networkx
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pkg_loc": pkg_loc(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and build the inputs, then exit (times setup_s)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            return 0
        import_package()
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
        workload = set_up(args.workload, args.seed, workdir)
        tally, measured, tracer = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = provenance()
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        ops_per_pass=len(workload.ops),
        samples=tally.attempted,
        solved=tally.solved,
    )
    for failure in tally.failures[:20]:
        print(f"failed op: {failure}", file=sys.stderr)
    if tracer is not None:
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json.gz", {"info": info})
    metrics = measured if args.trace else end_to_end(tally, measured, setup_s)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
