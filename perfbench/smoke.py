"""Smoke test of the benchmark harness at a tiny load.

    python3 perfbench/smoke.py

Checks that every metric named in ``BENCHMARK.json`` is emitted, with a
finite value, by the untraced and the traced run of each workload, and that
a corrupted reference ray turns its operation into a failed one.  Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run

#: Ops per workload at the smoke load: the cheapest few of each kind.
TINY = {"enum-seeds": 6, "solve-seeds": 6, "gadgets-cli": 8}


def check_metrics(metrics, specs, label):
    """Exactly the metrics of ``specs``, each with its unit and a finite value."""
    names = {m["name"] for m in specs}
    assert set(metrics) == names, f"{label}: differs by {sorted(set(metrics) ^ names)}"
    for spec in specs:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], f"{label}: {spec['name']} unit {got['unit']}"
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{label}: {spec['name']} = {value!r}"
        )


def check_workload(name, spec, workdir):
    import workloads

    load = workloads.build(name, 0, workdir)
    load.ops = load.ops[: TINY[name]]
    load.warmup = load.warmup[:1]

    tally, pass_times, _ = run.measure(load, seconds=0, trace=False, min_ops=1)
    assert not tally.failures, tally.failures
    metrics = run.end_to_end(tally, pass_times, run.setup_seconds(name, 0, runs=1))
    check_metrics(metrics, spec["end_to_end"], f"{name} untraced")

    tally, metrics, tracer = run.measure(load, seconds=0, trace=True, min_ops=1)
    assert not tally.failures, tally.failures
    check_metrics(metrics, spec["per_layer"], f"{name} traced")
    assert tracer.op_windows, f"{name}: traced pass recorded no ops"


def check_corrupted_reference():
    import workloads

    reference = workloads.load_reference()
    rays = reference["intro"]["rays"]
    assert rays and ["1/7", "6/7"] not in rays
    rays[0] = ["1/7", "6/7"]
    load = workloads.enum_seeds(0, reference)
    (intro,) = [op for op in load.ops if op.name == "intro"]
    tally = run.Tally()
    run.run_op(intro, tally)
    assert tally.attempted == 1 and tally.solved == 0, "corrupted op was solved"
    assert len(tally.failures) == 1, "corrupted reference ray was not a failed op"

    intact = workloads.enum_seeds(0)
    (intro,) = [op for op in intact.ops if op.name == "intro"]
    tally = run.Tally()
    run.run_op(intro, tally)
    assert tally.solved == 1 and not tally.failures, tally.failures


def main() -> int:
    run.import_package()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workdir = run.WORK / "smoke"
    try:
        for name in run.WORKLOADS:
            check_workload(name, spec, workdir / name)
            print(f"{name}: every metric emitted")
        check_corrupted_reference()
        print("corrupted reference ray counted as a failed op")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
