"""Record the reference ray sets that gate the enum-seeds workload.

    python3 perfbench/record_reference.py

Enumerates every default-seed (seed 0) market of enum-seeds and writes its
condition verdict and exact equilibrium rays, as ``"num/den"`` strings, to
``reference_rays.json``.  The checked-in file was recorded from the seed
package; re-record only from a commit whose enumeration is trusted, since
the benchmark counts every later difference as a failed operation.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    cm = run.import_package()
    import workloads

    reference = {}
    for name, inst in workloads.market_instances(0):
        found = cm.enumerate_equilibria(inst)
        for e in found.equilibria:
            if not cm.verify_equilibrium(inst, e.candidate).ok:
                sys.exit(f"error: {name}: enumerated candidate fails verification")
        reference[name] = {
            "conditions_ok": cm.check_conditions(inst).ok,
            "rays": sorted(
                [f"{x.numerator}/{x.denominator}" for x in e.ray] for e in found.equilibria
            ),
        }
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(reference)} markets to {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
