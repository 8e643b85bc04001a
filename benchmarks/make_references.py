"""Write ``references/<workload>.json`` from the program at this checkout.

    python3 benchmarks/make_references.py [workload ...]

Run it only when a workload's configuration changes, or when a change to
the program is meant to change its outputs; the benchmark compares every
operation against these files.
"""

from __future__ import annotations

import json
import sys

import run


def main(names) -> None:
    fm = run.import_package()
    run.REFERENCES.mkdir(exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]()
        workload.setup(fm)
        stored = {"config": workload.config(), "inputs": [workload.reference(i) for i in range(run.POOL)]}
        path = run.REFERENCES / f"{name}.json"
        path.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
