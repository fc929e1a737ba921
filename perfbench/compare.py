"""Compare two sets of benchmark runs, counting a change only where the
rescaled metric and the measured value move the same way.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER each hold the stdout of several ``run.py --trace 0`` runs,
one appended after another (``python3 perfbench/run.py ... >> before.txt``).
For each workload and end-to-end metric it prints the medians before and
after, the change of the rescaled metric and of the measured value (positive
is worse), and a verdict:

- ``worse`` or ``better``: both changes agree in direction, and the rescaled
  one is larger than the metric's bound in BENCHMARK.json;
- ``within bound``: both agree in direction, but the change is smaller;
- ``unclear``: they disagree, so the host, not qf, may have moved the figure.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict[str, list[tuple[dict, dict]]]:
    """{workload: [(rescaled metrics, measured values)]} from a file of run.py stdout."""
    runs: dict[str, list[tuple[dict, dict]]] = {}
    meta = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "metadata" in record:
            meta = record["metadata"]
        elif meta is not None and not meta["trace"]:
            values = {name: m["value"] for name, m in record["metrics"].items()}
            runs.setdefault(meta["workload"], []).append((values, {**values, **meta["measured"]}))
            meta = None
    return runs


def worse_by(before: float, after: float, better: str) -> float:
    """Relative change, positive when `after` is worse."""
    return after / before - 1 if better == "lower" else before / after - 1


def verdict(rescaled: float, measured: float, bound: float) -> str:
    if rescaled * measured < 0:
        return "unclear"
    if abs(rescaled) <= bound:
        return "within bound"
    return "worse" if rescaled > 0 else "better"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    print(f"{'workload':<14} {'metric':<14} {'runs':>5} {'before':>10} {'after':>10}"
          f" {'rescaled':>9} {'measured':>9}  verdict")
    for workload in sorted(before.keys() & after.keys()):
        a, b = before[workload], after[workload]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            changes = [worse_by(statistics.median(r[i][name] for r in a),
                                statistics.median(r[i][name] for r in b), metric["better"])
                       for i in (0, 1)]
            print(f"{workload:<14} {name:<14} {len(a):>2}/{len(b):<2}"
                  f" {statistics.median(r[0][name] for r in a):>10.4g}"
                  f" {statistics.median(r[0][name] for r in b):>10.4g}"
                  f" {changes[0]:>+9.1%} {changes[1]:>+9.1%}  "
                  f"{verdict(changes[0], changes[1], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
