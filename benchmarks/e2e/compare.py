"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py compare PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result records written by ``run.py
--results DIR``, one per run.  Runs pair up by workload, trace mode and
seed (the k-th run of a seed with the k-th on the other side).  For every
metric x workload this prints each side's median and quartiles, the share
of pairs the change wins (ties count for neither side) and a verdict:

* ``improved``: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile spread;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's interquartile spread, as a share of its
  median, exceeds the bound, unless every change run beats every parent run;
* ``within bound``: otherwise.  Per-layer metrics have no bound, so they
  are only ever ``improved`` or ``no claim``.

Exit status is 1 when any end-to-end metric regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def load(directory: str) -> Dict[Tuple[str, int, str], Dict[Tuple[int, int], float]]:
    """``{(workload, trace, metric): {(seed, k): value}}`` of one result set."""
    out: Dict[Tuple[str, int, str], Dict[Tuple[int, int], float]] = defaultdict(dict)
    seen: Dict[Tuple[str, int, int], int] = defaultdict(int)
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        run = (doc["workload"], doc["trace"], doc["seed"])
        k = seen[run]
        seen[run] += 1
        for name, metric in doc["metrics"].items():
            out[(doc["workload"], doc["trace"], name)][(doc["seed"], k)] = metric["value"]
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: List[float],
    change: List[float],
    pairs: List[Tuple[float, float]],
    better: str,
    bound: Optional[float],
) -> Tuple[str, int]:
    """``(verdict, pairs won by the change)`` under the module's rule."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", wins
    if bound is None:
        return "no claim", wins
    if -gain > bound * abs(pmed):
        return "regressed", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) > bound * abs(pmed) and not all_better:
        return "unresolved", wins
    return "within bound", wins


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    regressed = False
    header = (
        f"{'workload':14s} {'metric':24s} {'parent med [q1, q3]':>34s} "
        f"{'change med [q1, q3]':>34s} {'wins':>7s}  verdict"
    )
    print(header)
    for key in sorted(set(parent) & set(change)):
        workload, _, name = key
        if name not in kinds:
            continue
        common = sorted(set(parent[key]) & set(change[key]))
        pairs = [(parent[key][k], change[key][k]) for k in common]
        pv, cv = list(parent[key].values()), list(change[key].values())
        result, wins = verdict(pv, cv, pairs, kinds[name]["better"], kinds[name].get("bound"))
        regressed |= result == "regressed"
        p1, pm, p3 = quartiles(pv)
        c1, cm, c3 = quartiles(cv)
        print(
            f"{workload:14s} {name:24s} "
            f"{pm:12.5g} [{p1:9.4g}, {p3:9.4g}] {cm:12.5g} [{c1:9.4g}, {c3:9.4g}] "
            f"{wins:3d}/{len(pairs):<3d}  {result}"
        )
    return 1 if regressed else 0
