"""Compare two saved result sets of the benchmark (``run.py --save``).

For every workload and metric it prints each side's median and
quartiles over the runs, then a verdict:

* ``improved``   -- the change wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the
  base's own quartile spread;
* ``worse``      -- the change's median is worse than the base's by
  more than the metric's bound (when the base's spread is wider than the
  bound, only if every change run is worse than every base run);
* ``unresolved`` -- the base's spread is wider than the bound, so no
  difference within it can be told (unless every change run beats
  every base run);
* ``no worse``   -- otherwise.

Runs pair by seed.  Only end-to-end metrics have bounds and verdicts;
per-layer metrics are printed for the trace story.  The overall verdict
is the worst row: worse, then unresolved, then improved, then no worse.
The exit status is 1 when the verdict is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional, Tuple

from passes import quartiles

PAIR_WIN_SHARE = 0.9


def load_set(directory: str) -> Dict[Tuple[str, int], Dict[int, dict]]:
    """(workload, trace) -> seed -> saved run."""
    runs: Dict[Tuple[str, int], Dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            run = json.load(handle)
        runs.setdefault((run["workload"], run["trace"]), {})[
            run["seed"]] = run
    return runs


def verdict(base: List[float], change: List[float], better: str,
            bound: float, pairs: List[Tuple[float, float]]) -> str:
    """One metric's verdict; ``pairs`` are (base, change) by seed."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if (pairs and wins >= PAIR_WIN_SHARE * len(pairs)
            and sign * (c_med - b_med) > (b_q3 - b_q1)):
        return "improved"
    worse_by = sign * (b_med - c_med) / abs(b_med) if b_med else 0.0
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    every_better = all(sign * (c - b) > 0 for c in change for b in base)
    every_worse = all(sign * (c - b) < 0 for c in change for b in base)
    if worse_by > bound and (spread <= bound or every_worse):
        return "worse"
    if spread > bound and not every_better:
        return "unresolved"
    return "no worse"


def compare_runs(base_runs: Dict[int, dict], change_runs: Dict[int, dict],
                 metrics: List[dict]) -> List[Tuple[str, str]]:
    """Print one workload's table; return (metric, verdict) rows."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        base = _values(base_runs, name)
        change = _values(change_runs, name)
        if not base or not change:
            continue
        b = quartiles(base)
        c = quartiles(change)
        row_verdict = "-"
        if "bound" in metric:
            pairs = [(_value(base_runs[s], name), _value(change_runs[s], name))
                     for s in sorted(set(base_runs) & set(change_runs))]
            pairs = [(x, y) for x, y in pairs if x is not None
                     and y is not None]
            row_verdict = verdict(base, change, metric["better"],
                                  metric["bound"], pairs)
            rows.append((name, row_verdict))
        print(f"  {name:32s} base {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}] "
              f"n{len(base):<3d} change {c[1]:12.6g} [{c[0]:.6g}, "
              f"{c[2]:.6g}] n{len(change):<3d} {metric['unit']:6s} "
              f"{row_verdict}")
    return rows


def _value(run: dict, name: str) -> Optional[float]:
    metric = run["result"]["metrics"].get(name)
    return None if metric is None else metric["value"]


def _values(runs: Dict[int, dict], name: str) -> List[float]:
    values = [_value(run, name) for _seed, run in sorted(runs.items())]
    return [v for v in values if v is not None]


def overall(verdicts: List[str]) -> str:
    for word in ("worse", "unresolved", "improved"):
        if word in verdicts:
            return word
    return "no worse"


def compare_dirs(base_dir: str, change_dir: str, spec: dict) -> int:
    base, change = load_set(base_dir), load_set(change_dir)
    verdicts = []
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        metrics = spec["per_layer" if trace else "end_to_end"]
        print(f"{workload} (trace {trace}): base {len(base[key])} runs, "
              f"change {len(change[key])} runs")
        for side, runs in (("base", base[key]), ("change", change[key])):
            failed = sorted(seed for seed, run in runs.items()
                            if not run["result"]["correct"])
            if failed:
                print(f"  {side} runs with failures: seeds {failed}")
                if side == "change":
                    verdicts.append("worse")
        rows = compare_runs(base[key], change[key], metrics)
        verdicts.extend(v for _name, v in rows)
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"only on one side: {missing}")
    result = overall(verdicts)
    print(f"verdict: {result}")
    return 1 if result == "worse" else 0
