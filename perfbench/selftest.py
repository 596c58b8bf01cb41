"""Sensitivity self-test: does the benchmark catch a real regression?

The benchmark slows ``InterconnectLink.traverse`` from its own code (a
busy-wait per call; ``src/`` is not edited) so that pktgen_remote's
packets per host second should fall by 30%, then checks that

* ``pktgen_remote`` reads worse on ``sim_work_per_s`` (its packets per
  host second), because every remote DMA crosses the interconnect;
* ``tcp_rx_ioctopus`` does not, because its DMA stays local;
* the traced run attributes the added time to ``interconnect``.

Untraced passes with and without the delay alternate, so host noise hits
both sides alike.  Run it with ``python3 perfbench/run.py --selftest``.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List

from compare import verdict
from passes import (end_to_end_sample, pass_problems, per_layer_sample,
                    run_pass)
from tracer import LAYERS
from workloads import default_jobs

TARGET = "repro.interconnect.link:InterconnectLink.traverse"
#: The injected regression: the share by which pktgen_remote's
#: simulated packets per host second should fall.
SLOWDOWN = 0.30
#: Traced passes per side for the attribution check.
TRACED_PASSES = 2
METRIC = "sim_work_per_s"


def _traced_pair(seed: int, scratch: str, delays: Dict[str, float]):
    jobs = default_jobs()
    counted = run_pass("pktgen_remote", seed, "counted", jobs, scratch)
    traced = run_pass("pktgen_remote", seed, "traced", jobs, scratch, delays)
    for record in (counted, traced):
        problems = pass_problems("pktgen_remote", seed, record)
        if problems:
            raise RuntimeError("; ".join(problems))
    return counted, traced


def _alternate(workload: str, seed: int, seconds: float, scratch: str,
               delays: Dict[str, float]):
    """Alternate plain passes without and with the delay."""
    jobs = default_jobs()
    base: List[float] = []
    slow: List[float] = []
    began = time.monotonic()
    while len(base) < 3 or time.monotonic() - began < seconds:
        for side, extra in ((base, {}), (slow, delays)):
            record = run_pass(workload, seed, "plain", jobs, scratch, extra)
            problems = pass_problems(workload, seed, record)
            if problems:
                raise RuntimeError("; ".join(problems))
            side.append(end_to_end_sample(record)[METRIC])
    return base, slow


def selftest(seed: int, seconds: float, scratch: str, spec: dict) -> int:
    bound = {m["name"]: m for m in spec["end_to_end"]}[METRIC]["bound"]
    checks = []

    baseline = []
    sim_host_s = []
    for _ in range(TRACED_PASSES):
        counted, traced = _traced_pair(seed, scratch, {})
        baseline.append(per_layer_sample(traced, counted))
        calls = traced["trace"]["name_calls"][TARGET]
        sim_host_s.append(counted["sim_host_s"])
    # Rate falls by SLOWDOWN when time grows by 1 / (1 - SLOWDOWN).
    per_call = (statistics.fmean(sim_host_s) * (1 / (1 - SLOWDOWN) - 1)
                / calls)
    delays = {TARGET: per_call}
    injected = per_call * calls
    print(f"# injecting {per_call * 1e6:.3f} us into each of {calls} "
          f"{TARGET} calls ({injected:.3f} s a pass)")

    for workload, expect_worse in (("pktgen_remote", True),
                                   ("tcp_rx_ioctopus", False)):
        base, slow = _alternate(workload, seed, seconds, scratch, delays)
        pairs = list(zip(base, slow))
        result = verdict(base, slow, "higher", bound, pairs)
        flagged = result == "worse"
        ok = flagged == expect_worse
        checks.append(ok)
        print(f"{workload:16s} {METRIC} base {statistics.median(base):.6g} "
              f"delayed {statistics.median(slow):.6g} (n {len(base)}) -> "
              f"{result}; expected {'worse' if expect_worse else 'not worse'}"
              f": {'ok' if ok else 'FAIL'}")

    delayed = []
    for _ in range(TRACED_PASSES):
        counted, traced = _traced_pair(seed, scratch, delays)
        delayed.append(per_layer_sample(traced, counted))
    growth = {layer: statistics.median(s[f"{layer}.self_s"] for s in delayed)
              - statistics.median(s[f"{layer}.self_s"] for s in baseline)
              for layer in LAYERS}
    top = max(growth, key=growth.get)
    attributed = top == "interconnect" and growth[top] >= 0.5 * injected
    checks.append(attributed)
    print("self_s growth by layer: " + ", ".join(
        f"{layer} {value:+.3f}" for layer, value in
        sorted(growth.items(), key=lambda kv: -kv[1])[:4]))
    print(f"attribution: largest growth in {top} ({growth[top]:.3f} s of "
          f"{injected:.3f} s injected): {'ok' if attributed else 'FAIL'}")
    passed = all(checks)
    print(json.dumps({"selftest": "pass" if passed else "fail",
                      "injected_s_per_pass": injected,
                      "growth_s": growth}))
    return 0 if passed else 1
