"""Spawn workload passes and turn their records into metric samples.

Every pass runs in a fresh interpreter (``child.py``), the way a user
runs the simulator, so no pass inherits another's warm caches, heap or
worker pool.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PINNED = os.path.join(HERE, "pinned.json")

sys.path.insert(0, HERE)
from calibration import REFERENCE_S_PER_ITERATION, seconds_per_iteration  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import CASES  # noqa: E402

#: A pass that runs longer than this is killed and counts as failed.
PASS_TIMEOUT_S = 150


def pass_cpus(workload: str) -> Set[int]:
    """The CPUs a pass of ``workload`` runs on.

    On shared hosts each CPU drifts between speeds on its own (one can
    run the calibration loop in 19 ms while the other takes 31 ms), so a
    single-process pass is pinned to one CPU and calibrated there.  The
    fleet's worker processes use every CPU, and it is calibrated on each.
    """
    allowed = os.sched_getaffinity(0)
    if CASES[workload].USES_WORKERS:
        return set(allowed)
    return {max(allowed)}


def calibrate(cpus: Set[int]) -> float:
    """Mean host seconds per calibration-loop iteration over ``cpus``,
    pinned to each in turn."""
    saved = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(seconds_per_iteration())
    finally:
        os.sched_setaffinity(0, saved)
    return statistics.fmean(times)


def run_pass(workload: str, seed: int, mode: str, jobs: int, scratch: str,
             delays: Optional[Dict[str, float]] = None) -> dict:
    """Run one pass in a fresh interpreter and return its record, with
    ``t_spawn`` (monotonic) and the pass's host-to-reference ``scale``
    added and ``error`` set on any failure.

    The interval from spawn to the child's first calibration sample is
    scaled by a calibration taken here, on the pass's CPUs, just before
    the spawn; the child scales the rest (see calibration.py)."""
    cpus = pass_cpus(workload)
    args = [sys.executable, CHILD, workload, str(seed), mode, str(jobs),
            scratch]
    args += [f"{path}={seconds!r}" for path, seconds in
             sorted((delays or {}).items())]
    # The benchmark fixes the simulator's settings itself: no REPRO_*
    # override from the caller's environment may change a workload.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    calibration = calibrate(cpus)
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # the child inherits the pinning
    try:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(args, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
    finally:
        os.sched_setaffinity(0, saved)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return {"t_spawn": t_spawn,
                "error": f"pass exceeded {PASS_TIMEOUT_S} s"}
    # Stop anything the pass left behind (its sweep workers).
    _kill_group(proc.pid)
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except ValueError:
        record = {}
    record["t_spawn"] = t_spawn
    record["spawn_scale"] = REFERENCE_S_PER_ITERATION / calibration
    if CASES[workload].USES_WORKERS and "sim_host_s" in record:
        # The child cannot sample beside its workers, and its own samples
        # read one CPU while the workers use all: scale the simulation by
        # calibrations on every CPU before and after the pass as well.
        speeds = [calibration, calibrate(cpus), *record["bracket_samples"]]
        record["sim_ref_s"] = (record["sim_host_s"]
                               * REFERENCE_S_PER_ITERATION
                               / statistics.fmean(speeds))
    if proc.returncode != 0 and "error" not in record:
        record["error"] = f"exit {proc.returncode}: {stderr[-2000:]}"
    elif not record.get("outputs") and "error" not in record:
        record["error"] = f"no result: {stderr[-2000:]}"
    return record


def _kill_group(pgid: int) -> None:
    """Kill every process left in the pass's session and wait (up to a
    few seconds) until the group is gone."""
    deadline = time.monotonic() + 5.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------- metrics

def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end_sample(record: dict) -> Dict[str, float]:
    """One pass's end-to-end metrics, times in reference seconds."""
    setup_s = ((record["t_first_sample"] - record["t_spawn"])
               * record["spawn_scale"] + record["setup_ref_s"])
    sim_s = record["sim_ref_s"]
    return {
        "wall_s": setup_s + sim_s,
        "setup_s": setup_s,
        "sim_work_per_s": record["work"] / sim_s,
        "peak_rss_mb":
            (record["rss_kb"] + record["children_rss_kb"]) / 1024.0,
    }


def raw_sample(record: dict) -> Dict[str, float]:
    """The same pass's unscaled host times (less sampling)."""
    return {"host_setup_s": record["t_setup"] - record["t_spawn"],
            "host_sim_s": record["sim_host_s"],
            "samples": record["samples"]}


def sim_scale(record: dict) -> float:
    """Reference seconds per host second over the simulation."""
    return record["sim_ref_s"] / record["sim_host_s"]


def per_layer_sample(traced: dict, counted: dict) -> Dict[str, float]:
    """One traced pass's per-layer metrics; ``counted`` is the untraced
    pass it is paired with (for the tracing overhead)."""
    trace = traced["trace"]
    counters = trace["counters"]
    sample: Dict[str, float] = {}
    scale = sim_scale(traced)
    for layer in LAYERS:
        sample[f"{layer}.self_s"] = trace["self_s"][layer] * scale
        sample[f"{layer}.calls"] = trace["calls"][layer]
    sample["unattributed.self_s"] = trace["unattributed_s"] * scale
    sample["experiments.wait_s"] = trace["self_s"]["wait"] * scale
    sample["trace.overhead"] = (
        traced["window_host_s"] * scale
        / (counted["window_host_s"] * sim_scale(counted)))
    events = counters["sim.events"]
    packets = counters.get("nic.packets", 0)
    sample["sim.events"] = events
    sample["nic.packets"] = packets
    sample["sim.events_per_pkt"] = events / packets if packets else 0.0
    hits, misses = counters["llc.hit_bytes"], counters["llc.miss_bytes"]
    sample["memory.llc_hit_ratio"] = (hits / (hits + misses)
                                      if hits + misses else 0.0)
    sample["memory.dram_bytes"] = counters["memory.dram_bytes"]
    sample["interconnect.bytes"] = counters["interconnect.bytes"]
    link_ns = counters["interconnect.link_ns"]
    sample["interconnect.busy_share"] = (counters["interconnect.busy_ns"]
                                         / link_ns if link_ns else 0.0)
    sample["pcie.dma_bytes"] = counters.get("pcie.dma_bytes", 0)
    sample["workloads.bursts_per_train"] = (
        trace["plan_bursts"] / trace["plan_calls"]
        if trace["plan_calls"] else 0.0)
    sample["cluster.clients"] = counters.get("cluster.clients", 0)
    points = counters.get("experiments.points", 0)
    sample["experiments.points"] = points
    sample["experiments.fanned_out_points"] = trace["fanned_out_points"]
    sample["experiments.cache_hit_ratio"] = (
        counters.get("experiments.cache_hits", 0) / points if points else 0.0)
    return sample


def conservation_error(traced: dict) -> float:
    """|sum of self times + unattributed - traced wall| / traced wall,
    over the parent process and every worker point."""
    trace = traced["trace"]
    total = sum(trace["self_s"].values()) + trace["unattributed_s"]
    return abs(total - trace["window_s"]) / trace["window_s"]


# ------------------------------------------------------------ correctness

def load_pins() -> dict:
    with open(PINNED) as handle:
        return json.load(handle)


def expected_outputs(pins: dict, workload: str, seed: int) -> Optional[dict]:
    """The pinned outputs for (workload, seed), or None when the seed is
    not pinned.  A seed-invariant workload draws no random numbers on
    its simulated path, so every seed must reproduce the seed-0 pin."""
    entry = pins[workload]
    pinned = entry["seeds"].get(str(seed))
    if pinned is None and entry["seed_invariant"]:
        pinned = entry["seeds"]["0"]
    return pinned


def pass_problems(workload: str, seed: int, record: dict) -> List[str]:
    """Why a pass failed: an error, or outputs that are not correct."""
    if "error" in record:
        return [f"pass failed: {record['error']}"]
    expected = expected_outputs(load_pins(), workload, seed)
    return output_problems(workload, record["outputs"], expected)


def output_problems(workload: str, outputs: dict,
                    expected: Optional[dict]) -> List[str]:
    problems = []
    if expected is not None and outputs != expected:
        diff = {key: (outputs.get(key), expected.get(key))
                for key in sorted(set(outputs) | set(expected))
                if outputs.get(key) != expected.get(key)}
        problems.append(f"outputs differ from the pinned values: {diff}")
    if workload == "figs_quick" and not outputs.get("claims_pass"):
        problems.append(f"paper claims not met: {outputs.get('claims')}")
    if workload == "fleet_1m" and (outputs["served"] + outputs["lost"]
                                   != outputs["planned"]):
        problems.append("fleet served + lost != planned")
    return problems
