"""The repository benchmark: simulator host time, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pktgen_remote --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fleet_1m --seed 3 --seconds 20 --trace 1 --save results/parent
    python3 perfbench/run.py --compare results/parent results/change
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --pin

A run repeats fresh-interpreter passes of one workload for ``--seconds``
(at least three) and reports medians.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Every
pass's simulated outputs are checked against ``perfbench/pinned.json``.
The last line of standard output is the JSON result.  See
``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from passes import (ROOT, PINNED, conservation_error, end_to_end_sample,  # noqa: E402
                    pass_problems, per_layer_sample, quartiles, raw_sample,
                    run_pass)
from workloads import CASES, default_jobs  # noqa: E402

SPEC = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src", "repro")
#: Passes per run, whatever ``--seconds`` says: medians need three.
MIN_PASSES = 3
#: Layer self times plus unattributed must sum to the traced wall within.
CONSERVATION_TOLERANCE = 0.01


def load_spec() -> dict:
    with open(SPEC) as handle:
        return json.load(handle)


def host_record() -> dict:
    import numpy
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": default_jobs(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "source_sha256": digest.hexdigest(),
            "machine": platform.machine()}


# ------------------------------------------------------------------ runs

class Budget:
    """Starts another pass only while it is expected to end within the
    run's seconds (the last pass's duration is the estimate), so a run
    never overshoots ``--seconds`` by a whole pass."""

    def __init__(self, seconds: float, minimum: int):
        self.deadline = time.monotonic() + seconds
        self.minimum = minimum
        self.started = 0
        self.last = 0.0
        self._began = 0.0

    def another(self) -> bool:
        now = time.monotonic()
        if self.started:
            self.last = now - self._began
        if self.started >= self.minimum and now + self.last > self.deadline:
            return False
        self.started += 1
        self._began = now
        return True


def timed_run(workload: str, seed: int, seconds: float, scratch: str):
    """Untraced passes for ``seconds``: end-to-end samples and problems."""
    jobs = default_jobs()
    samples: Dict[str, List[float]] = {}
    problems: List[str] = []
    failed = attempted = 0
    reference = None
    serial_check = CASES[workload].USES_WORKERS
    budget = Budget(seconds, MIN_PASSES + serial_check)
    if serial_check:
        # The outputs must not depend on the worker count: every pass at
        # jobs=nproc must match this one at jobs=1.
        attempted += 1
        budget.another()
        serial = run_pass(workload, seed, "plain", 1, scratch)
        issues = pass_problems(workload, seed, serial)
        if issues:
            failed += 1
            problems.extend(issues)
        else:
            reference = serial["outputs"]
    while budget.another():
        attempted += 1
        record = run_pass(workload, seed, "plain", jobs, scratch)
        issues = pass_problems(workload, seed, record)
        if not issues:
            if reference is None:
                reference = record["outputs"]
            elif record["outputs"] != reference:
                issues.append("outputs differ between passes of one seed "
                              "(or from the jobs=1 pass)")
        if issues:
            failed += 1
            problems.extend(issues)
            continue
        sample = end_to_end_sample(record)
        sample.update(raw_sample(record))
        for name, value in sample.items():
            samples.setdefault(name, []).append(value)
    return samples, attempted, failed, problems


def traced_run(workload: str, seed: int, seconds: float, scratch: str):
    """Pairs of untraced (counted) and traced passes for ``seconds``."""
    jobs = default_jobs()
    samples: Dict[str, List[float]] = {}
    problems: List[str] = []
    failed = attempted = 0
    budget = Budget(seconds, 1)
    while budget.another():
        attempted += 2
        counted = run_pass(workload, seed, "counted", jobs, scratch)
        traced = run_pass(workload, seed, "traced", jobs, scratch)
        issues = (pass_problems(workload, seed, counted)
                  + pass_problems(workload, seed, traced))
        if not issues:
            issues = trace_problems(counted, traced)
        if issues:
            failed += 2
            problems.extend(issues)
            continue
        for name, value in per_layer_sample(traced, counted).items():
            samples.setdefault(name, []).append(value)
    return samples, attempted, failed, problems


def trace_problems(counted: dict, traced: dict) -> List[str]:
    """The traced pass must be harmless (same outputs and events as the
    untraced one), clean up after itself, and be complete."""
    issues = []
    if traced["outputs"] != counted["outputs"]:
        issues.append("traced outputs differ from untraced outputs")
    events = (counted["trace"]["counters"]["sim.events"],
              traced["trace"]["counters"]["sim.events"])
    if events[0] != events[1]:
        issues.append(f"traced event count {events[1]} != untraced "
                      f"{events[0]}")
    if not (traced["unwrapped"] and counted["unwrapped"]):
        issues.append("a wrapper was left installed after the pass")
    if traced["trace"]["negative_self_spans"]:
        issues.append(f"{traced['trace']['negative_self_spans']} spans "
                      f"outlast their parent")
    error = conservation_error(traced)
    if error > CONSERVATION_TOLERANCE:
        issues.append(f"layer self times + unattributed miss the traced "
                      f"wall by {error:.2%}")
    return issues


# --------------------------------------------------------------- reports

def report(workload: str, seed: int, trace: bool, samples, attempted,
           failed, problems, host, spec) -> dict:
    metrics_spec = spec["per_layer" if trace else "end_to_end"]
    print(f"# workload {workload}  seed {seed}  trace {int(trace)}  "
          f"passes {attempted}  failed {failed}")
    print(f"# host {json.dumps(host, sort_keys=True)}")
    for problem in problems:
        print(f"# FAIL {problem}")
    # Samples kept beside the metrics: unscaled host times, sample
    # counts, and experiments.wait_s, which is 0 on every workload that
    # has no sweep workers.
    listed = {metric["name"] for metric in metrics_spec}
    extra = {name: statistics.median(values) for name, values in
             samples.items() if name not in listed}
    if extra:
        print("# other medians: " + "  ".join(
            f"{name} {value:.6g}" for name, value in sorted(extra.items())))
    metrics = {}
    for metric in metrics_spec:
        values = samples.get(metric["name"], [])
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        metrics[metric["name"]] = {"value": median, "unit": metric["unit"]}
        print(f"{metric['name']:34s} {median:16.6g} {metric['unit']:6s} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    correct = failed == 0 and len(metrics) == len(metrics_spec)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def save(directory: str, workload: str, seed: int, trace: bool, seconds,
         samples, result, host) -> None:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}.t{int(trace)}.s{seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "trace": int(trace),
                   "seconds": seconds, "host": host, "samples": samples,
                   "result": result}, handle, indent=1, sort_keys=True)


def pin(scratch: str) -> int:
    """Re-pin the simulated outputs (seeds 0 and 1) into pinned.json."""
    pins = {}
    for workload in CASES:
        seeds = {}
        for seed in (0, 1):
            record = run_pass(workload, seed, "plain", default_jobs(),
                              scratch)
            if "error" in record:
                print(record["error"], file=sys.stderr)
                return 1
            seeds[str(seed)] = record["outputs"]
        pins[workload] = {"seed_invariant": seeds["0"] == seeds["1"],
                          "seeds": seeds}
        print(f"{workload}: {json.dumps(seeds['0'])[:120]}")
    with open(PINNED, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CASES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="DIR",
                        help="also write the run's samples to DIR")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two directories of saved runs")
    parser.add_argument("--selftest", action="store_true",
                        help="check that an injected interconnect slowdown "
                             "is flagged and attributed")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the simulated outputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no simulator sources at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    if args.compare:
        from compare import compare_dirs
        return compare_dirs(args.compare[0], args.compare[1], spec)

    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.pin:
            return pin(scratch)
        if args.selftest:
            from selftest import selftest
            return selftest(args.seed, seconds, scratch, spec)
        if args.workload is None:
            parser.error("--workload is required")
        host = host_record()
        run = traced_run if args.trace else timed_run
        samples, attempted, failed, problems = run(
            args.workload, args.seed, seconds, scratch)
        result = report(args.workload, args.seed, bool(args.trace), samples,
                        attempted, failed, problems, host, spec)
        if args.save:
            save(args.save, args.workload, args.seed, bool(args.trace),
                 seconds, samples, result, host)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:  # other runs' scratch, or saved results, remain
            pass


if __name__ == "__main__":
    sys.exit(main())
