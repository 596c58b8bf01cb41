"""One pass of one workload in a fresh interpreter.

Usage::

    python3 perfbench/child.py WORKLOAD SEED MODE JOBS SCRATCH [PATH=SECONDS ...]

MODE is ``plain`` (no hooks), ``counted`` (modelled counters only, no
spans) or ``traced`` (spans at every layer entry point).
``PATH=SECONDS`` injects a busy-wait of SECONDS into each call of the
entry point PATH (the benchmark's sensitivity self-test).

The pass takes calibration samples (calibration.py) when it starts,
when set-up ends and when the simulation ends, and, in ``plain`` mode
of a single-process workload, every 0.2 s in between; a sample never
runs inside a traced span or beside the fleet's workers.

The last line of standard output is one JSON object: monotonic clock
readings (CLOCK_MONOTONIC is shared by every process, so the parent can
subtract its spawn time), the set-up and simulation intervals in
reference seconds and in host seconds less sampling, the simulated
outputs, the work delivered, peak RSS and, for ``counted``/``traced``,
the tracer's summary.
"""

import time

T_MAIN = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from calibration import Sampler  # noqa: E402

SAMPLER = Sampler()
SAMPLER.sample()


def main(argv) -> dict:
    workload, seed, mode, jobs, scratch, *delay_args = argv
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    delays = {}
    for item in delay_args:
        path, seconds = item.rsplit("=", 1)
        delays[path] = float(seconds)

    from workloads import CASES
    case = CASES[workload](int(seed), int(jobs))
    periodic = mode == "plain" and not case.USES_WORKERS
    if periodic:
        SAMPLER.start()

    tracer = None
    if mode in ("counted", "traced"):
        from tracer import Tracer
        worker_dir = os.path.join(scratch, f"workers-{os.getpid()}")
        os.makedirs(worker_dir, exist_ok=True)
        tracer = Tracer(spans=(mode == "traced"), worker_dir=worker_dir,
                        delays=delays)
        if mode == "traced":
            tracer.install_import_spans()
        tracer.install()
    elif delays:
        from tracer import inject_delays
        inject_delays(delays)
    elif mode != "plain":
        raise ValueError(f"unknown mode {mode!r}")

    case.setup()
    t_setup = time.monotonic()
    SAMPLER.sample()
    bracket = [SAMPLER.samples[-1][2]]
    t_run = time.monotonic()
    case.run()
    t_end = time.monotonic()
    SAMPLER.sample()
    bracket.append(SAMPLER.samples[-1][2])
    if periodic:
        SAMPLER.stop()
    finish = getattr(case, "finish", None)
    if finish is not None:
        finish()

    first_start, first_end, _ = SAMPLER.samples[0]
    # Host time of the traced window, less the samples (which run
    # outside every span).
    window = (t_end - T_MAIN) - SAMPLER.sample_seconds(T_MAIN, t_end)
    record = {
        "t_main": T_MAIN, "t_first_sample": first_start,
        "t_setup": t_setup, "t_run": t_run, "t_end": t_end,
        "setup_ref_s": SAMPLER.reference_seconds(first_end, t_setup),
        "sim_ref_s": SAMPLER.reference_seconds(t_run, t_end),
        "sim_host_s": (t_end - t_run) - SAMPLER.sample_seconds(t_run, t_end),
        "window_host_s": window,
        "samples": len(SAMPLER.samples),
        "bracket_samples": bracket,
        "work": case.work(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_rss_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        from tracer import merged_summary
        summary = tracer.summary(window)
        tracer.absorb_workers()
        record["trace"] = merged_summary(summary, tracer.worker_summaries)
        record["unwrapped"] = tracer.uninstall()
        from repro.experiments.sweep import cache_stats
        record["trace"]["counters"]["experiments.cache_hits"] = \
            cache_stats()["hits"]
    record["outputs"] = case.outputs()
    return record


if __name__ == "__main__":
    try:
        result = main(sys.argv[1:])
    except Exception:  # reported to the parent, which counts the failure
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    sys.exit(1 if "error" in result else 0)
