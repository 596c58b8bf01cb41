"""The benchmark's four workloads, one pass each.

Every workload is a batch job: a closed loop with one caller that
builds its inputs from the seed, runs the simulation once and returns
its simulated outputs.  ``setup()`` covers imports and testbed or spec
construction; ``run()`` is the simulation; ``outputs()`` returns the
simulated results the correctness check compares, and ``work()`` the
simulated work items the pass delivered (packets, fleet transactions or
figure rows).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

#: Simulated length of one exact-tier pass: measurement window (ns); the
#: runners' 15% warmup and 1/5 drain slack apply, so 1.2 s is simulated.
EXACT_DURATION_NS = 1_000_000_000

FLEET_SERVERS = 8
FLEET_CONNECTIONS = 1_048_576


def default_jobs() -> int:
    """``nproc``: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class PktgenRemote:
    """Exact tier: pktgen, 256 B packets, server_core(0), remote testbed."""

    USES_WORKERS = False

    def __init__(self, seed: int, jobs: int):
        self.seed = seed

    def setup(self) -> None:
        from repro import Pktgen, Testbed
        from repro.experiments.runners import warmup_of, SLACK_DIVISOR
        duration = EXACT_DURATION_NS
        self.testbed = Testbed("remote", seed=self.seed, accuracy="exact")
        self.workload = Pktgen(self.testbed.server,
                               self.testbed.server_core(0), 256, duration,
                               warmup_of(duration))
        self.horizon = duration + duration // SLACK_DIVISOR

    def run(self) -> None:
        self.testbed.run(self.horizon)

    def work(self) -> int:
        return self.workload.meter.messages_total

    def outputs(self) -> dict:
        return {"events": self.testbed.env.events_processed,
                "packets": self.work(),
                "mpps": self.workload.mpps()}


class TcpRxIoctopus:
    """Exact tier: TCP_STREAM receiving 4 KiB messages, ioctopus testbed."""

    USES_WORKERS = False

    MESSAGE_BYTES = 4096

    def __init__(self, seed: int, jobs: int):
        self.seed = seed

    def setup(self) -> None:
        from repro import Flow, TcpStream, Testbed
        from repro.experiments.runners import warmup_of, SLACK_DIVISOR
        duration = EXACT_DURATION_NS
        self.testbed = Testbed("ioctopus", seed=self.seed, accuracy="exact")
        self.workload = TcpStream(self.testbed.server,
                                  self.testbed.server_core(0), Flow.make(0),
                                  self.MESSAGE_BYTES, "rx", duration,
                                  warmup_of(duration))
        self.horizon = duration + duration // SLACK_DIVISOR

    def run(self) -> None:
        self.testbed.run(self.horizon)

    def work(self) -> int:
        from repro.nic.packet import packets_for
        from repro.os_model.netstack import MSS
        return (self.workload.meter.messages_total
                * packets_for(self.MESSAGE_BYTES, MSS))

    def outputs(self) -> dict:
        return {"events": self.testbed.env.events_processed,
                "packets": self.work(),
                "gbps": self.workload.throughput_gbps()}


class FigsQuick:
    """``ioctopus-repro fig07 fig15 --fidelity quick`` with the CLI's
    default ``--jobs``.  The CLI takes no seed: these inputs are fixed."""

    USES_WORKERS = False

    ARGV = ["fig07", "fig15", "--fidelity", "quick"]

    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.results = []

    def setup(self) -> None:
        from repro.experiments.base import ExperimentResult
        from repro.experiments.cli import main
        self.main = main
        # Keep each printed result for the claim check (two calls a pass).
        table = ExperimentResult.table
        results = self.results

        def captured_table(result):
            results.append(result)
            return table(result)
        self._restore = (ExperimentResult, table)
        ExperimentResult.table = captured_table

    def run(self) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.main(list(self.ARGV))
        if status != 0:
            raise RuntimeError(f"CLI exited with {status}")
        self.printed = out.getvalue()

    def finish(self) -> None:
        owner, table = self._restore
        owner.table = table

    def work(self) -> int:
        return sum(len(result.rows) for result in self.results)

    def outputs(self) -> dict:
        from repro.analysis.claims import verify_result
        verdicts = [str(check) for result in self.results
                    for check in verify_result(result)]
        return {"tables_sha256":
                hashlib.sha256(self.printed.encode()).hexdigest(),
                "rows": self.work(),
                "claims": verdicts,
                "claims_pass": all(v.startswith("[PASS]") for v in verdicts)
                and len(verdicts) > 0}


class Fleet1M:
    """fig16's baseline spec: 8 servers x 1,048,576 connections through
    ``run_fleet`` at fig16's default tier, ``jobs`` worker processes."""

    USES_WORKERS = True

    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.jobs = jobs

    def setup(self) -> None:
        from repro.cluster import FleetSpec, run_fleet
        from repro.experiments import get_experiment
        self.run_fleet = run_fleet
        self.accuracy = get_experiment("fig16").accuracy()
        self.spec = FleetSpec(servers=FLEET_SERVERS,
                              connections=FLEET_CONNECTIONS,
                              config="ioctopus")

    def run(self) -> None:
        self.fleet = self.run_fleet(self.spec, master_seed=self.seed,
                                    accuracy=self.accuracy, jobs=self.jobs)

    def finish(self) -> None:
        from repro.experiments.sweep import shutdown_pool
        shutdown_pool()

    def work(self) -> int:
        return self.fleet.served

    def outputs(self) -> dict:
        summary = self.fleet.summary()
        return {"fingerprint": self.fleet.fingerprint(),
                "accuracy": self.accuracy,
                "served": summary["served"],
                "planned": summary["planned"],
                "lost": summary["lost"]}


CASES = {
    "pktgen_remote": PktgenRemote,
    "tcp_rx_ioctopus": TcpRxIoctopus,
    "figs_quick": FigsQuick,
    "fleet_1m": Fleet1M,
}
