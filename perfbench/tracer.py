"""Span tracer that splits a pass's host time across the ``src/repro`` layers.

Nothing here edits the simulator: :meth:`Tracer.install` replaces each
layer's public entry points (listed in :data:`ENTRY_POINTS`) with
wrappers at run time and :meth:`Tracer.uninstall` puts the originals
back.  Each wrapper records one span -- name, start, end and parent --
into flat in-memory arrays; nothing is written until the pass ends.

Three kinds of span cover a pass:

* **calls** of the wrapped entry points;
* **resumes** of simulation processes: every generator handed to
  ``Environment.process`` is wrapped so each resume is a span of the
  layer whose code runs (a ``SimThread`` runs its workload's body);
* **imports**: ``builtins.__import__`` is wrapped, so module execution
  counts to the module's layer (third-party modules count to no layer).

A layer's self time is the time of its spans minus the time of their
child spans.  Time outside every layer span, and the self time of spans
that belong to no layer, is ``unattributed``.

The tracer also keeps the modelled counters the benchmark reports
(events, LLC hits, DRAM and interconnect bytes, ...).  They are read
from the simulated machines themselves, so they are exact, and
:meth:`Tracer.install` with ``spans=False`` collects them without any
span wrapper, for the untraced side of the traced-vs-untraced check.

Sweep points that run in forked worker processes are traced in the
worker and shipped back through a per-worker JSON-lines file.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import importlib.util
import json
import os
import sys
import time
import weakref
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: The layers host time is split across: the packages under src/repro/.
LAYERS = ("sim", "memory", "interconnect", "pcie", "nic", "os_model",
          "device", "nvme", "workloads", "cluster", "experiments")

#: Pseudo-layer for the time a sweep caller spends blocked on results
#: from its worker processes (reported as ``experiments.wait_s``).
WAIT = "wait"

#: Each layer's public entry points, as ``module:Qualified.name``.  They
#: are the calls other layers (or the caller) make into the layer.  Tiny
#: helpers called hundreds of thousands of times a pass (the rate
#: estimator, DRAM's processor-sharing server, the per-link crossing
#: latency) are left unwrapped: a wrapper costs more than their body, and
#: their time counts to the layer that calls them.
ENTRY_POINTS: Dict[Optional[str], Tuple[str, ...]] = {
    "sim": (
        "repro.sim.engine:Environment.run",
        "repro.sim.engine:Environment.step",
        "repro.sim.resources:BandwidthServer.account",
        "repro.sim.resources:BandwidthServer.account_batch",
        "repro.sim.resources:BandwidthServer.account_many",
        "repro.sim.resources:BandwidthServer.transfer",
    ),
    "memory": (
        "repro.memory.system:MemorySystem.cpu_stream_read",
        "repro.memory.system:MemorySystem.cpu_stream_write",
        "repro.memory.system:MemorySystem.cpu_copy",
        "repro.memory.system:MemorySystem.cpu_read_fresh_dma",
        "repro.memory.system:MemorySystem.read_fresh_dma_line",
        "repro.memory.system:MemorySystem.dma_read_class",
        "repro.memory.system:MemorySystem.cacheline_read",
        "repro.memory.system:MemorySystem.cacheline_write",
        "repro.memory.system:MemorySystem.dma_write",
        "repro.memory.system:MemorySystem.dma_read",
    ),
    "interconnect": (
        "repro.interconnect.link:InterconnectLink.traverse",
        "repro.interconnect.link:InterconnectLink.probe_delay",
        "repro.interconnect.link:Interconnect.traverse",
        "repro.interconnect.link:Interconnect.round_trip",
        "repro.interconnect.link:Interconnect.loaded_round_trip_ns",
    ),
    "pcie": (
        "repro.pcie.fabric:PhysicalFunction.dma_write",
        "repro.pcie.fabric:PhysicalFunction.dma_read",
        "repro.pcie.fabric:PhysicalFunction.mmio_latency",
        "repro.pcie.fabric:PhysicalFunction.interrupt_latency",
    ),
    "nic": (
        "repro.nic.device:NicDevice.rx_deliver",
        "repro.nic.device:NicDevice.tx",
        "repro.nic.wire:EthernetWire.send",
    ),
    "os_model": (
        "repro.os_model.netstack:NetworkStack.rx_burst",
        "repro.os_model.netstack:NetworkStack.tx_burst",
        "repro.os_model.netstack:NetworkStack.latency_rx",
        "repro.os_model.netstack:NetworkStack.latency_tx",
        "repro.os_model.scheduler:Scheduler.spawn",
        "repro.os_model.thread:SimThread.compute",
        "repro.os_model.thread:SimThread.overlap",
        "repro.os_model.thread:SimThread.sleep",
    ),
    "device": (
        "repro.device.paths:DoorbellPath.ring",
        "repro.device.paths:CompletionPath.write_back",
        "repro.device.paths:CompletionPath.consume",
        "repro.device.paths:CompletionPath.interrupt",
    ),
    "nvme": (
        "repro.nvme.device:NvmeController.read",
        "repro.nvme.device:NvmeController.write",
        "repro.nvme.driver:NvmeDriver.submit_read",
        "repro.nvme.driver:NvmeDriver.submit_write",
    ),
    "workloads": (
        "repro.workloads.train:TrainGovernor.plan",
        "repro.workloads.train:TrainGovernor.observe",
    ),
    "cluster": (
        "repro.cluster.executor:run_fleet",
        "repro.cluster.server:run_fleet_server",
        "repro.cluster.clients:generate_block",
        "repro.cluster.merge:FleetResult.fingerprint",
        "repro.cluster.merge:FleetResult.summary",
    ),
    "experiments": (
        "repro.experiments.sweep:sweep_map",
        "repro.experiments.runners:run_tcp_stream",
        "repro.experiments.runners:run_pktgen",
        "repro.experiments.runners:run_tcp_rr",
    ),
    # Code outside the layers: its own time is unattributed, but the
    # span keeps it out of whichever layer span encloses it.
    None: (
        "repro.core.configurations:Testbed.__init__",
    ),
}

#: Counting hooks at the same boundaries: entry point -> (counter, the
#: positional index of the argument counted, its keyword name, and how
#: an argument value counts).
ARG_COUNTERS = {
    "repro.pcie.fabric:PhysicalFunction.dma_write":
        ("pcie.dma_bytes", 2, "nbytes", int),
    "repro.pcie.fabric:PhysicalFunction.dma_read":
        ("pcie.dma_bytes", 2, "nbytes", int),
    "repro.nic.device:NicDevice.rx_deliver":
        ("nic.packets", 3, "npackets", int),
    "repro.nic.device:NicDevice.tx": ("nic.packets", 3, "npackets", int),
    "repro.cluster.clients:generate_block":
        ("cluster.clients", 2, "size", int),
    "repro.experiments.sweep:sweep_map":
        ("experiments.points", 1, "points", len),
}

_KIND_CALL, _KIND_RESUME, _KIND_IMPORT = 0, 1, 2


def layer_of_module(name: str) -> Optional[str]:
    parts = name.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def layer_of_file(filename: str) -> Optional[str]:
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return None
    head = filename[at + len(marker):].split(os.sep, 1)[0]
    return head if head in LAYERS else None


def _resolve(path: str):
    """``module:Qual.name`` -> (owner, attribute name, original object)."""
    module_name, qualname = path.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{path}: not defined on {owner.__name__}")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and modelled counters for one process."""

    def __init__(self, spans: bool = True, worker_dir: Optional[str] = None,
                 delays: Optional[Dict[str, float]] = None):
        self.spans = spans
        self.worker_dir = worker_dir
        #: entry point -> extra host seconds spent per call (sensitivity
        #: self-test only; never set by a measured run).
        self.delays = dict(delays or {})
        self.owner_pid = os.getpid()
        self.names: List[Tuple[str, Optional[str], int]] = []
        self._name_ids: Dict[Tuple[str, Optional[str], int], int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Dict[str, float] = {}
        self.plan_calls = 0
        self.plan_bursts = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._machines = weakref.WeakKeyDictionary()
        self._envs = weakref.WeakKeyDictionary()
        self._machine_snap: Dict[int, Tuple] = {}
        self._env_events: Dict[int, int] = {}
        self._serial = 0
        self.worker_summaries: List[dict] = []

    # ------------------------------------------------------------ spans

    def name_id(self, name: str, layer: Optional[str], kind: int) -> int:
        key = (name, layer, kind)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _span_wrapper(self, fn: Callable, nid: int,
                      after: Optional[Callable] = None,
                      delay_s: float = 0.0) -> Callable:
        ends = self.end
        push_id, push_parent = self.nid.append, self.parent.append
        push_start, push_end = self.start.append, ends.append
        stack = self.stack
        enter, leave = stack.append, stack.pop
        clock = time.perf_counter

        if after is None and not delay_s:
            def wrapper(*args, **kwargs):
                idx = len(ends)
                push_id(nid)
                push_parent(stack[-1])
                enter(idx)
                push_end(0.0)
                push_start(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    leave()
        else:
            def wrapper(*args, **kwargs):
                idx = len(ends)
                push_id(nid)
                push_parent(stack[-1])
                enter(idx)
                push_end(0.0)
                push_start(clock())
                try:
                    result = fn(*args, **kwargs)
                    if delay_s:
                        _spin(delay_s)
                    if after is not None:
                        after(args, kwargs, result)
                    return result
                finally:
                    ends[idx] = clock()
                    leave()
        return functools.wraps(fn)(wrapper)

    def _timed_generator(self, gen, nid: int):
        """Wrap a process generator so each resume is one span."""
        ids, parents = self.nid, self.parent
        starts, ends = self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        send, throw = gen.send, gen.throw
        value = None
        error = None
        while True:
            idx = len(ends)
            ids.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                event = send(value) if error is None else throw(error)
            except StopIteration as stop:
                ends[idx] = clock()
                stack.pop()
                return stop.value
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raise
            ends[idx] = clock()
            stack.pop()
            error = None
            try:
                value = yield event
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel
                value, error = None, exc

    # ----------------------------------------------------------- patching

    def _patch(self, owner, attr: str, new) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, fn, wrapper) -> None:
        """Patch a module-level function everywhere it was imported."""
        self._patch(module, attr, wrapper)
        for name, other in list(sys.modules.items()):
            if other is None or other is module or not (
                    name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(other).items()):
                if value is fn:
                    self._patch(other, key, wrapper)

    def _wrap_entry(self, path: str, layer: Optional[str]) -> None:
        owner, attr, original = _resolve(path)
        nid = self.name_id(path, layer, _KIND_CALL)
        after = None
        if path in ARG_COUNTERS:
            after = self._arg_counter(*ARG_COUNTERS[path])
        if path == "repro.workloads.train:TrainGovernor.plan":
            after = self._count_plan
        if path == "repro.sim.engine:Environment.run":
            after = self._snapshot_env
        delay = self.delays.get(path, 0.0)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self._span_wrapper(
                original.__func__, nid, after, delay))
            self._patch(owner, attr, wrapped)
        elif isinstance(owner, type):
            self._patch(owner, attr, self._span_wrapper(
                original, nid, after, delay))
        else:
            self._patch_function(owner, attr, original, self._span_wrapper(
                original, nid, after, delay))

    def _arg_counter(self, counter: str, index: int, keyword: str,
                     measure: Callable):
        counters = self.counters
        counters.setdefault(counter, 0)

        def after(args, kwargs, result):
            value = args[index] if len(args) > index else kwargs[keyword]
            counters[counter] += measure(value)
        return after

    def _count_plan(self, args, kwargs, k):
        self.plan_calls += 1
        self.plan_bursts += k

    def install(self) -> None:
        """Wrap every entry point (spans=True) or only the counter hooks."""
        import repro  # noqa: F401  (resolve every layer)
        from repro.experiments.base import all_experiment_names, get_experiment
        from repro.sim.engine import Environment
        from repro.topology.machine import Machine

        self._patch(Machine, "__init__",
                    self._registering_init(Machine.__init__))
        sweep = importlib.import_module("repro.experiments.sweep")
        self._patch_function(sweep, "_invoke", sweep._invoke,
                             self._worker_invoke(sweep._invoke))
        if not self.spans:
            run = Environment.__dict__["run"]
            snapshot = self._snapshot_env

            @functools.wraps(run)
            def counted_run(env, *args, **kwargs):
                try:
                    return run(env, *args, **kwargs)
                finally:
                    snapshot((env,), None, None)
            self._patch(Environment, "run", counted_run)
            return

        for layer, paths in ENTRY_POINTS.items():
            for path in paths:
                self._wrap_entry(path, layer)
        for name in all_experiment_names():
            cls = type(get_experiment(name))
            if "run" in cls.__dict__:
                self._wrap_entry(
                    f"{cls.__module__}:{cls.__qualname__}.run", "experiments")
        process = Environment.__dict__["process"]
        timed = self._timed_generator
        name_id = self.name_id

        @functools.wraps(process)
        def traced_process(env, generator, name=""):
            layer, label = _generator_origin(generator)
            if layer is not None:
                inner = generator
                generator = timed(inner, name_id(label, layer, _KIND_RESUME))
                generator.__name__ = inner.__name__
            return process(env, generator, name)
        self._patch(Environment, "process", traced_process)

        from concurrent.futures import Future
        self._patch(Future, "result", self._span_wrapper(
            Future.__dict__["result"],
            self.name_id("Future.result", WAIT, _KIND_CALL)))

    def install_import_spans(self) -> None:
        """Wrap ``builtins.__import__`` so module execution is traced."""
        original = builtins.__import__
        modules = sys.modules
        name_id = self.name_id
        spans = {}

        def traced_import(name, globals=None, locals=None, fromlist=(),
                          level=0):
            if level == 0 and name in modules and not fromlist:
                return original(name, globals, locals, fromlist, level)
            absolute = name
            if level:
                package = (globals or {}).get("__package__") or ""
                absolute = importlib.util.resolve_name(
                    "." * level + name, package)
            if absolute in modules and all(
                    hasattr(modules[absolute], item) for item in fromlist):
                return original(name, globals, locals, fromlist, level)
            wrapper = spans.get(absolute)
            if wrapper is None:
                wrapper = spans[absolute] = self._span_wrapper(
                    original, name_id("import " + absolute,
                                      layer_of_module(absolute), _KIND_IMPORT))
            return wrapper(name, globals, locals, fromlist, level)

        self._patches.append((builtins, "__import__", original))
        builtins.__import__ = traced_import

    def uninstall(self) -> bool:
        """Restore every patched attribute; True when all are restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(
            (owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)) is original
            for owner, attr, original in self._patches)
        self._patches.clear()
        return restored

    # ---------------------------------------------------- modelled state

    def _registering_init(self, init):
        machines = self._machines
        envs = self._envs

        @functools.wraps(init)
        def registering_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            self._serial += 1
            machines[machine] = self._serial
            if machine.env not in envs:
                self._serial += 1
                envs[machine.env] = (self._serial, [])
            envs[machine.env][1].append(weakref.ref(machine))
        return registering_init

    def _snapshot_env(self, args, kwargs, result) -> None:
        env = args[0]
        entry = self._envs.get(env)
        if entry is None:
            return
        serial, machine_refs = entry
        self._env_events[serial] = env.events_processed
        for ref in machine_refs:
            machine = ref()
            if machine is not None:
                self._snapshot_machine(machine)

    def _snapshot_machine(self, machine) -> None:
        memory = machine.memory
        links = memory.interconnect.links()
        self._machine_snap[self._machines[machine]] = (
            sum(llc.hits_bytes for llc in memory.llcs),
            sum(llc.miss_bytes for llc in memory.llcs),
            sum(d.read_bytes + d.write_bytes for d in memory.drams),
            sum(link.server.bytes_total for link in links),
            sum(link.server.busy_ns for link in links),
            len(links) * machine.env.now,
        )

    def model_counters(self) -> Dict[str, float]:
        for machine in list(self._machines.keys()):
            self._snapshot_machine(machine)
        for env, (serial, _refs) in list(self._envs.items()):
            self._env_events[serial] = env.events_processed
        snaps = list(self._machine_snap.values())
        totals = [sum(column) for column in zip(*snaps)] or [0] * 6
        hits, misses, dram, qpi_bytes, qpi_busy, qpi_span = totals
        return {
            "sim.events": sum(self._env_events.values()),
            "llc.hit_bytes": hits,
            "llc.miss_bytes": misses,
            "memory.dram_bytes": dram,
            "interconnect.bytes": qpi_bytes,
            "interconnect.busy_ns": qpi_busy,
            "interconnect.link_ns": qpi_span,
        }

    # ------------------------------------------------------------ workers

    def _worker_invoke(self, invoke):
        """Wrap the sweep's worker entry: in a worker process, trace the
        point on a fresh span buffer and ship its summary back."""
        tracer = self

        @functools.wraps(invoke)
        def worker_invoke(fn_path, params):
            if os.getpid() == tracer.owner_pid or tracer.worker_dir is None:
                return invoke(fn_path, params)
            tracer._reset_for_point()
            began = time.perf_counter()
            try:
                return invoke(fn_path, params)
            finally:
                window = time.perf_counter() - began
                summary = tracer.summary(window)
                summary["fanned_out_points"] = 1
                path = os.path.join(tracer.worker_dir,
                                    f"worker-{os.getpid()}.jsonl")
                with open(path, "a") as handle:
                    handle.write(json.dumps(summary) + "\n")
        return worker_invoke

    def _reset_for_point(self) -> None:
        for column in (self.nid, self.parent, self.start, self.end):
            del column[:]
        del self.stack[1:]
        for key in self.counters:
            self.counters[key] = 0
        self.plan_calls = self.plan_bursts = 0
        self._machines.clear()
        self._envs.clear()
        self._machine_snap.clear()
        self._env_events.clear()

    def absorb_workers(self) -> None:
        """Fold the summaries shipped back by worker processes."""
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return
        for entry in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, entry)) as handle:
                self.worker_summaries.extend(
                    json.loads(line) for line in handle if line.strip())

    # ------------------------------------------------------------ summary

    def summary(self, window_s: float) -> dict:
        """Per-layer self time and calls, counters and conservation data
        for this process's spans over a window of ``window_s`` seconds."""
        import numpy as np

        count = len(self.end)
        names = self.names
        layer_index = {layer: i for i, layer in enumerate(LAYERS + (WAIT,))}
        nlayers = len(layer_index)
        self_by_layer = [0.0] * nlayers
        calls_by_layer = [0] * nlayers
        negative = 0
        top_total = 0.0
        unattributed_spans = 0.0
        name_calls: Dict[str, int] = {}
        if count:
            nid = np.frombuffer(self.nid, dtype=np.int32)
            parent = np.frombuffer(self.parent, dtype=np.int32)
            duration = (np.frombuffer(self.end, dtype=np.float64)
                        - np.frombuffer(self.start, dtype=np.float64))
            nested = parent >= 0
            child_time = np.bincount(parent[nested],
                                     weights=duration[nested],
                                     minlength=count)
            own = duration - child_time
            negative = int(np.count_nonzero(own < -1e-6))
            own = np.maximum(own, 0.0)
            top_total = float(duration[~nested].sum())
            name_layer = np.array(
                [layer_index.get(layer, nlayers) for _n, layer, _k in names],
                dtype=np.int64)
            name_is_call = np.array([kind != _KIND_IMPORT
                                     for _n, _l, kind in names])
            span_layer = name_layer[nid]
            by_layer = np.bincount(span_layer, weights=own,
                                   minlength=nlayers + 1)
            self_by_layer = [float(v) for v in by_layer[:nlayers]]
            unattributed_spans = float(by_layer[nlayers])
            per_name = np.bincount(nid, minlength=len(names))
            for i, (name, layer, kind) in enumerate(names):
                if per_name[i]:
                    name_calls[name] = int(per_name[i])
            calls = np.bincount(span_layer[name_is_call[nid]],
                                minlength=nlayers + 1)
            calls_by_layer = [int(v) for v in calls[:nlayers]]
        result = {
            "window_s": window_s,
            "self_s": dict(zip(LAYERS + (WAIT,), self_by_layer)),
            "calls": dict(zip(LAYERS + (WAIT,), calls_by_layer)),
            "unattributed_s": (window_s - top_total) + unattributed_spans,
            "negative_self_spans": negative,
            "spans": count,
            "name_calls": name_calls,
            "counters": dict(self.counters),
            "plan_calls": self.plan_calls,
            "plan_bursts": self.plan_bursts,
        }
        result["counters"].update(self.model_counters())
        return result


def merged_summary(parent: dict, workers: List[dict]) -> dict:
    """Fold worker summaries into the parent process's summary."""
    merged = json.loads(json.dumps(parent))
    merged["fanned_out_points"] = 0
    for worker in workers:
        merged["window_s"] += worker["window_s"]
        merged["unattributed_s"] += worker["unattributed_s"]
        merged["negative_self_spans"] += worker["negative_self_spans"]
        merged["spans"] += worker["spans"]
        merged["plan_calls"] += worker["plan_calls"]
        merged["plan_bursts"] += worker["plan_bursts"]
        merged["fanned_out_points"] += worker["fanned_out_points"]
        for field in ("self_s", "calls", "counters", "name_calls"):
            for key, value in worker[field].items():
                merged[field][key] = merged[field].get(key, 0) + value
    return merged


def _generator_origin(generator) -> Tuple[Optional[str], str]:
    """(layer, label) of the code a process generator runs.

    A ``SimThread`` process runs ``SimThread._run``, which delegates to
    the thread's body, so its layer is the body's."""
    code = generator.gi_code
    frame = generator.gi_frame
    if code.co_name == "_run" and frame is not None:
        thread = frame.f_locals.get("self")
        body = getattr(thread, "body_fn", None)
        body_code = getattr(body, "__code__", None)
        if body_code is not None:
            code = body_code
    return layer_of_file(code.co_filename), "resume " + code.co_qualname


def _spin(seconds: float) -> None:
    """Busy-wait: the injected delay must cost host CPU time."""
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def inject_delays(delays: Dict[str, float]) -> None:
    """Slow each entry point by a busy-wait per call, without tracing
    (the untraced side of the sensitivity self-test)."""
    import repro  # noqa: F401
    for path, seconds in delays.items():
        owner, attr, original = _resolve(path)

        def delayed(*args, _fn=original, _s=seconds, **kwargs):
            result = _fn(*args, **kwargs)
            _spin(_s)
            return result
        setattr(owner, attr, functools.wraps(original)(delayed))
