"""Host-time attribution for the traced run, from outside the program.

The program is not changed.  For the traced run only, :class:`Tracing`
patches the public points where layer code is handed to the kernel and
charges the time spent there to the layer that owns the code:

* ``Simulator.spawn`` wraps the generator in a send/throw/close proxy and
  charges the generator's module;
* ``Node.handle`` charges the message handler's module;
* ``Simulator.call_at`` / ``call_after`` charge the callback's module.

It also wraps the plain public calls nested inside them (network send,
disk and CPU requests, Paxos submit, Treplica read, checkpoint snapshot
and restore, the TPC-W and 2PC actions, population).  A stack of open
frames gives each layer its self time: inclusive time minus the time of
attributed frames nested inside it.  Whatever the traced
``Simulator.run`` spends outside every frame is the kernel's own.

Every patched attribute is put back when the ``with`` block ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Dict, List, Tuple

#: Module prefix -> layer, first match wins.  ``kernel`` code is never
#: wrapped: its time is what remains after every other layer's.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.core", "kernel"),
    ("repro.sim.network", "net"),
    ("repro.sim.node", "net"),
    ("repro.sim.disk", "disk"),
    ("repro.sim.resource", "cpu"),
    ("repro.paxos", "paxos"),
    ("repro.treplica", "treplica"),
    ("repro.tpcw.rbe", "rbe"),
    ("repro.tpcw", "tpcw"),
    ("repro.load", "load"),
    ("repro.web", "web"),
    ("repro.resilience", "web"),
    ("repro.shard", "shard"),
)

#: Layers whose self times are reported (``rbe`` is folded into
#: ``load``; ``other`` holds harness, watchdogs, fault injection and the
#: observability code itself).
CHARGED_LAYERS = ("net", "disk", "cpu", "paxos", "treplica", "tpcw",
                  "web", "load", "rbe", "shard", "other")

#: Modules of the code that runs only because the traced run observes
#: itself (sampler ticks, span bookkeeping); timers it causes are left
#: out of the kernel count compared with the untraced run.
INSTRUMENTATION_MODULES = ("repro.obs", "repro.sim.trace")


@functools.lru_cache(maxsize=None)
def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _module_of(fn: Any) -> str:
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__module__", None) or ""


def _station_layer(station: Any) -> str:
    # A Disk serialises its I/O through a ServiceStation named "<disk>-io";
    # every other station is a node CPU.
    return "disk" if station.name.endswith("-io") else "cpu"


def owner_layer(fn: Any) -> str:
    """The layer charged for running callable ``fn``."""
    station = getattr(fn, "__self__", None)
    if station is not None and type(station).__name__ == "ServiceStation":
        return _station_layer(station)
    return layer_of_module(_module_of(fn))


class Attribution:
    """Self time per layer plus the counts and sums taken at the wraps."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.self_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.top_s = 0.0          # inclusive time of outermost frames
        self.events = 0           # timer callbacks fired
        self.current = "kernel"   # layer of the innermost open frame
        self._children: List[float] = []
        self.last_occupancy = 0.0

    def reset_times(self) -> None:
        """Forget self times taken before the kernel started running."""
        self.self_s.clear()
        self.top_s = 0.0

    def call(self, layer: str, key, fn, args, kwargs=None):
        """Run ``fn(*args)`` as a frame charged to ``layer``; ``key``
        names a counter whose call count and inclusive time are kept."""
        clock = self.clock
        children = self._children
        outer = self.current
        self.current = layer
        children.append(0.0)
        start = clock()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            elapsed = clock() - start
            nested = children.pop()
            self.current = outer
            self.self_s[layer] += elapsed - nested
            if children:
                children[-1] += elapsed
            else:
                self.top_s += elapsed
            if key is not None:
                self.count[key] += 1
                self.total[key + "_host_s"] += elapsed


class _Charged:
    """A callback whose run time is charged to its owner's layer."""

    __slots__ = ("fn", "layer", "attribution")

    def __init__(self, fn, layer, attribution):
        self.fn = fn
        self.layer = layer
        self.attribution = attribution

    def __call__(self, *args):
        return self.attribution.call(self.layer, None, self.fn, args)


class _Event(_Charged):
    """A timer callback: one kernel event when it fires.  Kernel-owned
    callbacks are only counted; their time stays the kernel's."""

    __slots__ = ()

    def __call__(self, *args):
        attribution = self.attribution
        attribution.events += 1
        if self.layer == "kernel":
            return self.fn(*args)
        return attribution.call(self.layer, None, self.fn, args)


class _ChargedGenerator:
    """Stands in for a process's generator; charges each resumption."""

    __slots__ = ("gen", "layer", "attribution")

    def __init__(self, gen, layer, attribution):
        self.gen = gen
        self.layer = layer
        self.attribution = attribution

    def send(self, value):
        return self.attribution.call(self.layer, None, self.gen.send,
                                     (value,))

    def throw(self, *exc):
        return self.attribution.call(self.layer, None, self.gen.throw, exc)

    def close(self):
        return self.attribution.call(self.layer, None, self.gen.close, ())


class Patches:
    """Attribute replacements that are all undone by :meth:`restore`."""

    def __init__(self) -> None:
        self.saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        # Only attributes the owner defines itself are patched, so that
        # restoring never leaves a copy shadowing an inherited one.
        self.saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)


class Tracing:
    """Context manager: patch the layer boundaries, restore on exit.

    ``sharded`` also wraps the 2PC actions and the sharded cluster's
    population call; it imports ``repro.shard``, which flat workloads
    never load.
    """

    def __init__(self, sharded: bool = False):
        self.sharded = sharded
        self.attribution = Attribution()
        self.patches = Patches()
        self.sends_by_layer: Dict[str, int] = defaultdict(int)
        self.instrumentation_timers = 0
        self._spawning_instrumentation = False
        # id -> instrumentation process; holding the process keeps its id
        # from being reused by a program process
        self._instrumentation_processes: Dict[int, Any] = {}
        self.sim = None
        self.run_wall_s = 0.0

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracing":
        try:
            self._install()
        except BaseException:
            self.patches.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.patches.restore()

    # ------------------------------------------------------------------
    def _charged(self, fn):
        layer = owner_layer(fn)
        if layer == "kernel":
            return fn
        return _Charged(fn, layer, self.attribution)

    def _event(self, fn):
        if isinstance(fn, _Event):
            return fn
        if isinstance(fn, _Charged):
            fn = fn.fn
        return _Event(fn, owner_layer(fn), self.attribution)

    def _count_timer(self, fn) -> None:
        if self._spawning_instrumentation or self._is_instrumentation(fn):
            self.instrumentation_timers += 1

    def _is_instrumentation(self, fn) -> bool:
        """True for a callback that exists only because the run observes
        itself: one from an instrumentation module, one resuming a process
        such a module spawned, or a closure over an instrumentation object
        (such as a span left open until a disk operation completes)."""
        if isinstance(fn, _Charged):
            fn = fn.fn
        if _module_of(fn).startswith(INSTRUMENTATION_MODULES):
            return True
        owner = getattr(fn, "__self__", None)
        if id(owner) in self._instrumentation_processes:
            return True
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            if type(value).__module__.startswith(INSTRUMENTATION_MODULES):
                return True
        return False

    def _install(self) -> None:
        from repro.harness import cluster as harness_cluster
        from repro.paxos.engine import PaxosEngine
        from repro.sim.core import Simulator
        from repro.sim.disk import Disk
        from repro.sim.network import Network
        from repro.sim.node import Node
        from repro.sim.resource import ServiceStation
        from repro.tpcw import actions as tpcw_actions
        from repro.tpcw.app import BookstoreApplication
        from repro.treplica.actions import Action
        from repro.treplica.runtime import TreplicaRuntime

        tracing = self
        attr = self.attribution
        count = attr.count
        total = attr.total
        patch = self.patches.set

        run = Simulator.run

        def traced_run(sim, until=None):
            tracing.sim = sim
            # The kernel profiler .observe() attaches times every event,
            # which would swell kernel.self_s; _Event counts events instead.
            sim.profiler = None
            attr.reset_times()
            start = attr.clock()
            try:
                return run(sim, until)
            finally:
                tracing.run_wall_s += attr.clock() - start
        patch(Simulator, "run", traced_run)

        spawn = Simulator.spawn

        def traced_spawn(sim, gen, name=""):
            count["kernel.processes"] += 1
            frame = getattr(gen, "gi_frame", None)
            module = frame.f_globals.get("__name__", "") if frame else ""
            layer = layer_of_module(module)
            if layer != "kernel":
                gen = _ChargedGenerator(gen, layer, attr)
            if not module.startswith(INSTRUMENTATION_MODULES):
                return spawn(sim, gen, name)
            tracing._spawning_instrumentation = True
            try:
                process = spawn(sim, gen, name)
            finally:
                tracing._spawning_instrumentation = False
            tracing._instrumentation_processes[id(process)] = process
            return process
        patch(Simulator, "spawn", traced_spawn)

        call_at = Simulator.call_at
        call_after = Simulator.call_after

        def traced_call_at(sim, when, fn, *args):
            count["kernel.timers_heap"] += 1
            tracing._count_timer(fn)
            return call_at(sim, when, tracing._event(fn), *args)
        patch(Simulator, "call_at", traced_call_at)

        def traced_call_after(sim, delay, fn, *args):
            # A non-zero delay reaches traced_call_at, which counts it.
            if delay == 0:
                count["kernel.timers_ready"] += 1
                tracing._count_timer(fn)
            return call_after(sim, delay, tracing._event(fn), *args)
        patch(Simulator, "call_after", traced_call_after)

        handle = Node.handle

        def traced_handle(node, port, fn):
            return handle(node, port, tracing._charged(fn))
        patch(Node, "handle", traced_handle)

        send = Network.send

        def traced_send(network, src, dst, port, payload, size_mb=0.0005,
                        trace=None):
            tracing.sends_by_layer[attr.current] += 1
            total["net.mb"] += size_mb
            return attr.call("net", "net.send", send,
                             (network, src, dst, port, payload, size_mb),
                             {"trace": trace})
        patch(Network, "send", traced_send)

        write = Disk.write
        read = Disk.read

        def traced_write(disk, size_mb):
            total["disk.write_mb"] += size_mb
            attr.last_occupancy = 0.0
            done = attr.call("disk", "disk.write", write, (disk, size_mb))
            total["disk.write_sim_s"] += attr.last_occupancy
            return done
        patch(Disk, "write", traced_write)

        def traced_read(disk, size_mb):
            total["disk.read_mb"] += size_mb
            return attr.call("disk", "disk.read", read, (disk, size_mb))
        patch(Disk, "read", traced_read)

        for name in ("write_object", "read_object"):
            patch(Disk, name, self._frame("disk", "disk." + name,
                                          getattr(Disk, name)))

        request = ServiceStation.request

        def traced_request(station, service_time, priority=0):
            layer = _station_layer(station)
            occupancy = service_time / station.speed
            if layer == "cpu":
                total["cpu.sim_s"] += occupancy
            else:
                attr.last_occupancy = occupancy
            return attr.call(layer, layer + ".request", request,
                             (station, service_time, priority))
        patch(ServiceStation, "request", traced_request)

        patch(PaxosEngine, "submit",
              self._frame("paxos", "paxos.submit", PaxosEngine.submit))
        patch(TreplicaRuntime, "read",
              self._frame("tpcw", "tpcw.read", TreplicaRuntime.read))
        patch(BookstoreApplication, "snapshot",
              self._frame("treplica", "treplica.snapshot",
                          BookstoreApplication.snapshot))
        patch(BookstoreApplication, "restore",
              self._frame("treplica", "treplica.restore",
                          BookstoreApplication.restore))
        self._patch_actions(tpcw_actions, Action, "tpcw")
        populates = [harness_cluster]
        if self.sharded:
            from repro.shard import cluster as shard_cluster
            from repro.shard import txn as shard_txn
            self._patch_actions(shard_txn, Action, "shard")
            populates.append(shard_cluster)
        for module in populates:
            patch(module, "populate", self._frame(
                "setup", "setup.populate", module.populate))

    def _frame(self, layer: str, key: str, fn):
        call = self.attribution.call

        @functools.wraps(fn)
        def framed(*args, **kwargs):
            return call(layer, key, fn, args, kwargs)
        return framed

    def _patch_actions(self, module, base, layer: str) -> None:
        for value in list(vars(module).values()):
            if (isinstance(value, type) and issubclass(value, base)
                    and value.__module__ == module.__name__
                    and "apply" in vars(value)):
                self.patches.set(value, "apply", self._frame(
                    layer, layer + ".apply", value.apply))
