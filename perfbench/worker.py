"""Run one workload once, in this fresh process, and print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED timed|traced

``timed`` runs the experiment with no instrumentation; only
``Simulator.run`` is wrapped, once per run, to split set-up time from
kernel time, and the reference loop of :mod:`calibrate` is timed just
before and just after.  ``traced`` adds
``.observe().trace().check_safety()`` and the layer attribution of
:mod:`layers`.  Both report the sim-domain digest, which must be
identical for every run of one workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {SRC}")


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` samples."""
    return min(n, max(1, math.ceil(q * n)))


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[nearest_rank(len(sorted_values), q) - 1]


def sim_metrics(result):
    """One run's sim-domain outcome over the measurement window: the raw
    material of the end-to-end metrics, which pool several runs."""
    start, end = result.measure_start, result.measure_end
    window = [s for s in result.collector.samples if start <= s[1] < end]
    recovery = result.recovery_times()
    pv = result.pv_pct()
    return {
        "awips": result.whole_window().awips,
        "latencies": sorted(done - sent
                            for sent, done, _i, ok, _e in window if ok),
        "interactions": len(window),
        "errors": sum(1 for s in window if not s[3]),
        "recoveries": len(recovery),
        "recovery_s": sum(recovery) / len(recovery) if recovery else 0.0,
        "pv_pct": 0.0 if pv is None else pv,
    }


def summarize(sims):
    """Pool per-run sim outcomes: mean AWIPS and interactions per run,
    WIRT percentiles and accuracy over every interaction of every run."""
    latencies = sorted(x for sim in sims for x in sim["latencies"])
    attempted = sum(sim["interactions"] for sim in sims)
    errors = sum(sim["errors"] for sim in sims)
    return {
        "awips": sum(sim["awips"] for sim in sims) / len(sims),
        "wirt_p50_s": percentile(latencies, 0.50),
        "wirt_p99_s": percentile(latencies, 0.99),
        "wirt_p99_beyond": len(latencies) - nearest_rank(len(latencies),
                                                         0.99),
        "interactions": attempted / len(sims),
        "error_pct": 100.0 * errors / attempted if attempted else 0.0,
        "accuracy_pct": (100.0 * (attempted - errors) / attempted
                         if attempted else 0.0),
    }


def digest(result, kernel_timers: int) -> str:
    """Hash of every collector sample, the recovery list and the number of
    timers the program scheduled: any change in the modelled run shows."""
    h = hashlib.sha256()
    for sent, done, interaction, ok, error in result.collector.samples:
        h.update(f"{sent!r} {done!r} {interaction.value} {ok} {error}\n"
                 .encode())
    for event in result.recoveries:
        h.update(repr(sorted(event.items())).encode())
    h.update(f"timers {kernel_timers}".encode())
    return h.hexdigest()


def scheduled_timers(sim) -> int:
    # The kernel numbers every timer it schedules from one counter; the
    # next number is the count so far.  Read once, after the run.
    return next(sim._counter)


def run_timed(workload, seed):
    from calibrate import calibration_s
    from repro.sim.core import Simulator

    experiment = workload.experiment(seed)
    run = Simulator.run
    seen = {}

    def timed_run(sim, until=None):
        seen["sim"] = sim
        seen["run_start"] = time.perf_counter()
        try:
            return run(sim, until)
        finally:
            seen["run_end"] = time.perf_counter()

    Simulator.run = timed_run
    try:
        before = calibration_s()
        start = time.perf_counter()
        result = experiment.run()
        after = calibration_s()
    finally:
        Simulator.run = run
    sim = seen["sim"]
    timers = scheduled_timers(sim)
    return {
        "seed": seed,
        "calibration_s": (before + after) / 2,
        "setup_s": seen["run_start"] - start,
        "run_wall_s": seen["run_end"] - seen["run_start"],
        "sim_s": sim.now,
        "sim": sim_metrics(result),
        "digest": digest(result, timers),
    }


def run_traced(workload, seed):
    from layers import CHARGED_LAYERS, Tracing

    experiment = workload.experiment(seed).observe().trace().check_safety()
    with Tracing(sharded=workload.sharded) as tracing:
        result = experiment.run()
    attr = tracing.attribution
    timers = scheduled_timers(tracing.sim) - tracing.instrumentation_timers
    sim = sim_metrics(result)
    layers = layer_metrics(tracing, result, dict(sim, **summarize([sim])))
    del sim["latencies"]
    self_sum = sum(attr.self_s.get(layer, 0.0) for layer in CHARGED_LAYERS)
    return {
        "seed": seed,
        "run_wall_s": tracing.run_wall_s,
        "sim_s": tracing.sim.now,
        "sim": sim,
        "digest": digest(result, timers),
        "layers": layers,
        "attributed_s": self_sum,
        "unattributed_layers": sorted(set(attr.self_s) - set(CHARGED_LAYERS)
                                      - {"setup"}),
        "safety_violations": [str(v) for v in result.safety_violations],
        "txn_committed": result.metrics["counters"].get(
            "shard.txn_committed", 0),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracing, result, sim):
    """The per-layer metrics of one traced run."""
    attr = tracing.attribution
    self_s, count, total = attr.self_s, attr.count, attr.total
    counters = result.metrics["counters"]
    hist = result.metrics["histograms"]
    events = attr.events
    kernel_self = tracing.run_wall_s - attr.top_s
    sends = tracing.sends_by_layer
    all_interactions = len(result.collector.samples)
    decisions = counters.get("paxos.decisions", 0)
    fast = counters.get("paxos.fast_proposals", 0)
    txn_started = counters.get("shard.txn_started", 0)
    cpu_requests = count["cpu.request"]
    disk_writes = count["disk.write"]

    def hist_stat(name, stat):
        return hist.get(name, {}).get(stat, 0.0)

    metrics = {
        "kernel.self_s": kernel_self,
        "kernel.events": events,
        "kernel.timers_heap": count["kernel.timers_heap"],
        "kernel.timers_ready": count["kernel.timers_ready"],
        "kernel.processes": count["kernel.processes"],
        "kernel.us_per_event": 1e6 * _ratio(kernel_self, events),
        "net.self_s": self_s["net"],
        "net.messages": count["net.send"],
        "net.mb": total["net.mb"],
        "net.messages_per_interaction": _ratio(count["net.send"],
                                               all_interactions),
        "disk.self_s": self_s["disk"],
        "disk.writes": disk_writes,
        "disk.write_mb": total["disk.write_mb"],
        "disk.reads": count["disk.read"],
        "disk.read_mb": total["disk.read_mb"],
        "disk.write_sim_ms_mean": 1e3 * _ratio(total["disk.write_sim_s"],
                                               disk_writes),
        "cpu.self_s": self_s["cpu"],
        "cpu.requests": cpu_requests,
        "cpu.sim_ms_mean": 1e3 * _ratio(total["cpu.sim_s"], cpu_requests),
        "paxos.self_s": self_s["paxos"],
        "paxos.submits": count["paxos.submit"],
        "paxos.decisions": decisions,
        "paxos.batch_occupancy_mean": hist_stat("paxos.batch_occupancy",
                                                "mean"),
        "paxos.messages_per_decision": _ratio(sends["paxos"], decisions),
        "paxos.fast_success_ratio": (
            1.0 - _ratio(counters.get("paxos.fast_rejected", 0), fast)
            if fast else 0.0),
        "paxos.phase1_runs": counters.get("paxos.phase1_runs", 0),
        "treplica.self_s": self_s["treplica"],
        "treplica.applied_commands": counters.get(
            "treplica.applied_commands", 0),
        "treplica.apply_sim_ms_p50": 1e3 * hist_stat(
            "treplica.apply_latency_s", "p50"),
        "treplica.checkpoints": counters.get("treplica.checkpoints", 0),
        "treplica.checkpoint_host_s": total["treplica.snapshot_host_s"],
        "treplica.checkpoint_mb_mean": hist_stat(
            "treplica.checkpoint_size_mb", "mean"),
        "treplica.restore_host_s": total["treplica.restore_host_s"],
        "tpcw.self_s": self_s["tpcw"],
        "tpcw.applies": count["tpcw.apply"],
        "tpcw.apply_host_s": total["tpcw.apply_host_s"],
        "tpcw.reads": count["tpcw.read"],
        "tpcw.read_host_s": total["tpcw.read_host_s"],
        "web.self_s": self_s["web"],
        "web.proxy_forwarded": counters.get("web.proxy_forwarded", 0),
        "web.proxy_reroutes": counters.get("web.proxy_reroutes", 0),
        "web.proxy_no_backend": counters.get("web.proxy_no_backend", 0),
        "web.error_pct": sim["error_pct"],
        "load.self_s": self_s["load"] + self_s["rbe"],
        "load.requests_issued": sends["load"] + sends["rbe"],
        "load.open_self_s": self_s["load"],
        "load.open_requests_issued": sends["load"],
        "shard.self_s": self_s["shard"],
        "shard.router_hits": sum(v for k, v in counters.items()
                                 if k.startswith("shard.")
                                 and k.endswith(".router_hits")),
        "shard.txn_started": txn_started,
        "shard.txn_commit_ratio": _ratio(
            counters.get("shard.txn_committed", 0), txn_started),
        "other.self_s": self_s["other"],
        "setup.populate_s": total["setup.populate_host_s"],
    }
    shares = result.critical_path().bucket_quantiles()
    for bucket in ("queueing", "network", "disk", "quorum", "apply"):
        metrics[f"wirt.{bucket}_share_pct"] = shares[bucket]["share_pct"]
    phases = result.recovery_phases()
    for phase in ("detection", "checkpoint", "catchup", "replay"):
        metrics[f"recovery.{phase}_s"] = _ratio(
            sum(p["phases"][phase] for p in phases), len(phases))
    metrics["recovery.total_s"] = sim["recovery_s"]
    metrics["recovery.pv_pct"] = sim["pv_pct"]
    return metrics


def main(argv):
    if len(argv) != 3 or argv[2] not in ("timed", "traced"):
        raise SystemExit(__doc__)
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out = run_timed(workload, seed) if mode == "timed" else \
        run_traced(workload, seed)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
