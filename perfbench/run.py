"""The repository's benchmark: host cost and dependability per workload.

    python3 perfbench/run.py --workload order-open-crash --seed 2009 \\
        --seconds 20 --trace 0

Each invocation runs one workload (see ``workloads.py``) in fresh,
sequential worker processes, never two at once:

1. one traced run (``.observe().trace().check_safety()`` plus the layer
   attribution of ``layers.py``), which feeds the correctness gate and,
   with ``--trace 1``, the per-layer metrics;
2. untraced timed runs, one per experiment seed derived from ``--seed``
   (``workloads.subseeds``), cycling through them again until
   ``--seconds`` have passed.  Host-time metrics are medians over every
   timed run, each scaled by the host speed measured beside it
   (``calibrate.py``); sim-domain metrics pool the first run of each seed.

Correctness gate (exit 1, naming the workload and the check): the
sim-domain digest is identical across every run; the traced run has no
safety violations; crash workloads complete a recovery; the sharded
workload commits a 2PC transaction; the WIRT p99 has at least 10 samples
beyond it.  ``attempted`` and ``failed`` in the result count worker runs.

Every metric is printed by name and unit, with the run's metadata, and
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S  # noqa: E402
from worker import summarize  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, subseeds  # noqa: E402

#: An invocation starts no worker after this long, and no worker may take
#: longer than its timeout, so that every invocation ends within 3 minutes.
LAUNCH_DEADLINE_S = 120.0
WORKER_TIMEOUT_S = 45.0
SCALE = "tiny"


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, bad declaration)."""


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_program() -> None:
    init = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(init):
        raise BenchmarkError(f"no program source at {os.path.dirname(init)}")


def run_worker(workload: str, seed: int, mode: str):
    """One fresh worker process; returns (result dict or None, error)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{mode} worker timed out after {WORKER_TIMEOUT_S:g} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, (f"{mode} worker exited {proc.returncode}: "
                      + " | ".join(tail))
    return json.loads(lines[-1]), None


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside git.  Git
    may not look above the checkout nor take its optional index lock."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_OPTIONAL_LOCKS="0")

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return sha, (None if status is None else bool(status))


def gate(workload, timed, traced):
    """The correctness checks; returns a list of failed-check messages.

    ``timed`` runs carry the experiment seed they ran with; ``traced`` ran
    with the first.  Every run of one experiment seed must produce the
    same digest."""
    failures = []
    digests = {}
    for run in [traced] + timed:
        digests.setdefault(run["seed"], set()).add(run["digest"])
    split = sorted(seed for seed, found in digests.items() if len(found) > 1)
    if split:
        failures.append(f"digest: runs of seed {split[0]} disagree on the "
                        f"sim-domain digest")
    if traced["safety_violations"]:
        failures.append(f"safety: {len(traced['safety_violations'])} "
                        f"violations, first: "
                        f"{traced['safety_violations'][0]}")
    if workload.crash:
        lost = [run["seed"] for run in [traced] + timed
                if run["sim"]["recoveries"] < 1]
        if lost:
            failures.append(f"recovery: no recovery completed with seed "
                            f"{lost[0]}")
    if workload.sharded and traced["txn_committed"] < 1:
        failures.append("2pc: no cross-shard transaction committed")
    beyond = pooled(timed)["wirt_p99_beyond"]
    if beyond < 10:
        failures.append(f"wirt_p99: only {beyond} samples beyond p99")
    if traced["unattributed_layers"]:
        failures.append(f"layers: time charged to undeclared layers "
                        f"{traced['unattributed_layers']}")
    if traced["layers"]["kernel.self_s"] < 0:
        failures.append(f"layers: negative kernel residual "
                        f"{traced['layers']['kernel.self_s']}")
    return failures


def pooled(timed):
    """Pooled sim-domain outcome of the first run of each experiment
    seed, so that it does not depend on how many runs fitted."""
    first = {}
    for run in timed:
        first.setdefault(run["seed"], run["sim"])
    return summarize(list(first.values()))


def normalized(run, seconds):
    """Host seconds scaled to the reference host speed (calibrate.py)."""
    return seconds * REFERENCE_S / run["calibration_s"]


def end_to_end(timed):
    median = statistics.median
    sim = pooled(timed)
    return {
        "wall_s_per_sim_s": median(normalized(r, r["run_wall_s"] / r["sim_s"])
                                   for r in timed),
        "setup_s": median(normalized(r, r["setup_s"]) for r in timed),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
        "awips": sim["awips"],
        "wirt_p50_s": sim["wirt_p50_s"],
        "wirt_p99_s": sim["wirt_p99_s"],
        "interactions": sim["interactions"],
        "accuracy_pct": sim["accuracy_pct"],
    }


def per_layer(timed, traced):
    median = statistics.median
    metrics = dict(traced["layers"])
    untraced = median(r["run_wall_s"] for r in timed
                      if r["seed"] == traced["seed"])
    metrics["trace.overhead_pct"] = 100.0 * (traced["run_wall_s"]
                                             / untraced - 1.0)
    metrics["host.raw_wall_s_per_sim_s"] = median(
        r["run_wall_s"] / r["sim_s"] for r in timed)
    metrics["host.calibration_s"] = median(r["calibration_s"] for r in timed)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report (metadata, "
                        "both metric sets, every run) as JSON to this path")
    args = parser.parse_args(argv)
    try:
        check_program()
        declared = declared_metrics()[args.trace]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sha, dirty = git_state()
    meta = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "host": platform.node(),
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "scale": SCALE,
    }

    seeds = subseeds(args.seed)
    started = time.monotonic()
    errors = []
    timed = []
    traced, error = run_worker(workload.name, seeds[0], "traced")
    attempted = 1
    failed = 0
    if error:
        errors.append(error)
        failed += 1
    measure_from = time.monotonic()
    while not errors and (
            len(timed) < len(seeds)
            or time.monotonic() - measure_from < args.seconds):
        if time.monotonic() - started > LAUNCH_DEADLINE_S:
            errors.append(f"only {len(timed)} timed runs fitted in "
                          f"{LAUNCH_DEADLINE_S:g} s")
            break
        run, error = run_worker(workload.name, seeds[len(timed) % len(seeds)],
                                "timed")
        attempted += 1
        if error:
            errors.append(error)
            failed += 1
        else:
            timed.append(run)
    failures = errors or gate(workload, timed, traced)
    meta["loadavg_end"] = os.getloadavg()
    meta["timed_runs"] = len(timed)
    if timed:
        meta["sim_s"] = timed[0]["sim_s"]

    metrics = {}
    report = {}
    if not failures:
        report = {"end_to_end": end_to_end(timed),
                  "per_layer": per_layer(timed, traced)}
        values = report["per_layer" if args.trace else "end_to_end"]
        missing = sorted(set(declared) - set(values))
        if missing:
            failures.append(f"metrics: not emitted: {missing}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared.items() if name in values}

    print("# meta " + json.dumps(meta))
    for name, metric in metrics.items():
        print(f"{workload.name:20s} {name:32s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    for failure in failures:
        print(f"perfbench: {workload.name}: check failed: {failure}",
              file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            for run in timed:
                del run["sim"]["latencies"]
            json.dump(dict(report, meta=meta, result=result, timed=timed,
                           traced=traced), fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
