"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload once traced and twice untraced (about
45 s in all on a 2-core host).
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from layers import CHARGED_LAYERS, Tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def test_metric_names_and_units_are_well_formed():
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in END_TO_END.values():
        assert 0 < metric["bound"] <= 0.25
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in END_TO_END.values())


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for declared in SPEC["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why
        assert len(declared["why"]) <= 200 and "\n" not in declared["why"]


def test_tracing_restores_every_patched_attribute():
    with Tracing(sharded=True) as tracing:
        saved = list(tracing.patches.saved)
        assert saved
        for owner, name, original in saved:
            assert vars(owner)[name] is not original, (owner, name)
    for owner, name, original in saved:
        assert vars(owner)[name] is original, (owner, name)


def test_tracing_restores_on_error():
    with pytest.raises(RuntimeError):
        with Tracing() as tracing:
            saved = list(tracing.patches.saved)
            raise RuntimeError("boom")
    for owner, name, original in saved:
        assert vars(owner)[name] is original, (owner, name)


def _runs():
    """A timed and a traced run that pass the gate."""
    sim = {"awips": 100.0, "latencies": [0.1] * 2000, "interactions": 2000,
           "errors": 0, "recoveries": 1, "recovery_s": 5.0, "pv_pct": -1.0}
    timed = {"seed": 1, "digest": "d", "sim": sim}
    traced = {"seed": 1, "digest": "d", "sim": dict(sim),
              "safety_violations": [], "txn_committed": 1,
              "unattributed_layers": [], "layers": {"kernel.self_s": 0.5}}
    return timed, traced


@pytest.mark.parametrize("check, breaks", [
    ("digest", lambda timed, traced: timed.update(digest="other")),
    ("safety", lambda timed, traced: traced.update(
        safety_violations=["agreement: x"])),
    ("recovery", lambda timed, traced: timed["sim"].update(recoveries=0)),
    ("2pc", lambda timed, traced: traced.update(txn_committed=0)),
    ("wirt_p99", lambda timed, traced: timed["sim"].update(
        latencies=[0.1] * 900)),
    ("layers", lambda timed, traced: traced.update(
        layers={"kernel.self_s": -0.1})),
])
def test_gate_names_the_failed_check(check, breaks):
    workload = WORKLOADS["shop-sharded-crash"]
    timed, traced = _runs()
    assert run.gate(workload, [timed], traced) == []
    breaks(timed, traced)
    failures = run.gate(workload, [timed], traced)
    assert len(failures) == 1 and failures[0].startswith(check + ":")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "browse-closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module", params=list(WORKLOADS))
def smoke(request):
    """One workload run traced and twice untraced, each in a fresh worker
    process as the benchmark runs them."""
    workload = WORKLOADS[request.param]
    runs = []
    for mode in ("traced", "timed", "timed"):
        result, error = run.run_worker(workload.name, DEFAULT_SEED, mode)
        assert error is None, error
        runs.append(result)
    return workload, runs[1:], runs[0]


def test_smoke_run_repeats_its_digest_and_passes_the_gate(smoke):
    workload, timed, traced = smoke
    assert len({r["digest"] for r in timed + [traced]}) == 1
    assert run.gate(workload, timed, traced) == []


def test_every_declared_metric_is_emitted(smoke):
    _workload, timed, traced = smoke
    e2e = run.end_to_end(timed)
    layers = run.per_layer(timed, traced)
    assert set(e2e) == set(END_TO_END)
    assert set(layers) == set(PER_LAYER)
    for name, value in list(e2e.items()) + list(layers.items()):
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    for name, value in e2e.items():
        assert value > 0, name


def test_layer_metrics_apply_only_where_predicted(smoke):
    workload, timed, traced = smoke
    layers = run.per_layer(timed, traced)
    recovery = [v for k, v in layers.items() if k.startswith("recovery.")]
    shard = [v for k, v in layers.items() if k.startswith("shard.")]
    open_load = [layers["load.open_self_s"],
                 layers["load.open_requests_issued"]]
    assert all(v == 0 for v in recovery) == (not workload.crash)
    if workload.crash:
        assert layers["recovery.total_s"] > 0
        assert layers["recovery.checkpoint_s"] > 0
    assert all(v > 0 for v in shard) == workload.sharded
    assert all(v == 0 for v in shard) == (not workload.sharded)
    assert all(v > 0 for v in open_load) == workload.open_loop
    assert all(v == 0 for v in open_load) == (not workload.open_loop)


def test_layer_self_times_sum_to_the_traced_run(smoke):
    _workload, _timed, traced = smoke
    layers = traced["layers"]
    assert layers["kernel.self_s"] >= 0
    total = layers["kernel.self_s"] + traced["attributed_s"]
    assert total == pytest.approx(traced["run_wall_s"], rel=1e-9)
    reported = sum(layers[f"{layer}.self_s"] for layer in CHARGED_LAYERS
                   if layer != "rbe")
    assert reported == pytest.approx(traced["attributed_s"], rel=1e-9)
