"""Sharded runs must stay bit-for-bit what they were.

``RobustStoreCluster`` builds ``config.shards`` replica groups; with one
group it takes the same construction path as with many, keeping node
names, seed forks, and event order of the paper's single-group
deployment -- so ``.shards(1)`` must give the *same run* as the
unsharded default: identical WIPS series, identical safety trace,
identical summary numbers.

For ``k = 2`` the golden pins below hold digests of two fixed-seed runs
(an ordering-mix double crash and a 3-DC ``dcfail``), recorded before
the flat and sharded cluster classes were merged into one.
"""

import hashlib
import json

from repro.faults.faultload import Faultload
from repro.harness.config import ClusterConfig, tiny_scale
from repro.harness.experiment import Experiment
from repro.harness.experiments import _execute


def _run(shards):
    exp = (Experiment(tiny_scale(), replicas=3, num_ebs=30, seed=20090629)
           .load("closed", wips=400.0)
           .one_crash(replica=1).check_safety())
    if shards is not None:
        exp.shards(shards)
    return exp.run()


def test_shards_1_matches_unsharded_bit_for_bit():
    plain = _run(None)
    sharded = _run(1)
    assert sharded.wips_series() == plain.wips_series()
    assert sharded.recoveries == plain.recoveries
    assert sharded.safety_violations == [] == plain.safety_violations

    a, b = plain.to_dict(), sharded.to_dict()
    a["config"].pop("shards"), b["config"].pop("shards")
    assert a == b


def test_shards_1_same_safety_trace():
    # Capture the full structured trace of both runs via the setup hook.
    traces = []

    def run(config):
        captured = {}

        def setup(cluster):
            captured["sim"] = cluster.sim

        _execute(config, Faultload("none", ()), setup=setup)
        tracer = captured["sim"].tracer
        traces.append([(e.time, e.category, e.source, e.fields)
                       for e in tracer.events])

    base = dict(replicas=3, num_ebs=30, offered_wips=400.0,
                scale=tiny_scale(), seed=7, safety_tracing=True)
    run(ClusterConfig(**base))
    run(ClusterConfig(shards=1, **base))
    assert traces[0] == traces[1]
    assert len(traces[0]) > 0


# ----------------------------------------------------------------------
# k = 2 golden pins
# ----------------------------------------------------------------------
# Host-measured kernel-profile fields vary run to run; everything else in
# the summary is sim-domain and must not move.
_WALL_FIELDS = ("wall_s", "wall_us_per_event", "events_per_wall_s")


def _canon(value):
    """A JSON-ready, hash-seed-independent form of ``value``."""
    if isinstance(value, dict):
        return sorted([_canon(k), _canon(v)] for k, v in value.items()
                      if k not in _WALL_FIELDS)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canon(v) for v in value), key=repr)
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(_canon(value)).encode()).hexdigest()


def _digests(result) -> dict:
    trace = [(e.time, e.category, e.source, e.fields)
             for e in result.cluster.sim.tracer.events]
    parts = {"wips": result.wips_series(), "recoveries": result.recoveries,
             "summary": result.to_dict(), "trace": _sha(trace)}
    return {name: _sha(value)[:16] for name, value in parts.items()}


def _two_shards(mix="shopping"):
    return (Experiment(tiny_scale(), replicas=3, num_ebs=30, seed=11)
            .load("closed", wips=400.0, mix=mix).shards(2)
            .check_safety().observe().keep_cluster())


def test_two_shards_ordering_crashes_golden():
    result = (_two_shards(mix="ordering")
              .faults("crash@240:0.1, crash@270:1.*").run())
    assert result.safety_violations == []
    assert _digests(result) == {
        "wips": "ca9b78232d18d946", "recoveries": "8b45b66eeb1f2ed9",
        "summary": "f2bd24fcdb599ff9", "trace": "62959d128d487034"}


def test_two_shards_geo_dcfail_golden():
    result = (_two_shards().geo(dcs=("dc0", "dc1", "dc2"))
              .faults("dcfail@240-300:dc0").run())
    assert result.safety_violations == []
    assert len(result.recoveries) == 2
    assert _digests(result) == {
        "wips": "62307fd176e3494c", "recoveries": "cdba97934dbbaa80",
        "summary": "509cfd8a23cfb273", "trace": "cf5328c6fa6b1479"}
