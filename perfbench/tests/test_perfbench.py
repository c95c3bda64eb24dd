"""Tests of the benchmark's own machinery: wrappers, self time, gate.

Run: ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for entry in (os.path.join(ROOT, "src"), BENCH):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import END, START, Tracer, self_times  # noqa: E402

_MISSING = object()


def _all_targets():
    return layers.program_targets() + layers.coordinator_targets()


def _attributes(targets):
    return {(owner, attr): vars(owner).get(attr, _MISSING)
            for owner, attr, _, _ in targets}


def test_uninstall_restores_every_patched_attribute():
    targets = _all_targets()
    before = _attributes(targets)
    tracer = Tracer()
    tracer.install(targets)
    during = _attributes(targets)
    assert all(during[key] is not before[key] for key in before)
    tracer.uninstall()
    after = _attributes(targets)
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key


def test_inherited_attribute_is_removed_again():
    class Base:
        def ping(self):
            return "pong"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.install([(Child, "ping", "count", "ping")])
    assert "ping" in vars(Child)
    assert Child().ping() == "pong"
    tracer.uninstall()
    assert "ping" not in vars(Child)
    assert tracer.counters == {"ping": 1}


def _span(name, start, end, parent, covered=0):
    return [name, start, end, parent, covered, False]


def test_self_time_on_a_synthetic_nested_tree():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0, covered=5),
        _span("leaf", 15, 25, 1),
        _span("b", 50, 90, 0),
        _span("leaf", 60, 70, 3),
    ]
    assert self_times(spans) == {"root": 30, "a": 15, "leaf": 20, "b": 30}


def test_wrappers_record_nesting_failures_and_covered_time(monkeypatch):
    ticks = iter(range(0, 1000, 10))
    monkeypatch.setattr(tracer_module, "perf_counter_ns",
                        lambda: next(ticks))

    class Layer:
        def outer(self):
            self.scan()
            return self.inner()

        def inner(self):
            raise ValueError("refused")

        def scan(self):
            return 1

    tracer = Tracer()
    tracer.install([(Layer, "outer", "span", "outer"),
                    (Layer, "inner", "span", "inner"),
                    (Layer, "scan", "accumulate", "scan")])
    try:
        with pytest.raises(ValueError):
            Layer().outer()
    finally:
        tracer.uninstall()
    outer, inner = tracer.spans
    # outer: 0..50; scan 10..20 charged to outer; inner 30..40, failed.
    assert (outer[START], outer[END]) == (0, 50)
    assert (inner[START], inner[END]) == (30, 40)
    assert inner[tracer_module.PARENT] == 0 and inner[tracer_module.FAILED]
    assert tracer.accumulators == {"scan": [1, 10]}
    totals = tracer.span_totals()
    assert totals["outer"] == {"calls": 1, "failed": 1, "ns": 50,
                               "self_ns": 30}
    assert totals["inner"]["self_ns"] == 10


@pytest.fixture(scope="module")
def small_summary():
    from repro.serving import FleetScheduler, generate_fleet_trace
    from repro.serving.metrics import summary_wire

    trace = generate_fleet_trace(3, 30, chips=2, max_cores=16,
                                 mean_interarrival_cycles=40_000_000)
    fleet = FleetScheduler.homogeneous(2, cores=16, placement="best_fit")
    fleet.serve(trace)
    frequency = fleet.chips[0].chip.config.frequency_hz
    return summary_wire(fleet.metrics.summary(frequency)), len(trace)


def test_gate_passes_a_real_summary(small_summary):
    summary, offered = small_summary
    assert gate.check_pass(summary, offered) == []
    assert gate.check_digests([gate.digest(summary)] * 3) == []


def test_gate_trips_on_doctored_summaries(small_summary):
    summary, offered = small_summary
    lost = copy.deepcopy(summary)
    lost["sessions_completed"] -= 1
    assert gate.check_pass(lost, offered)
    assert gate.check_pass(summary, offered, non_ok_replies=1)
    recovered = copy.deepcopy(summary)
    recovered["recovery"] = {"respawns": 1}
    assert gate.check_pass(recovered, offered, sharded=True)
    drifted = copy.deepcopy(summary)
    drifted["queue_delay_cycles"]["p95"] += 1
    assert gate.check_digests([gate.digest(summary), gate.digest(drifted)])


def test_run_gate_counts_failures(small_summary):
    summary, offered = small_summary
    clean = {"summary": summary, "offered": offered}
    assert gate.check_run([clean, clean]) == (
        2 * offered, 0, [], [gate.digest(summary)] * 2)
    drifted = copy.deepcopy(summary)
    drifted["utilization_time_weighted"] += 0.5
    attempted, failed, problems, _ = gate.check_run(
        [clean, {"summary": drifted, "offered": offered}])
    assert (attempted, failed, len(problems)) == (2 * offered, offered, 1)
    lost = copy.deepcopy(summary)
    lost["sessions_completed"] -= 2
    service = {"summary": lost, "offered": offered, "requests": 5,
               "non_ok": 1}
    attempted, failed, problems, _ = gate.check_run([service])
    assert (attempted, failed) == (offered + 5, 3)
    assert len(problems) == 2


def test_metric_names_match_benchmark_json(small_summary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    summary, _ = small_summary
    mapper = {"hit_rate": 0.5, "objective_evaluations": 1,
              "free_rebuilds": 1}
    per_layer = set(layers.layer_metrics({}, {}, {}, summary, mapper,
                                         admit_rtts_s=[]))
    per_layer |= set(run.sim_extras(summary, 1_000_000_000))
    per_layer.add("bench.trace_overhead_ratio")
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    passes = [{"offered": 1, "wall_s": 1.0, "setup_s": 1.0, "rss_mib": 1.0,
               "scrapes_s": [0.1], "summary": summary}]
    assert ({m["name"] for m in spec["end_to_end"]}
            == set(run.end_to_end(passes, [1.0])))
