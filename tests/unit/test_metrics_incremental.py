"""Incremental metrics summaries against the from-scratch batch oracle.

``ServingMetrics.summary``, ``FleetMetrics.summary`` and
``merge_fleet_summaries`` fold in only what was appended since the
previous call. The oracle below is the batch implementation they
replaced: every summary is recomputed from the whole record and sample
history (and the sharded merge from records merged in ``(depart_cycle,
session_id)`` order). Every check compares ``canonical_json`` bytes —
and, for the time-weighted sums, the unrounded floats bit for bit —
after every ``run(until=...)`` window, across snapshot/restore and
across the sharded coordinator's checkpoint splices.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.arch.chip import Chip
from repro.arch.config import sim_config
from repro.core.hypervisor import Hypervisor
from repro.serving import (
    DEFAULT_SLO_MIX,
    ClusterScheduler,
    ClusterSample,
    DefragPolicy,
    FleetMetrics,
    FleetSample,
    FleetScheduler,
    ServingMetrics,
    SessionRecord,
    ShardedFleetScheduler,
    ShardSlice,
    SLOClass,
    SLOMetrics,
    canonical_json,
    generate_failure_schedule,
    generate_fleet_trace,
    generate_trace,
    merge_fleet_summaries,
    register_slo,
    resolve_slo,
    unregister_slo,
)
from repro.serving.metrics import _time_weighted
from repro.serving.shard import AdmitOrder, EpochPlan

HZ = 940_000_000


# -- the batch oracle ----------------------------------------------------------

def batch_percentile(values, pct):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def batch_slo_classes(records, seconds):
    grouped = {}
    for record in records:
        if record.slo:
            grouped.setdefault(record.slo, []).append(record)
    faulted = any(r.evacuations or r.kills or r.lost_service_cycles
                  for r in records)
    per_class = {}
    for name in sorted(grouped):
        slo = resolve_slo(name)
        group = grouped[name]
        delays = [r.queue_delay_cycles for r in group]
        met = sum(1 for r in group if slo.met(r.queue_delay_cycles))
        per_class[name] = {
            "attainment": round(met / len(group), 6),
            "goodput_sessions_per_second": round(
                met / seconds if seconds else 0.0, 6),
            "p99_queue_delay_cycles": batch_percentile(delays, 99),
            "preemptions": sum(r.preemptions for r in group),
            "resizes": sum(r.resizes for r in group),
            "sessions_completed": len(group),
            "sessions_met_slo": met,
            "tier": slo.tier,
        }
        if faulted:
            per_class[name].update({
                "evacuations": sum(r.evacuations for r in group),
                "killed_sessions": sum(r.kills for r in group),
                "lost_service_cycles": sum(r.lost_service_cycles
                                           for r in group),
            })
    return per_class


def batch_time_weighted(samples, attribute):
    """Unrounded time-weighted mean of one sample field."""
    if len(samples) < 2:
        return getattr(samples[0], attribute) if samples else 0.0
    total = 0.0
    span = samples[-1].cycle - samples[0].cycle
    if span <= 0:
        return getattr(samples[-1], attribute)
    for current, following in zip(samples, samples[1:]):
        total += getattr(current, attribute) * (following.cycle
                                                - current.cycle)
    return total / span


def batch_per_chip(fleet_samples):
    """Unrounded per-chip time-weighted utilization."""
    if not fleet_samples:
        return []
    chips = len(fleet_samples[0].utilization)
    if len(fleet_samples) < 2:
        return list(fleet_samples[0].utilization)
    span = fleet_samples[-1].cycle - fleet_samples[0].cycle
    if span <= 0:
        return list(fleet_samples[-1].utilization)
    totals = [0.0] * chips
    for current, following in zip(fleet_samples, fleet_samples[1:]):
        weight = following.cycle - current.cycle
        for index in range(chips):
            totals[index] += current.utilization[index] * weight
    return [total / span for total in totals]


def batch_summary(metrics, frequency_hz):
    records, samples = metrics.records, metrics.samples
    delays = [r.queue_delay_cycles for r in records]
    makespan = samples[-1].cycle if samples else 0
    seconds = makespan / frequency_hz if makespan else 0.0
    digest = {
        "sessions_completed": len(records),
        "sessions_per_second": round(
            len(records) / seconds if seconds else 0.0, 6),
        "makespan_cycles": makespan,
        "queue_delay_cycles": {
            "mean": round(sum(delays) / len(delays) if delays else 0.0, 3),
            "p50": batch_percentile(delays, 50),
            "p95": batch_percentile(delays, 95),
            "max": float(max(delays)) if delays else 0.0,
        },
        "utilization_time_weighted": round(
            batch_time_weighted(samples, "utilization"), 6),
        "fragmentation": {
            "time_weighted_mean": round(
                batch_time_weighted(samples, "fragmentation"), 6),
            "max": round(max((s.fragmentation for s in samples),
                             default=0.0), 6),
        },
        "queue_length_max": max((s.queue_length for s in samples),
                                default=0),
        "admission_failures": metrics.admission_failures,
        "sessions_rejected": metrics.rejected,
        "slo": {
            "classes": batch_slo_classes(records, seconds),
            "grows": metrics.grows,
            "preemptions": metrics.preemptions,
            "resize_cycles": metrics.resize_cycles,
            "shrinks": metrics.shrinks,
        },
    }
    if not isinstance(metrics, FleetMetrics):
        return digest
    fleet_samples = metrics.fleet_samples
    digest["fleet"] = {
        "chips": (len(fleet_samples[0].utilization)
                  if fleet_samples else 0),
        "migrations": metrics.migrations,
        "migration_cycles": metrics.migration_cycles,
        "migration_failures": metrics.migration_failures,
        "sessions_migrated": sum(1 for r in records if r.migrations > 0),
        "utilization_spread_time_weighted": round(
            batch_time_weighted(fleet_samples, "utilization_spread"), 6),
        "per_chip_utilization_time_weighted":
            [round(u, 6) for u in batch_per_chip(fleet_samples)],
    }
    if metrics.faults_enabled:
        digest["faults"] = {
            "chip_failures": metrics.chip_failures,
            "chip_recoveries": metrics.chip_recoveries,
            "evacuation_cycles": metrics.evacuation_cycles,
            "evacuations": metrics.evacuations,
            "killed_sessions": metrics.killed_sessions,
            "lost_service_cycles": metrics.lost_service_cycles,
        }
    return digest


def batch_merge(parts, core_counts, chip_offsets, frequency_hz,
                recovery=None):
    records = []
    for part, offset in zip(parts, chip_offsets):
        records.extend(replace(r, chip=offset + r.chip)
                       for r in part.records)
    records.sort(key=lambda r: (r.depart_cycle, r.session_id))
    makespan = max((p.samples[-1].cycle for p in parts if p.samples),
                   default=0)
    seconds = makespan / frequency_hz if makespan else 0.0
    delays = [r.queue_delay_cycles for r in records]
    total_cores = sum(core_counts) or 1

    def core_weighted(values):
        return sum(v * c for v, c in zip(values, core_counts)) / total_cores

    def chips(part):
        return (len(part.fleet_samples[0].utilization)
                if part.fleet_samples else 0)

    digest = {
        "sessions_completed": len(records),
        "sessions_per_second": round(
            len(records) / seconds if seconds else 0.0, 6),
        "makespan_cycles": makespan,
        "queue_delay_cycles": {
            "mean": round(sum(delays) / len(delays) if delays else 0.0, 3),
            "p50": batch_percentile(delays, 50),
            "p95": batch_percentile(delays, 95),
            "max": float(max(delays)) if delays else 0.0,
        },
        "utilization_time_weighted": round(core_weighted(
            [batch_time_weighted(p.samples, "utilization")
             for p in parts]), 6),
        "fragmentation": {
            "time_weighted_mean": round(core_weighted(
                [batch_time_weighted(p.samples, "fragmentation")
                 for p in parts]), 6),
            "max": round(max((s.fragmentation for p in parts
                              for s in p.samples), default=0.0), 6),
        },
        "queue_length_max": max((s.queue_length for p in parts
                                 for s in p.samples), default=0),
        "admission_failures": sum(p.admission_failures for p in parts),
        "sessions_rejected": sum(p.rejected for p in parts),
        "slo": {
            "classes": batch_slo_classes(records, seconds),
            "grows": sum(p.grows for p in parts),
            "preemptions": sum(p.preemptions for p in parts),
            "resize_cycles": sum(p.resize_cycles for p in parts),
            "shrinks": sum(p.shrinks for p in parts),
        },
        "fleet": {
            "chips": sum(chips(p) for p in parts),
            "migrations": sum(p.migrations for p in parts),
            "migration_cycles": sum(p.migration_cycles for p in parts),
            "migration_failures": sum(p.migration_failures for p in parts),
            "sessions_migrated": sum(1 for r in records if r.migrations > 0),
        },
        "sharding": {
            "shards": len(parts),
            "per_shard": [
                {
                    "chips": chips(p),
                    "sessions_completed": len(p.records),
                    "makespan_cycles": (p.samples[-1].cycle
                                        if p.samples else 0),
                    "utilization_time_weighted": round(
                        batch_time_weighted(p.samples, "utilization"), 6),
                    "fragmentation_time_weighted": round(
                        batch_time_weighted(p.samples, "fragmentation"), 6),
                    "migrations": p.migrations,
                }
                for p in parts
            ],
        },
    }
    if any(p.faults_enabled for p in parts):
        digest["faults"] = {
            "chip_failures": sum(p.chip_failures for p in parts),
            "chip_recoveries": sum(p.chip_recoveries for p in parts),
            "evacuation_cycles": sum(p.evacuation_cycles for p in parts),
            "evacuations": sum(p.evacuations for p in parts),
            "killed_sessions": sum(p.killed_sessions for p in parts),
            "lost_service_cycles": sum(p.lost_service_cycles
                                       for p in parts),
        }
    if recovery is not None:
        digest["recovery"] = dict(recovery)
    return digest


# -- comparison helpers --------------------------------------------------------

def assert_exact(metrics, frequency_hz=HZ):
    """Incremental summary == oracle, bytes and unrounded sums alike."""
    assert canonical_json(metrics.summary(frequency_hz)) == \
        canonical_json(batch_summary(metrics, frequency_hz))
    fold = metrics._fold()
    for attribute, total in (("utilization", fold.utilization),
                             ("fragmentation", fold.fragmentation)):
        assert _time_weighted(metrics.samples, total, attribute) == \
            batch_time_weighted(metrics.samples, attribute)
    if isinstance(metrics, FleetMetrics):
        assert _time_weighted(metrics.fleet_samples, fold.spread,
                              "utilization_spread") == \
            batch_time_weighted(metrics.fleet_samples, "utilization_spread")
        if metrics.fleet_samples:
            assert list(_time_weighted(metrics.fleet_samples, fold.chips,
                                       "utilization")) == \
                batch_per_chip(metrics.fleet_samples)


def assert_merge_exact(parts, core_counts, chip_offsets):
    assert canonical_json(merge_fleet_summaries(
        parts, core_counts, chip_offsets, HZ)) == canonical_json(
        batch_merge(parts, core_counts, chip_offsets, HZ))


def windows(run, horizon, steps):
    """Drive ``run(until=...)`` over ``steps`` equal windows."""
    for step in range(1, steps + 1):
        yield run(until=horizon * step // steps)


def fleet_trace(seed, sessions, chips, **kwargs):
    kwargs.setdefault("slo_mix", DEFAULT_SLO_MIX)
    return generate_fleet_trace(seed, sessions, chips=chips, max_cores=16,
                                **kwargs)


def run_windowed(fleet, trace, steps=12):
    """Submit, then compare after every window until the run is done."""
    fleet.submit(trace)
    horizon = max(s.arrival_cycle for s in trace) * 2
    for _ in windows(fleet.run, horizon, steps):
        assert_exact(fleet.metrics)
    fleet.run()
    assert_exact(fleet.metrics)
    return fleet.metrics


# -- seeded schedulers ---------------------------------------------------------

class TestSchedulersAgainstOracle:
    def test_single_chip_cluster_scheduler(self):
        chip = Chip(sim_config(16))
        scheduler = ClusterScheduler(chip, Hypervisor(chip), policy="fcfs")
        trace = generate_trace(11, 60, max_cores=16, slo_mix=DEFAULT_SLO_MIX)
        scheduler.submit(trace)
        horizon = max(s.arrival_cycle for s in trace) * 2
        for _ in windows(scheduler.run, horizon, 10):
            assert_exact(scheduler.metrics)
        scheduler.run()
        assert_exact(scheduler.metrics)
        assert len(scheduler.metrics.records) > 0

    def test_best_fit_with_defrag(self):
        fleet = FleetScheduler.homogeneous(8, cores=16, placement="best_fit",
                                           defrag=DefragPolicy(0.2))
        trace = fleet_trace(3, 300, 8, mean_interarrival_cycles=40_000_000,
                            fragmentation_heavy=True)
        metrics = run_windowed(fleet, trace)
        assert metrics.migrations > 0
        assert metrics.summary(HZ)["fleet"]["sessions_migrated"] > 0

    def test_priority_shrink_then_preempt(self):
        fleet = FleetScheduler.homogeneous(
            4, cores=16, policy="priority", elastic="shrink_then_preempt")
        trace = fleet_trace(23, 80, 4, arrival_process="bursty")
        metrics = run_windowed(fleet, trace)
        assert metrics.preemptions + metrics.shrinks > 0

    def test_faults_under_kill_requeue(self):
        faults = generate_failure_schedule(37, chips=3,
                                           horizon_cycles=60_000_000,
                                           failures=4)
        fleet = FleetScheduler.homogeneous(3, cores=16, faults=faults,
                                           evacuation="kill_requeue")
        trace = fleet_trace(37, 36, 3, mean_interarrival_cycles=3_000_000,
                            arrival_process="bursty")
        metrics = run_windowed(fleet, trace)
        classes = metrics.summary(HZ)["slo"]["classes"]
        assert all("killed_sessions" in row for row in classes.values())
        assert metrics.killed_sessions > 0

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_merge(self, shards):
        sharded = ShardedFleetScheduler.homogeneous(
            8, cores=16, shards=shards, workers=1, epoch_cycles=5_000_000,
            elastic="shrink_then_preempt", policy="priority")
        sharded.serve(fleet_trace(11, 60, 8, arrival_process="bursty"))
        summary = sharded.summary(HZ)
        cores = [16 * len(group) for group in sharded.groups]
        offsets = [group[0] for group in sharded.groups]
        oracle = batch_merge(sharded.shard_metrics, cores, offsets, HZ)
        summary = dict(summary)
        summary["sharding"] = {key: summary["sharding"][key]
                               for key in oracle["sharding"]}
        assert canonical_json(summary) == canonical_json(oracle)
        # A repeated scrape of the finished run reads the same digest.
        assert canonical_json(sharded.summary()) == \
            canonical_json(sharded.summary())

    def test_merge_of_live_shards_after_every_window(self):
        # Per-shard fleets advanced in lockstep: the merge folds only
        # each shard's new events per call and still equals the oracle.
        parts = [FleetScheduler.homogeneous(2, cores=16, policy="priority",
                                            elastic="shrink_then_preempt")
                 for _ in range(3)]
        traces = [fleet_trace(seed, 30, 2, arrival_process="bursty")
                  for seed in (5, 6, 7)]
        for fleet, trace in zip(parts, traces):
            fleet.submit(trace)
        horizon = max(s.arrival_cycle for t in traces for s in t) * 2
        metrics = [fleet.metrics for fleet in parts]
        for step in range(1, 11):
            for fleet in parts:
                fleet.run(until=horizon * step // 10)
            assert_merge_exact(metrics, [32, 32, 32], [0, 2, 4])
        for fleet in parts:
            fleet.run()
        assert_merge_exact(metrics, [32, 32, 32], [0, 2, 4])


# -- checkpoints ---------------------------------------------------------------

class TestCheckpoints:
    def make(self):
        return FleetScheduler.homogeneous(4, cores=16, policy="priority",
                                          elastic="shrink_then_preempt")

    def test_snapshot_restore_then_continue(self):
        trace = fleet_trace(23, 60, 4, arrival_process="bursty")
        fleet = self.make()
        fleet.submit(trace)
        fleet.run(until=8_000_000)
        assert_exact(fleet.metrics)
        restored = FleetScheduler.restore(
            fleet.snapshot(), policy="priority",
            elastic="shrink_then_preempt")
        assert restored.metrics._acc is None     # never pickled
        horizon = max(s.arrival_cycle for s in trace) * 2
        for _ in windows(restored.run, horizon, 6):
            assert_exact(restored.metrics)
        restored.run()
        assert_exact(restored.metrics)

    def test_summary_never_changes_snapshot_bytes(self):
        trace = fleet_trace(23, 40, 4, arrival_process="bursty")
        scraped, plain = self.make(), self.make()
        for fleet in (scraped, plain):
            fleet.submit(trace)
            fleet.run(until=6_000_000)
        scraped.metrics.summary(HZ)
        assert scraped.metrics._acc is not None
        assert pickle.dumps(scraped.snapshot()) == \
            pickle.dumps(plain.snapshot())
        restored = FleetScheduler.restore(
            scraped.snapshot(), policy="priority",
            elastic="shrink_then_preempt")
        assert pickle.dumps(restored.snapshot()) == \
            pickle.dumps(plain.snapshot())

    def test_summary_never_changes_slice_checkpoint_bytes(self):
        configs = [sim_config(16), sim_config(16)]
        trace = fleet_trace(5, 12, 2, arrival_process="bursty")
        plan = EpochPlan(admissions=tuple(AdmitOrder(s) for s in trace))
        slices = [ShardSlice(0, list(configs)) for _ in range(2)]
        for fence in range(2_000_000, 20_000_001, 2_000_000):
            blobs = []
            for slice_ in slices:
                slice_.run_epoch(fence, plan if fence == 2_000_000 else None)
                blobs.append(slice_.checkpoint(delta=True))
            slices[0].fleet.metrics.summary(HZ)
            assert blobs[0] == blobs[1]

    def test_stash_splices_and_truncating_replay(self):
        configs = [sim_config(16), sim_config(16)]
        trace = fleet_trace(5, 16, 2, arrival_process="bursty")
        slice_ = ShardSlice(0, list(configs))
        plan = EpochPlan(admissions=tuple(AdmitOrder(s) for s in trace))
        blobs = []
        fence = 0
        while True:
            fence += 2_000_000
            report = slice_.run_epoch(fence, plan if not blobs else None)
            blobs.append(slice_.checkpoint(delta=True))
            if report["pending"] == 0 and report["active"] == 0:
                break
        assert len(blobs) > 3
        coordinator = ShardedFleetScheduler(list(configs), shards=1)

        def ring():
            return coordinator._checkpoints[0]["fleet"]["metrics"]

        for blob in blobs:
            coordinator._stash({0: blob})
            assert_exact(ring())
        held = ring()
        records = len(held.records)
        # Replaying an older delta truncates the shared logs under the
        # held object's cursor: its next summary must rebuild.
        coordinator._stash({0: blobs[-3]})
        assert len(held.records) < records or \
            len(held.samples) < len(slice_.fleet.metrics.samples)
        assert_exact(held)
        assert_exact(ring())
        for blob in blobs[-2:]:
            coordinator._stash({0: blob})
            assert_exact(held)
            assert_exact(ring())
        assert canonical_json(held.summary(HZ)) == \
            canonical_json(slice_.fleet.metrics.summary(HZ))


# -- synthetic logs ------------------------------------------------------------

def synthetic_record(rng, session_id):
    arrival = rng.randrange(0, 10_000_000)
    admit = arrival + rng.choice([0, 0, rng.randrange(1, 5_000_000)])
    faulty = rng.random() < 0.05
    return SessionRecord(
        session_id=session_id, tenant="t", model="alexnet",
        cores=rng.choice([1, 4, 9]), arrival_cycle=arrival,
        admit_cycle=admit, depart_cycle=admit + rng.randrange(1, 9_000_000),
        strategy="similar", mapping_distance=0.0, mapping_connected=True,
        chip=rng.randrange(3), migrations=rng.choice([0, 0, 0, 1, 2]),
        slo=rng.choice(["", "gold", "silver", "best_effort"]),
        preemptions=rng.choice([0, 0, 1]), resizes=rng.choice([0, 0, 2]),
        evacuations=int(faulty), kills=int(faulty and rng.random() < 0.5),
        lost_service_cycles=rng.randrange(1000) if faulty else 0)


def grow(rng, metrics, cycle, count):
    """Append ``count`` random events (records + samples) to ``metrics``."""
    for _ in range(count):
        cycle += rng.choice([0, 0, 1, rng.randrange(1, 3_000_000)])
        if rng.random() < 0.4:
            metrics.record_departure(
                synthetic_record(rng, len(metrics.records)))
        utilization = tuple(rng.random() for _ in range(3))
        fragmentation = tuple(rng.random() for _ in range(3))
        metrics.sample(ClusterSample(
            cycle=cycle, free_cores=rng.randrange(48),
            utilization=sum(utilization) / 3,
            fragmentation=sum(fragmentation) / 3,
            queue_length=rng.randrange(20)))
        metrics.sample_fleet(FleetSample(
            cycle=cycle, queue_length=rng.randrange(20),
            free_cores=(1, 2, 3), utilization=utilization,
            fragmentation=fragmentation))
    return cycle


class TestSyntheticLogs:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_chunks(self, seed):
        rng = random.Random(seed)
        metrics = FleetMetrics()
        assert_exact(metrics)            # empty
        cycle = 0
        for _ in range(40):
            cycle = grow(rng, metrics, cycle, rng.choice([0, 1, 1, 2, 7, 30]))
            assert_exact(metrics)
        assert metrics.summary(HZ)["sessions_completed"] > 0

    def test_zero_span_and_single_sample(self):
        metrics = FleetMetrics()
        grow(random.Random(1), metrics, 5, 1)
        assert_exact(metrics)
        for _ in range(3):               # same cycle: span stays zero
            metrics.sample(replace(metrics.samples[-1], utilization=0.25))
            metrics.sample_fleet(metrics.fleet_samples[-1])
            assert_exact(metrics)

    def test_truncated_logs_rebuild(self):
        rng = random.Random(9)
        metrics = FleetMetrics()
        grow(rng, metrics, 0, 60)
        assert_exact(metrics)
        del metrics.records[len(metrics.records) // 2:]
        del metrics.samples[10:]
        del metrics.fleet_samples[10:]
        assert_exact(metrics)
        grow(rng, metrics, metrics.samples[-1].cycle, 20)
        assert_exact(metrics)

    def test_replaced_logs_rebuild(self):
        rng = random.Random(4)
        metrics, other = FleetMetrics(), FleetMetrics()
        grow(rng, metrics, 0, 30)
        grow(rng, other, 0, 50)
        assert_exact(metrics)
        metrics.records = list(other.records)
        metrics.samples = other.samples
        assert_exact(metrics)

    def test_merge_of_random_parts(self):
        rng = random.Random(2)
        parts = [FleetMetrics() for _ in range(4)]
        for _ in range(15):
            for part in parts:
                grow(rng, part, part.samples[-1].cycle if part.samples
                     else 0, rng.choice([0, 1, 5, 20]))
            assert_merge_exact(parts, [48, 16, 32, 48], [0, 3, 6, 9])
        assert_merge_exact(parts[:1], [48], [0])
        assert_merge_exact([], [], [])

    def test_copies_do_not_share_the_fold(self):
        rng = random.Random(3)
        metrics = ServingMetrics()
        for _ in range(20):
            metrics.record_departure(synthetic_record(rng, 0))
        metrics.summary(HZ)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone._acc is None
        assert clone == metrics
        clone.record_departure(synthetic_record(rng, 1))
        assert_exact(clone)
        assert_exact(metrics)


class TestClassesResolvedAtSummaryTime:
    def test_target_change_after_fold(self):
        register_slo(SLOClass("probe", tier=1,
                              queue_delay_target_cycles=1_000_000))
        try:
            rng = random.Random(5)
            metrics = ServingMetrics()
            for session_id in range(50):
                metrics.record_departure(replace(
                    synthetic_record(rng, session_id), slo="probe"))
            assert_exact(metrics)
            register_slo(SLOClass("probe", tier=2,
                                  queue_delay_target_cycles=10),
                         replace=True)
            assert_exact(metrics)
            row = metrics.summary(HZ)["slo"]["classes"]["probe"]
            assert row["tier"] == 2
        finally:
            unregister_slo("probe")

    def test_from_records_matches_oracle(self):
        rng = random.Random(8)
        records = [synthetic_record(rng, i) for i in range(200)]
        for seconds in (0.0, 0.5, 3.0):
            assert canonical_json(SLOMetrics.from_records(
                records, seconds).digest()) == \
                canonical_json(batch_slo_classes(records, seconds))
