"""Serving metrics: per-session records plus time-series cluster samples.

Everything here is deterministic and JSON-friendly — the benchmark's
byte-identical-output guarantee flows through this module, so no wall
clocks, no dict-order dependence (summaries are plain dicts serialized
with ``sort_keys=True`` by the caller) and nearest-rank percentiles
rather than interpolation.
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from dataclasses import dataclass, field

from repro.arch.topology import Topology
from repro.serving.slo import resolve_slo


def canonical_json(payload) -> str:
    """The one canonical JSON spelling of a metrics payload.

    Sorted keys, minimal separators, no trailing newline — the byte
    form the control plane's wire protocol, the service benchmark's
    batch-vs-service equality check and the warm-restart oracle all
    compare. Two payloads are "the same result" iff their
    ``canonical_json`` strings are equal.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def summary_wire(summary: dict) -> dict:
    """A summary dict projected onto plain JSON types.

    ``summary()`` dicts hold tuples (per-class rows, percentiles);
    round-tripping through :func:`canonical_json` normalizes them to
    lists, so a summary computed in-process compares equal to the same
    summary decoded off the wire.
    """
    return json.loads(canonical_json(summary))


def percentile(values: list[int | float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    return _ranked([sorted(values)], pct)


def _ranked(runs: "list[list]", pct: float) -> float:
    """Nearest-rank percentile over the union of already-sorted runs.

    One run is a plain index; several (per-shard delay lists) are
    selected without merging: for each run, binary-search its first
    element whose rank across all runs reaches the target — the
    smallest such element is the answer. O(k^2 log^2 n) for k runs.
    """
    runs = [run for run in runs if run]
    total = sum(len(run) for run in runs)
    if not total:
        return 0.0
    rank = int(max(1, -(-total * pct // 100)))  # ceil without floats
    if len(runs) == 1:
        return float(runs[0][rank - 1])
    best = None
    for run in runs:
        lo, hi = 0, len(run)
        while lo < hi:
            mid = (lo + hi) // 2
            if sum(bisect_right(other, run[mid]) for other in runs) >= rank:
                hi = mid
            else:
                lo = mid + 1
        if lo < len(run) and (best is None or run[lo] < best):
            best = run[lo]
    return float(best)


def fragmentation_ratio(topology: Topology, allocated: set[int]) -> float:
    """How shattered the free cores are: 1 - largest fragment / free.

    0.0 means every free core sits in one connected region (or the chip
    is full); approaching 1.0 means the free set is confetti — the state
    that forces fragmented mappings (Fig 17).
    """
    free = [node for node in topology.nodes if node not in allocated]
    if not free:
        return 0.0
    remaining = set(free)
    largest = 0
    while remaining:
        seed = next(iter(remaining))
        stack = [seed]
        component = {seed}
        while stack:
            node = stack.pop()
            for neighbor in topology.neighbors(node):
                if neighbor in remaining and neighbor not in component:
                    component.add(neighbor)
                    stack.append(neighbor)
        remaining -= component
        largest = max(largest, len(component))
    return 1.0 - largest / len(free)


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """Lifecycle of one served tenant session.

    One record per session, held for the whole run: ``slots=True`` (like
    the per-event samples below) keeps the metrics stream's allocation
    footprint flat on million-session traces.
    """

    session_id: int
    tenant: str
    model: str
    cores: int
    arrival_cycle: int
    admit_cycle: int
    depart_cycle: int
    strategy: str
    mapping_distance: float
    mapping_connected: bool
    #: Chip the session *departed* from (always 0 on a single chip).
    chip: int = 0
    #: Live migrations this session survived while resident.
    migrations: int = 0
    #: SLO class the session was served under ("" for pre-SLO records).
    slo: str = ""
    #: Times this session was preempted (torn down and requeued) before
    #: finally completing.
    preemptions: int = 0
    #: Live grow/shrink resizes this session survived while resident.
    resizes: int = 0
    #: Fault-tolerance lifecycle: times this session was live-evacuated
    #: off a failing chip, times it was killed (fail-stop teardown +
    #: requeue) by one, and the service cycles those kills discarded.
    evacuations: int = 0
    kills: int = 0
    lost_service_cycles: int = 0

    @property
    def queue_delay_cycles(self) -> int:
        return self.admit_cycle - self.arrival_cycle

    @property
    def service_cycles(self) -> int:
        return self.depart_cycle - self.admit_cycle


@dataclass(frozen=True, slots=True)
class ClusterSample:
    """Cluster state at one simulation instant (taken on every event)."""

    cycle: int
    free_cores: int
    utilization: float
    fragmentation: float
    queue_length: int


class _ClassTally:
    """One SLO class's running record aggregates (sorted delays + sums)."""

    __slots__ = ("delays", "preemptions", "resizes", "evacuations",
                 "kills", "lost_service_cycles")

    def __init__(self) -> None:
        self.delays: list[int] = []
        self.preemptions = 0
        self.resizes = 0
        self.evacuations = 0
        self.kills = 0
        self.lost_service_cycles = 0


class _Fold:
    """Exact running aggregates over append-only metrics logs.

    ``logs`` is ``(records,)``, ``(records, samples)`` or ``(records,
    samples, fleet_samples)``; :meth:`advance` folds in only what was
    appended since the previous call, one cursor per list. Every sum
    adds its terms in list order, so each aggregate is bit-identical
    to a from-scratch pass over the whole history. A fold only
    :meth:`covers` lists it has been folding that are still at least
    as long as its cursors; anything else (a list replaced, or one a
    checkpoint splice truncated) needs a fresh fold.
    """

    __slots__ = ("logs", "seen", "delays", "delay_sum", "migrated",
                 "faulted", "classes", "utilization", "fragmentation",
                 "fragmentation_max", "queue_max", "spread", "chips")

    def __init__(self, logs: "tuple[list, ...]") -> None:
        self.logs = logs
        self.seen = (0,) * len(logs)
        # records
        self.delays: list[int] = []        # sorted queue delays
        self.delay_sum = 0
        self.migrated = 0
        self.faulted = False
        self.classes: dict[str, _ClassTally] = {}
        # aggregate samples: time-weighted sums and running maxima
        self.utilization = 0.0
        self.fragmentation = 0.0
        self.fragmentation_max: float | None = None
        self.queue_max: int | None = None
        # per-chip samples
        self.spread = 0.0
        self.chips: list[float] = []

    def covers(self, logs: "tuple[list, ...]") -> bool:
        return len(logs) == len(self.logs) and all(
            log is folded and len(log) >= seen
            for log, folded, seen in zip(logs, self.logs, self.seen))

    def advance(self) -> "_Fold":
        for fold, log, seen in zip(
                (self._records, self._samples, self._fleet_samples),
                self.logs, self.seen):
            if len(log) > seen:
                fold(log, seen)
        self.seen = tuple(len(log) for log in self.logs)
        return self

    def _records(self, records: "list[SessionRecord]", start: int) -> None:
        classes = self.classes
        for record in records[start:]:
            delay = record.queue_delay_cycles
            insort(self.delays, delay)
            self.delay_sum += delay
            if record.migrations > 0:
                self.migrated += 1
            if record.evacuations or record.kills or record.lost_service_cycles:
                self.faulted = True
            if record.slo:
                tally = classes.get(record.slo)
                if tally is None:
                    tally = classes[record.slo] = _ClassTally()
                insort(tally.delays, delay)
                tally.preemptions += record.preemptions
                tally.resizes += record.resizes
                tally.evacuations += record.evacuations
                tally.kills += record.kills
                tally.lost_service_cycles += record.lost_service_cycles

    def _samples(self, samples: "list[ClusterSample]", start: int) -> None:
        utilization, fragmentation = self.utilization, self.fragmentation
        peak, queue_max = self.fragmentation_max, self.queue_max
        for index in range(start, len(samples)):
            current = samples[index]
            if index:
                previous = samples[index - 1]
                weight = current.cycle - previous.cycle
                utilization += previous.utilization * weight
                fragmentation += previous.fragmentation * weight
            if peak is None or current.fragmentation > peak:
                peak = current.fragmentation
            if queue_max is None or current.queue_length > queue_max:
                queue_max = current.queue_length
        self.utilization, self.fragmentation = utilization, fragmentation
        self.fragmentation_max, self.queue_max = peak, queue_max

    def _fleet_samples(self, samples: "list[FleetSample]",
                       start: int) -> None:
        if not start:
            self.chips = [0.0] * len(samples[0].utilization)
        spread, chips = self.spread, self.chips
        for index in range(max(start, 1), len(samples)):
            previous = samples[index - 1]
            weight = samples[index].cycle - previous.cycle
            spread += previous.utilization_spread * weight
            chips = [total + value * weight
                     for total, value in zip(chips, previous.utilization)]
        self.spread, self.chips = spread, chips


def _time_weighted(samples: list, total, attribute: str):
    """A folded time-weighted sum over ``samples``, normalized by span.

    ``total`` is the folded sum of ``value * (next.cycle - cycle)``
    (a list of per-chip sums for tuple-valued attributes); fewer than
    two samples or a zero span fall back to a single sample's value.
    """
    if len(samples) < 2:
        return getattr(samples[0], attribute) if samples else 0.0
    span = samples[-1].cycle - samples[0].cycle
    if span <= 0:
        return getattr(samples[-1], attribute)
    if isinstance(total, list):
        return [value / span for value in total]
    return total / span


def _delay_digest(folds: "list[_Fold]") -> dict:
    """The ``queue_delay_cycles`` block over one or more folds."""
    runs = [fold.delays for fold in folds]
    count = sum(len(run) for run in runs)
    total = sum(fold.delay_sum for fold in folds)
    return {
        "mean": round(total / count if count else 0.0, 3),
        "p50": _ranked(runs, 50),
        "p95": _ranked(runs, 95),
        "max": float(max(run[-1] for run in runs if run)) if count else 0.0,
    }


def _class_digest(folds: "list[_Fold]", seconds: float) -> dict:
    """Per-SLO-class rows over one or more folds (see :class:`SLOMetrics`).

    Classes are resolved here, at summary time: ``met`` counts the
    sorted delays at or under the class's *current* target.
    """
    # The fault keys appear only when the run saw fault activity at
    # all, so fault-free digests (every pre-fault bench artifact) keep
    # their historical byte layout.
    faulted = any(fold.faulted for fold in folds)
    per_class: dict[str, dict] = {}
    for name in sorted({name for fold in folds for name in fold.classes}):
        slo = resolve_slo(name)
        tallies = [fold.classes[name] for fold in folds
                   if name in fold.classes]
        runs = [tally.delays for tally in tallies]
        completed = sum(len(run) for run in runs)
        target = slo.queue_delay_target_cycles
        met = completed if target is None else sum(
            bisect_right(run, target) for run in runs)
        per_class[name] = {
            "attainment": round(met / completed, 6),
            "goodput_sessions_per_second": round(
                met / seconds if seconds else 0.0, 6),
            "p99_queue_delay_cycles": _ranked(runs, 99),
            "preemptions": sum(t.preemptions for t in tallies),
            "resizes": sum(t.resizes for t in tallies),
            "sessions_completed": completed,
            "sessions_met_slo": met,
            "tier": slo.tier,
        }
        if faulted:
            per_class[name].update({
                "evacuations": sum(t.evacuations for t in tallies),
                "killed_sessions": sum(t.kills for t in tallies),
                "lost_service_cycles": sum(t.lost_service_cycles
                                           for t in tallies),
            })
    return per_class


@dataclass
class SLOMetrics:
    """Per-SLO-class outcomes distilled from the session records.

    ``attainment`` is the fraction of completed sessions whose admission
    delay met their class target (classes without a target always
    attain); ``goodput_sessions_per_second`` counts only the sessions
    that met it. Everything is computed from the deterministic record
    stream, so the digest is byte-stable across runs.
    """

    #: class name -> {completed, met, attainment, p99, preemptions, ...}
    per_class: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: list[SessionRecord],
                     seconds: float) -> "SLOMetrics":
        return cls(_class_digest([_Fold((records,)).advance()], seconds))

    def digest(self) -> dict:
        return dict(self.per_class)


@dataclass
class ServingMetrics:
    """Accumulates records and samples over one scheduler run.

    The record and sample lists are append-only logs. Summaries are
    read from a private :class:`_Fold` that folds in only what was
    appended since the previous ``summary()``; it is never pickled (a
    restored or copied object rebuilds it on its first summary).
    """

    records: list[SessionRecord] = field(default_factory=list)
    samples: list[ClusterSample] = field(default_factory=list)
    #: Failed admission attempts — topology lock-in, no connected subset
    #: *or* guest-memory exhaustion (the scheduler cannot tell which
    #: phase of ``create_vnpu`` refused, so the counter is named for the
    #: admission attempt, not a single cause).
    admission_failures: int = 0
    #: Sessions dropped because even an empty chip could not host them.
    rejected: int = 0
    #: Elastic-enforcement counters: sessions torn down and requeued for
    #: a higher tier, live resizes by direction, and the total cycles
    #: charged to victims for those resizes.
    preemptions: int = 0
    shrinks: int = 0
    grows: int = 0
    resize_cycles: int = 0

    #: The summary accumulator (not a dataclass field: no init, repr,
    #: comparison or pickling).
    _acc = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_acc", None)
        return state

    def record_departure(self, record: SessionRecord) -> None:
        self.records.append(record)

    def sample(self, sample: ClusterSample) -> None:
        self.samples.append(sample)

    def record_resize(self, cycles: int, grew: bool) -> None:
        if grew:
            self.grows += 1
        else:
            self.shrinks += 1
        self.resize_cycles += cycles

    # -- aggregation -------------------------------------------------------
    def _logs(self) -> "tuple[list, ...]":
        return (self.records, self.samples)

    def _fold(self) -> _Fold:
        """The accumulator, advanced over everything appended since."""
        logs = self._logs()
        if self._acc is None or not self._acc.covers(logs):
            self._acc = _Fold(logs)
        return self._acc.advance()

    def summary(self, frequency_hz: int) -> dict:
        """A JSON-able digest of the run (rounded for stable serialization).

        Incremental and exact: each call folds in only the records and
        samples appended since the previous one — O(new events + SLO
        classes) — and returns exactly what a from-scratch pass over the
        whole history would (same summation order, nearest-rank
        percentiles off sorted delay lists).
        """
        fold = self._fold()
        makespan = self.samples[-1].cycle if self.samples else 0
        seconds = makespan / frequency_hz if makespan else 0.0
        return {
            "sessions_completed": len(self.records),
            "sessions_per_second": round(
                len(self.records) / seconds if seconds else 0.0, 6),
            "makespan_cycles": makespan,
            "queue_delay_cycles": _delay_digest([fold]),
            "utilization_time_weighted": round(_time_weighted(
                self.samples, fold.utilization, "utilization"), 6),
            "fragmentation": {
                "time_weighted_mean": round(_time_weighted(
                    self.samples, fold.fragmentation, "fragmentation"), 6),
                "max": round(0.0 if fold.fragmentation_max is None
                             else fold.fragmentation_max, 6),
            },
            "queue_length_max": fold.queue_max or 0,
            "admission_failures": self.admission_failures,
            "sessions_rejected": self.rejected,
            "slo": {
                "classes": _class_digest([fold], seconds),
                "grows": self.grows,
                "preemptions": self.preemptions,
                "resize_cycles": self.resize_cycles,
                "shrinks": self.shrinks,
            },
        }


@dataclass(frozen=True, slots=True)
class FleetSample:
    """Per-chip cluster state at one simulation instant."""

    cycle: int
    queue_length: int
    free_cores: tuple[int, ...]
    utilization: tuple[float, ...]
    fragmentation: tuple[float, ...]

    @property
    def utilization_spread(self) -> float:
        """Max-minus-min chip utilization: 0.0 means a balanced fleet."""
        return max(self.utilization) - min(self.utilization)


@dataclass
class FleetMetrics(ServingMetrics):
    """ServingMetrics plus per-chip samples and migration accounting.

    The inherited ``samples`` hold the fleet *aggregate* (total free
    cores, fleet-wide utilization, mean fragmentation), so every
    single-chip summary statistic keeps its meaning; ``fleet_samples``
    break the same instants down per chip. The summary's per-chip
    columns and utilization spread are folded incrementally alongside
    the inherited aggregates, so a scrape costs O(new events + chips +
    SLO classes), not O(history).
    """

    fleet_samples: list[FleetSample] = field(default_factory=list)
    #: Completed live migrations and their total cycle cost.
    migrations: int = 0
    migration_cycles: int = 0
    #: Defrag attempts that found no better placement anywhere.
    migration_failures: int = 0
    #: Fault-tolerance counters (fleet level). ``faults_enabled`` is set
    #: by the scheduler when a failure schedule is attached; only then
    #: does the summary grow its ``faults`` block, so fault-free runs
    #: keep their historical byte layout.
    faults_enabled: bool = False
    chip_failures: int = 0
    chip_recoveries: int = 0
    evacuations: int = 0
    evacuation_cycles: int = 0
    killed_sessions: int = 0
    lost_service_cycles: int = 0
    #: Injection history: {"cycle", "action" ("fail"/"recover"),
    #: "chip", "kind"} per event, in injection order — what the
    #: failover bench derives recovery times from.
    fault_log: list[dict] = field(default_factory=list)

    def sample_fleet(self, sample: FleetSample) -> None:
        self.fleet_samples.append(sample)

    def record_migration(self, cycles: int) -> None:
        self.migrations += 1
        self.migration_cycles += cycles

    def record_chip_failure(self, cycle: int, chip: int, kind: str) -> None:
        self.chip_failures += 1
        self.fault_log.append({"action": "fail", "chip": chip,
                               "cycle": cycle, "kind": kind})

    def record_chip_recovery(self, cycle: int, chip: int, kind: str) -> None:
        self.chip_recoveries += 1
        self.fault_log.append({"action": "recover", "chip": chip,
                               "cycle": cycle, "kind": kind})

    def record_evacuation(self, cycles: int) -> None:
        """One resident successfully live-migrated off a failing chip."""
        self.evacuations += 1
        self.evacuation_cycles += cycles

    def record_kill(self, lost_service_cycles: int) -> None:
        """One resident fail-stop-killed; its accrued service discarded."""
        self.killed_sessions += 1
        self.lost_service_cycles += lost_service_cycles

    # -- aggregation -------------------------------------------------------
    def _logs(self) -> "tuple[list, ...]":
        return (self.records, self.samples, self.fleet_samples)

    def per_chip_time_weighted_utilization(self) -> list[float]:
        if not self.fleet_samples:
            return []
        return [round(u, 6) for u in _time_weighted(
            self.fleet_samples, self._fold().chips, "utilization")]

    def summary(self, frequency_hz: int) -> dict:
        """:meth:`ServingMetrics.summary` plus the ``fleet`` block.

        The per-chip columns and the utilization spread come from the
        same incremental fold: O(new events + chips) per call.
        """
        digest = super().summary(frequency_hz)
        fold = self._fold()
        digest["fleet"] = {
            "chips": (len(self.fleet_samples[0].utilization)
                      if self.fleet_samples else 0),
            "migrations": self.migrations,
            "migration_cycles": self.migration_cycles,
            "migration_failures": self.migration_failures,
            "sessions_migrated": fold.migrated,
            "utilization_spread_time_weighted": round(_time_weighted(
                self.fleet_samples, fold.spread, "utilization_spread"), 6),
            "per_chip_utilization_time_weighted":
                self.per_chip_time_weighted_utilization(),
        }
        if self.faults_enabled:
            digest["faults"] = {
                "chip_failures": self.chip_failures,
                "chip_recoveries": self.chip_recoveries,
                "evacuation_cycles": self.evacuation_cycles,
                "evacuations": self.evacuations,
                "killed_sessions": self.killed_sessions,
                "lost_service_cycles": self.lost_service_cycles,
            }
        return digest


def merge_fleet_summaries(parts: "list[FleetMetrics]",
                          core_counts: "list[int]",
                          chip_offsets: "list[int]",
                          frequency_hz: int,
                          recovery: "dict | None" = None) -> dict:
    """Aggregate per-shard :class:`FleetMetrics` into one fleet digest.

    The sharded coordinator's summary: the shape mirrors
    :meth:`FleetMetrics.summary` so downstream tooling reads both, with
    a ``sharding.per_shard`` breakdown instead of per-chip columns.
    Built from the per-shard incremental folds, never from merged
    records: counts and delay sums add up, percentiles are selected
    exactly across the shards' sorted delay lists, counters are summed
    in shard order and utilization/fragmentation are core-weighted
    across shards. The digest equals one computed over all records
    merged in ``(depart_cycle, session_id)`` order, so it depends only
    on the shard decomposition, never on how shards were spread over
    workers — and a repeated call costs O(shards x (classes + log n)).
    (``chip_offsets`` map shard-local chip indices to fleet-global
    ones; no digest field reads a record's chip, so they are only
    validated here.)

    Two aggregate caveats, both deliberate: ``queue_length_max`` is the
    max over per-shard maxima (shard queues are disjoint; instants are
    not aligned across engines, so a fleet-instant queue length does
    not exist), and the time-weighted means weight each shard's own
    makespan-normalized series by its core share.

    ``recovery``, when given, is attached verbatim as the digest's
    ``recovery`` block — the coordinator's host-process supervision
    counters (respawns, replayed epochs, degraded shards). It follows
    the same only-when-active convention as the ``faults`` block:
    callers pass ``None`` for crash-free runs so those digests keep
    their historical byte layout.
    """
    if not (len(parts) == len(core_counts) == len(chip_offsets)):
        raise ValueError(
            f"merge needs aligned inputs; got {len(parts)} metrics, "
            f"{len(core_counts)} core counts, {len(chip_offsets)} offsets")
    folds = [part._fold() for part in parts]
    completed = sum(len(p.records) for p in parts)
    makespan = max((p.samples[-1].cycle for p in parts if p.samples),
                   default=0)
    seconds = makespan / frequency_hz if makespan else 0.0
    total_cores = sum(core_counts) or 1
    utilization = [_time_weighted(p.samples, f.utilization, "utilization")
                   for p, f in zip(parts, folds)]
    fragmentation = [
        _time_weighted(p.samples, f.fragmentation, "fragmentation")
        for p, f in zip(parts, folds)]

    def core_weighted(values: "list[float]") -> float:
        return sum(v * c for v, c in zip(values, core_counts)) / total_cores

    def chips(part: FleetMetrics) -> int:
        return (len(part.fleet_samples[0].utilization)
                if part.fleet_samples else 0)

    digest = {
        "sessions_completed": completed,
        "sessions_per_second": round(
            completed / seconds if seconds else 0.0, 6),
        "makespan_cycles": makespan,
        "queue_delay_cycles": _delay_digest(folds),
        "utilization_time_weighted": round(core_weighted(utilization), 6),
        "fragmentation": {
            "time_weighted_mean": round(core_weighted(fragmentation), 6),
            "max": round(max((f.fragmentation_max for f in folds
                              if f.fragmentation_max is not None),
                             default=0.0), 6),
        },
        "queue_length_max": max((f.queue_max for f in folds
                                 if f.queue_max is not None), default=0),
        "admission_failures": sum(p.admission_failures for p in parts),
        "sessions_rejected": sum(p.rejected for p in parts),
        "slo": {
            "classes": _class_digest(folds, seconds),
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
            "sessions_migrated": sum(f.migrated for f in folds),
        },
        "sharding": {
            "shards": len(parts),
            "per_shard": [
                {
                    "chips": chips(p),
                    "sessions_completed": len(p.records),
                    "makespan_cycles": (p.samples[-1].cycle
                                        if p.samples else 0),
                    "utilization_time_weighted": round(u, 6),
                    "fragmentation_time_weighted": round(f, 6),
                    "migrations": p.migrations,
                }
                for p, u, f in zip(parts, utilization, fragmentation)
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
