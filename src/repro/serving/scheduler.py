"""The cluster scheduler: an event-driven multi-tenant serving loop.

:class:`ClusterScheduler` runs on the chip's existing
:class:`~repro.sim.engine.Simulator`: a trace of
:class:`~repro.serving.workload.TenantSession` requests arrives over
simulated time; each session is admitted (or queued) by the configured
admission policy, provisioned as a vNPU through the hypervisor, served
for its estimated model runtime, then destroyed — freeing cores and
memory for the queue. The loop is the churn the paper's evaluation is
about: placements happen under fragmentation left by earlier tenants,
which is why the hypervisor's ``map_similar`` cache and the registered
mapping strategies sit directly on this path.

Service time is priced by a pluggable :class:`~repro.cost.CostModel`
tier — ``analytic`` (the default closed-form solo steady state),
``executor`` (full event-driven runs of the compiled workload) or
``cached`` (memoized executor runs per placement class). Cross-tenant
slowdown is deliberately not fed back into durations — it would make
every departure time depend on the whole residency history — but the
placement quality (mapping distance, fragmentation) is recorded per
session, so interference-prone placements remain visible in the
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.chip import Chip
from repro.core.hypervisor import Hypervisor
from repro.core.strategies import resolve_strategy
from repro.core.vnpu import VNpuSpec
from repro.cost import AnalyticCostModel, CostModel, coerce_cost_model
from repro.errors import AllocationError, ServingError
from repro.serving.metrics import (
    ClusterSample,
    ServingMetrics,
    SessionRecord,
    fragmentation_ratio,
)
from repro.serving.policies import AdmissionPolicy, coerce_policy  # noqa: F401  (re-export)
from repro.serving.slo import (
    ElasticAction,
    ElasticPolicy,
    ElasticVictim,
    SLOClass,
    coerce_elastic,
    make_victim,
    reprice,
    resize_memory_bytes,
    session_slo,
    shrink_shape,
)
from repro.serving.workload import MODEL_BUILDERS, TenantSession  # noqa: F401  (re-export)


@dataclass(slots=True)
class PendingSession:
    """A queued arrival; ``blocked`` marks a failed placement attempt.

    Blocked entries are skipped by policies until a departure changes the
    free-core set (re-trying the same placement against the same free set
    would fail identically). ``preemptions`` counts how many times this
    session was elastically evicted back into the queue.
    """

    session: TenantSession
    blocked: bool = False
    preemptions: int = 0
    #: Fault-tolerance history carried across a kill-and-requeue: how
    #: often this session was evacuated or killed before, and the
    #: service cycles those kills discarded (flows into the final
    #: :class:`~repro.serving.metrics.SessionRecord`).
    evacuations: int = 0
    kills: int = 0
    lost_service_cycles: int = 0
    #: Set when an elastic-relief round was spent on this entry and its
    #: placement *still* failed (a topology problem squeezing cannot
    #: fix this instant). Cleared, like ``blocked``, when a departure
    #: changes the free set — without it a preempt-capable policy can
    #: livelock: evict a victim, fail to place, watch the victim
    #: re-admit to the same cores, evict again, forever.
    relief_exhausted: bool = False
    #: Set when a fleet defragmentation round was spent on this entry;
    #: cleared with ``relief_exhausted``. Migrations unblock every queued
    #: entry, so without it two blocked entries can migrate the same
    #: tenants back and forth forever at one simulated cycle.
    defrag_spent: bool = False


@dataclass(slots=True)
class ActiveSession:
    session: TenantSession
    vmid: int
    admit_cycle: int
    strategy: str
    mapping_distance: float
    mapping_connected: bool
    slo: SLOClass
    #: Mesh the session currently *holds* (differs from the request
    #: while elastically shrunk).
    rows: int
    cols: int
    #: Full-service estimate on the current placement and the absolute
    #: cycle the session is currently projected to depart at.
    service_total: int
    expected_depart: int
    resizes: int = 0
    preemptions: int = 0
    #: Set when the session is elastically evicted: the sleeping
    #: lifetime process must vanish instead of departing.
    preempted: bool = False

    @property
    def cores(self) -> int:
        return self.rows * self.cols

    @property
    def shrunk(self) -> bool:
        return self.cores < self.session.core_count

    def sized_session(self) -> TenantSession:
        """The session re-shaped to its *current* allocation, for the
        cost model (which prices by the held mesh, not the request)."""
        if not self.shrunk:
            return self.session
        return replace(self.session, rows=self.rows, cols=self.cols,
                       memory_bytes=resize_memory_bytes(self.session,
                                                        self.cores))


def drive_simulation(sim, until: int | None, limit: int | None) -> int:
    """Shared scheduler run dispatch: bounded run or run-to-completion.

    ``until`` bounds simulated time (no deadlock detection); ``limit``
    overrides the run-to-completion deadlock horizon. The combination is
    a contradiction and rejected.
    """
    if until is not None:
        if limit is not None:
            raise ServingError(
                "pass either until (bounded run) or limit (deadlock "
                "horizon), not both")
        return sim.run(until=until)
    if limit is not None:
        return sim.run_until_processes_done(limit=limit)
    return sim.run_until_processes_done()


def requeue_in_arrival_order(pending: "list[PendingSession]",
                             session: TenantSession,
                             preemptions: int,
                             evacuations: int = 0,
                             kills: int = 0,
                             lost_service_cycles: int = 0) -> PendingSession:
    """Put a preempted (or fault-killed) session back in the queue *by
    arrival cycle*.

    FCFS walks list order, so a tail append would silently cost the
    victim its place in line on top of the restarted service. Shared by
    both schedulers so the requeue discipline cannot drift. The
    fault-tolerance counters ride along so a session killed by a chip
    failure keeps its history through re-admission.
    """
    requeued = PendingSession(session, preemptions=preemptions,
                              evacuations=evacuations, kills=kills,
                              lost_service_cycles=lost_service_cycles)
    key = (session.arrival_cycle, session.session_id)
    index = len(pending)
    for i, entry in enumerate(pending):
        if (entry.session.arrival_cycle, entry.session.session_id) > key:
            index = i
            break
    pending.insert(index, requeued)
    return requeued


#: Backward-compatible alias: the serving layer's original memoized
#: estimator is now the cost engine's ``analytic`` tier.
ServiceTimeEstimator = AnalyticCostModel

#: Scheduler-knob defaults, used to tell "explicitly passed" from
#: "left at default" when merging kwargs over a ``config=``.
_CLUSTER_DEFAULTS: dict = {
    "policy": "fcfs",
    "strategy": None,
    "cost_model": "analytic",
    "elastic": None,
}


class ClusterScheduler:
    """Serves a tenant trace on one chip through the hypervisor."""

    def __init__(self, chip: Chip,
                 hypervisor: Hypervisor | None = None,
                 policy: AdmissionPolicy | str = "fcfs",
                 strategy: str | None = None,
                 cost_model: "CostModel | str" = "analytic",
                 elastic: "ElasticPolicy | str | None" = None,
                 config=None) -> None:
        if config is not None:
            # A ServingConfig baseline (single-chip subset); explicitly
            # moved kwargs win, like FleetScheduler(config=...).
            merged = dict(config.cluster_kwargs())
            passed = {"policy": policy, "strategy": strategy,
                      "cost_model": cost_model, "elastic": elastic}
            for key, value in passed.items():
                if value != _CLUSTER_DEFAULTS[key]:
                    merged[key] = value
            policy = merged["policy"]
            strategy = merged["strategy"]
            cost_model = merged["cost_model"]
            elastic = merged["elastic"]
        self.chip = chip
        self.sim = chip.sim
        self.hypervisor = hypervisor or Hypervisor(chip)
        self.policy = coerce_policy(policy)
        if strategy is not None:
            resolve_strategy(strategy)  # fail fast, like the hypervisor
        #: Mapping-strategy name forwarded to ``create_vnpu`` (None ->
        #: the hypervisor's default).
        self.strategy = strategy
        #: SLO enforcement: None = static behavior (queue and wait).
        self.elastic = coerce_elastic(elastic)
        self.metrics = ServingMetrics()
        self._pending: list[PendingSession] = []
        self._active: dict[int, ActiveSession] = {}
        #: The fidelity tier pricing every session's residency.
        self.cost_model = coerce_cost_model(cost_model)
        self._trace_loaded = False

    @property
    def estimator(self) -> CostModel:
        """Historical name for the pricing engine (now any cost tier)."""
        return self.cost_model

    @estimator.setter
    def estimator(self, model: "CostModel | str") -> None:
        # Pre-cost-engine code assigned estimators directly; keep that
        # working (validated the same way as the constructor argument).
        self.cost_model = coerce_cost_model(model)

    def mapper_stats(self) -> dict[str, int | float]:
        """The hypervisor mapper's cache and fast-path pruning counters."""
        return self.hypervisor.mapper.cache_stats()

    # -- public API --------------------------------------------------------
    def register_model(self, name: str, builder) -> None:
        """Make ``builder`` (zero-arg -> ModelGraph) available to traces."""
        self.cost_model.register_model(name, builder)

    def submit(self, trace: list[TenantSession]) -> None:
        """Queue a trace; arrivals are replayed at their recorded cycles."""
        if self._trace_loaded:
            raise ServingError("scheduler already has a trace submitted")
        ordered = sorted(trace, key=lambda s: (s.arrival_cycle, s.session_id))
        for session in ordered:
            if session.model not in self.cost_model.models:
                raise ServingError(
                    f"session {session.session_id} wants unknown model "
                    f"{session.model!r}"
                )
            if session.core_count > self.chip.core_count:
                raise ServingError(
                    f"session {session.session_id} wants "
                    f"{session.core_count} cores; chip has "
                    f"{self.chip.core_count}"
                )
            capacity = self.hypervisor.guest_memory_capacity
            if session.memory_bytes > capacity:
                # Mirror the core check: a request no empty chip can
                # ever satisfy must be refused up front, not parked
                # behind a busy queue forever.
                raise ServingError(
                    f"session {session.session_id} wants "
                    f"{session.memory_bytes} guest bytes; chip can map "
                    f"{capacity}"
                )
        self.sim.process(self._arrivals(ordered), name="serving-arrivals")
        self._trace_loaded = True

    def run(self, until: int | None = None,
            limit: int | None = None) -> int:
        """Drive the simulation until the trace is fully served.

        ``limit`` overrides the engine's deadlock-detection horizon —
        long traces priced by the slower (higher-fidelity) cost tiers
        can legitimately outlive the default. It only applies to
        run-to-completion; combining it with ``until`` (a bounded run
        with no deadlock detection) is a contradiction and rejected.
        """
        if not self._trace_loaded:
            raise ServingError("submit() a trace before run()")
        return drive_simulation(self.sim, until, limit)

    def serve(self, trace: list[TenantSession],
              limit: int | None = None) -> ServingMetrics:
        """Convenience: submit + run + return the metrics."""
        self.submit(trace)
        self.run(limit=limit)
        return self.metrics

    # -- simulation processes ----------------------------------------------
    def _arrivals(self, trace: list[TenantSession]):
        for session in trace:
            gap = session.arrival_cycle - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
            self._pending.append(PendingSession(session))
            self._admit_loop()
            self._sample()

    def _session_lifetime(self, active: ActiveSession):
        # ``expected_depart`` may move while we sleep (an elastic resize
        # stretched the victim); keep sleeping until it stops receding.
        # A projection that moved *earlier* (grow-back) cannot wake the
        # already-scheduled timeout, so the session departs at the
        # originally scheduled instant — growth restores the service
        # rate going forward, it never time-travels the current sleep.
        while True:
            remaining = active.expected_depart - self.sim.now
            if remaining <= 0:
                break
            yield self.sim.timeout(remaining)
            if active.preempted:
                return  # evicted mid-sleep; the requeued entry took over
        self._depart(active)
        # A departure changes the free set: parked placements get a new
        # try, and spent relief rounds may be worth another shot.
        for entry in self._pending:
            entry.blocked = False
            entry.relief_exhausted = False
        self._admit_loop()
        self._grow_back()
        self._sample()

    # -- admission ---------------------------------------------------------
    def _admit_loop(self) -> None:
        while True:
            entry = self.policy.select(self._pending,
                                       self.hypervisor.free_core_count())
            if entry is not None:
                self._try_admit(entry)
                continue
            if not self._elastic_relief():
                return

    def _try_admit(self, entry: PendingSession) -> None:
        session = entry.session
        spec = VNpuSpec(
            name=session.tenant,
            topology=session.shape,
            memory_bytes=session.memory_bytes,
        )
        try:
            vnpu = self.hypervisor.create_vnpu(spec, strategy=self.strategy)
        except AllocationError:
            self.metrics.admission_failures += 1
            if not self.hypervisor.vnpus:
                # Even an empty chip cannot host this request: drop it
                # instead of deadlocking the queue behind it. (Checked
                # against the hypervisor, not our own sessions — a shared
                # hypervisor may host tenants we did not admit.)
                self._pending.remove(entry)
                self.metrics.rejected += 1
            else:
                entry.blocked = True
            return
        self._pending.remove(entry)
        service = self.cost_model.service_cycles(self.chip, session, vnpu)
        active = ActiveSession(
            session=session,
            vmid=vnpu.vmid,
            admit_cycle=self.sim.now,
            strategy=vnpu.mapping.strategy,
            mapping_distance=vnpu.mapping.distance,
            mapping_connected=vnpu.mapping.connected,
            slo=session_slo(session),
            rows=session.rows,
            cols=session.cols,
            service_total=service,
            expected_depart=self.sim.now + service,
            preemptions=entry.preemptions,
        )
        self._active[vnpu.vmid] = active
        self.sim.process(
            self._session_lifetime(active),
            name=f"serving-session-{session.session_id}"
                 f"-{entry.preemptions}",
        )
        # No sample here: the _admit_loop caller samples once afterwards,
        # and same-cycle duplicates carry zero weight in the summaries.

    def _depart(self, active: ActiveSession) -> None:
        self.hypervisor.destroy_vnpu(active.vmid)
        del self._active[active.vmid]
        session = active.session
        self.metrics.record_departure(SessionRecord(
            session_id=session.session_id,
            tenant=session.tenant,
            model=session.model,
            cores=session.core_count,
            arrival_cycle=session.arrival_cycle,
            admit_cycle=active.admit_cycle,
            depart_cycle=self.sim.now,
            strategy=active.strategy,
            mapping_distance=active.mapping_distance,
            mapping_connected=active.mapping_connected,
            slo=active.slo.name,
            preemptions=active.preemptions,
            resizes=active.resizes,
        ))

    # -- elastic enforcement ------------------------------------------------
    def _elastic_relief(self) -> bool:
        """Shrink/preempt lower tiers for the neediest blocked arrival.

        Returns True when at least one enforcement action landed (the
        free set changed, so the admit loop should try again). The loop
        stays finite because a relief round that fails to place its
        entry marks it ``relief_exhausted`` until the next departure:
        preemption is not monotonic (an evicted victim can re-admit to
        the same cores), so only the plan-is-empty condition is not
        enough to terminate.
        """
        if self.elastic is None:
            return False
        free = self.hypervisor.free_core_count()
        now = self.sim.now
        candidates = sorted(
            (e for e in self._pending
             if not e.relief_exhausted
             and (e.blocked or e.session.core_count > free)
             and session_slo(e.session).relief_due(
                 now - e.session.arrival_cycle)),
            key=lambda e: (-session_slo(e.session).tier,
                           e.session.arrival_cycle, e.session.session_id),
        )
        if not candidates:
            return False
        entry = candidates[0]
        tier = session_slo(entry.session).tier
        needed = max(1, entry.session.core_count - free)
        victims = self._victims(tier)
        actions = self.elastic.plan(needed, victims)
        executed = 0
        for action in actions:
            if self._execute_action(action):
                executed += 1
        if executed == 0:
            return False
        for pending in self._pending:
            pending.blocked = False
        # The squeeze happened on *this* entry's behalf: place it first,
        # before any queue-mate (under fcfs/best_fit a lower-tier head
        # would otherwise consume the just-freed cores and the victims
        # would have been squeezed for nothing). A failed attempt spends
        # the entry's relief budget for this instant — the plan covered
        # the core *count*, so what remains is a topology problem more
        # squeezing cannot fix right now.
        self._try_admit(entry)
        if entry in self._pending:
            entry.relief_exhausted = True
        return True

    def _victims(self, below_tier: int) -> list[ElasticVictim]:
        victims = []
        for vmid in sorted(self._active):
            active = self._active[vmid]
            if active.slo.tier >= below_tier:
                continue
            victim = make_victim(active)
            if victim is not None:
                victims.append(victim)
        return victims

    def _execute_action(self, action: ElasticAction) -> bool:
        active = action.victim.key
        if action.kind == "shrink":
            return self._shrink(active)
        if action.kind == "preempt":
            return self._preempt(active)
        raise ServingError(f"unknown elastic action {action.kind!r}")

    def _shrink(self, active: ActiveSession) -> bool:
        smaller = shrink_shape(active.rows, active.cols)
        if smaller is None:
            return False
        return self._resize(active, smaller)

    def _resize(self, active: ActiveSession, shape) -> bool:
        """Live-resize ``active`` to ``shape`` and re-price its residency."""
        grew = shape.node_count > active.cores
        spec = VNpuSpec(
            name=active.session.tenant,
            topology=shape,
            memory_bytes=resize_memory_bytes(active.session,
                                             shape.node_count),
        )
        try:
            vnpu, charge = self.hypervisor.resize_vnpu(
                active.vmid, spec, strategy=self.strategy)
        except AllocationError:
            return False
        active.rows, active.cols = shape.rows, shape.cols
        active.strategy = vnpu.mapping.strategy
        active.mapping_distance = vnpu.mapping.distance
        active.mapping_connected = vnpu.mapping.connected
        active.resizes += 1
        new_total = self.cost_model.service_cycles(
            self.chip, active.sized_session(), vnpu)
        reprice(active, new_total, charge, self.sim.now)
        self.metrics.record_resize(charge, grew=grew)
        return True

    def _preempt(self, active: ActiveSession) -> bool:
        self.hypervisor.destroy_vnpu(active.vmid)
        del self._active[active.vmid]
        active.preempted = True
        self.metrics.preemptions += 1
        requeue_in_arrival_order(self._pending, active.session,
                                 active.preemptions + 1)
        return True

    def _grow_back(self) -> None:
        """Give shrunk sessions their cores back once the queue is clear.

        Conservative by design: growth only happens when nothing is
        waiting (queued arrivals outrank a squeezed tenant's comfort),
        highest tier first.
        """
        if self.elastic is None or self._pending:
            return
        shrunk = sorted(
            (a for a in self._active.values() if a.shrunk),
            key=lambda a: (-a.slo.tier, a.admit_cycle, a.session.session_id),
        )
        for active in shrunk:
            self._resize(active, active.session.shape)

    # -- observability -----------------------------------------------------
    def _sample(self) -> None:
        allocated = self.hypervisor.allocated_cores
        self.metrics.sample(ClusterSample(
            cycle=self.sim.now,
            free_cores=self.chip.core_count - len(allocated),
            utilization=self.hypervisor.core_utilization(),
            fragmentation=fragmentation_ratio(self.chip.topology, allocated),
            queue_length=len(self._pending),
        ))
