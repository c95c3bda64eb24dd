"""Layer boundaries the traced run wraps, and the per-layer metrics.

Every target is a public entry point of one layer, patched from the
benchmark's side (see :mod:`tracer`); nothing under ``src/`` knows it is
being traced. :func:`layer_metrics` turns one run's spans, accumulators,
counters and the program's own counters into the ``per_layer`` metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

NS = 1e-9


def program_targets() -> list[tuple]:
    """Every in-process layer boundary: ``(owner, attr, kind, name)``."""
    from repro.core import hypervisor, topology_mapping
    from repro.cost import model as cost_model
    from repro.serving import fleet, metrics, policies, protocol, service
    from repro.serving import shard, slo
    from repro.sim import engine

    sim = engine.Simulator
    return [
        (sim, "run", "span", "sim.engine"),
        (sim, "run_until_processes_done", "span", "sim.engine"),
        (sim, "step", "span", "sim.engine"),
        (sim, "timeout", "count", "sim.engine.events"),
        (sim, "process", "count", "sim.engine.events"),
        (policies.FCFSPolicy, "select", "span", "serving.policies.select"),
        (policies.BestFitPolicy, "select", "span",
         "serving.policies.select"),
        (policies.PriorityPolicy, "select", "span",
         "serving.policies.select"),
        (slo.ShrinkPolicy, "plan", "span", "serving.slo.plan"),
        (slo.PreemptPolicy, "plan", "span", "serving.slo.plan"),
        (slo.ShrinkThenPreemptPolicy, "plan", "span", "serving.slo.plan"),
        (fleet.LeastLoadedPlacement, "rank", "span", "serving.fleet.rank"),
        (fleet.BestFitPlacement, "rank", "span", "serving.fleet.rank"),
        (fleet.PowerOfTwoPlacement, "rank", "span", "serving.fleet.rank"),
        (fleet.FleetChip, "free_cores", "accumulate",
         "serving.fleet.chip_scan"),
        (fleet.FleetChip, "utilization", "accumulate",
         "serving.fleet.chip_scan"),
        (fleet.FleetChip, "fragmentation", "accumulate",
         "serving.fleet.chip_scan"),
        (topology_mapping.TopologyMapper, "map_similar", "span",
         "core.topology_mapping.map"),
        (hypervisor.Hypervisor, "create_vnpu", "span",
         "core.hypervisor.create"),
        (hypervisor.Hypervisor, "destroy_vnpu", "span",
         "core.hypervisor.destroy"),
        (hypervisor.Hypervisor, "migrate_vnpu", "span",
         "core.hypervisor.migrate"),
        (hypervisor.Hypervisor, "resize_vnpu", "span",
         "core.hypervisor.resize"),
        (cost_model.CostModel, "service_cycles", "span",
         "cost.service_cycles"),
        (metrics.ServingMetrics, "record_departure", "span",
         "serving.metrics.record"),
        (metrics.ServingMetrics, "sample", "span", "serving.metrics.record"),
        (metrics.FleetMetrics, "sample_fleet", "span",
         "serving.metrics.record"),
        (metrics.FleetMetrics, "summary", "span", "serving.metrics.summary"),
        (shard, "merge_fleet_summaries", "span", "serving.metrics.summary"),
        # The service module binds the framing helpers by name, so both
        # bindings are wrapped.
        (protocol, "encode_message", "accumulate",
         "serving.protocol.framing"),
        (protocol, "decode_message", "accumulate",
         "serving.protocol.framing"),
        (service, "encode_message", "accumulate",
         "serving.protocol.framing"),
        (service, "decode_message", "accumulate",
         "serving.protocol.framing"),
        (service.ControlPlane, "handle_message", "span",
         "serving.protocol.handle"),
        (service.ControlPlane, "admit", "span", "serving.service.admit"),
        (service.ControlPlane, "drain", "span", "serving.service.drain"),
        (shard.ShardSlice, "run_epoch", "span", "serving.shard.run_epoch"),
    ]


def coordinator_targets() -> list[tuple]:
    """The shard coordinator's fence loop (a multi-worker run)."""
    from repro.serving import shard

    coordinator = shard.ShardedFleetScheduler
    return [
        (coordinator, "run", "span", "serving.shard.run"),
        (coordinator, "_receive", "span", "serving.shard.receive"),
        (coordinator, "_finalize", "span", "serving.shard.finalize"),
        (coordinator, "_stash", "span", "serving.shard.stash"),
        (coordinator, "_stash", _blob_bytes, "serving.shard.checkpoint_bytes"),
    ]


def _blob_bytes(tracer, name, fn):
    """Sum the checkpoint blob bytes the coordinator stashes per fence."""
    tracer.counters.setdefault(name, 0)

    def stash(self, blobs):
        tracer.counters[name] += sum(len(blob) for blob in blobs.values())
        return fn(self, blobs)
    return stash


def _span(totals: dict, name: str) -> dict:
    return totals.get(name, {"calls": 0, "failed": 0, "ns": 0, "self_ns": 0})


def layer_metrics(totals: dict, accumulators: dict, counters: dict,
                  summary: dict, mapper: dict, *,
                  admit_rtts_s: "list[float]",
                  coordinator: "dict | None" = None,
                  coordinator_counters: "dict | None" = None
                  ) -> dict[str, tuple]:
    """Per-layer metrics as ``name -> (value, unit)``.

    ``totals`` comes from :meth:`Tracer.span_totals` of the run that
    hosts the simulation layers; ``coordinator`` and
    ``coordinator_counters`` from a multi-worker shard run's coordinator
    tracer (``None`` for the other workloads).
    ``summary`` and ``mapper`` are the program's own final summary and
    ``mapper_stats()``.
    """
    engine = _span(totals, "sim.engine")
    select = _span(totals, "serving.policies.select")
    plan = _span(totals, "serving.slo.plan")
    rank = _span(totals, "serving.fleet.rank")
    scan = accumulators.get("serving.fleet.chip_scan", [0, 0])
    mapping = _span(totals, "core.topology_mapping.map")
    create = _span(totals, "core.hypervisor.create")
    destroy = _span(totals, "core.hypervisor.destroy")
    migrate = _span(totals, "core.hypervisor.migrate")
    resize = _span(totals, "core.hypervisor.resize")
    pricing = _span(totals, "cost.service_cycles")
    record = _span(totals, "serving.metrics.record")
    summaries = _span(totals, "serving.metrics.summary")
    handle = _span(totals, "serving.protocol.handle")
    framing = accumulators.get("serving.protocol.framing", [0, 0])
    admit = _span(totals, "serving.service.admit")
    drain = _span(totals, "serving.service.drain")
    run_epoch = _span(totals, "serving.shard.run_epoch")
    coordinator = coordinator or {}
    receive = _span(coordinator, "serving.shard.receive")
    coordinator_run = _span(coordinator, "serving.shard.run")
    placements = create["calls"] - create["failed"]
    slo = summary["slo"]
    sharding = summary.get("sharding", {})
    return {
        "sim.engine.self_s": (engine["self_ns"] * NS, "s"),
        "sim.engine.events": (counters.get("sim.engine.events", 0), "count"),
        "serving.policies.select_calls": (select["calls"], "count"),
        "serving.policies.select_s": (select["ns"] * NS, "s"),
        "serving.slo.plan_calls": (plan["calls"], "count"),
        "serving.slo.relief_actions": (slo["shrinks"] + slo["preemptions"],
                                       "count"),
        "serving.fleet.rank_calls": (rank["calls"], "count"),
        "serving.fleet.rank_self_s": (rank["self_ns"] * NS, "s"),
        "serving.fleet.chip_scan_calls": (scan[0], "count"),
        "serving.fleet.chip_scan_s": (scan[1] * NS, "s"),
        "serving.fleet.migrations": (summary["fleet"]["migrations"],
                                     "count"),
        "core.topology_mapping.map_calls": (mapping["calls"], "count"),
        "core.topology_mapping.map_failed": (mapping["failed"], "count"),
        "core.topology_mapping.map_s": (mapping["ns"] * NS, "s"),
        "core.topology_mapping.maps_per_placement": (
            mapping["calls"] / placements if placements else 0.0, "ratio"),
        "core.topology_mapping.cache_hit_rate": (mapper["hit_rate"],
                                                 "ratio"),
        "core.topology_mapping.objective_evaluations": (
            mapper["objective_evaluations"], "count"),
        "core.topology_mapping.free_rebuilds": (mapper["free_rebuilds"],
                                                "count"),
        "core.hypervisor.create_calls": (create["calls"], "count"),
        "core.hypervisor.create_failed": (create["failed"], "count"),
        "core.hypervisor.create_self_s": (create["self_ns"] * NS, "s"),
        "core.hypervisor.destroy_s": (destroy["ns"] * NS, "s"),
        "core.hypervisor.migrate_calls": (migrate["calls"], "count"),
        "core.hypervisor.resize_calls": (resize["calls"], "count"),
        "cost.service_cycles_calls": (pricing["calls"], "count"),
        "cost.service_cycles_s": (pricing["ns"] * NS, "s"),
        "serving.metrics.record_s": (record["ns"] * NS, "s"),
        "serving.metrics.summary_calls": (summaries["calls"], "count"),
        "serving.metrics.summary_s": (summaries["ns"] * NS, "s"),
        "serving.protocol.requests": (handle["calls"], "count"),
        "serving.protocol.admit_rtt_p50_ms": (
            statistics.median(admit_rtts_s) * 1e3 if admit_rtts_s else 0.0,
            "ms"),
        "serving.protocol.framing_s": (framing[1] * NS, "s"),
        "serving.service.admit_s": (admit["ns"] * NS, "s"),
        "serving.service.drain_s": (drain["ns"] * NS, "s"),
        "serving.shard.epochs": (sharding.get("epochs", 0), "count"),
        "serving.shard.fence_wait_s": (receive["ns"] * NS, "s"),
        "serving.shard.run_epoch_s": (run_epoch["ns"] * NS, "s"),
        "serving.shard.coordinator_self_s": (
            coordinator_run["self_ns"] * NS, "s"),
        "serving.shard.checkpoint_bytes": (
            (coordinator_counters or {}).get(
                "serving.shard.checkpoint_bytes", 0), "bytes"),
        "serving.shard.deferred": (sharding.get("deferred_total", 0),
                                   "count"),
        "serving.shard.spills": (sharding.get("spills_committed", 0),
                                 "count"),
    }
