"""Incremental core accounting equals recomputation from the residents.

``Hypervisor`` keeps its allocated-core set and a ``version`` counter
up to date in ``_provision``/``_teardown`` only, and ``FleetChip``
caches ``fragmentation()`` against that version. The oracle here is
the from-scratch union over ``hypervisor.vnpus`` (and
``fragmentation_ratio`` over it): seeded random lifecycles — creates
refused or failing mid-provision, destroys, kills, in-place and
cross-chip migrations, resizes that shrink, grow or relocate, rollbacks,
snapshot/restore — and full fleet runs with defrag, elastic relief and
injected faults must agree with it after every step.
"""

import random

import pytest

from repro.arch.chip import Chip
from repro.arch.config import MB, sim_config
from repro.arch.topology import MeshShape
from repro.core.hypervisor import Hypervisor
from repro.core.vnpu import VNpuSpec
from repro.errors import AllocationError
from repro.serving import (
    DEFAULT_SLO_MIX,
    DefragPolicy,
    FleetScheduler,
    generate_failure_schedule,
    generate_fleet_trace,
)
from repro.serving.metrics import fragmentation_ratio

SHAPES = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)]
SEEDS = [1, 7, 13, 42, 97, 2025]


def recomputed_allocated(hypervisor):
    """The oracle: union of every resident's cores."""
    cores = set()
    for vnpu in hypervisor.vnpus:
        cores.update(vnpu.physical_cores)
    return cores


def assert_accounting(hypervisor):
    expected = recomputed_allocated(hypervisor)
    count = hypervisor.chip.core_count
    assert hypervisor.allocated_cores == expected
    assert hypervisor.free_core_count() == count - len(expected)
    assert hypervisor.core_utilization() == len(expected) / count
    assert hypervisor.mapper._tracked_allocated == expected


def random_spec(rng, tag):
    rows, cols = rng.choice(SHAPES)
    return VNpuSpec(name=f"acct-{tag}", topology=MeshShape(rows, cols),
                    memory_bytes=rows * cols * rng.choice([8, 16, 64]) * MB)


def fail_next(hypervisor, method):
    """Make the next call of ``hypervisor.<method>`` raise once."""
    def failing(*args, **kwargs):
        del hypervisor.__dict__[method]  # one-shot: back to the class
        raise AllocationError(f"injected {method} failure")
    setattr(hypervisor, method, failing)


def classify_resize(old_cores, new_cores):
    if new_cores < old_cores:
        return "shrink_in_place"
    if new_cores > old_cores:
        return "grow_in_place"
    if new_cores == old_cores:
        return "same_cores"
    return "relocate"


def lifecycle(seed, steps=150):
    """Random operations on two chips; returns the operations that ran.

    The accounting oracle is asserted on both chips after every step.
    """
    rng = random.Random(seed)
    chips = [Hypervisor(Chip(sim_config(16))) for _ in range(2)]
    seen = set()
    for step in range(steps):
        hv = rng.choice(chips)
        other = chips[1] if hv is chips[0] else chips[0]
        residents = [v.vmid for v in hv.vnpus]
        roll = rng.random()
        if not residents or roll < 0.30:
            inject = rng.choice([None, None, None,
                                 "_allocate_memory", "_install_meta_tables"])
            if inject:
                fail_next(hv, inject)
            before = (hv.version, hv.allocated_cores)
            try:
                hv.create_vnpu(random_spec(rng, step))
                seen.add("create")
            except AllocationError:
                # A refused create leaves no trace in the accounting.
                assert (hv.version, hv.allocated_cores) == before
                mid_provision = inject and inject not in hv.__dict__
                seen.add(f"create_refused_{inject}" if mid_provision
                         else "create_refused")
            if inject:
                hv.__dict__.pop(inject, None)
        elif roll < 0.42:
            hv.destroy_vnpu(rng.choice(residents))
            seen.add("destroy")
        elif roll < 0.50:
            vnpu = hv.vnpu(rng.choice(residents))
            assert hv.kill_vnpu(vnpu.vmid) == vnpu.memory_bytes
            seen.add("kill")
        elif roll < 0.68:
            vmid = rng.choice(residents)
            cross = rng.random() < 0.5
            target = other if cross else hv
            rollback = rng.random() < 0.3
            old_cores = set(hv.vnpu(vmid).physical_cores)
            if rollback:
                fail_next(target, "_install_meta_tables")
            try:
                hv.migrate_vnpu(vmid, destination=target)
                seen.add("migrate_cross" if cross else "migrate_in_place")
            except AllocationError:
                if rollback and "_install_meta_tables" not in target.__dict__:
                    # The provision on the target failed: the tenant
                    # still sits on its original cores.
                    assert set(hv.vnpu(vmid).physical_cores) == old_cores
                    seen.add("migrate_refused_cross" if cross
                             else "migrate_rollback")
            target.__dict__.pop("_install_meta_tables", None)
        elif roll < 0.94:
            vnpu = hv.vnpu(rng.choice(residents))
            rows, cols = rng.choice(SHAPES)
            request = VNpuSpec(name=vnpu.spec.name,
                               topology=MeshShape(rows, cols),
                               memory_bytes=rows * cols * 16 * MB)
            rollback = rng.random() < 0.2
            old_cores = set(vnpu.physical_cores)
            if rollback:
                fail_next(hv, "_install_meta_tables")
            try:
                resized, _ = hv.resize_vnpu(vnpu.vmid, request)
                seen.add("resize_" + classify_resize(
                    old_cores, set(resized.physical_cores)))
            except AllocationError:
                if rollback and "_install_meta_tables" not in hv.__dict__:
                    assert set(hv.vnpu(vnpu.vmid).physical_cores) \
                        == old_cores
                    seen.add("resize_rollback")
            hv.__dict__.pop("_install_meta_tables", None)
        else:
            fresh = Hypervisor(Chip(sim_config(16)))
            fresh.restore_state(hv.snapshot_state())
            assert fresh.allocated_cores == hv.allocated_cores
            assert fresh.snapshot_state() == hv.snapshot_state()
            chips[chips.index(hv)] = fresh
            hv = fresh
            seen.add("restore")
        for chip in chips:
            assert_accounting(chip)
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_hypervisor_accounting_matches_recomputation(seed):
    lifecycle(seed)


def test_lifecycles_cover_every_operation():
    """The seeded sequences above really exercise every mutation path."""
    seen = set()
    for seed in SEEDS:
        seen |= lifecycle(seed)
    assert {
        "create", "create_refused",
        "create_refused__allocate_memory",
        "create_refused__install_meta_tables",
        "destroy", "kill", "migrate_in_place", "migrate_cross",
        "migrate_rollback", "migrate_refused_cross",
        "resize_shrink_in_place",
        "resize_grow_in_place", "resize_relocate", "resize_rollback",
        "restore",
    } <= seen


def test_snapshot_state_carries_no_accounting_fields():
    hv = Hypervisor(Chip(sim_config(16)))
    hv.create_vnpu(random_spec(random.Random(0), 0))
    assert set(hv.snapshot_state()) == {"healthy", "next_vmid", "vnpus"}


def test_allocated_cores_is_a_copy():
    hv = Hypervisor(Chip(sim_config(16)))
    vnpu = hv.create_vnpu(random_spec(random.Random(0), 0))
    cores = hv.allocated_cores
    cores.clear()
    assert hv.allocated_cores == set(vnpu.physical_cores)


def test_version_moves_only_on_provision_and_teardown():
    hv = Hypervisor(Chip(sim_config(16)))
    assert hv.version == 0
    vnpu = hv.create_vnpu(random_spec(random.Random(0), 0))
    assert hv.version == 1
    hv.mark_failed()
    hv.mark_recovered()
    hv.snapshot_state()
    assert hv.version == 1
    hv.destroy_vnpu(vnpu.vmid)
    assert hv.version == 2


# -- fleet: the cached fragmentation against recomputation ------------------

def checked_fleet(fleet):
    """Wrap ``fleet._sample`` to check every chip against the oracle."""
    sample = fleet._sample
    fleet.checked_samples = 0

    def checking_sample():
        for fc in fleet.chips:
            allocated = recomputed_allocated(fc.hypervisor)
            assert fc.free_cores() == fc.chip.core_count - len(allocated)
            assert fc.utilization() == len(allocated) / fc.chip.core_count
            assert fc.fragmentation() == fragmentation_ratio(
                fc.chip.topology, allocated)
        fleet.checked_samples += 1
        sample()

    fleet._sample = checking_sample
    return fleet


def test_fleet_cache_across_defrag_migrations():
    """The ``bench_fleet --quick`` configuration (defrag on)."""
    migrations = 0
    for placement in ("least_loaded", "best_fit", "power_of_two"):
        trace = generate_fleet_trace(
            7, 60, chips=3, max_cores=16,
            mean_interarrival_cycles=20_000_000, fragmentation_heavy=True)
        fleet = checked_fleet(FleetScheduler.homogeneous(
            3, cores=16, placement=placement,
            defrag=DefragPolicy(fragmentation_threshold=0.2)))
        metrics = fleet.serve(trace)
        assert fleet.checked_samples > len(trace)
        migrations += metrics.migrations
    assert migrations > 0


@pytest.mark.parametrize("evacuation", ["shrink_to_fit", "kill_requeue"])
def test_fleet_cache_across_elastic_relief_and_faults(evacuation):
    """Priority + shrink_then_preempt on 4 chips with seeded faults."""
    trace = generate_fleet_trace(
        7, 150, chips=4, max_cores=16,
        mean_interarrival_cycles=20_000_000,
        arrival_process="bursty", slo_mix=DEFAULT_SLO_MIX)
    horizon = trace[-1].arrival_cycle + 50_000_000
    faults = generate_failure_schedule(
        7, chips=4, horizon_cycles=horizon, failures=8,
        mean_outage_cycles=50_000_000)
    fleet = checked_fleet(FleetScheduler.homogeneous(
        4, cores=16, policy="priority", elastic="shrink_then_preempt",
        faults=faults, evacuation=evacuation))
    metrics = fleet.serve(trace)
    assert fleet.checked_samples > len(trace)
    assert metrics.shrinks > 0 and metrics.preemptions > 0
    assert metrics.chip_failures > 0
    if evacuation == "shrink_to_fit":
        assert metrics.evacuations > 0
    else:
        assert metrics.killed_sessions > 0
