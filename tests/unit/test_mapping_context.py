"""Shared mapping contexts: mappers over structurally equal chips share
one set of pure candidate memos without changing any result, a fleet
builds one context per distinct chip topology, and every shared memo
entry equals its recomputation."""

import random

import pytest

from repro.arch.chip import Chip
from repro.arch.config import sim_config
from repro.arch.topology import Topology
from repro.core.ged import EditCosts, best_bijection, bijection_lower_bound
from repro.core.hypervisor import Hypervisor
from repro.core.topology_mapping import (
    MappingContext,
    TopologyMapper,
    topology_key,
)
from repro.errors import AllocationError, TopologyError
from repro.serving import (
    FleetScheduler,
    canonical_json,
    generate_fleet_trace,
    summary_wire,
)

REQUEST_SHAPES = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)]


def outcome(mapper, request, allocated, require_connected):
    try:
        return mapper.map_similar(request, set(allocated),
                                  require_connected=require_connected)
    except AllocationError as error:
        return ("AllocationError", str(error))


def request_from_key(key):
    nodes, edges, coords, attrs = key
    return Topology(nodes, edges, coords=dict(coords) if coords else None,
                    node_attrs=dict(attrs) if attrs else None)


class TestSharedContextEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_calls_match_private_mappers(self, seed):
        """Several mappers on one context — tracked and ad-hoc free sets,
        both connectivity modes — each return exactly what a fresh
        private mapper returns for the same call."""
        rng = random.Random(seed)
        chips = [Topology.mesh2d(5, 5, name=f"chip{i}") for i in range(3)]
        context = MappingContext(chips[0])
        shared = [TopologyMapper(chip, context=context) for chip in chips]
        allocated = [set() for _ in chips]
        for _ in range(60):
            index = rng.randrange(len(shared))
            mapper, chip = shared[index], chips[index]
            rows, cols = rng.choice(REQUEST_SHAPES)
            request = Topology.mesh2d(rows, cols, name=f"req{rng.random()}")
            require_connected = rng.random() < 0.5
            if rng.random() < 0.4:
                # Ad-hoc set: a trial placement against extra cores.
                probe = allocated[index] | set(rng.sample(chip.nodes, 4))
            else:
                probe = allocated[index]
            got = outcome(mapper, request, probe, require_connected)
            want = outcome(TopologyMapper(chip), request, probe,
                           require_connected)
            assert got == want
            if probe is allocated[index] and not isinstance(got, tuple):
                mapper.notify_alloc(got.physical_cores)
                allocated[index] |= set(got.physical_cores)
            if allocated[index] and rng.random() < 0.3:
                released = set(rng.sample(sorted(allocated[index]),
                                          min(3, len(allocated[index]))))
                mapper.notify_free(released)
                allocated[index] -= released
        assert context.score_memo and context.cert_memo

    def test_hypervisor_passes_context_to_its_mapper(self):
        chip = Chip(sim_config(16))
        context = MappingContext(chip.topology)
        assert Hypervisor(chip, mapping_context=context).mapper.context \
            is context
        assert Hypervisor(chip).mapper.context is not context


class TestContextMismatch:
    def test_other_topology_raises(self):
        context = MappingContext(Topology.mesh2d(6, 6))
        with pytest.raises(TopologyError):
            TopologyMapper(Topology.mesh2d(4, 4), context=context)

    def test_other_node_attrs_raise(self):
        context = MappingContext(Topology.mesh2d(3, 3))
        tagged = Topology.mesh2d(3, 3)
        tagged.node_attrs[0] = "mem"
        with pytest.raises(TopologyError):
            TopologyMapper(tagged, context=context)

    def test_other_costs_raise(self):
        chip = Topology.mesh2d(4, 4)
        context = MappingContext(chip)
        with pytest.raises(TopologyError):
            TopologyMapper(chip, costs=EditCosts(edge_insert=0.5),
                           context=context)
        with pytest.raises(TopologyError):
            TopologyMapper(chip, candidate_limit=10, context=context)

    def test_name_is_not_part_of_the_topology(self):
        context = MappingContext(Topology.mesh2d(4, 4, name="a"))
        mapper = TopologyMapper(Topology.mesh2d(4, 4, name="b"),
                                context=context)
        assert mapper.context is context


class TestFleetContexts:
    def test_one_context_per_distinct_chip_topology(self):
        """A mixed 16/36-core fleet builds exactly two contexts, and its
        run is byte-identical to the same run on private mappers."""
        configs = [sim_config(cores) for cores in (16, 36, 16, 36, 16)]
        trace = generate_fleet_trace(5, 40, chips=len(configs),
                                     max_cores=16, fragmentation_heavy=True)

        def run(private):
            fleet = FleetScheduler(configs, placement="best_fit")
            if private:
                for fleet_chip in fleet.chips:
                    fleet_chip.hypervisor.mapper = TopologyMapper(
                        fleet_chip.chip.topology)
            metrics = fleet.serve(list(trace))
            frequency = fleet.chips[0].chip.config.frequency_hz
            return fleet, canonical_json(summary_wire(
                metrics.summary(frequency)))

        fleet, shared_summary = run(private=False)
        contexts = {}
        for fleet_chip in fleet.chips:
            contexts.setdefault(fleet_chip.chip.core_count, set()).add(
                id(fleet_chip.hypervisor.mapper.context))
        assert {cores: len(ids) for cores, ids in contexts.items()} \
            == {16: 1, 36: 1}
        private_fleet, private_summary = run(private=True)
        assert shared_summary == private_summary
        shared_stats = fleet.mapper_stats()
        private_stats = private_fleet.mapper_stats()
        assert shared_stats["hits"] == private_stats["hits"]
        assert shared_stats["misses"] == private_stats["misses"]


class TestSharedCacheAudit:
    def test_every_shared_memo_entry_equals_recomputation(self):
        """After a seeded 8-chip best-fit run, every entry of every
        memo in the fleet's one shared context is recomputed from
        scratch (reference path where one exists) and compared."""
        fleet = FleetScheduler.homogeneous(8, cores=16,
                                           placement="best_fit")
        fleet.serve(generate_fleet_trace(7, 120, chips=8, max_cores=16,
                                         fragmentation_heavy=True))
        contexts = {id(fc.hypervisor.mapper.context): fc.hypervisor.mapper
                    .context for fc in fleet.chips}
        assert len(contexts) == 1
        (context,) = contexts.values()
        chip = sim_config(16).topology()  # a fresh, unshared build
        assert chip is not context.chip
        assert topology_key(context.chip) == topology_key(chip)
        reference = TopologyMapper(chip, fast_path=False)
        costs = EditCosts()

        memos = {
            "cert": context.cert_memo,
            "request_cert": context.request_cert_memo,
            "subtopo": context.subtopo_memo,
            "hops": context.hops_memo,
            "subset": context.subset_memo,
            "score": context.score_memo,
            "bound": context.bound_memo,
            "polish": context.polish_memo,
        }
        assert all(memos.values()), {k: len(v) for k, v in memos.items()}

        for nodes, cert in context.cert_memo.items():
            assert chip.subtopology(nodes).wl_certificate() == cert
        for key, cert in context.request_cert_memo.items():
            request = request_from_key(key)
            assert topology_key(request) == key
            assert request.wl_certificate() == cert
        for nodes, candidate in context.subtopo_memo.items():
            fresh = chip.subtopology(nodes)
            assert candidate.nodes == fresh.nodes
            assert candidate.edges == fresh.edges
            assert candidate.coords == fresh.coords
            assert candidate.node_attrs == fresh.node_attrs
        for nodes, hops in context.hops_memo.items():
            assert hops == TopologyMapper._all_pairs_hops(
                chip.subtopology(nodes))
        for (free_nodes, k), subsets in context.subset_memo.items():
            assert subsets == reference._candidate_sets(
                chip.subtopology(free_nodes), k)
        for (key, nodes), score in context.score_memo.items():
            assert score == best_bijection(
                request_from_key(key), chip.subtopology(nodes), costs,
                vectorize=False)
        for (key, nodes), bound in context.bound_memo.items():
            assert bound == bijection_lower_bound(
                request_from_key(key), chip.subtopology(nodes), costs,
                vectorize=False)
        for (key, nodes), polished in context.polish_memo.items():
            request = request_from_key(key)
            candidate = chip.subtopology(nodes)
            _, seed = best_bijection(request, candidate, costs,
                                     vectorize=False)
            assert polished == reference._polish(request, candidate, seed)
