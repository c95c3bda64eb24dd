"""The three workloads: their inputs, their schedulers and one pass each.

Each workload derives its trace from the run's seed only; every trace
carries ``DEFAULT_SLO_MIX`` and is priced by the analytic cost tier.

- ``fleet_bestfit``: a batch ``FleetScheduler`` run on 8 chips x 16
  cores with best-fit placement on a fragmentation-heavy trace. Best
  fit probes every chip with the similar-topology mapper, and sticky
  residents keep the mapper cache warm, so this is the mapping-heavy
  case; 8 chips keep the per-chip scans small. Live-migration defrag
  is left off: ``DefragPolicy`` livelocks on some seeds (see README).
- ``service_stream``: the control plane over a Unix socket, 32 x 16
  chips, priority admission with shrink-then-preempt elasticity, on a
  bursty trace, driven by one closed-loop client. 32 chips in one
  scheduler make the per-event O(chips) scans dominate.
- ``shard_wide``: ``ShardedFleetScheduler`` on the same trace family,
  32 x 16 chips in 4 shards on 2 worker processes, 25M-cycle epochs,
  default supervision. The only workload with fences, checkpoint
  pickling and pipe traffic.
"""

from __future__ import annotations

import time

#: 8 x 16 cores, best fit. The mean gap keeps the queue bounded: at a
#: 40M-cycle gap this shape overloads (queue delays grow with the
#: trace), at 60M almost nothing waits. ``window_cycles`` spaces the
#: scrapes taken between slices of the batch run.
FLEET = {"chips": 8, "cores": 16, "sessions": 2000,
         "mean_interarrival_cycles": 48_000_000,
         "window_cycles": 100_000_000}

#: 32 x 16 cores, bursty arrivals. ``window_cycles`` is the simulated
#: span the service client admits and drains per loop iteration.
SERVICE = {"chips": 32, "cores": 16, "sessions": 1500,
           "mean_interarrival_cycles": 20_000_000,
           "window_cycles": 10_000_000}

SHARD = {"chips": 32, "cores": 16, "sessions": 2000,
         "mean_interarrival_cycles": 20_000_000, "shards": 4,
         "workers": 2, "epoch_cycles": 25_000_000}

#: Policies of the two 32-chip workloads.
ELASTIC_CONFIG = {"policy": "priority", "elastic": "shrink_then_preempt"}

#: Run horizon = this factor x the trace's last arrival cycle. The
#: engine's default horizon (1e10 cycles) is shorter than a 2000-session
#: fleet trace and would end the run with a misleading deadlock error.
HORIZON_FACTOR = 4

#: In-process ``metrics`` projections timed after a sharded pass.
SHARD_SCRAPES = 50

WORKLOADS = ("fleet_bestfit", "service_stream", "shard_wide")


def make_trace(workload: str, seed: int) -> list:
    from repro.serving import DEFAULT_SLO_MIX, generate_fleet_trace

    if workload == "fleet_bestfit":
        spec = FLEET
        return generate_fleet_trace(
            seed, spec["sessions"], chips=spec["chips"],
            max_cores=spec["cores"],
            mean_interarrival_cycles=spec["mean_interarrival_cycles"],
            fragmentation_heavy=True, slo_mix=DEFAULT_SLO_MIX)
    spec = SERVICE if workload == "service_stream" else SHARD
    return generate_fleet_trace(
        seed, spec["sessions"], chips=spec["chips"],
        max_cores=spec["cores"],
        mean_interarrival_cycles=spec["mean_interarrival_cycles"],
        arrival_process="bursty", slo_mix=DEFAULT_SLO_MIX)


def frequency_hz() -> int:
    """Clock of the (homogeneous) chips every workload simulates."""
    from repro.arch.config import sim_config

    return sim_config(FLEET["cores"]).frequency_hz


def horizon_cycles(trace: list) -> int:
    return HORIZON_FACTOR * max(s.arrival_cycle for s in trace)


def build_fleet():
    from repro.serving import FleetScheduler

    return FleetScheduler.homogeneous(FLEET["chips"], cores=FLEET["cores"],
                                      placement="best_fit")


def build_shard(workers: int):
    from repro.serving import ShardedFleetScheduler

    return ShardedFleetScheduler.homogeneous(
        SHARD["chips"], cores=SHARD["cores"], shards=SHARD["shards"],
        workers=workers, epoch_cycles=SHARD["epoch_cycles"],
        **ELASTIC_CONFIG)


def serving_config():
    from repro.serving.config import ServingConfig

    return ServingConfig(**ELASTIC_CONFIG)


def scrape_fleet(fleet) -> dict:
    """The ``metrics`` verb's projection, computed in-process."""
    from repro.serving.metrics import summary_wire

    frequency = fleet.chips[0].chip.config.frequency_hz
    return {"summary": summary_wire(fleet.metrics.summary(frequency)),
            "mapper": summary_wire(fleet.mapper_stats())}


def scrape_shard(sharded) -> dict:
    from repro.serving.metrics import summary_wire

    return {"summary": summary_wire(sharded.summary()),
            "mapper": summary_wire(sharded.mapper_stats())}


def serve_windowed(fleet, trace: list, horizon: int) -> tuple:
    """``serve(trace, limit=horizon)`` in slices, scraping between them.

    Slices end every ``window_cycles`` up to the last arrival, then the
    run finishes under the horizon, so the summary is the batch
    ``serve``'s byte for byte. Returns the wall seconds spent inside
    the scheduler and the scrape times, which are not part of them.
    """
    fleet.submit(trace)
    last_arrival = max(s.arrival_cycle for s in trace)
    serving = 0.0
    scrapes: list[float] = []
    end = FLEET["window_cycles"]
    while end <= last_arrival:
        start = time.perf_counter()
        fleet.run(until=end)
        scraped = time.perf_counter()
        scrape_fleet(fleet)
        scrapes.append(time.perf_counter() - scraped)
        serving += scraped - start
        end += FLEET["window_cycles"]
    start = time.perf_counter()
    fleet.run(limit=horizon)
    serving += time.perf_counter() - start
    return serving, scrapes


def time_scrapes(scrape, target) -> list[float]:
    samples = []
    for _ in range(SHARD_SCRAPES):
        start = time.perf_counter()
        scrape(target)
        samples.append(time.perf_counter() - start)
    return samples


async def stream(client, trace: list, window_cycles: int) -> dict:
    """The closed-loop service client.

    For each simulated window: ``admit`` the window's arrivals one
    request at a time, ``drain`` to the window's end, then one
    ``metrics`` scrape. A final full drain ends the run and returns the
    summary. Each request waits for its reply before the next is sent.
    """
    scrapes: list[float] = []
    admit_rtts: list[float] = []
    replies: list[dict] = []
    index = 0
    end = window_cycles
    start = time.perf_counter()
    while True:
        while index < len(trace) and trace[index].arrival_cycle < end:
            sent = time.perf_counter()
            replies.append(await client.admit(trace[index]))
            admit_rtts.append(time.perf_counter() - sent)
            index += 1
        replies.append(await client.drain(until=end))
        sent = time.perf_counter()
        reply = await client.metrics()
        scrapes.append(time.perf_counter() - sent)
        replies.append(reply)
        if index >= len(trace):
            break
        end += window_cycles
    final = await client.drain()
    wall = time.perf_counter() - start
    replies.append(final)
    return {"wall_s": wall, "summary": final.get("summary"),
            "scrapes_s": scrapes, "admit_rtts_s": admit_rtts,
            "requests": len(replies),
            "non_ok": sum(1 for r in replies if r.get("status") != "ok"),
            "last_window_end": end}


def vm_hwm_mib(pid: "int | str" = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
