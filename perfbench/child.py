"""One pass of a workload in a fresh process (launched by ``run.py``).

Usage: ``python3 perfbench/child.py WORKLOAD SEED MODE WORKDIR``

``MODE`` is ``pass`` (an untimed set-up followed by one timed serve of a
batch workload), ``setup`` (the set-up alone) or ``traced`` (a plain
serve with every layer boundary wrapped). ``pass`` and ``setup`` print
``READY <monotonic seconds>`` once imports and scheduler construction
are done, so the parent can time set-up from process launch; every mode
ends with one ``RESULT <json>`` line.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]


def _ready() -> None:
    sys.stdout.write(f"READY {time.monotonic()!r}\n")
    sys.stdout.flush()


def fleet_pass(seed: int) -> dict:
    import workloads

    fleet = workloads.build_fleet()
    _ready()
    trace = workloads.make_trace("fleet_bestfit", seed)
    horizon = workloads.horizon_cycles(trace)
    wall, scrapes = workloads.serve_windowed(fleet, trace, horizon)
    return {"wall_s": wall, "offered": len(trace), "horizon": horizon,
            "summary": workloads.scrape_fleet(fleet)["summary"],
            "scrapes_s": scrapes, "rss_mib": workloads.vm_hwm_mib()}


def shard_pass(seed: int) -> dict:
    import workloads
    from tracer import Tracer

    sharded = workloads.build_shard(workloads.SHARD["workers"])
    _ready()
    trace = workloads.make_trace("shard_wide", seed)
    worker_rss: list[float] = []

    def record_worker_rss(tracer, name, shutdown):
        def wrapper(self):
            for handle in self._pool.values():
                if handle.proc.is_alive():
                    worker_rss.append(workloads.vm_hwm_mib(handle.proc.pid))
            return shutdown(self)
        return wrapper

    # Workers exit inside run(); their high-water marks are read just
    # before the coordinator stops them.
    patch = Tracer()
    patch.install([(type(sharded), "_shutdown", record_worker_rss,
                    "worker_rss")])
    try:
        sharded.submit(trace)
        start = time.perf_counter()
        final_fence = sharded.run()
        wall = time.perf_counter() - start
    finally:
        patch.uninstall()
    scrapes = workloads.time_scrapes(workloads.scrape_shard, sharded)
    return {"wall_s": wall, "offered": len(trace), "horizon": final_fence,
            "summary": workloads.scrape_shard(sharded)["summary"],
            "scrapes_s": scrapes,
            "rss_mib": workloads.vm_hwm_mib() + sum(worker_rss)}


def fleet_traced(seed: int, workdir: str) -> dict:
    import workloads
    from layers import layer_metrics, program_targets
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(program_targets())
    try:
        fleet = workloads.build_fleet()
        trace = workloads.make_trace("fleet_bestfit", seed)
        start = time.perf_counter()
        fleet.serve(trace, limit=workloads.horizon_cycles(trace))
        wall = time.perf_counter() - start
        scraped = workloads.scrape_fleet(fleet)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(workdir, "spans-fleet_bestfit.json"))
    layers = layer_metrics(tracer.span_totals(), tracer.accumulators,
                           tracer.counters, scraped["summary"],
                           scraped["mapper"], admit_rtts_s=[])
    return {"wall_s": wall, "offered": len(trace),
            "summary": scraped["summary"], "layers": layers}


async def _service_in_process(trace, sock: str) -> tuple:
    import workloads
    from repro.serving.service import ControlPlane, ServiceClient

    spec = workloads.SERVICE
    plane = ControlPlane(chips=spec["chips"], cores=spec["cores"],
                         config=workloads.serving_config(), mode="asap",
                         max_pending=len(trace), autostart=False)
    await plane.start(unix_path=sock)
    client = await ServiceClient.connect(unix_path=sock)
    try:
        result = await workloads.stream(client, trace, spec["window_cycles"])
        await client.shutdown()
    finally:
        await client.close()
        await plane.stop()
    return result, plane.fleet.mapper_stats()


def service_traced(seed: int, workdir: str) -> dict:
    import workloads
    from layers import layer_metrics, program_targets
    from repro.serving.metrics import summary_wire
    from tracer import Tracer

    trace = workloads.make_trace("service_stream", seed)
    sock = os.path.join(workdir, "traced.sock")
    tracer = Tracer()
    tracer.install(program_targets())
    try:
        result, mapper = asyncio.run(_service_in_process(trace, sock))
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(workdir, "spans-service_stream.json"))
    summary = result["summary"]
    layers = layer_metrics(tracer.span_totals(), tracer.accumulators,
                           tracer.counters, summary, summary_wire(mapper),
                           admit_rtts_s=result["admit_rtts_s"])
    return {"wall_s": result["wall_s"], "offered": len(trace),
            "summary": summary, "requests": result["requests"],
            "non_ok": result["non_ok"], "layers": layers}


def shard_traced(seed: int, workdir: str) -> dict:
    """Worker-side layers from a ``workers=1`` run, whose summary is
    byte-identical by design; fence waits from the multi-worker run."""
    import workloads
    from layers import coordinator_targets, layer_metrics, program_targets
    from tracer import Tracer

    trace = workloads.make_trace("shard_wide", seed)
    inner = Tracer()
    inner.install(program_targets())
    try:
        oracle = workloads.build_shard(1)
        oracle.submit(trace)
        oracle.run()
        inner_scrape = workloads.scrape_shard(oracle)
    finally:
        inner.uninstall()
    inner.write(os.path.join(workdir, "spans-shard_wide-inner.json"))

    outer = Tracer()
    outer.install(coordinator_targets())
    try:
        sharded = workloads.build_shard(workloads.SHARD["workers"])
        sharded.submit(trace)
        start = time.perf_counter()
        sharded.run()
        wall = time.perf_counter() - start
        outer_scrape = workloads.scrape_shard(sharded)
    finally:
        outer.uninstall()
    outer.write(os.path.join(workdir, "spans-shard_wide-coordinator.json"))
    layers = layer_metrics(inner.span_totals(), inner.accumulators,
                           inner.counters, outer_scrape["summary"],
                           inner_scrape["mapper"], admit_rtts_s=[],
                           coordinator=outer.span_totals(),
                           coordinator_counters=outer.counters)
    return {"wall_s": wall, "offered": len(trace),
            "summary": outer_scrape["summary"],
            "oracle_summary": inner_scrape["summary"], "layers": layers}


def setup_only(workload: str) -> dict:
    import workloads

    if workload == "fleet_bestfit":
        workloads.build_fleet()
    else:
        workloads.build_shard(workloads.SHARD["workers"])
    _ready()
    return {}


def main(argv: "list[str]") -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    if mode == "setup":
        result = setup_only(workload)
    elif mode == "pass":
        runner = {"fleet_bestfit": fleet_pass, "shard_wide": shard_pass}
        result = runner[workload](seed)
    else:
        runner = {"fleet_bestfit": fleet_traced,
                  "service_stream": service_traced,
                  "shard_wide": shard_traced}
        result = runner[workload](seed, workdir)
    sys.stdout.write("RESULT " + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
