#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_bestfit --seed 7 \\
        --seconds 40 --trace 0

Every pass of a workload runs in a fresh process, so each one pays and
measures set-up (imports, scheduler or control-plane construction,
socket bound). ``--trace 0`` repeats passes for ``--seconds`` seconds
(at least two) and reports the end-to-end metrics; ``--trace 1`` runs
two untraced passes, then one traced pass, and reports the per-layer
metrics. Every pass is checked by :mod:`gate` before any
metric is reported. The last stdout line is the JSON result; the lines
before it describe the host, the run horizon and sample counts.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for sockets, configs and span dumps (ignored by git).
WORK = ".perfbench_runs"
#: Per-process wall-clock ceiling for one pass.
PASS_TIMEOUT_S = 100
#: Set-up samples per untraced run: passes first, then set-up-only
#: launches until there are this many.
MIN_SETUPS = 7


class PassFailed(RuntimeError):
    """A pass could not produce a result (crash, timeout, bad output)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def host_stamp(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": commit, "seed": seed,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


# -- one pass ----------------------------------------------------------------

def child_pass(workload: str, seed: int, mode: str, workdir: str) -> dict:
    """Run ``child.py`` once; returns its result (plus ``setup_s`` when
    the child reported readiness)."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), workload,
         str(seed), mode, workdir],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"{workload} {mode} pass exceeded "
                         f"{PASS_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise PassFailed(f"{workload} {mode} pass exited "
                         f"{proc.returncode}")
    result = ready = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if result is None:
        raise PassFailed(f"{workload} {mode} pass printed no result")
    if ready is not None:
        result["setup_s"] = ready - launched
    return result


def launch_plane(sessions: int, workdir: str, name: str) -> tuple:
    """Start the control-plane CLI; returns ``(proc, socket, setup_s)``.

    Set-up runs from process launch until the CLI announces the bound
    socket on stderr; anything before that line (interpreter warnings)
    is skipped.
    """
    import workloads

    spec = workloads.SERVICE
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workloads.serving_config().to_dict(), fh)
    sock = os.path.join(workdir, f"{name}.sock")
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.service", "--no-autostart",
         "--socket", sock, "--chips", str(spec["chips"]),
         "--cores", str(spec["cores"]), "--config", config_path,
         "--max-pending", str(sessions)],
        cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    while True:
        line = proc.stderr.readline()
        if not line:
            proc.wait()
            raise PassFailed("control plane exited before binding")
        if line.startswith("serving on unix:"):
            return proc, sock, time.monotonic() - launched


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_probe(workload: str, seed: int, workdir: str, sessions: int,
                index: int) -> float:
    """One more set-up sample: launch, wait until ready, stop."""
    if workload != "service_stream":
        return child_pass(workload, seed, "setup", workdir)["setup_s"]
    proc, _, setup = launch_plane(sessions, workdir, f"probe{index}")
    proc.terminate()
    try:
        proc.wait(timeout=30)
    finally:
        _stop(proc)
    return setup


def service_pass(trace: list, workdir: str) -> dict:
    """Launch the control-plane CLI and drive it with the client."""
    import workloads
    from repro.serving.service import ServiceClient

    spec = workloads.SERVICE
    proc, sock, setup = launch_plane(len(trace), workdir, "plane")
    try:
        drain = threading.Thread(target=proc.stderr.read, daemon=True)
        drain.start()

        async def drive() -> dict:
            client = await ServiceClient.connect(unix_path=sock)
            try:
                result = await workloads.stream(client, trace,
                                                spec["window_cycles"])
                result["rss_mib"] = workloads.vm_hwm_mib(proc.pid)
                reply = await client.shutdown()
                result["requests"] += 1
                result["non_ok"] += reply.get("status") != "ok"
            finally:
                await client.close()
            return result

        result = asyncio.run(asyncio.wait_for(drive(), PASS_TIMEOUT_S))
        proc.wait(timeout=30)
        drain.join(timeout=5)
    finally:
        _stop(proc)
    result.update(setup_s=setup, offered=len(trace),
                  horizon=result["last_window_end"])
    return result


# -- aggregation -------------------------------------------------------------

def end_to_end(passes: "list[dict]", setups: "list[float]") -> dict:
    from repro.serving.metrics import percentile

    scrapes = [s for p in passes for s in p["scrapes_s"]]
    summary = passes[0]["summary"]
    return {
        "sessions_per_s": (sum(p["offered"] for p in passes)
                           / sum(p["wall_s"] for p in passes), "sessions/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(p["rss_mib"] for p in passes),
                         "MiB"),
        "scrape_p50_ms": (percentile(scrapes, 50) * 1e3, "ms"),
        "scrape_p90_ms": (percentile(scrapes, 90) * 1e3, "ms"),
        "sim_utilization": (summary["utilization_time_weighted"], "ratio"),
    }


def sim_extras(summary: dict, frequency_hz: int) -> dict:
    """Deterministic simulated outcomes reported beside the layers."""
    return {
        "sim.queue_p95_ms": (
            summary["queue_delay_cycles"]["p95"] / frequency_hz * 1e3, "ms"),
        "sim.gold_attainment": (
            summary["slo"]["classes"]["gold"]["attainment"], "ratio"),
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import gate
    import workloads

    workdir = os.path.join(WORK, f"{workload}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    trace = (workloads.make_trace(workload, seed)
             if workload == "service_stream" else None)

    def one_pass() -> dict:
        if workload == "service_stream":
            return service_pass(trace, workdir)
        return child_pass(workload, seed, "pass", workdir)

    started = time.monotonic()
    passes: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            passes.append(one_pass())
            setups.append(passes[-1]["setup_s"])
            elapsed = time.monotonic() - started
            if traced and len(passes) >= 2:
                break
            # Time left must also cover the set-up probes still owed.
            owed = max(0, MIN_SETUPS - len(setups) - 1)
            needed = elapsed / len(passes) + owed * statistics.median(setups)
            if len(passes) >= 2 and elapsed + needed > seconds:
                break
        while not traced and len(setups) < MIN_SETUPS:
            setups.append(setup_probe(workload, seed, workdir,
                                      passes[0]["offered"], len(setups)))
        tracing = (child_pass(workload, seed, "traced", workdir)
                   if traced else None)
    finally:
        # Only the span dumps outlive the run.
        for name in os.listdir(workdir):
            if not name.startswith("spans-"):
                os.remove(os.path.join(workdir, name))
        if not os.listdir(workdir):
            os.rmdir(workdir)

    checked = passes + ([tracing] if tracing else [])
    if not all(result.get("summary") for result in checked):
        raise PassFailed(f"{workload} pass returned no final summary")
    attempted, failed, problems, digests = gate.check_run(
        checked, sharded=workload == "shard_wide")

    info = {"workload": workload, "passes": len(passes),
            "horizon_cycles": passes[0]["horizon"],
            "scrape_samples": sum(len(p["scrapes_s"]) for p in passes),
            "pass_walls_s": [round(p["wall_s"], 4) for p in passes],
            "setups_s": [round(x, 4) for x in setups],
            "digest": digests[0], "problems": problems}
    if traced:
        median_wall = statistics.median(p["wall_s"] for p in passes)
        metrics = dict(tracing["layers"])
        metrics.update(sim_extras(passes[0]["summary"],
                                  workloads.frequency_hz()))
        metrics["bench.trace_overhead_ratio"] = (
            tracing["wall_s"] / median_wall, "ratio")
    else:
        metrics = end_to_end(passes, setups)
    return {"info": info, "correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "serving",
                                       "service.py")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {workloads.WORKLOADS}\n")
        return 2
    os.chdir(ROOT)
    compileall.compile_dir(SRC, quiet=1)
    print(json.dumps({"host": host_stamp(args.seed)}))
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except PassFailed as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 1
    print(json.dumps({"info": result["info"]}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
