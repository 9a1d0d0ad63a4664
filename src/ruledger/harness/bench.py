"""Throughput and latency benchmarks.

The pipeline under test is deterministic simulation; what the benchmark
adds is wall-clock measurement around it, so numbers here vary run to run
and are reported, never asserted.  Two modes bracket the cost of the
ledger: `baseline_bypass` wires the agents to each other directly, and
`with_ledger` runs every event and action through consensus.
"""

from __future__ import annotations

import time

from .report import build_stats
from .scenario import bundled_scenario, scenario_from_dict
from .world import World

# Published figures from a 4-node cloud deployment of this architecture,
# printed alongside local results for context only.  The simulated network
# here has millisecond link delays and no real crypto/IO contention, so
# local numbers are not comparable and are never checked against these.
CLOUD_REFERENCE = {
    "end_to_end_latency_s": {"baseline": 1.403, "with_ledger": 1.604, "overhead_pct": 12.53},
    "throughput_req_s_at_2000_concurrent": {"baseline": 43.37, "with_ledger": 40.57},
    "module_latency_ms": {"event_verification": 32.45, "action_verification": 32.83},
    "consensus_tps": {"observed": 43, "theoretical_max": 55},
}

_START_MS = 300
_WAVE_GAP_MS = 25


def _bench_scenario(seed: int, nodes: int, with_ledger: bool, duration_ms: int) -> dict:
    """The bundled heart-rate scenario, pushed by a watch that always alerts."""
    data = bundled_scenario("heart_rate")
    data["devices"][0].update(initial={"heart_rate": 30}, timeline=[])
    data.update(name="bench", seed=seed, nodes=nodes, duration_ms=duration_ms, trigger_mode="push",
                with_ledger=with_ledger, record_action_executions=False)
    return data


def _drive(world: World, requests: int, concurrency: int) -> None:
    """Schedule `requests` trigger cycles in same-millisecond waves."""

    def wave(count: int):
        def fire():
            if not world.exec_agent.triggers:
                world.scheduler.schedule(100, fire)
                return
            trig = world.exec_agent.triggers[0]
            for _ in range(count):
                world.exec_agent.run_trigger_cycle(trig)
        return fire

    at = _START_MS
    remaining = requests
    while remaining > 0:
        batch = min(concurrency, remaining)
        world.scheduler.schedule(at, wave(batch))
        remaining -= batch
        at += _WAVE_GAP_MS


def _run_one(seed: int, nodes: int, with_ledger: bool, requests: int, concurrency: int) -> dict:
    waves = (requests + concurrency - 1) // concurrency
    duration = _START_MS + waves * _WAVE_GAP_MS + 2000
    world = World(scenario_from_dict(_bench_scenario(seed, nodes, with_ledger, duration)))
    t0 = time.perf_counter()
    world.run(hook=lambda w: _drive(w, requests, concurrency))
    wall_s = time.perf_counter() - t0
    completed = world.exec_agent.counters["actions_completed"]
    return {
        "nodes": nodes,
        "with_ledger": with_ledger,
        "requests": requests,
        "completed": completed,
        "wall_s": round(wall_s, 3),
        "wall_tps": round(completed / wall_s, 1) if wall_s > 0 else 0.0,
        "sim_time_ms": world.scheduler.now,
        "end_to_end_sim_ms": build_stats(world.exec_agent.e2e_ms),
        "event_commit_sim_ms": build_stats(world.exec_agent.client.latencies_ms),
    }


def run_bench(requests: int, concurrency: int, nodes: int, seed: int, sweep: tuple) -> dict:
    baseline = _run_one(seed, nodes, False, requests, concurrency)
    ledger = _run_one(seed, nodes, True, requests, concurrency)

    overhead_pct = None
    base_e2e = baseline["end_to_end_sim_ms"]["mean"]
    ledger_e2e = ledger["end_to_end_sim_ms"]["mean"]
    if base_e2e > 0:
        overhead_pct = round((ledger_e2e - base_e2e) / base_e2e * 100.0, 2)

    sweep_rows = []
    for n in sweep:
        sweep_rows.append(_run_one(seed, n, True, min(requests, 300), concurrency))

    return {
        "requests": requests,
        "concurrency": concurrency,
        "baseline_bypass": baseline,
        "with_ledger": ledger,
        "ledger_e2e_overhead_pct": overhead_pct,
        "sweep": sweep_rows,
        "cloud_reference": CLOUD_REFERENCE,
    }


def _format_row(label: str, row: dict) -> str:
    return (f"  {label} nodes={row['nodes']}: completed={row['completed']} "
            f"wall={row['wall_s']}s tps={row['wall_tps']} "
            f"e2e(sim)={row['end_to_end_sim_ms']['mean']}ms mean")


def format_bench(result: dict) -> str:
    lines = [f"requests={result['requests']} concurrency={result['concurrency']}",
             _format_row("bypass", result["baseline_bypass"]),
             _format_row("ledger", result["with_ledger"])]
    if result["ledger_e2e_overhead_pct"] is not None:
        lines.append(
            f"  ledger end-to-end overhead: {result['ledger_e2e_overhead_pct']}% (sim time)"
        )
    lines += [_format_row("sweep", row) for row in result["sweep"]]
    ref = result["cloud_reference"]
    lines.append("  cloud-reference figures (context only, not asserted):")
    lines.append(
        f"    e2e latency s: baseline={ref['end_to_end_latency_s']['baseline']} "
        f"ledger={ref['end_to_end_latency_s']['with_ledger']} "
        f"(+{ref['end_to_end_latency_s']['overhead_pct']}%)"
    )
    lines.append(
        f"    throughput req/s @2000 concurrent: "
        f"baseline={ref['throughput_req_s_at_2000_concurrent']['baseline']} "
        f"ledger={ref['throughput_req_s_at_2000_concurrent']['with_ledger']}"
    )
    lines.append(
        f"    module latency ms: event={ref['module_latency_ms']['event_verification']} "
        f"action={ref['module_latency_ms']['action_verification']}; "
        f"consensus tps observed={ref['consensus_tps']['observed']} "
        f"theoretical={ref['consensus_tps']['theoretical_max']}"
    )
    return "\n".join(lines)
