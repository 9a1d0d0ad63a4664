"""The ruledger benchmark.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 24 --trace 0

Run from the repository root: the benchmark imports `ruledger` from the
checkout's own `src/` and nothing else. `--trace 0` measures the
end-to-end metrics; `--trace 1` runs the separate traced pass and reports
the per-layer metrics. `--workload all` runs every workload, one fresh
process after another, and prints each one's report. Human-readable lines go to
stdout first; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A failed correctness gate prints
`"correct": false` and exits 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def pct(ordered: list, q: float):
    """Nearest-rank percentile of a sorted list, as in the run report."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def max_gap_ms(run, wl) -> int:
    """Longest sim interval without a completed action, from the first due
    time until every request completed (or the horizon, if some never did)."""
    from workloads import START_MS

    first_due = START_MS
    end = max(run.done_at_ms) if len(run.done_at_ms) == run.scheduled else wl.horizon_ms
    points = [first_due] + sorted(t for t in run.done_at_ms if first_due <= t <= end) + [end]
    return max(b - a for a, b in zip(points, points[1:]))


def gates(run) -> list[tuple[str, bool, str]]:
    import jsonschema

    world = run.world
    try:
        world.build_report()  # validates against report.schema.json
        schema_ok, schema_detail = True, ""
    except jsonschema.ValidationError as exc:
        schema_ok, schema_detail = False, exc.message
    rejected = sum(not r.accepted for n in world.nodes for r in n.decided.values())
    executed = world.devices["lock-1"].actions_executed
    return [
        ("consistent", world.consistent(), "honest replicas share a committed prefix"),
        ("report_schema", schema_ok, schema_detail or "build_report validates"),
        ("no_rejects", rejected == 0, f"{rejected} rejected verdicts (all traffic is honest)"),
        ("gen_late", run.late_ms == 0, f"harness.gen_late_sim_ms={run.late_ms}"),
        ("actions_executed", executed == len(run.e2e_ms),
         f"lock executed {executed}, cycles completed {len(run.e2e_ms)}"),
    ]


def write_dumps(world, out_dir: str) -> list[tuple[str, int]]:
    from ruledger.ledger import audit

    dump_dir = os.path.join(out_dir, "dumps")
    os.makedirs(dump_dir, exist_ok=True)
    dumps = []
    for i, node in enumerate(world.nodes):
        path = os.path.join(dump_dir, f"ledger-node{i}.dump")
        audit.write_dump(node, path)
        dumps.append((path, sum(len(b["txs"]) for b in node.chain)))
    return dumps


def audit_dumps(dumps) -> tuple[bool, list[float], str]:
    """One audit_dump pass over every dump: (all ok, wall s per dump, issue)."""
    from ruledger.ledger import audit

    ok, secs, issue = True, [], ""
    for path, _txs in dumps:
        t0 = time.perf_counter()
        result = audit.audit_dump(path)
        secs.append(time.perf_counter() - t0)
        if not result.ok:
            ok, issue = False, f"{os.path.basename(path)}: {result.issues[:3]}"
    return ok, secs, issue


def setup_seconds(name: str, seed: int, probes: int = 7) -> tuple[float, float]:
    """Median, over fresh processes, of import + scenario parse + World
    construction (key derivation), before any scheduler work; and the host
    speed factor measured between the probes."""
    from hostspeed import HostSpeed

    speed = HostSpeed(time.perf_counter)
    samples = []
    for _ in range(probes):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)],
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
        speed.sample()
    return statistics.median(samples), speed.factor()


def health(world, wl) -> str:
    vc = sum(n.counters["view_changes"] for n in world.nodes)
    eq = sum(n.counters["equivocations_detected"] for n in world.nodes)
    if not wl.fault_free:
        return f"health {wl.name}: n/a (fault injected); view_changes={vc} equivocations={eq}"
    verdict = "PASS" if vc == 0 and eq == 0 else "FAIL"
    return (f"health {wl.name}: {verdict} fault-free => view_changes == 0 and equivocations == 0 "
            f"(view_changes={vc} equivocations={eq}, summed over nodes; reported, not gated)")


def timed_sim(wl, seed: int, after_slice=None):
    """Build a fresh world and run the workload; (run, CPU s, wall s)."""
    from workloads import build_world, run_sim

    world = build_world(wl, seed)
    c0, w0 = time.process_time(), time.perf_counter()
    run = run_sim(wl, world, after_slice)
    return run, time.process_time() - c0, time.perf_counter() - w0


def end_to_end(wl, seed: int, seconds: int, out_dir: str):
    """The untraced measurement. Time-based metrics are expressed in
    reference seconds (hostspeed.py): each is scaled by the host speed
    factor measured, between pieces of the same work, in the same phase."""
    from hostspeed import HostSpeed
    from workloads import fingerprint

    setup_raw, setup_factor = setup_seconds(wl.name, seed)
    t_begin = time.perf_counter()
    sim_speed = HostSpeed(time.process_time)
    run, _cpu, wall = timed_sim(wl, seed, sim_speed.after)
    sim_cpu, walls = [sum(run.slice_cpu_s)], [wall]
    checks = gates(run)
    dumps = write_dumps(run.world, out_dir)
    scheduled, e2e, gap = run.scheduled, sorted(run.e2e_ms), max_gap_ms(run, wl)
    notes = [health(run.world, wl)]
    first_fp = fingerprint(run)
    del run  # no live world while later repeats and audits are timed
    gc.collect()

    repeat_ok = True
    while time.perf_counter() - t_begin < seconds / 2:  # same seed again while time allows
        run, _cpu, wall = timed_sim(wl, seed, sim_speed.after)
        sim_cpu.append(sum(run.slice_cpu_s))
        walls.append(wall)
        repeat_ok &= fingerprint(run) == first_fp
        del run
        gc.collect()
    checks.append(("same_seed_repeats", repeat_ok, f"{len(walls)} sim runs, identical sim results"))

    audit_ok, _secs, audit_issue = audit_dumps(dumps)  # the gate pass; also warms up
    checks.append(("audit", audit_ok, audit_issue or f"{len(dumps)} dumps pass audit_dump"))
    audit_speed = HostSpeed(time.perf_counter, every_s=0.1)
    audit_s, passes = 0.0, 0
    while passes < 4 or time.perf_counter() - t_begin < seconds:
        for secs in audit_dumps(dumps)[1]:
            audit_s += secs
            audit_speed.after(secs)
        passes += 1
    audited_txs = passes * sum(txs for _path, txs in dumps)
    shutil.rmtree(os.path.dirname(dumps[0][0]))

    completed = len(e2e)
    raw_cps, raw_audit = completed / statistics.median(sim_cpu), audited_txs / audit_s
    metrics = {
        "cycles_per_s": (raw_cps * sim_speed.factor(), "1/s"),
        "e2e_sim_p50_ms": (pct(e2e, 0.50), "ms"),
        "e2e_sim_p95_ms": (pct(e2e, 0.95), "ms"),
        "max_gap_sim_ms": (gap, "ms"),
        "audit_tx_per_s": (raw_audit * audit_speed.factor(), "1/s"),
        "setup_s": (setup_raw / setup_factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "completed_frac": (completed / scheduled, "ratio"),
    }
    notes[:0] = [
        f"sim runs: {len(walls)} (wall s each: {', '.join(f'{w:.2f}' for w in walls)}); "
        f"timed audit passes: {passes} over {len(dumps)} dumps",
        f"completed {completed} of {scheduled} scheduled (failed_frac "
        f"{1 - completed / scheduled:.4f}); e2e samples {completed}",
        f"host speed factor (reference time / nominal): sim {sim_speed.factor():.3f}, "
        f"audit {audit_speed.factor():.3f}, setup {setup_factor:.3f}; unscaled: "
        f"cycles_per_s {raw_cps:.4f}, audit_tx_per_s {raw_audit:.2f}, setup_s {setup_raw:.4f}",
    ]
    return scheduled, completed, checks, metrics, notes


def traced(wl, seed: int, out_dir: str):
    from micro import run_micro
    from tracer import LAYERS, Tracer
    from workloads import build_world, fingerprint, run_sim

    base, base_cpu, _wall = timed_sim(wl, seed)
    base_fp = fingerprint(base)
    del base
    gc.collect()

    world = build_world(wl, seed)
    tracer = Tracer()
    tracer.install()
    c0 = time.process_time()
    try:
        run = run_sim(wl, world)
    finally:
        tracer.uninstall()
    traced_cpu = time.process_time() - c0

    checks = gates(run)
    checks.append(("same_seed_repeats", fingerprint(run) == base_fp,
                   "traced and untraced runs give identical sim results"))

    dumps = write_dumps(world, out_dir)
    audit_tracer = Tracer()
    audit_tracer.install()
    try:
        audit_ok, _secs, audit_issue = audit_dumps(dumps)
    finally:
        audit_tracer.uninstall()
    shutil.rmtree(os.path.dirname(dumps[0][0]))
    checks.append(("audit", audit_ok, audit_issue or f"{len(dumps)} dumps pass audit_dump"))

    bypass = run_sim(wl, build_world(wl, seed, with_ledger=False))
    bypass_e2e = sorted(bypass.e2e_ms)
    checks.append(("bypass_complete", len(bypass_e2e) == bypass.scheduled,
                   f"bypass completed {len(bypass_e2e)} of {bypass.scheduled}"))

    c, s = tracer.counts, tracer.calls
    nodes = world.nodes
    n0 = nodes[0].counters
    txs = n0["txs_committed"]
    verify_calls = s["keys.verify"]
    m: dict[str, tuple[float, str]] = {
        "sim.events": (world.scheduler.events_processed, "count"),
        "sim.msgs_sent": (s["sim.send"], "count"),
        "sim.msgs_per_tx": (s["sim.send"] / txs, "count"),
        "sim.bytes_sent": (c["sim.bytes_sent"], "B"),
        "sim.send_self_s": (tracer.self_ns["sim.send"] / 1e9, "s"),
        "keys.verify_calls": (verify_calls, "count"),
        "keys.verify_s": (tracer.total_ns["keys.verify"] / 1e9, "s"),
        "keys.verify_per_tx": (verify_calls / txs, "count"),
        "keys.sign_calls": (s["keys.sign"], "count"),
        "keys.sign_s": (tracer.total_ns["keys.sign"] / 1e9, "s"),
        "canonical.bytes_calls": (s["canonical.bytes"], "count"),
        "canonical.bytes_self_s": (tracer.self_ns["canonical.bytes"] / 1e9, "s"),
        "canonical.digest_calls": (s["canonical.digest"], "count"),
        "tables.select_calls": (s["tables.select"], "count"),
        "tables.select_s": (tracer.total_ns["tables.select"] / 1e9, "s"),
        "tables.rows_scanned": (c["tables.rows_scanned"], "count"),
        "tables.insert_calls": (s["tables.insert"], "count"),
        "tables.rows_final": (sum(len(t.rows) for n in nodes for t in n.state.tables.values()), "count"),
    }
    for kind in ("event", "action"):
        v, a = tracer.kind_ns[f"verify.{kind}"], tracer.kind_ns[f"apply.{kind}"]
        tenth = max(1, len(v) // 10)
        growth = (sum(v[-tenth:]) / tenth) / (sum(v[:tenth]) / tenth) if v else 0.0
        m[f"contracts.verify_calls.{kind}"] = (len(v), "count")
        m[f"contracts.verify_s.{kind}"] = (sum(v) / 1e9, "s")
        m[f"contracts.apply_s.{kind}"] = (sum(a) / 1e9, "s")
        m[f"contracts.verify_us_growth.{kind}"] = (growth, "ratio")
    all_verifies = sum(len(v) for k, v in tracer.kind_ns.items() if k.startswith("verify."))
    m["contracts.reject_frac"] = (c["contracts.rejects"] / max(1, all_verifies), "ratio")
    for mtype in ("submit", "request", "pre_prepare", "prepare", "commit", "committed",
                  "view_change", "new_view", "sync_req"):
        m[f"node.msgs_in.{mtype}"] = (c[f"node.msgs_in.{mtype}"], "count")
    blocks = n0["blocks_committed"]
    exec_lat = sorted(world.exec_agent.client.latencies_ms)
    task_lat = sorted(world.task_agent.client.latencies_ms)
    m.update({
        "node.on_message_self_s": (tracer.self_ns["node.on_message"] / 1e9, "s"),
        "node.blocks": (blocks, "count"),
        "node.txs_per_block": ((txs + n0["txs_rejected"]) / max(1, blocks), "count"),
        "node.view_changes": (sum(n.counters["view_changes"] for n in nodes), "count"),
        "node.equivocations": (sum(n.counters["equivocations_detected"] for n in nodes), "count"),
        "node.malformed": (sum(n.counters["malformed_dropped"] for n in nodes), "count"),
        "node.pool_depth_max": (tracer.pool_depth_max, "count"),
        "node.slots_final": (sum(len(n.slots) for n in nodes), "count"),
        "node.decided_final": (sum(len(n.decided) for n in nodes), "count"),
        "client.event_commit_sim_p50_ms": (pct(exec_lat, 0.5), "ms"),
        "client.action_commit_sim_p50_ms": (pct(task_lat, 0.5), "ms"),
        "client.resubmits": (c["client.submit_msgs"] - s["client.submit"], "count"),
        "audit.verify_calls": (audit_tracer.calls["keys.verify"], "count"),
        "audit.apply_s": (audit_tracer.total_ns["contracts.apply_tx"] / 1e9, "s"),
        "agents.cycles": (world.exec_agent.counters["cycles"], "count"),
        "devices.log_writes": (len(world.log), "count"),
        "tamock.trigger_requests": (world.tamock.counters["trigger_requests"], "count"),
        "harness.trace_overhead_pct": ((traced_cpu - base_cpu) / base_cpu * 100, "%"),
        "bypass.e2e_sim_p50_ms": (pct(bypass_e2e, 0.5), "ms"),
    })
    self_s = tracer.layer_self_s()
    for layer, secs in self_s.items():
        m[f"selftime.{layer}_s"] = (secs, "s")
    for name, us in run_micro(seed).items():
        m[name] = (us, "us")

    spans = tracer.write_spans(os.path.join(out_dir, "spans.jsonl.gz"))
    tracer.write_selftime(os.path.join(out_dir, "selftime.json"))
    audit_tracer.write_spans(os.path.join(out_dir, "audit-spans.jsonl.gz"))
    notes = [
        f"traced sim: cpu {traced_cpu:.2f}s vs untraced {base_cpu:.2f}s; {spans} spans "
        f"written to {os.path.relpath(out_dir, ROOT)}/",
        "self time by layer (s): " + ", ".join(f"{k}={self_s[k]:.3f}" for k in LAYERS),
        health(world, wl),
    ]
    return run.scheduled, len(run.e2e_ms), checks, m, notes


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24,
                        help="minimum measured time; the simulation always runs to its horizon")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    try:
        import ruledger
    except ImportError as exc:
        print(f"perfbench: cannot import ruledger from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(ruledger.__file__)) != os.path.join(SRC, "ruledger"):
        print(f"perfbench: ruledger resolved outside {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out", wl.name)
    os.makedirs(out_dir, exist_ok=True)

    if args.trace:
        scheduled, completed, checks, metrics, notes = traced(wl, args.seed, out_dir)
    else:
        scheduled, completed, checks, metrics, notes = end_to_end(wl, args.seed, args.seconds, out_dir)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.nodes} nodes, "
          f"{scheduled} requests in waves of 10 every 25 ms (sim), drain {wl.drain_ms} ms")
    for line in notes:
        print(line)
    for name, ok, detail in checks:
        print(f"gate {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = all(ok for _name, ok, _detail in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": scheduled,
        "failed": scheduled - completed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
