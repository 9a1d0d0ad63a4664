"""Command line front end.

Exit codes: 0 on success, 1 when a run shows an integrity violation (an
attack landed, inconsistent replicas, or a failed audit), 2 for
configuration problems.  RULEDGER_SEED overrides a command's default seed
(a scenario's own, for `run`) when no --seed flag is given.  Each command's
defaults are stated once, in `build_parser`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..ledger.audit import audit_dump
from ..ledger.node import ConfigError
from ..rules import RuleError
from .attacks import run_attack_suite
from .bench import format_bench, run_bench
from .scenario import bundled_scenario, load_scenario, scenario_from_dict
from .world import run_scenario


def _env_seed() -> int | None:
    raw = os.environ.get("RULEDGER_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"RULEDGER_SEED must be an integer, got {raw!r}") from None


def _resolve_seed(args) -> int | None:
    """--seed, else RULEDGER_SEED, else the command's default seed."""
    if args.seed is not None:
        return args.seed
    env = _env_seed()
    return env if env is not None else args.default_seed


def _load(arg: str, seed_override):
    """A path to a scenario file, or the name of a bundled scenario."""
    if os.sep not in arg and not arg.endswith(".json"):
        return scenario_from_dict(bundled_scenario(arg), seed_override=seed_override)
    return load_scenario(arg, seed_override=seed_override)


def _cmd_run(args) -> int:
    config = _load(args.scenario, _resolve_seed(args))
    report, world = run_scenario(config, out_dir=args.out)
    ledger = report["ledger"]
    print(f"scenario {report['name']} seed={report['seed']} nodes={report['nodes']}")
    print(f"  sim time: {report['sim_time_ms']} ms")
    print(f"  heights: {ledger['heights']} consistent={ledger['consistent']}")
    print(f"  tx counts: {ledger['tx_counts']}")
    print(f"  verdicts: {ledger['verdicts']}")
    print(f"  execution: {report['execution']}")
    for device_id, row in report["devices"].items():
        print(f"  device {device_id}: actions={row['actions_executed']} "
              f"state={row['final_state']}")
    e2e = report["latency_ms"]["end_to_end"]
    print(f"  end-to-end latency (sim): p50={e2e['p50']} ms over {e2e['count']} samples")
    if args.out:
        print(f"  outputs written to {args.out}")
    if not ledger["consistent"]:
        print("ledger replicas diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_attacks(args) -> int:
    suite = run_attack_suite(_resolve_seed(args))
    for row in suite["attacks"]:
        status = "BLOCKED  " if row["blocked"] else "SUCCEEDED"
        codes = ",".join(row["codes_seen"]) or "-"
        print(f"[{status}] {row['name']:<18} codes={codes} {row['notes']}")
    control = suite["negative_control"]
    landed = suite["negative_control_succeeded"]
    status = "SUCCEEDED" if landed else "BLOCKED  "
    print(f"[{status}] {control['name']:<18} (control: expected to succeed) "
          f"{control['notes']}")
    ok = suite["all_blocked"] and landed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(suite, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"suite results written to {args.out}")
    print("all attacks blocked" if suite["all_blocked"] else "ATTACK GOT THROUGH")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    for flag, value, least in (("--requests", args.requests, 0),
                               ("--concurrency", args.concurrency, 1),
                               ("--nodes", args.nodes, 4)):  # as `replica_count_ok`
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    result = run_bench(
        requests=args.requests,
        concurrency=args.concurrency,
        nodes=args.nodes,
        seed=_resolve_seed(args),
        sweep=(4, 7, 10) if args.sweep else (),
    )
    print(format_bench(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"bench results written to {args.out}")
    return 0


def _cmd_audit(args) -> int:
    failed = False
    for path in args.dumps:
        result = audit_dump(path)  # a missing file raises OSError: exit 2
        if result.ok:
            print(f"{path}: OK height={result.height}")
        else:
            failed = True
            print(f"{path}: FAILED")
            for issue in result.issues:
                print(f"  - {issue}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruledger",
        description="Replicated-ledger trigger-action testbed: scenarios, "
                    "attacks, benchmarks, and dump audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or bundled scenario name")
    p_run.add_argument("scenario", help="path to a .json scenario, or a bundled name "
                                        "such as 'heart_rate'")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="directory for report and ledger dumps")
    p_run.set_defaults(fn=_cmd_run, default_seed=None)  # the scenario's own seed

    p_att = sub.add_parser("attacks", help="run the attack suite")
    p_att.add_argument("--seed", type=int, default=None)
    p_att.add_argument("--out", default=None, help="file for suite results JSON")
    p_att.set_defaults(fn=_cmd_attacks, default_seed=1337)

    p_bench = sub.add_parser("bench", help="measure pipeline throughput and latency")
    p_bench.add_argument("--requests", type=int, default=300)
    p_bench.add_argument("--concurrency", type=int, default=10)
    p_bench.add_argument("--nodes", type=int, default=4)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--sweep", action="store_true",
                         help="also run the 4/7/10 node curve")
    p_bench.add_argument("--out", default=None, help="file for bench results JSON")
    p_bench.set_defaults(fn=_cmd_bench, default_seed=7)

    p_audit = sub.add_parser("audit", help="verify ledger dump files")
    p_audit.add_argument("dumps", nargs="+", help="dump files written by 'run'")
    p_audit.set_defaults(fn=_cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, RuleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
