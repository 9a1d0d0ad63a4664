"""Scenario loading, world runs, reports, and the command line."""

import hashlib
import json
import os

import jsonschema
import pytest

from conftest import hr_rule
from ruledger.harness import cli
from ruledger.harness.report import build_stats, report_bytes, validate_report
from ruledger.harness.scenario import load_scenario, scenario_from_dict
from ruledger.harness.world import World, run_scenario
from ruledger.ledger import audit
from ruledger.ledger.node import ConfigError
from ruledger.rules import RuleError


def _scenario(**overrides):
    data = {
        "schema": 1,
        "name": "mini",
        "seed": 11,
        "nodes": 4,
        "duration_ms": 2500,
        "drain_ms": 6000,
        "accounts": [{"name": "alice", "role": "Administrator", "usr_id": 1}],
        "devices": [
            {"device_id": "watch-1", "kind": "heart_rate", "vendor": "fitpulse",
             "initial": {"heart_rate": 70},
             "timeline": [[1000, {"heart_rate": 30}], [1400, {"heart_rate": 70}]]},
            {"device_id": "lock-1", "kind": "smart_lock", "vendor": "homesec",
             "initial": {"lock": "locked"}, "timeline": []},
        ],
        "rules": [hr_rule()],
    }
    data.update(overrides)
    return data


def test_scenario_round_trip_defaults():
    config = scenario_from_dict(_scenario())
    assert config.name == "mini" and config.seed == 11
    assert config.nodes == 4 and config.trigger_mode == "poll"
    assert config.net.delay_range == (1, 5)
    assert config.byzantine is None
    assert config.rules[0]["rule_id"] == 1


def test_seed_override_beats_the_file():
    assert scenario_from_dict(_scenario(), seed_override=42).seed == 42


@pytest.mark.parametrize("overrides", [
    {"schema": 2},
    {"name": ""},
    {"seed": "eleven"},
    {"nodes": 3},
    {"nodes": 0},
    {"duration_ms": 0},
    {"accounts": []},
    {"accounts": [{"name": "bob", "role": "NormalUser", "usr_id": 2}]},
    {"accounts": [{"name": "a", "role": "Administrator", "usr_id": 1},
                  {"name": "a", "role": "NormalUser", "usr_id": 2}]},
    {"accounts": [{"name": "a", "role": "Wizard", "usr_id": 1}]},
    {"trigger_mode": "webhook"},
    {"adversary": {"mode": "chaotic"}},
    {"byzantine": {"node": 9, "fault": "drop"}},
    {"byzantine": {"node": 0, "fault": "gremlins"}},
    {"devices": [{"device_id": "watch-1", "kind": "heart_rate", "vendor": "v"},
                 {"device_id": "watch-1", "kind": "heart_rate", "vendor": "v"}]},
    {"devices": [{"device_id": "watch-1", "kind": "heart_rate", "vendor": "v",
                  "timeline": [[-5, {}]]}]},
    {"net": {"drop_prob": 2.0}},
    {"rules": [hr_rule(), hr_rule()]},
])
def test_scenario_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        scenario_from_dict(_scenario(**overrides))


def test_rule_bound_to_unknown_device_rejected():
    bad = _scenario(rules=[hr_rule(watch="thermostat-7")])
    with pytest.raises(RuleError) as exc:
        scenario_from_dict(bad)
    assert exc.value.code == "UnboundDevice"


def test_rules_load_from_files_next_to_the_scenario(tmp_path):
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(json.dumps(hr_rule()))
    data = _scenario(rules=["rule.json"])
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(data))
    config = load_scenario(str(scenario_path))
    assert config.rules[0]["title"] == hr_rule()["title"]
    data["rules"] = ["missing.json"]
    scenario_path.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        load_scenario(str(scenario_path))


def test_bundled_heart_rate_scenario_loads():
    config = cli._load("heart_rate", None)
    assert config.name == "heart_rate"
    assert config.nodes == 4
    assert {d.device_id for d in config.devices} >= {"watch-1", "lock-1"}
    assert len(config.rules) == 1


def test_build_stats_oracle():
    assert build_stats([]) == {"count": 0, "min": 0, "p50": 0, "p90": 0,
                               "max": 0, "mean": 0}
    stats = build_stats([5, 1, 9, 3, 7])
    assert stats == {"count": 5, "min": 1, "p50": 5, "p90": 9, "max": 9, "mean": 5}
    assert build_stats([4])["p90"] == 4


# ---------------------------------------------------------------------------
# whole-world runs


@pytest.fixture(scope="module")
def poll_run():
    return run_scenario(scenario_from_dict(_scenario()))


def test_single_spike_produces_one_full_pipeline_pass(poll_run):
    report, world = poll_run
    assert report["ledger"]["consistent"]
    assert report["ledger"]["tx_counts"] == {
        "rule_commit": 1, "config": 0, "event": 1, "action_record": 1, "action": 1}
    assert report["devices"]["lock-1"]["actions_executed"] == 1
    assert report["devices"]["lock-1"]["final_state"]["lock"] == "unlocked"
    assert report["ledger"]["verdicts"]["accepted"] == 4
    assert report["execution"]["refused_direct"] == 0
    assert report["latency_ms"]["end_to_end"]["count"] == 1
    validate_report(report)


def test_push_mode_reaches_the_same_ledger_state(poll_run):
    poll_report, _ = poll_run
    push_report, _ = run_scenario(scenario_from_dict(_scenario(trigger_mode="push")))
    assert push_report["ledger"]["tx_counts"] == poll_report["ledger"]["tx_counts"]
    assert push_report["devices"] == poll_report["devices"]
    assert push_report["ledger"]["verdicts"] == poll_report["ledger"]["verdicts"]


def test_same_seed_reproduces_identical_report_bytes(poll_run):
    report, _ = poll_run
    again, _ = run_scenario(scenario_from_dict(_scenario()))
    assert report_bytes(again) == report_bytes(report)


def test_different_seed_changes_timings_not_outcomes(poll_run):
    report, _ = poll_run
    other, _ = run_scenario(scenario_from_dict(_scenario(seed=12)))
    assert other["ledger"]["tx_counts"] == report["ledger"]["tx_counts"]
    assert report_bytes(other) != report_bytes(report)


def test_log_entries_all_came_from_the_exec_agent(poll_run):
    _, world = poll_run
    assert set(world.log._entries) <= world.exec_agent.minted


def test_private_key_material_never_leaks_into_outputs(poll_run, tmp_path):
    report, world = poll_run
    paths = world.write_outputs(str(tmp_path))
    blobs = [report_bytes(report)]
    for path in [paths["report"], *paths["dumps"]]:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    secrets = [
        hashlib.sha256(f"key/{world.config.seed}/{label}".encode()).hexdigest().encode()
        for label in ("acct/exec-agent", "acct/task-agent", "acct/alice", "node0")
    ]
    secrets.append(world.ledger_config.ledger_secret.hex().encode())
    for blob in blobs:
        for secret in secrets:
            assert secret not in blob


def test_write_outputs_pass_the_offline_audit(poll_run, tmp_path):
    _, world = poll_run
    paths = world.write_outputs(str(tmp_path / "out"))
    assert os.path.exists(paths["report"])
    assert len(paths["dumps"]) == 4
    for dump in paths["dumps"]:
        result = audit.audit_dump(dump)
        assert result.ok, result.issues
        assert result.height >= 4


@pytest.mark.parametrize("tamper", [
    lambda proof: proof["votes"].update(dict.fromkeys(proof["votes"], 5)),
    lambda proof: proof.update(view=float(proof["view"])),
    lambda proof: proof.update(votes=list(proof["votes"].values())),
], ids=["int_vote", "float_view", "list_votes"])
def test_audit_reports_a_malformed_commit_certificate(poll_run, tamper):
    _, world = poll_run
    records = json.loads(json.dumps(audit.dump_lines(world.nodes[0])))
    tamper(records[2]["proof"])  # the first block after genesis
    result = audit.audit_records(records)
    assert not result.ok
    assert result.issues == ["block 1: malformed commit certificate"]


def test_report_schema_rejects_broken_reports(poll_run):
    report, _ = poll_run
    broken = json.loads(report_bytes(report))
    del broken["ledger"]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(broken)
    broken2 = json.loads(report_bytes(report))
    broken2["nodes"] = "four"
    with pytest.raises(jsonschema.ValidationError):
        validate_report(broken2)


# ---------------------------------------------------------------------------
# command line


def test_cli_run_writes_outputs_and_audits_clean(tmp_path, capsys):
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(_scenario()))
    out_dir = str(tmp_path / "out")
    assert cli.main(["run", str(scenario_path), "--out", out_dir]) == 0
    printed = capsys.readouterr().out
    assert "consistent=True" in printed

    dumps = sorted(str(p) for p in (tmp_path / "out").glob("*.dump"))
    assert len(dumps) == 4
    assert cli.main(["audit", *dumps]) == 0
    assert "OK height=" in capsys.readouterr().out

    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    assert report["seed"] == 11


def test_cli_audit_flags_a_tampered_dump(tmp_path, capsys):
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(_scenario()))
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(scenario_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()

    dump = out_dir / "ledger-node0.dump"
    lines = dump.read_bytes().splitlines()
    record = json.loads(lines[2])  # first non-genesis block
    record["txs"][0]["body"]["nonce"] += 1
    lines[2] = json.dumps(record).encode()
    dump.write_bytes(b"\n".join(lines) + b"\n")

    assert cli.main(["audit", str(dump)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "digest mismatch" in out


@pytest.mark.parametrize("argv", [
    ["run", "no_such_bundled_scenario"],
    ["audit", "/nonexistent/path.dump"],
])
def test_cli_config_errors_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_cli_run_missing_scenario_file_exits_two(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2


def test_env_seed_override(tmp_path, monkeypatch, capsys):
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(_scenario()))
    out_dir = str(tmp_path / "out")
    monkeypatch.setenv("RULEDGER_SEED", "99")
    assert cli.main(["run", str(scenario_path), "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "report.json")) as fh:
        assert json.load(fh)["seed"] == 99

    # An explicit flag still wins over the environment.
    monkeypatch.setenv("RULEDGER_SEED", "99")
    assert cli.main(["run", str(scenario_path), "--seed", "7",
                     "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "report.json")) as fh:
        assert json.load(fh)["seed"] == 7


def test_env_seed_must_be_numeric(monkeypatch, capsys):
    monkeypatch.setenv("RULEDGER_SEED", "lucky")
    assert cli.main(["run", "heart_rate"]) == 2
    assert "RULEDGER_SEED" in capsys.readouterr().err


def test_cli_bench_small_run(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = cli.main(["bench", "--requests", "20", "--concurrency", "5",
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "bypass nodes=" in printed and "ledger nodes=" in printed
    with open(out) as fh:
        result = json.load(fh)
    assert result["baseline_bypass"]["completed"] == 20
    assert result["with_ledger"]["completed"] == 20
    assert result["ledger_e2e_overhead_pct"] is not None


def test_cli_attacks_exit_codes(monkeypatch, capsys):
    suite = {
        "seed": 1,
        "attacks": [{"name": "x", "blocked": True, "codes_seen": ["C"], "notes": "",
                     "expected_blocked": True}],
        "all_blocked": True,
        "negative_control": {"name": "control", "blocked": False, "codes_seen": [],
                             "notes": "", "expected_blocked": False},
        "negative_control_succeeded": True,
    }
    monkeypatch.setattr(cli, "run_attack_suite", lambda seed, include_negative: suite)
    assert cli.main(["attacks"]) == 0
    assert "all attacks blocked" in capsys.readouterr().out

    bad = dict(suite, all_blocked=False)
    bad["attacks"] = [dict(suite["attacks"][0], blocked=False)]
    monkeypatch.setattr(cli, "run_attack_suite", lambda seed, include_negative: bad)
    assert cli.main(["attacks"]) == 1
    assert "ATTACK GOT THROUGH" in capsys.readouterr().out
