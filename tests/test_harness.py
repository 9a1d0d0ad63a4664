"""Scenario loading, world runs, reports, and the command line."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import Tap, hr_rule, make_rig, mutated_since, rule_commit_tx
from ruledger import contracts
from ruledger import keys as keys_mod
from ruledger.agents import AgentBase
from ruledger.canonical import canonical_bytes, derive_seed, sha256_hex
from ruledger.harness import bench, cli
from ruledger.harness.report import build_stats, report_bytes, validate_report
from ruledger.harness.scenario import bundled_scenario, load_scenario, scenario_from_dict
from ruledger.harness.world import World, run_scenario
from ruledger.keys import KeyPair
from ruledger.ledger import audit
from ruledger.ledger import node as node_mod
from ruledger.ledger.node import ConfigError
from ruledger.ledger.tx import KIND_ACTION, SignedTransaction, build_tx, text_id
from ruledger.rules import SMARTLOCK_UNLOCK, RuleError, parse_rule
from ruledger.sim.network import Process


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
    assert config["name"] == "mini" and config["seed"] == 11
    assert config["nodes"] == 4 and config["trigger_mode"] == "poll"
    assert config["net"]["delay_range"] == [1, 5]
    assert config["byzantine"] is None
    assert config["rules"][0]["rule_id"] == 1


def test_seed_override_beats_the_file():
    assert scenario_from_dict(_scenario(), seed_override=42)["seed"] == 42


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
    {"adversary": {"mode": "honest"}},  # a field the format no longer has
    {"byzantine": {"node": 9, "fault": "drop"}},
    {"byzantine": {"node": 0, "fault": "gremlins"}},
    {"devices": [{"device_id": "watch-1", "kind": "heart_rate", "vendor": "v"},
                 {"device_id": "watch-1", "kind": "heart_rate", "vendor": "v"}]},
    {"devices": [{"device_id": "watch-1", "kind": "heart_rate", "vendor": "v",
                  "timeline": [[-5, {}]]}]},
    {"net": {"drop_prob": 2.0}},
    {"rules": [hr_rule(), hr_rule()]},
    {"commit_timeout_ms": -1},
    {"drain_ms": "x"},
    {"with_ledger": "false"},
    {"byzantine": {"node": 0, "fault": "drop", "prob": "x"}},
    {"devices": [{"device_id": "watch-1", "kind": "heart_rate", "vendor": "v",
                  "initial": [1]}]},
    {"devices": [{"device_id": "watch-1", "kind": "toaster", "vendor": "v"}]},
    {"comit_timeout_ms": 3000},
    # fields the format no longer has
    {"batch_size": 16},
    {"poll_interval_ms": 500},
    {"thresholds": {"min_rate": 40, "max_rate": 180}},
    {"net": {"reorder": True}},
    {"byzantine": {"node": 0, "fault": "delay", "extra_delay_ms": 400}},
    {"accounts": [{"name": "a", "role": "Administrator", "usr_id": 1},
                  {"name": "b", "role": "NormalUser", "usr_id": 1}]},
    {"check_event_log": False},  # the switch that turned the event log check off
    {"nodes": 1},  # the single-node mode
    {"net": 5},  # not an object
    {"accounts": 5},  # not a list
])
def test_scenario_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        scenario_from_dict(_scenario(**overrides))


def _accepts(build) -> bool:
    try:
        build()
    except ConfigError:
        return False
    return True


def test_a_missing_field_is_named():
    data = _scenario()
    del data["seed"]
    with pytest.raises(ConfigError, match=r"^missing field scenario\.seed$"):
        scenario_from_dict(data)


def test_an_unknown_bundled_scenario_is_a_config_error():
    with pytest.raises(ConfigError, match="no bundled scenario named 'nope'"):
        bundled_scenario("nope")


@pytest.mark.parametrize("n", range(12))
def test_scenario_nodes_are_the_replica_counts_the_ledger_runs(n):
    ledger_runs = _accepts(lambda: node_mod.LedgerConfig(
        node_addrs=[f"n{i}" for i in range(n)], node_pubkeys=["k"] * n, ledger_secret=b"s",
        task_agent_addr="task", exec_agent_addr="exec"))
    assert _accepts(lambda: scenario_from_dict(_scenario(nodes=n))) == ledger_runs


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
    assert config["rules"][0]["title"] == hr_rule()["title"]
    data["rules"] = ["missing.json"]
    scenario_path.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        load_scenario(str(scenario_path))


def test_bundled_heart_rate_scenario_loads():
    config = cli._load("heart_rate", None)
    assert config["name"] == "heart_rate"
    assert config["nodes"] == 4
    assert {d["device_id"] for d in config["devices"]} >= {"watch-1", "lock-1"}
    assert len(config["rules"]) == 1


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


@pytest.mark.parametrize("trigger_mode", ["poll", "push"])
def test_no_agent_device_or_node_handler_mutates_a_delivered_message(trigger_mode):
    # Receivers of a multicast share one message (see `sim.Process`).
    world = World(scenario_from_dict(_scenario(trigger_mode=trigger_mode)))
    watched = Tap(world.net).watched
    report = world.run()
    assert report["ledger"]["tx_counts"]["action"] == 1
    kinds = {msg["type"] for _, msg, _ in watched}
    assert {"notify_event", "notify_actions", "receipt", "commit"} <= kinds
    assert not mutated_since(watched)


def test_devices_of_one_vendor_share_one_gateway():
    devices = _scenario()["devices"] + [
        {"device_id": "watch-2", "kind": "heart_rate", "vendor": "fitpulse"}]
    world = World(scenario_from_dict(_scenario(devices=devices)))
    assert sorted(world.gateways) == ["fitpulse", "homesec"]
    assert {device_id: gw for device_id, (gw, _token) in world.exec_agent.device_routes.items()} \
        == {"watch-1": "gw:fitpulse", "watch-2": "gw:fitpulse", "lock-1": "gw:homesec"}


def test_the_report_counts_each_rejected_tx_by_its_code():
    # The owner commits rule 1 a second time, under another binding.
    world = World(scenario_from_dict(_scenario()))
    report = world.run(hook=lambda w: w.scheduler.schedule(
        500, lambda: w.owner.commit_rule(w.rules[0], 102)))
    assert report["ledger"]["verdicts"] == {"accepted": 4, "rejected": {"DuplicateRuleId": 1}}


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
    # The agent's (eid, log_key) pairs: eids count up under its address, and
    # log keys are the successive draws of its rng.
    rng = random.Random(derive_seed(world.config["seed"], "exec/rng"))
    minted = {(sha256_hex(f"eid/exec/{k}".encode())[:32], rng.randbytes(16).hex())
              for k in range(1, world.exec_agent._eid_counter + 1)}
    assert world.log._entries and set(world.log._entries) <= minted


def test_private_key_material_never_leaks_into_outputs(poll_run, tmp_path):
    report, world = poll_run
    paths = world.write_outputs(str(tmp_path), report)
    blobs = [report_bytes(report)]
    for path in [paths["report"], *paths["dumps"]]:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    secrets = [
        hashlib.sha256(f"key/{world.config['seed']}/{label}".encode()).hexdigest().encode()
        for label in ("acct/exec-agent", "acct/task-agent", "acct/alice", "node0")
    ]
    secrets.append(world.ledger_config.ledger_secret.hex().encode())
    for blob in blobs:
        for secret in secrets:
            assert secret not in blob


def test_write_outputs_pass_the_offline_audit(poll_run, tmp_path):
    report, world = poll_run
    paths = world.write_outputs(str(tmp_path / "out"), report)
    assert os.path.exists(paths["report"])
    assert len(paths["dumps"]) == 4
    for dump in paths["dumps"]:
        result = audit.audit_dump(dump)
        assert result.ok, result.issues
        assert result.height >= 4
    # The audit skips blank lines, as a dump opened in an editor may gain them.
    spaced = tmp_path / "spaced.dump"
    spaced.write_bytes(Path(paths["dumps"][0]).read_bytes().replace(b"\n", b"\n\n"))
    assert audit.audit_dump(str(spaced)).ok


def test_a_dump_stores_each_accepted_tx_once(poll_run):
    # A block names the txs it accepted by their positions in its commit
    # certificate's batch, so no accepted body is stored a second time.
    _, world = poll_run
    node = world.nodes[0]
    data = audit.dump_bytes(node)
    accepted = {tid for tid, receipt in node.decided.items() if receipt.accepted}
    bodies = {wire["body"] for block in node.chain for wire in block["cert"]["batch"]
              if text_id(wire["signer"], wire["body"]) in accepted}
    assert len(bodies) == len(accepted) > 0
    assert all(data.count(canonical_bytes(body)) == 1 for body in bodies)


@pytest.mark.parametrize("tamper", [
    lambda cert: cert["votes"].update(dict.fromkeys(cert["votes"], 5)),
    lambda cert: cert.update(view=float(cert["view"])),
    lambda cert: cert.update(votes=list(cert["votes"].values())),
    # int() raised ValueError past its 4,300-digit limit, out of the audit.
    lambda cert: cert["votes"].update({"9" * 5000: "00"}),
    lambda cert: cert["votes"].update({str(2**64): "00"}),
    lambda cert: cert["votes"].update({"\u0663": "00"}),  # an Arabic-Indic 3
], ids=["int_vote", "float_view", "list_votes", "huge_index", "index_past_the_range",
        "non_ascii_index"])
def test_audit_reports_a_malformed_commit_certificate(poll_run, tamper):
    _, world = poll_run
    records = json.loads(json.dumps(audit.dump_lines(world.nodes[0])))
    tamper(records[2]["cert"])  # the first block after genesis
    result = audit.audit_records(records)
    assert not result.ok
    assert result.issues == ["block 1: malformed commit certificate"]


def _edit_body(wire, **fields):
    """Set fields in wire's body text, keeping its key order and separators; a
    float stays a float."""
    wire["body"] = json.dumps({**json.loads(wire["body"]), **fields}, sort_keys=True,
                              separators=(",", ":"), ensure_ascii=False)


@pytest.mark.parametrize("tamper", [
    lambda records: _edit_body(node_mod.block_txs(records[2])[0], nonce=1.5),
    lambda records: records[2].pop("prev_digest"),
    lambda records: records[2].update(txs=5),
    lambda records: records.insert(2, ["not", "an", "object"]),
    lambda records: records[0].update(node_pubkeys=5),
], ids=["float_in_tx_body", "missing_prev_digest", "int_txs", "list_record",
        "int_node_pubkeys"])
def test_audit_reports_a_malformed_dump_without_raising(poll_run, tamper):
    _, world = poll_run
    records = json.loads(json.dumps(audit.dump_lines(world.nodes[0])))
    tamper(records)
    result = audit.audit_records(records)
    assert not result.ok and result.issues


@pytest.fixture(scope="module")
def batched_records():
    """A dump whose block 2 holds three txs, submitted together."""
    rig = make_rig(seed=20)
    for i in range(1, 5):
        tx = rule_commit_tx(rig.admin, nonce=i, rule=hr_rule(rule_id=i), usr_rule_id=100 + i)
        rig.scheduler.schedule(10, lambda t=tx: rig.client.client.submit(t))
    rig.scheduler.run(until=5000)
    records = audit.dump_lines(rig.nodes[0])
    assert len(records[3]["txs"]) >= 2
    return json.dumps(records)


def _reseal(records):
    """Recompute what needs no node key: each content digest, the prev-digest
    chain and the state footer."""
    prev = node_mod.GENESIS_PREV
    state = node_mod.genesis_state(records[0]["genesis_acl"])
    for record in records[1:-1]:
        cert = record.get("cert", {})
        record["prev_digest"] = prev
        record["digest"] = prev = node_mod.block_digest(record["height"], prev,
                                                        cert.get("digest", ""), record["txs"])
        batch = cert.get("batch", [])
        for pos in record["txs"]:
            # The audit reports a position outside the batch and a body it cannot parse.
            tx = SignedTransaction.from_wire(batch[pos]) if 0 <= pos < len(batch) else None
            if tx is not None:
                contracts.apply_tx(tx, state)
    records[-1]["digest"] = state.state_digest()
    return records


_FORGER = KeyPair.from_seed(20, "acct/forger")
_FORGED = rule_commit_tx(_FORGER, 1, rule=hr_rule(rule_id=9), usr_rule_id=109).wire()


def _forge_accept_under_f_minus_one(records):
    """Add a forged tx to block 2 and claim a header f of -1, a quorum of -1
    votes, so the certificate needs no key."""
    records[0]["f"] = -1
    block = records[3]
    block["txs"].append(len(block["cert"]["batch"]))
    block["cert"]["batch"].append(_FORGED)
    block["cert"]["digest"] = node_mod.batch_digest(block["cert"]["batch"])


def _erase_with_one_vote(records):
    """Erase an accepted tx from block 2 and certify the rest with the one
    commit vote that node1's key (within f = 1) signs."""
    block = records[3]
    cert = block["cert"]
    erased = block["txs"].pop(0)
    del cert["batch"][erased]
    block["txs"] = [pos - (pos > erased) for pos in block["txs"]]
    digest = node_mod.batch_digest(cert["batch"])
    body = node_mod._vote_body("c", cert["view"], cert["height"], digest)
    sig = KeyPair.from_seed(20, "node1").sign_obj(body)
    cert.update(digest=digest, votes={"1": sig})


def _forge_reject_under_f_zero(records):
    """The erase above under a header f of 0, a quorum of one vote."""
    records[0]["f"] = 0
    _erase_with_one_vote(records)


def _rewrite_first_accepted_body(block, rewrite):
    """Rewrite the body of the first wire block accepted, in its certificate's batch."""
    wire = node_mod.block_txs(block)[0]
    wire["body"] = rewrite(wire["body"])


def _accept_forged(block):
    """Add _FORGED to block's batch and its position to block's accepted txs."""
    block["txs"].append(len(block["cert"]["batch"]))
    block["cert"]["batch"].append(_FORGED)


_POSITIONS = "block 2: txs are not ascending positions in the proposal"


@pytest.mark.parametrize("tamper,issue", [
    (lambda records: _accept_forged(records[2]),
     "block 1: proposal does not match its commit certificate"),
    (lambda records: records[3]["cert"]["batch"].insert(0, records[3]["cert"]["batch"].pop(1)),
     "block 2: proposal does not match its commit certificate"),
    (lambda records: _edit_body(records[3]["cert"]["batch"][1], usr_rule_id=999),
     "block 2: proposal does not match its commit certificate"),
    (lambda records: _rewrite_first_accepted_body(records[3], lambda body: body[:-1]),
     "block 2: committed tx with a malformed body"),
    (lambda records: _rewrite_first_accepted_body(records[3], lambda body: body + " "),
     "block 2: committed tx with a malformed body"),
    (lambda records: records[3]["txs"].insert(0, -1), _POSITIONS),
    (lambda records: records[3]["txs"].insert(0, records[3]["txs"][0]), _POSITIONS),
    (lambda records: records[3]["txs"].append(len(records[3]["cert"]["batch"])), _POSITIONS),
    (lambda records: records[3]["txs"].insert(0, records[3]["txs"].pop(1)), _POSITIONS),
    (lambda records: records[3].pop("cert"), "record 3: malformed"),
    (lambda records: records[1].update(txs=[0], cert={**records[1]["cert"], "batch": [_FORGED]}),
     "block 0: not the genesis block"),
    (lambda records: records.__delitem__(slice(1, -1)), "block 0: not the genesis block"),
    (_forge_accept_under_f_minus_one, "missing or malformed header record"),
    (_forge_reject_under_f_zero, "missing or malformed header record"),
    (_erase_with_one_vote, "block 2: commit certificate has 1 valid votes, needs 3"),
    (lambda records: records.__delitem__(2), "height gap: expected 1, found 2"),
    (lambda records: records[3].update(cert=records[2]["cert"]),
     "block 2: malformed commit certificate"),
    (lambda records: records[0]["genesis_acl"].append(dict(records[0]["genesis_acl"][0])),
     "missing or malformed header record"),
], ids=["tx_not_in_proposal", "swapped_txs", "edited_proposal_wire",
        "unparseable_tx_body", "non_canonical_tx_body", "negative_position",
        "repeated_position", "position_past_the_batch", "descending_positions", "no_proposal",
        "txs_in_genesis", "no_blocks", "header_f_minus_one", "header_f_zero",
        "erase_with_one_vote", "no_block_1", "certificate_of_another_block",
        "repeated_genesis_signer"])
def test_audit_catches_a_resealed_rewrite(batched_records, tamper, issue):
    assert audit.audit_records(_reseal(json.loads(batched_records))).ok
    records = json.loads(batched_records)
    tamper(records)
    result = audit.audit_records(_reseal(records))
    assert not result.ok and issue in result.issues, result.issues


def test_audit_reports_the_replay_of_a_modify_of_no_stored_rule(batched_records):
    # The contract accepts a modify only of a stored rule, so its replay finds the row.
    records = json.loads(batched_records)
    block = records[3]
    block["txs"].append(len(block["cert"]["batch"]))
    block["cert"]["batch"].append(build_tx("rule_commit", {
        "action": "modify_rule", "rule": hr_rule(rule_id=77)}, _FORGER, 2).wire())
    result = audit.audit_records(records)
    assert any(issue.startswith("block 2: replay failed") for issue in result.issues), \
        result.issues


def test_audit_catches_a_prev_digest_rewritten_in_one_block(batched_records):
    # Only the tip block is edited and given its own content digest; no later
    # block links to it, so only the prev-digest check sees the break.
    records = _reseal(json.loads(batched_records))
    tip = records[-2]
    tip["prev_digest"] = node_mod.GENESIS_PREV
    tip["digest"] = node_mod.block_digest(tip["height"], tip["prev_digest"],
                                          tip["cert"]["digest"], tip["txs"])
    assert tip["height"] == 2
    result = audit.audit_records(records)
    assert not result.ok and result.issues == ["block 2: prev_digest does not match chain"]


def test_audit_catches_an_accepted_position_erased_under_its_old_digest(batched_records):
    # Only the footer is resealed; the replay then agrees with it, so only the
    # content digest, which covers the accepted positions, sees the erasure.
    records = _reseal(json.loads(batched_records))
    records[3]["txs"].pop()
    records[-1]["digest"] = _reseal(json.loads(json.dumps(records)))[-1]["digest"]
    result = audit.audit_records(records)
    assert not result.ok and result.issues == ["block 2: content digest mismatch"]


def test_audit_reports_a_dump_without_its_footer(batched_records):
    records = _reseal(json.loads(batched_records))
    records.pop()
    result = audit.audit_records(records)
    assert not result.ok and result.issues == ["missing state footer"]


def test_the_audit_verifies_for_itself(tmp_path, monkeypatch):
    # Replicas share their network's verify memo; the offline audit must not,
    # so it pays one real Ed25519 check per commit vote whether or not the World
    # that wrote the dump is still alive.  It checks no tx signature: the commit
    # quorum holds f + 1 honest replicas, each of which checked every tx it voted on.
    report, world = run_scenario(scenario_from_dict(_scenario()))
    path = world.write_outputs(str(tmp_path), report)["dumps"][0]
    with open(path, "rb") as fh:
        records = [json.loads(line) for line in fh.read().splitlines()]
    blocks = [r for r in records if r["type"] == "block"]
    expected = sum(len(b["cert"]["votes"]) for b in blocks[1:])
    real = []
    verify = keys_mod.verify_signature

    def counting(message, sig, pub):
        real.append(message)
        return verify(message, sig, pub)

    monkeypatch.setattr(keys_mod, "verify_signature", counting)
    assert audit.audit_dump(path).ok
    assert len(real) == expected
    del world
    gc.collect()
    real.clear()
    assert audit.audit_dump(path).ok
    assert len(real) == expected

    # A flipped tx signature is a rewrite of certified content: the accepted
    # wire is stored once, in the certificate's batch, which leaves its digest.
    i = next(i for i, r in enumerate(records) if r.get("txs"))
    height, wire = records[i]["height"], node_mod.block_txs(records[i])[0]
    flipped = dict(wire, signature=("1" if wire["signature"][0] == "0" else "0")
                   + wire["signature"][1:])
    edited = json.loads(json.dumps(records))
    batch = edited[i]["cert"]["batch"]
    batch[batch.index(wire)] = flipped
    dump = tmp_path / "flipped.dump"
    dump.write_bytes(b"".join(canonical_bytes(r) + b"\n" for r in edited))
    result = audit.audit_dump(str(dump))
    issue = f"block {height}: proposal does not match its commit certificate"
    assert not result.ok and issue in result.issues, result.issues


def test_audit_reports_a_dump_nested_too_deep_to_parse(tmp_path):
    dump = tmp_path / "deep.dump"
    dump.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    result = audit.audit_dump(str(dump))
    assert not result.ok and result.issues[0].startswith("unparseable dump")


_DEEP_PARSE = """
import sys
from ruledger.ledger import audit
from ruledger.ledger.tx import SignedTransaction
deep = "[" * 200_000 + "]" * 200_000
body = '{"kind":"event","nonce":1,"x":' + deep + '}'
assert SignedTransaction.from_wire({"kind": "event", "body": body, "signer": "", "signature": ""}) is None
with open(sys.argv[1], "w") as fh:
    fh.write(deep + "\\n")
result = audit.audit_dump(sys.argv[1])
assert not result.ok and result.issues[0].startswith("unparseable dump"), result.issues
"""


def test_text_from_outside_nested_200000_deep_is_refused_without_a_crash(tmp_path):
    """Text from outside goes through the stdlib parser, which raises
    RecursionError on deep nesting, and both readers catch it; orjson's parser
    can overflow the C stack there and kill the process.  The subprocess makes
    such a crash one failed test, not a crashed test run."""
    env = {**os.environ, "PYTHONPATH": str(Path(contracts.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _DEEP_PARSE, str(tmp_path / "deep.dump")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, (done.returncode, done.stdout + done.stderr)


@pytest.mark.parametrize("seed", [1, 6, 25, 35])
def test_a_corrupting_node_cannot_crash_the_agents(seed):
    # Notifications that lost a field to a flipped bit raised KeyError out of
    # the agents and ended these runs.
    config = cli._load("heart_rate", seed)
    config["byzantine"] = {"node": 1, "fault": "corrupt", "prob": 0.6}
    report, _ = run_scenario(config)
    assert report["ledger"]["consistent"]


# SHA-256 of the bundled heart_rate run's report bytes and node dumps when the
# network drops a tenth of all messages: every resend path (the client's
# resubmission, the rule export, the trigger request) runs here, so a change
# to one shows.  A change that alters behaviour on purpose updates these.
PINNED_LOSSY_HEART_RATE = {
    42: {
        "report": "8881d00cbed91bf1c05bcbd22e0bdc2fa9711bc15abe0688599f3889802fcbfb",
        "ledger-node0.dump": "b8365858853d742e11c5ca4194fc054d222ea271afe7ab86d51c3c6de507ae78",
        "ledger-node1.dump": "163e84eb77f77277a9ca1a120ef1e77c9538924f25c57f1bd76e2b335ac139e5",
        "ledger-node2.dump": "6541edc2d34a280cb3e7372ead3b007c58160728ff5b0284256ad22d79edc15f",
        "ledger-node3.dump": "4759424223c5bbbfba2cf37ba6dc2859ffa83219f5a8a3d153094178ba08b801",
    },
    1: {
        "report": "903ac6450bcfaa6e399918f2a10019df78d6d55c064c19f7489c1d2915e24457",
        "ledger-node0.dump": "781c7d93a28743f9c1e612fb8e803224ede2bbd889f149603373a840180869e6",
        "ledger-node1.dump": "f8012e7e96ec6398475e7e9be1defe360e8099ea58eb4d2949941dcf80d49ee0",
        "ledger-node2.dump": "b3e7938c952896fcac8762312a84bbfd778bc88d3cbbf3df487a6fcce0bb1d84",
        "ledger-node3.dump": "411144d7ee827ab5ac6790ab3a4aecaf3835c73237227c75c6691c16f41f58fe",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_LOSSY_HEART_RATE))
def test_a_lossy_network_run_is_consistent_audits_clean_and_pinned(seed, tmp_path):
    config = cli._load("heart_rate", seed)
    config["net"]["drop_prob"] = 0.1
    report, _ = run_scenario(config, out_dir=str(tmp_path))
    digests = {"report": hashlib.sha256(report_bytes(report)).hexdigest()}
    for i in range(4):
        dump = tmp_path / f"ledger-node{i}.dump"
        digests[dump.name] = hashlib.sha256(dump.read_bytes()).hexdigest()
        assert audit.audit_dump(str(dump)).ok
    assert report["ledger"]["consistent"]
    assert digests == PINNED_LOSSY_HEART_RATE[seed]


def test_a_committed_rule_on_an_unroutable_device_cannot_crash_the_run():
    # The agent has no route to watch-9: each poll of the rule raised
    # KeyError out of World.run.
    world = World(cli._load("heart_rate", 42))
    rule = parse_rule(hr_rule(rule_id=9, watch="watch-9"))
    report = world.run(hook=lambda w: w.scheduler.schedule(
        1000, lambda: w.owner.commit_rule(rule, 109)))
    assert report["ledger"]["consistent"] and report["execution"]["cycles_aborted"] > 0


@pytest.mark.parametrize("seed", [42, 7, 1])
def test_a_modified_rule_takes_effect_at_the_execution_agent(seed):
    # Modified at 500 ms to fire at 100 bpm or more: of the three alerts
    # (30, 190 and 25 bpm) only the 190 bpm one opens the lock.
    world = World(cli._load("heart_rate", seed))
    raw = dict(world.rules[0].to_dict(),
               condition={"cmp": "ge", "field": "heart_rate", "value": 100})
    tids = []
    report = world.run(hook=lambda w: w.scheduler.schedule(
        500, lambda: tids.append(w.owner.modify_rule(parse_rule(raw), 101))))
    assert [world.owner.client.resolved[tid].accepted for tid in tids] == [True]
    assert report["devices"]["lock-1"]["actions_executed"] == 1
    assert [t["rule"].to_dict() for t in world.exec_agent.triggers] == [raw]
    assert world.exec_agent.triggers[0]["binding"] == world.bindings[1]
    assert report["ledger"]["consistent"] and report["ledger"]["verdicts"]["rejected"] == {}


@pytest.mark.parametrize("seed", [42, 7])
def test_only_the_rule_owners_console_registers_a_trigger(seed):
    # An outside process replays the console's registration of rule 1 with a
    # condition every reading meets; the agent must go on running the rule
    # the owner committed.
    world = World(cli._load("heart_rate", seed))
    watched = Tap(world.net).watched
    outsider = Process("outsider", world.net)

    def forge():
        honest = next(msg for dst, msg, _ in watched if msg["type"] == "register_trigger")
        rule = dict(honest["rule"], condition={"cmp": "ge", "field": "heart_rate", "value": 0})
        outsider.send("exec", {**honest, "rule": rule})

    report = world.run(hook=lambda w: w.scheduler.schedule(400, forge))
    assert report["devices"]["lock-1"]["actions_executed"] == 3  # one per alert, as honest
    assert report["execution"]["malformed_dropped"] == 1
    assert [t["rule"] for t in world.exec_agent.triggers] == world.rules


def _heart_rate_with_outsider(sends, seed=42, **changes):
    """Run bundled heart_rate at seed, with changes, while an outside process
    sends each (at_ms, dst, msg) that sends(world) lists; (report, world)."""
    world = World(dict(cli._load("heart_rate", seed), **changes))
    outsider = Process("outsider", world.net)

    def hook(w):
        for at_ms, dst, msg in sends(w):
            w.scheduler.schedule(at_ms, lambda d=dst, m=msg: outsider.send(d, m))

    return world.run(hook=hook), world


def test_a_bypass_event_counts_only_from_the_exec_agent_in_bypass_mode():
    # Forged bypass events for rule 1's event_seq 1-39 each marked the event
    # as seen, so the real committed events were dropped as duplicates: the
    # lock ran none of its 3 actions, and 39 action txs were rejected BadCid.
    report, _ = _heart_rate_with_outsider(lambda w: [
        (50, "task", {"type": "bypass_event",
                      "event_info": {**w.bindings[1], "step_id": 0, "event_seq": seq}})
        for seq in range(1, 40)])
    assert report["devices"]["lock-1"]["actions_executed"] == 3
    assert report["ledger"]["verdicts"]["rejected"] == {}
    assert report["task_agent"]["duplicate_notifies"] == 0
    assert report["task_agent"]["malformed_dropped"] == 39


@pytest.mark.parametrize("seed", [42, 7])
def test_the_platform_takes_a_rule_export_only_from_the_owners_console(seed):
    # An outside export of rule 1 with no actions replaced the owner's, so the
    # platform sent no action request and the lock ran none of its 3 actions.
    report, world = _heart_rate_with_outsider(lambda w: [(500, "tamock", {
        "type": "export_rule", "rule_id": 1, "title": "x", "actions": []})], seed=seed)
    assert report["devices"]["lock-1"]["actions_executed"] == 3
    assert report["platform"]["malformed_dropped"] == 1
    assert world.tamock.exported[1]["actions"] == ["open_door_operation"]


def test_the_platform_takes_an_action_result_only_from_the_task_agent():
    # An outside result for request 1 was recorded as a second outcome of it.
    report, world = _heart_rate_with_outsider(lambda w: [(3000, "tamock", {
        "type": "action_result", "req_id": 1, "accepted": False, "code": "Forged"})])
    assert report["platform"]["malformed_dropped"] == 1
    assert [o["req_id"] for o in world.tamock.outcomes] == [1, 2, 3]
    assert all(o["accepted"] for o in world.tamock.outcomes)


def test_the_platform_takes_a_trigger_request_only_from_the_task_agent():
    # An outside trigger for an event the ledger never saw made the platform emit
    # a 4th action request (4 trigger requests against 3), answered BadCid.
    report, world = _heart_rate_with_outsider(lambda w: [(3000, "tamock", {
        "type": "trigger_request", "req_id": 99, "cid": "c" * 32,
        "event_info": {**w.bindings[1], "step_id": 0, "event_seq": 99}})])
    assert report["platform"]["malformed_dropped"] == 1
    assert report["platform"]["trigger_requests"] == 3
    assert report["platform"]["action_requests_emitted"] == 3
    assert report["ledger"]["verdicts"]["rejected"] == {}
    assert 99 not in world.tamock.requests


def test_a_device_obeys_only_its_own_gateway():
    # A call sent straight to the lock skipped the gateway's token check and
    # opened it at 53 ms, with no action tx behind it.
    report, world = _heart_rate_with_outsider(lambda w: [(50, "dev:lock-1", {
        "type": "rpc", "api": SMARTLOCK_UNLOCK, "eid": "e", "log_key": "k", "corr": 1})])
    lock = world.devices["lock-1"]
    assert lock.actions_executed == report["ledger"]["tx_counts"]["action"] == 3
    assert lock.counters["malformed_dropped"] == 1
    assert min(e["at_ms"] for e in world.log._entries.values() if e["device_id"] == "lock-1") > 1000


def test_a_device_push_counts_only_from_the_device_it_names():
    # Six forged pushes for the watch during its 30 bpm alert ran six more
    # cycles, and the lock 9 times against 3.
    report, _ = _heart_rate_with_outsider(
        lambda w: [(at_ms, "exec", {"type": "device_push", "device_id": "watch-1"})
                   for at_ms in range(1000, 1251, 50)], trigger_mode="push")
    assert report["devices"]["lock-1"]["actions_executed"] == 3
    assert report["execution"]["cycles"] == 6
    assert report["execution"]["malformed_dropped"] == 6


@pytest.mark.parametrize("cid", ["é", "ab"])
def test_an_action_tx_with_a_non_ascii_cid_is_refused_and_halts_nothing(cid):
    # hmac.compare_digest raised TypeError on the non-ASCII cid partway through
    # the block: every replica stopped at height 1 after two view changes, the
    # outsider got no receipt and the lock ran none of its 3 actions.
    world = World(cli._load("heart_rate", 42))
    outsider = AgentBase("outsider", world.net, KeyPair.from_seed(42, "acct/outsider"),
                         world.ledger_config.node_addrs)
    tids = []
    report = world.run(hook=lambda w: w.scheduler.schedule(900, lambda: tids.append(
        outsider.submit(KIND_ACTION, {"event_info": {**w.bindings[1], "step_id": 0,
                                                     "event_seq": 1}, "cid": cid}))))
    assert [outsider.client.resolved[tid].code for tid in tids] == [contracts.CODE_BAD_CID]
    assert report["devices"]["lock-1"]["actions_executed"] == 3
    assert [len(node.chain) - 1 for node in world.nodes] == [11] * 4


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
    assert "consistent=True" in printed and f"outputs written to {out_dir}" in printed

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
    wire = node_mod.block_txs(record)[0]
    _edit_body(wire, nonce=json.loads(wire["body"])["nonce"] + 1)
    lines[2] = json.dumps(record).encode()
    dump.write_bytes(b"\n".join(lines) + b"\n")

    assert cli.main(["audit", str(dump)]) == 1
    out = capsys.readouterr().out
    # The edited wire is in the certified batch, which no longer matches its digest.
    assert "FAILED" in out and "does not match its commit certificate" in out


@pytest.mark.parametrize("argv", [
    ["run", "no_such_bundled_scenario"],
    ["audit", "/nonexistent/path.dump"],
])
def test_cli_config_errors_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_cli_run_exits_one_when_replicas_diverge(tmp_path, monkeypatch, capsys):
    def diverged(config, out_dir):
        report, world = run_scenario(config, out_dir)
        report["ledger"]["consistent"] = False
        return report, world

    monkeypatch.setattr(cli, "run_scenario", diverged)
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(_scenario()))
    assert cli.main(["run", str(scenario_path)]) == 1
    printed = capsys.readouterr()
    assert "replicas diverged" in printed.err and "outputs written" not in printed.out


def test_the_cli_module_runs_as_a_script(tmp_path):
    """`python -m ruledger.harness.cli` is `main`: a missing dump exits 2, naming it."""
    env = {**os.environ, "PYTHONPATH": str(Path(contracts.__file__).parent.parent)}
    missing = str(tmp_path / "missing.dump")
    done = subprocess.run([sys.executable, "-m", "ruledger.harness.cli", "audit", missing],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and missing in done.stderr, done.stdout + done.stderr


def test_cli_run_missing_scenario_file_exits_two(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2


def test_cli_run_names_a_bad_scenario_field_and_exits_two(tmp_path, capsys):
    scenario_path = tmp_path / "bad.json"
    scenario_path.write_text(json.dumps(_scenario(drain_ms="x")))
    assert cli.main(["run", str(scenario_path)]) == 2
    assert "drain_ms" in capsys.readouterr().err


def test_cli_run_refuses_the_platform_adversary_field(tmp_path, capsys):
    scenario_path = tmp_path / "old.json"
    scenario_path.write_text(json.dumps(_scenario(adversary={"mode": "honest"})))
    assert cli.main(["run", str(scenario_path)]) == 2
    assert "unknown field scenario.adversary" in capsys.readouterr().err


def test_cli_run_reads_a_rule_file_next_to_the_scenario(poll_run, tmp_path, monkeypatch):
    # Run from the parent directory, which holds a rule.json that the scenario
    # loader would refuse: the scenario's own directory is the one searched.
    report, _ = poll_run
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "rule.json").write_text(json.dumps(hr_rule()))
    (tmp_path / "rule.json").write_text(json.dumps(hr_rule(watch="watch-9")))
    (sub / "mini.json").write_text(json.dumps(_scenario(rules=["rule.json"])))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", os.path.join("sub", "mini.json"), "--out", "out"]) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == report_bytes(report)


@pytest.mark.parametrize("text,named", [
    (None, "rule.json"),  # no such file
    ("{not json", "rule.json"),
    (json.dumps(hr_rule(watch="watch-9")), "UnboundDevice"),
    (json.dumps(dict(hr_rule(), condition="IF_FALSE")), "UnsupportedSchema"),
])
def test_cli_run_refuses_a_bad_rule_file_and_exits_two(text, named, tmp_path, capsys):
    if text is not None:
        (tmp_path / "rule.json").write_text(text)
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(_scenario(rules=["rule.json"])))
    assert cli.main(["run", str(scenario_path)]) == 2
    assert named in capsys.readouterr().err


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
    assert "ledger end-to-end overhead: " in printed
    with open(out) as fh:
        result = json.load(fh)
    assert result["baseline_bypass"]["completed"] == 20
    assert result["with_ledger"]["completed"] == 20
    assert result["ledger_e2e_overhead_pct"] is not None


def test_cli_bench_with_no_requests_states_no_overhead(capsys):
    # The bypass run completes nothing, so there is no mean to compare against.
    assert cli.main(["bench", "--requests", "0"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("requests=0 concurrency=10\n  bypass nodes=4: completed=0 ")
    assert "overhead" not in printed


@pytest.mark.parametrize("flag, value", [
    ("--concurrency", "0"), ("--concurrency", "-1"), ("--requests", "-5"), ("--nodes", "3")])
def test_cli_bench_refuses_a_bad_count_and_exits_two(flag, value, capsys):
    assert cli.main(["bench", flag, value]) == 2
    assert flag in capsys.readouterr().err


def test_bench_waves_wait_for_the_rule_to_register():
    # The first wave comes due at 300 ms, before the rule is even committed:
    # it waits for the rule's trigger and then runs both of its cycles.
    world = World(scenario_from_dict(bench._bench_scenario(3, 4, True, 3000)))
    bench._drive(world, 2, 2)
    world.scheduler.run(until=350)
    assert world.exec_agent.triggers == [] and world.exec_agent.counters["cycles"] == 0
    world.prepare()  # the rule commit goes out only now
    world.scheduler.run(until=3000)
    assert world.exec_agent.counters["cycles"] == 2
    assert world.exec_agent.counters["actions_completed"] == 2


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
    monkeypatch.setattr(cli, "run_attack_suite", lambda seed: suite)
    assert cli.main(["attacks"]) == 0
    assert "all attacks blocked" in capsys.readouterr().out

    bad = dict(suite, all_blocked=False)
    bad["attacks"] = [dict(suite["attacks"][0], blocked=False)]
    monkeypatch.setattr(cli, "run_attack_suite", lambda seed: bad)
    assert cli.main(["attacks"]) == 1
    assert "ATTACK GOT THROUGH" in capsys.readouterr().out


_IMPORT_EACH = """
import importlib, sys, traceback
from pathlib import Path
root = Path(sys.argv[1])
failed = []
for path in sorted(root.rglob("*.py")):
    parts = path.relative_to(root.parent).with_suffix("").parts
    name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    for loaded in [m for m in sys.modules if m.split(".")[0] == "ruledger"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name)
        traceback.print_exc()
print(failed)
sys.exit(1 if failed else 0)
"""


def test_every_module_imports_as_the_first_ruledger_import():
    """Each module imports in an interpreter that holds no other ruledger
    module, so no import cycle can hide behind an eager package __init__."""
    package = Path(contracts.__file__).parent
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    done = subprocess.run([sys.executable, "-c", _IMPORT_EACH, str(package)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


_COLD_START = """
import sys
from ruledger.harness.scenario import bundled_scenario, scenario_from_dict
from ruledger.harness.world import World
world = World(scenario_from_dict(bundled_scenario("heart_rate")))
unused = ["jsonschema", "cryptography.hazmat.primitives.serialization"]
print(sorted(name for name in unused if name in sys.modules))
from ruledger.harness.report import validate_report
import jsonschema
try:
    validate_report({"nodes": "four"})
except jsonschema.ValidationError:
    print("rejected")
"""


def test_the_run_path_loads_no_module_it_does_not_execute():
    """Parsing a scenario and building its World imports neither jsonschema
    (loaded on the first report validation) nor cryptography's key
    serialization module; a report check in the same process still raises."""
    env = {**os.environ, "PYTHONPATH": str(Path(contracts.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "rejected"], done.stdout + done.stderr
