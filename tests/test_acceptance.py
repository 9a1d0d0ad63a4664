"""Acceptance gate: the eight release criteria, one test each.

Each test computes its verdict, registers a PASS/FAIL line for the
terminal summary, and then asserts.  Budgets and cell counts are fixed
here on purpose; loosening them is a release decision, not a test edit.
"""

import hashlib
import itertools
import math
import time

import pytest

from conftest import (
    BINDING,
    TEST_SECRET,
    action_tx,
    event_info,
    event_tx,
    hr_rule,
    make_rig,
    record_criterion,
    rule_commit_tx,
    seeded_state,
)
import random

from ruledger import contracts
from ruledger.harness import cli
from ruledger.harness.attacks import run_attack_suite, _base_scenario
from ruledger.harness.bench import format_bench, run_bench
from ruledger.harness.report import report_bytes
from ruledger.harness.scenario import scenario_from_dict
from ruledger.harness.world import World, run_scenario
from ruledger.keys import KeyPair
from ruledger.ledger import audit, tables
from ruledger.ledger.faults import FAULT_KINDS
from ruledger.ledger.tx import KIND_ACTION, SignedTransaction

KEY = KeyPair.from_seed(77, "acct/acceptance")


# ---------------------------------------------------------------------------
# 1. consensus safety under every fault type


def _safety_run(seed: int, fault_kind: str, byz_index: int) -> tuple[bool, int]:
    rig = make_rig(seed, fault_kind=fault_kind, byz_index=byz_index,
                   commit_timeout_ms=800)
    for k in range(6):
        tx = rule_commit_tx(rig.admin, nonce=k + 1,
                            rule=hr_rule(rule_id=k + 1), usr_rule_id=101 + k)
        rig.scheduler.schedule(10 + 40 * k, lambda t=tx: rig.client.client.submit(t))
    rig.scheduler.run(until=30_000)

    digest_lists = [audit.content_digests(n)
                    for i, n in enumerate(rig.nodes) if i != byz_index]
    limit = min(len(d) for d in digest_lists)
    safe = all(d[:limit] == digest_lists[0][:limit] for d in digest_lists)
    accepted = sum(1 for r in rig.client.client.resolved.values() if r.accepted)
    return safe, accepted


def test_criterion_1_consensus_safety_under_faults():
    t0 = time.perf_counter()
    violations = 0
    incomplete = 0
    runs = 0
    for s in range(40):
        for fi, kind in enumerate(FAULT_KINDS):
            seed = s * len(FAULT_KINDS) + fi
            safe, accepted = _safety_run(seed, kind, byz_index=seed % 4)
            runs += 1
            if not safe:
                violations += 1
            if accepted != 6:
                incomplete += 1
    wall = time.perf_counter() - t0
    ok = runs == 200 and violations == 0 and incomplete == 0 and wall < 120.0
    detail = (f"{runs} runs x (4 nodes, 1 byzantine, {len(FAULT_KINDS)} fault kinds), "
              f"divergent={violations} incomplete={incomplete} wall={wall:.1f}s "
              f"(budget 120s)")
    record_criterion("consensus safety under faults", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 2. attack suite


def test_criterion_2_attack_suite_blocked():
    t0 = time.perf_counter()
    suite = run_attack_suite(1337, include_negative=True)
    wall = time.perf_counter() - t0
    unblocked = [a["name"] for a in suite["attacks"] if not a["blocked"]]
    ok = (len(suite["attacks"]) == 9
          and suite["all_blocked"]
          and suite["negative_control_succeeded"]
          and wall < 60.0)
    detail = (f"9 attacks blocked={suite['all_blocked']} "
              f"control_spoof_landed={suite['negative_control_succeeded']} "
              f"wall={wall:.1f}s (budget 60s)"
              + (f" unblocked={unblocked}" if unblocked else ""))
    record_criterion("attack suite", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 3. contract verdicts vs brute-force predicate matrices


def _expected_event_code(present, match, fresh):
    if not present:
        return contracts.CODE_NO_LOG_ENTRY
    if not match:
        return contracts.CODE_CHECKSUM_MISMATCH
    if not fresh:
        return contracts.CODE_STALE_SEQ
    return None


def _event_cell(present, match, fresh):
    state = seeded_state()
    stored = "a" * 64
    entries = {("e" * 32, "f" * 32): stored} if present else {}
    if not fresh:
        state.insert(tables.EVENT_INDEX, {"rule_id": 1, "event_seq": 1, "eid": "x" * 32})
    tx = event_tx(KEY, 1, event_info(), "e" * 32, "f" * 32,
                  stored if match else "b" * 64)
    verdict = contracts.event_verification_contract(
        tx, state, lambda e, k: entries.get((e, k)))
    return None if verdict.accepted else verdict.code


def _expected_action_code(cid_ok, exists, consumed, pred_ok):
    if not cid_ok:
        return contracts.CODE_BAD_CID
    if not exists:
        return contracts.CODE_NO_EVENT_RECORD
    if consumed:
        return contracts.CODE_ALREADY_CONSUMED
    if not pred_ok:
        return contracts.CODE_TRIGGER_VERIFY_FAILED
    return None


def _action_cell(cid_ok, exists, consumed, pred_ok):
    state = seeded_state()
    info = event_info()
    if exists:
        record = {f: info[f] for f in contracts.EVENT_INFO_FIELDS}
        record.update({"eid": "e" * 32, "log_key": "f" * 32, "log_sum": "a" * 64,
                       "consumed": 1 if consumed else 0})
        state.insert(tables.EVENT_RECORD, record)
    if pred_ok:
        state.insert(tables.TRIGGER_EVENT, {"tRule_id": 0, "tStep_id": 0,
                                            "tTask_id": 1, "tResult": contracts.RES_OK})
    cid = contracts.gen_randomness(TEST_SECRET, info)
    if not cid_ok:
        cid = ("0" * 32) if cid != "0" * 32 else ("1" * 32)
    verdict = contracts.action_verification_contract(action_tx(KEY, 1, info, cid),
                                                     state, TEST_SECRET)
    return None if verdict.accepted else verdict.code


def test_criterion_3_contract_oracle_equivalence():
    mismatches = []
    for cell in itertools.product([False, True], repeat=3):
        got, want = _event_cell(*cell), _expected_event_code(*cell)
        if got != want:
            mismatches.append(("event", cell, got, want))
    for cell in itertools.product([False, True], repeat=4):
        got, want = _action_cell(*cell), _expected_action_code(*cell)
        if got != want:
            mismatches.append(("action", cell, got, want))
    ok = not mismatches
    detail = ("event 8/8 cells, action 16/16 cells match the predicate oracles"
              if ok else f"mismatched cells: {mismatches}")
    record_criterion("contract oracle equivalence", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 4. once-only execution


def _shuffle_tally(k: int, rounds: int) -> tuple[int, int]:
    """(rounds with exactly one accept, rounds where extras were all
    AlreadyConsumed) over `rounds` random interleavings of k duplicates."""
    exactly_one = consumed_rest = 0
    for r in range(rounds):
        rng = random.Random(10_000 * k + r)
        info = event_info()
        state = seeded_state()
        record = {f: info[f] for f in contracts.EVENT_INFO_FIELDS}
        record.update({"eid": "e" * 32, "log_key": "f" * 32, "log_sum": "a" * 64,
                       "consumed": 0})
        state.insert(tables.EVENT_RECORD, record)
        state.insert(tables.TRIGGER_EVENT, {"tRule_id": 0, "tStep_id": 0,
                                            "tTask_id": 1, "tResult": contracts.RES_OK})
        cid = contracts.gen_randomness(TEST_SECRET, info)
        txs = [action_tx(KEY, nonce, info, cid) for nonce in range(1, k + 1)]
        rng.shuffle(txs)
        verdicts = []
        for tx in txs:
            v = contracts.action_verification_contract(tx, state, TEST_SECRET)
            if v.accepted:
                contracts.apply_action(tx, state)
            verdicts.append(v)
        if sum(v.accepted for v in verdicts) == 1:
            exactly_one += 1
        if all(v.code == contracts.CODE_ALREADY_CONSUMED
               for v in verdicts if not v.accepted):
            consumed_rest += 1
    return exactly_one, consumed_rest


def _adversarial_world(mode: str) -> World:
    world = World(scenario_from_dict(_base_scenario(1337, adversary={"mode": mode})))
    world.run()
    return world


def _accepted_action_txs(world: World) -> int:
    count = 0
    node = world.nodes[0]
    for block in node.chain[1:]:
        for wire in block["txs"]:
            if wire["kind"] != KIND_ACTION:
                continue
            receipt = node.decided.get(SignedTransaction.from_wire(wire).tx_id)
            if receipt is not None and receipt.accepted:
                count += 1
    return count


def test_criterion_4_once_only_execution():
    shuffle_notes = []
    shuffles_ok = True
    for k in (2, 5, 20):
        ones, consumed = _shuffle_tally(k, 50)
        shuffles_ok = shuffles_ok and ones == 50 and consumed == 50
        shuffle_notes.append(f"K={k}: {ones}/50")

    world_notes = []
    worlds_ok = True
    for mode in ("forge_actions", "replay_requests", "token_reuse"):
        world = _adversarial_world(mode)
        executed = world.devices["lock-1"].actions_executed
        authentic = len(world.nodes[0].state.table(tables.EVENT_RECORD).rows)
        accepted = _accepted_action_txs(world)
        worlds_ok = worlds_ok and executed == authentic == accepted == 1
        world_notes.append(f"{mode}: executed={executed} authentic={authentic} "
                           f"accepted_action_txs={accepted}")

    ok = shuffles_ok and worlds_ok
    detail = ("exactly-one accept in " + ", ".join(shuffle_notes)
              + " interleavings; " + "; ".join(world_notes))
    record_criterion("once-only execution", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 5. trigger-chain verdict conformance


def test_criterion_5_trigger_chain_verdicts():
    state = seeded_state()
    args = (101, 1, 1, BINDING["rule_name"])
    rows = []

    # Class 1: the binding row itself fails to verify.
    rows.append(("unknown binding",
                 contracts.ledger_verify_trigger(state, 999, 1, 1,
                                                 BINDING["rule_name"], step_id=1),
                 contracts.ERR_USER_VERIFY_FAILED))
    rows.append(("owner mismatch",
                 contracts.ledger_verify_trigger(state, 101, 2, 1,
                                                 BINDING["rule_name"], step_id=1),
                 contracts.ERR_USER_VERIFY_FAILED))

    # Class 2: binding fine, predecessor step missing or failed.
    rows.append(("no predecessor row",
                 contracts.ledger_verify_trigger(state, *args, step_id=1),
                 contracts.ERR_TRIGER_VERIFY_FAILED))
    state.insert(tables.TRIGGER_EVENT, {"tRule_id": 0, "tStep_id": 0,
                                        "tTask_id": 1, "tResult": contracts.RES_ERR})
    rows.append(("failed predecessor",
                 contracts.ledger_verify_trigger(state, *args, step_id=1),
                 contracts.ERR_TRIGER_VERIFY_FAILED))

    # Class 3: the full chain holds.
    state.insert(tables.TRIGGER_EVENT, {"tRule_id": 0, "tStep_id": 0,
                                        "tTask_id": 1, "tResult": contracts.RES_OK})
    rows.append(("chain complete",
                 contracts.ledger_verify_trigger(state, *args, step_id=1),
                 contracts.RES_OK))

    wrong = [(label, got, want) for label, got, want in rows if got != want]
    constants_ok = (contracts.RES_OK == 1
                    and contracts.ERR_USER_VERIFY_FAILED == -2
                    and contracts.ERR_TRIGER_VERIFY_FAILED == -3)
    ok = not wrong and constants_ok
    detail = (f"{len(rows)} hand-traced rows exact; codes (1, -2, -3) pinned"
              if ok else f"wrong rows: {wrong} constants_ok={constants_ok}")
    record_criterion("trigger chain verdicts", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 6 and 7 share two full runs of the bundled scenario


@pytest.fixture(scope="module")
def heart_rate_runs(tmp_path_factory):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"hr_{tag}")
        report, world = run_scenario(cli._load("heart_rate", None), out_dir=str(out))
        runs.append((report, world, out))
    return runs


def test_criterion_6_per_alert_transaction_accounting(heart_rate_runs):
    report, world, out = heart_rate_runs[0]
    counts = report["ledger"]["tx_counts"]
    expected = {"rule_commit": 1, "config": 0, "event": 3,
                "action": 3, "action_record": 3}
    audits = [audit.audit_dump(str(out / f"ledger-node{i}.dump")).ok for i in range(4)]
    lock = report["devices"]["lock-1"]
    ok = (counts == expected
          and report["ledger"]["consistent"]
          and lock["actions_executed"] == 3
          and lock["final_state"]["lock"] == "unlocked"
          and all(audits))
    detail = (f"3 alerts -> tx counts {counts}, lock actions="
              f"{lock['actions_executed']}, audits={audits}")
    record_criterion("per-alert transaction accounting", ok, detail)
    assert ok, detail


def test_criterion_7_seeded_determinism(heart_rate_runs):
    (report_a, world_a, out_a), (report_b, world_b, out_b) = heart_rate_runs
    reports_equal = report_bytes(report_a) == report_bytes(report_b)
    dump_equal = []
    for i in range(4):
        with open(out_a / f"ledger-node{i}.dump", "rb") as fa, \
             open(out_b / f"ledger-node{i}.dump", "rb") as fb:
            dump_equal.append(fa.read() == fb.read())
    ok = reports_equal and all(dump_equal)
    detail = (f"re-run with seed {report_a['seed']}: report bytes equal="
              f"{reports_equal}, dumps equal={dump_equal}")
    record_criterion("seeded determinism", ok, detail)
    assert ok, detail


# SHA-256 of the seed-42 heart_rate report bytes and of each node's dump.
# A change that alters behaviour on purpose updates these and says so.
PINNED_HEART_RATE = {
    "report": "9d1027431027e580b6b1be4b157b249b787a6261bfd1aa3e96abc06b39073e5d",
    "ledger-node0.dump": "a946804eb9d394743d6b39aba6f29bac19931168305193e5ed927ea1aecafa9d",
    "ledger-node1.dump": "f835701755759627bc88cfaa941e82b7053e8ffcb85959f57ee4f5be14f08de0",
    "ledger-node2.dump": "7d9404828a57555cf2309b72cefd2b06129186653c22b92739ab0e345bc2b927",
    "ledger-node3.dump": "dfa89b707b28fc73275e66fae9ae70b0d5349e632d68e3b4e94dce92faa0942e",
}


def test_heart_rate_outputs_match_pinned_digests(heart_rate_runs):
    report, _world, out = heart_rate_runs[0]
    assert report["seed"] == 42
    digests = {"report": hashlib.sha256(report_bytes(report)).hexdigest()}
    for i in range(4):
        name = f"ledger-node{i}.dump"
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digests == PINNED_HEART_RATE


# ---------------------------------------------------------------------------
# 8. benchmark envelope


def test_criterion_8_bench_envelope():
    t0 = time.perf_counter()
    result = run_bench(requests=2000, concurrency=2000, nodes=4, seed=7,
                       sweep=(4, 7, 10), mode="both")
    wall = time.perf_counter() - t0
    print(format_bench(result))  # reference figures shown, never asserted

    bypass, ledger = result["baseline_bypass"], result["with_ledger"]
    overhead = result["ledger_e2e_overhead_pct"]
    sweep = result["sweep"]
    ok = (wall < 300.0
          and bypass["completed"] == 2000 and ledger["completed"] == 2000
          and bypass["wall_tps"] > 0 and ledger["wall_tps"] > 0
          and overhead is not None and math.isfinite(overhead)
          and [row["nodes"] for row in sweep] == [4, 7, 10]
          and all(row["completed"] == 300 and row["wall_tps"] > 0 for row in sweep))
    detail = (f"2000 reqs: bypass {bypass['wall_tps']} tps, ledger "
              f"{ledger['wall_tps']} tps, e2e overhead {overhead}% (sim), sweep "
              f"{[(row['nodes'], row['wall_tps']) for row in sweep]}, "
              f"wall={wall:.1f}s (budget 300s)")
    record_criterion("bench envelope", ok, detail)
    assert ok, detail
