"""Acceptance gate: the eight release criteria, one test each.

Each test computes its verdict, registers a PASS/FAIL line for the
terminal summary, and then asserts.  Budgets and cell counts are fixed
here on purpose; loosening them is a release decision, not a test edit.
"""

import hashlib
import itertools
import json
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
    insert_event_record,
    make_rig,
    record_criterion,
    rule_commit_tx,
    seeded_state,
)
import random

from ruledger import contracts
from ruledger.harness import attacks, cli
from ruledger.harness.bench import format_bench, run_bench
from ruledger.harness.report import report_bytes
from ruledger.harness.world import World, run_scenario
from ruledger.keys import KeyPair
from ruledger.ledger import audit, tables
from ruledger.ledger.faults import FAULT_KINDS
from ruledger.ledger.node import block_txs
from ruledger.ledger.tx import KIND_ACTION, SignedTransaction

KEY = KeyPair.from_seed(77, "acct/acceptance")


# ---------------------------------------------------------------------------
# 1. consensus safety under every fault type


def _safety_rig(seed: int, fault_kind: str, byz_index: int):
    """Criterion 1's rig for one seed, run to its end."""
    rig = make_rig(seed, fault_kind=fault_kind, byz_index=byz_index,
                   commit_timeout_ms=800)
    for k in range(6):
        tx = rule_commit_tx(rig.admin, nonce=k + 1,
                            rule=hr_rule(rule_id=k + 1), usr_rule_id=101 + k)
        rig.scheduler.schedule(10 + 40 * k, lambda t=tx: rig.client.client.submit(t))
    rig.scheduler.run(until=30_000)
    return rig


def _faulted_run(seed: int, fault_kind: str, byz_index: int) -> tuple[bool, int, bytes]:
    """One faulted rig's verdicts: whether its honest replicas agree on a common
    prefix, how many of its txs were accepted, and the bytes its pin hashes."""
    rig = _safety_rig(seed, fault_kind, byz_index)
    digest_lists = [audit.content_digests(n)
                    for i, n in enumerate(rig.nodes) if i != byz_index]
    limit = min(len(d) for d in digest_lists)
    safe = all(d[:limit] == digest_lists[0][:limit] for d in digest_lists)
    accepted = sum(1 for r in rig.client.client.resolved.values() if r.accepted)
    nodes = [[audit.content_digests(n), sorted(n.counters.items()), n.view]
             for n in rig.nodes]
    verdicts = [r.wire() for _tid, r in sorted(rig.client.client.resolved.items())]
    return safe, accepted, json.dumps([nodes, verdicts], sort_keys=True).encode()


@pytest.fixture(scope="module")
def faulted_runs() -> tuple[dict[str, list[tuple[bool, int, bytes]]], float]:
    """Criterion 1's 200 faulted rigs, each built and run once for both tests
    below: per fault kind, its 40 runs in seed order; and the wall seconds the
    200 took."""
    t0 = time.perf_counter()
    runs = {kind: [] for kind in FAULT_KINDS}
    for s in range(40):
        for fi, kind in enumerate(FAULT_KINDS):
            seed = s * len(FAULT_KINDS) + fi
            runs[kind].append(_faulted_run(seed, kind, byz_index=seed % 4))
    return runs, time.perf_counter() - t0


def test_criterion_1_consensus_safety_under_faults(faulted_runs):
    by_kind, wall = faulted_runs
    results = [run for kind in FAULT_KINDS for run in by_kind[kind]]
    runs = len(results)
    violations = sum(1 for safe, _accepted, _pinned in results if not safe)
    incomplete = sum(1 for _safe, accepted, _pinned in results if accepted != 6)
    ok = runs == 200 and violations == 0 and incomplete == 0 and wall < 120.0
    detail = (f"{runs} runs x (4 nodes, 1 byzantine, {len(FAULT_KINDS)} fault kinds), "
              f"divergent={violations} incomplete={incomplete} wall={wall:.1f}s "
              f"(budget 120s)")
    record_criterion("consensus safety under faults", ok, detail)
    assert ok, detail


# Every faulted run of criterion 1 replays the same bytes: per fault kind, a sha256
# over its 40 rigs' chains, counters and views and the client's verdicts.  The
# faulty node draws from its own seeded RNG, so this pins the order of its draws.
PINNED_FAULTED_RUNS = {
    "drop": "69d91c4cfa953066c90f770c4e34896a4addb00181c36ee89921b53a982f7422",
    "duplicate": "1805aa34c4dd8ff9c182b60eb00229f04355306029b3d3d01bea5e28b805afe9",
    "delay": "d26b41e95bd24220554af71752f4bb8b7b3cff52d85e8fc578905eaa7b2b8585",
    "corrupt": "e13e399a4ebe9e53ee59ee4b8566a38059cced5d6e0fab95a890f7421b67ea9e",
    "equivocate": "870a534f2cdafd8e1d6b3b07255f55f431ecc9c7ee91cc0f35ee4207f98cbb8e",
}


def test_faulted_runs_match_pinned_digests(faulted_runs):
    by_kind, _wall = faulted_runs
    digests = {}
    for kind in FAULT_KINDS:
        h = hashlib.sha256()
        for _safe, _accepted, pinned in by_kind[kind]:
            h.update(pinned)
        digests[kind] = h.hexdigest()
    assert digests == PINNED_FAULTED_RUNS


# ---------------------------------------------------------------------------
# 2. attack suite


# The sha256 of the file `ruledger attacks --seed S --out` writes, per seed S.
PINNED_ATTACK_SUITES = {
    1337: "ffa178170a4022059cc3a5c7ea9f657e0aba7ca45f95dedc49e55352d50d8a07",
    7: "8e92626bb1b7b0f9fc1e32092485d84e7c2ae171eecdb0354a7d25772bf733a6",
}


@pytest.fixture(scope="module")
def attack_suites(tmp_path_factory) -> dict[int, tuple[bytes, float]]:
    """`ruledger attacks --seed S --out` run once per pinned seed S: the file
    it wrote and the wall seconds it took."""
    runs = {}
    for seed in PINNED_ATTACK_SUITES:
        path = tmp_path_factory.mktemp("attacks") / "suite.json"
        t0 = time.perf_counter()
        cli.main(["attacks", "--seed", str(seed), "--out", str(path)])
        runs[seed] = (path.read_bytes(), time.perf_counter() - t0)
    return runs


def test_criterion_2_attack_suite_blocked(attack_suites):
    data, wall = attack_suites[1337]
    suite = json.loads(data)
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


def test_the_attack_suite_file_is_pinned(attack_suites):
    assert {seed: hashlib.sha256(data).hexdigest()
            for seed, (data, _wall) in attack_suites.items()} == PINNED_ATTACK_SUITES


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
        insert_event_record(state, info, consumed)
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
        insert_event_record(state, info)
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


def _accepted_action_txs(world: World) -> int:
    count = 0
    node = world.nodes[0]
    for block in node.chain[1:]:
        for wire in block_txs(block):
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
    for name, forge in attacks.PLATFORM_FORGERIES.items():
        world, _, _ = attacks._platform_run(1337, forge)
        executed = world.devices["lock-1"].actions_executed
        authentic = len(world.nodes[0].state.table(tables.EVENT_RECORD).rows)
        accepted = _accepted_action_txs(world)
        worlds_ok = worlds_ok and executed == authentic == accepted == 1
        world_notes.append(f"{name}: executed={executed} authentic={authentic} "
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
    "report": "1bcdfb0c9a2e602c0a77c466ca695c0c8f0d376deb9571ba531d346ba3c8deef",
    "ledger-node0.dump": "f8e12eb4c7e0d2bb1d9460d8895db834502297b363f0ebea7c15d4c4e38614aa",
    "ledger-node1.dump": "c33d0e8d1ff084824ec0a9376ee529aa8c5f49f3039f2ef55f7ad9b5da5d2265",
    "ledger-node2.dump": "3f3f55384dfb3f09bbee2cd484d3dc102dd673219c6f086cf7d3f54a64adc710",
    "ledger-node3.dump": "2b7ac8a653fee74916fe875f19a6d1ca1e164e67cedab5e1e1841a5c5006b832",
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


@pytest.fixture(scope="module")
def bench_run():
    t0 = time.perf_counter()
    result = run_bench(requests=2000, concurrency=2000, nodes=4, seed=7, sweep=(4, 7, 10))
    return result, time.perf_counter() - t0


def test_criterion_8_bench_envelope(bench_run):
    result, wall = bench_run
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


# Sim-time figures are deterministic for a seed, so they are pinned exactly:
# the seed-42 heart_rate end-to-end latency (3 samples, so p90 is the p95
# and the max) and criterion 8's ledger overhead.  A change that moves
# commit timing updates these on purpose and says so.
PINNED_SIM_FIGURES = {
    "heart_rate_e2e_ms": {"count": 3, "min": 53, "p50": 56, "p90": 57, "max": 57, "mean": 55},
    "ledger_e2e_overhead_pct": 85.71,
}


def test_sim_latency_figures_are_pinned(heart_rate_runs, bench_run):
    report = heart_rate_runs[0][0]
    result, _wall = bench_run
    assert {
        "heart_rate_e2e_ms": report["latency_ms"]["end_to_end"],
        "ledger_e2e_overhead_pct": result["ledger_e2e_overhead_pct"],
    } == PINNED_SIM_FIGURES
