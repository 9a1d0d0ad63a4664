"""Verification contracts, checked cell by cell against predicate oracles.

The event and action contracts are each exercised over the full truth
table of their input conditions; expected outcomes come from independent
oracle functions written as the plain decision lists, so a reordering or
dropped check in the contract shows up as a cell mismatch.
"""

import dataclasses
import hmac as hmac_mod
import itertools
import random
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BINDING,
    TEST_SECRET,
    action_tx,
    event_info,
    event_tx,
    hr_rule,
    insert_event_record,
    seeded_state,
)
from ruledger import contracts
from ruledger.canonical import INT_END, INT_MIN, canonical_bytes
from ruledger.harness.scenario import bundled_scenario
from ruledger.keys import KeyPair
from ruledger.ledger import tables
from ruledger.ledger.tx import SignedTransaction

KEY = KeyPair.from_seed(5, "acct/contract-tests")


def _nonce_gen():
    n = 0
    while True:
        n += 1
        yield n


# ---------------------------------------------------------------------------
# service coin


def test_gen_randomness_matches_direct_hmac():
    info = event_info()
    direct = hmac_mod.new(
        TEST_SECRET, b"cid|" + canonical_bytes(info), sha256
    ).digest()[:16].hex()
    assert contracts.gen_randomness(TEST_SECRET, info) == direct
    assert len(direct) == 32  # 16 bytes hex


def test_gen_randomness_frozen_value():
    # Computed once with the direct hmac expression above; a change in the
    # canonical layout or PRF labeling must break this.
    info = event_info(step_id=0, event_seq=1)
    assert contracts.gen_randomness(b"k" * 32, info) == (
        hmac_mod.new(b"k" * 32, b"cid|" + canonical_bytes(info), sha256).digest()[:16].hex()
    )


def test_verify_random_accepts_case_variants_and_rejects_garbage():
    info = event_info()
    cid = contracts.gen_randomness(TEST_SECRET, info)
    assert contracts.verify_random(TEST_SECRET, info, cid)
    assert contracts.verify_random(TEST_SECRET, info, cid.upper())
    assert not contracts.verify_random(TEST_SECRET, info, cid[:-1] + "0" if cid[-1] != "0" else cid[:-1] + "1")
    assert not contracts.verify_random(TEST_SECRET, info, 12345)
    assert not contracts.verify_random(TEST_SECRET, event_info(event_seq=2), cid)


def test_coin_guessing_never_succeeds():
    # 100k random 16-byte coins against one event: all must fail.
    info = event_info()
    rng = random.Random(2024)
    hits = sum(
        contracts.verify_random(TEST_SECRET, info, rng.randbytes(16).hex())
        for _ in range(100_000)
    )
    assert hits == 0


# ---------------------------------------------------------------------------
# binding lookups


def test_verify_usr_rule_exact_match_returns_row_id():
    state = seeded_state()
    assert contracts.verify_usr_rule(state, 101, 1, 1, BINDING["rule_name"]) == 0
    state.insert(tables.USR_RULE, {"usr_rule_id": 102, "usr_id": 1, "rule_id": 2,
                                   "rule_name": "second"})
    assert contracts.verify_usr_rule(state, 102, 1, 2, "second") == 1


@pytest.mark.parametrize("mutation", [
    {"usr_rule_id": 999},
    {"usr_id": 2},
    {"rule_id": 2},
    {"rule_name": "wrong"},
])
def test_verify_usr_rule_any_field_mismatch_fails(mutation):
    state = seeded_state()
    args = {"usr_rule_id": 101, "usr_id": 1, "rule_id": 1,
            "rule_name": BINDING["rule_name"]}
    args.update(mutation)
    assert contracts.verify_usr_rule(state, **args) == contracts.RES_ERR


def test_ledger_verify_trigger_hand_traced():
    """Three outcome classes, traced against hand-built table rows.

    The binding sits at usr_rule row 0, so the trigger-event lookup keys
    on tRule_id=0.  Step 1 may proceed only when step 0 left an OK row.
    """
    state = seeded_state()
    args = (101, 1, 1, BINDING["rule_name"])

    # No step-0 row yet: the binding checks out but the chain does not.
    assert contracts.ledger_verify_trigger(state, *args, step_id=1) == (
        contracts.ERR_TRIGER_VERIFY_FAILED
    )

    # Unknown binding fails before any table walk.
    assert contracts.ledger_verify_trigger(state, 999, 1, 1, BINDING["rule_name"],
                                           step_id=1) == contracts.ERR_USER_VERIFY_FAILED

    # A failed step-0 row is not a predecessor.
    state.insert(tables.TRIGGER_EVENT,
                 {"tRule_id": 0, "tStep_id": 0, "tTask_id": 1, "tResult": contracts.RES_ERR})
    assert contracts.ledger_verify_trigger(state, *args, step_id=1) == (
        contracts.ERR_TRIGER_VERIFY_FAILED
    )

    # An OK row under a different binding row id does not count.
    state.insert(tables.TRIGGER_EVENT,
                 {"tRule_id": 7, "tStep_id": 0, "tTask_id": 1, "tResult": contracts.RES_OK})
    assert contracts.ledger_verify_trigger(state, *args, step_id=1) == (
        contracts.ERR_TRIGER_VERIFY_FAILED
    )

    # The real predecessor row flips the answer to success.
    state.insert(tables.TRIGGER_EVENT,
                 {"tRule_id": 0, "tStep_id": 0, "tTask_id": 1, "tResult": contracts.RES_OK})
    assert contracts.ledger_verify_trigger(state, *args, step_id=1) == contracts.RES_OK

    # The error constants are part of the wire contract.
    assert contracts.RES_OK == 1
    assert contracts.ERR_USER_VERIFY_FAILED == -2
    assert contracts.ERR_TRIGER_VERIFY_FAILED == -3


# ---------------------------------------------------------------------------
# event verification truth table


def _event_oracle(present: bool, match: bool, fresh: bool):
    """Expected outcome, written as the plain decision list."""
    if not present:
        return contracts.CODE_NO_LOG_ENTRY
    if not match:
        return contracts.CODE_CHECKSUM_MISMATCH
    if not fresh:
        return contracts.CODE_STALE_SEQ
    return None  # accepted


@pytest.mark.parametrize("present,match,fresh",
                         list(itertools.product([False, True], repeat=3)))
def test_event_contract_eight_cells(present, match, fresh):
    state = seeded_state()
    eid, log_key = "e" * 32, "f" * 32
    stored_sum = "a" * 64
    claimed_sum = stored_sum if match else "b" * 64

    log_entries = {(eid, log_key): stored_sum} if present else {}
    query = lambda e, k: log_entries.get((e, k))

    if not fresh:
        # The sequence number was already indexed by an earlier event.
        state.insert(tables.EVENT_INDEX, {"rule_id": 1, "event_seq": 1, "eid": "old" * 10})

    tx = event_tx(KEY, 1, event_info(step_id=0, event_seq=1), eid, log_key, claimed_sum)
    verdict = contracts.event_verification_contract(tx, state, query)
    expected = _event_oracle(present, match, fresh)
    if expected is None:
        assert verdict.accepted, (present, match, fresh, verdict.code)
    else:
        assert not verdict.accepted
        assert verdict.code == expected, (present, match, fresh)


def test_event_reusing_a_spent_log_entry_is_stale():
    # Fresh (rule_id, seq) but a previously indexed eid: still a replay.
    state = seeded_state()
    state.insert(tables.EVENT_INDEX, {"rule_id": 1, "event_seq": 1, "eid": "e" * 32})
    query = lambda e, k: "a" * 64
    tx = event_tx(KEY, 1, event_info(event_seq=2), "e" * 32, "f" * 32, "a" * 64)
    verdict = contracts.event_verification_contract(tx, state, query)
    assert verdict.code == contracts.CODE_STALE_SEQ


def test_event_for_unknown_rule_or_binding_rejected():
    state = seeded_state()
    query = lambda e, k: "a" * 64
    tx = event_tx(KEY, 1, event_info(rule_id=9), "e" * 32, "f" * 32, "a" * 64)
    assert contracts.event_verification_contract(tx, state, query).code == (
        contracts.CODE_UNKNOWN_RULE
    )
    tx = event_tx(KEY, 2, event_info(usr_rule_id=999), "e" * 32, "f" * 32, "a" * 64)
    assert contracts.event_verification_contract(tx, state, query).code == (
        contracts.CODE_UNKNOWN_RULE
    )


@pytest.mark.parametrize("break_body", [
    lambda b: b["event_info"].pop("step_id"),
    lambda b: b["event_info"].update(step_id="0"),
    lambda b: b["event_info"].update(extra=1),
    lambda b: b["event_log"].pop("eid"),
    lambda b: b["event_log"].update(log_sum=7),
    lambda b: b.update(result_status=0),
    lambda b: b.update(task_ref="x"),
])
def test_event_malformed_bodies_rejected(break_body):
    state = seeded_state()
    tx = event_tx(KEY, 1, event_info(), "e" * 32, "f" * 32, "a" * 64)
    body = {k: (dict(v) if isinstance(v, dict) else v) for k, v in tx.body.items()}
    break_body(body)
    broken = type(tx)(tx.kind, body, tx.signer, tx.signature)
    verdict = contracts.event_verification_contract(broken, state, lambda e, k: "a" * 64)
    assert verdict.code == contracts.CODE_MALFORMED


def test_failure_records_skip_log_checks_but_consume_freshness():
    state = seeded_state()
    query = lambda e, k: None  # nothing was ever logged
    tx = event_tx(KEY, 1, event_info(event_seq=5), "e" * 32, "f" * 32, "",
                  result_status=contracts.RES_ERR)
    verdict = contracts.event_verification_contract(tx, state, query)
    assert verdict.accepted
    contracts.apply_event(tx, state)

    # The spent sequence number is gone even though nothing executed.
    replay = event_tx(KEY, 2, event_info(event_seq=5), "g" * 32, "h" * 32, "a" * 64)
    assert contracts.event_verification_contract(replay, state, lambda e, k: "a" * 64).code == (
        contracts.CODE_STALE_SEQ
    )


def test_apply_event_marks_only_final_trigger_step_consumable():
    state = seeded_state()  # one trigger step, so step 0 is final
    tx = event_tx(KEY, 1, event_info(step_id=0, event_seq=1), "e" * 32, "f" * 32, "a" * 64)
    assert contracts.apply_event(tx, state) is True
    records = state.table(tables.EVENT_RECORD).rows
    assert len(records) == 1 and records[0]["consumed"] == 0

    # An action-record row (step beyond the trigger range) is not consumable.
    tx2 = event_tx(KEY, 2, event_info(step_id=1, event_seq=2), "g" * 32, "h" * 32, "a" * 64)
    assert contracts.apply_event(tx2, state) is False
    assert len(state.table(tables.EVENT_RECORD).rows) == 1

    # Failure records are not consumable either.
    tx3 = event_tx(KEY, 3, event_info(step_id=0, event_seq=3), "i" * 32, "j" * 32, "",
                   result_status=contracts.RES_ERR)
    assert contracts.apply_event(tx3, state) is False


# ---------------------------------------------------------------------------
# action verification truth table


def _action_oracle(cid_ok: bool, exists: bool, consumed: bool, pred_ok: bool):
    if not cid_ok:
        return contracts.CODE_BAD_CID
    if not exists:
        return contracts.CODE_NO_EVENT_RECORD
    if consumed:
        return contracts.CODE_ALREADY_CONSUMED
    if not pred_ok:
        return contracts.CODE_TRIGGER_VERIFY_FAILED
    return None


def _action_state(exists: bool, consumed: bool, pred_ok: bool, info=None):
    """Synthesize the post-event table state for one action-matrix cell.

    A consumed flag only exists on a stored record, so cells with
    exists=False ignore it; the oracle's decision order never reaches the
    consumed check in those cells, keeping the expected code well defined.
    """
    state = seeded_state()
    info = info or event_info(step_id=0, event_seq=1)
    if exists:
        insert_event_record(state, info, consumed)
    if pred_ok:
        state.insert(tables.TRIGGER_EVENT,
                     {"tRule_id": 0, "tStep_id": info["step_id"],
                      "tTask_id": info["event_seq"], "tResult": contracts.RES_OK})
    return state


@pytest.mark.parametrize("cid_ok,exists,consumed,pred_ok",
                         list(itertools.product([False, True], repeat=4)))
def test_action_contract_sixteen_cells(cid_ok, exists, consumed, pred_ok):
    info = event_info(step_id=0, event_seq=1)
    state = _action_state(exists, consumed, pred_ok, info)
    cid = contracts.gen_randomness(TEST_SECRET, info)
    if not cid_ok:
        cid = "0" * 32 if cid != "0" * 32 else "1" * 32
    tx = action_tx(KEY, 1, info, cid)
    verdict = contracts.action_verification_contract(tx, state, TEST_SECRET)
    expected = _action_oracle(cid_ok, exists, consumed, pred_ok)
    if expected is None:
        assert verdict.accepted, (cid_ok, exists, consumed, pred_ok, verdict.code)
    else:
        assert not verdict.accepted
        assert verdict.code == expected, (cid_ok, exists, consumed, pred_ok)


def test_apply_action_consumes_and_writes_all_action_rows():
    rule = hr_rule(extra_actions=[["set_home_mode_operation", "hub-1", "OP_AND"]])
    state = seeded_state(rule=rule)
    info = event_info(step_id=0, event_seq=3)
    insert_event_record(state, info)

    actions = contracts.apply_action(action_tx(KEY, 1, info, "unchecked"), state)
    assert [a["op_name"] for a in actions] == ["open_door_operation", "set_home_mode_operation"]
    assert [a["step_id"] for a in actions] == [1, 2]  # steps continue after the trigger
    assert state.table(tables.EVENT_RECORD).rows[0]["consumed"] == 1
    rows = state.table(tables.ACTION).rows
    assert len(rows) == 2
    assert all(r["task_id"] == 3 for r in rows)


def test_once_only_consumption_under_shuffled_duplicates():
    """K transactions for the same event, 50 delivery orders each: exactly
    one acceptance, everything else AlreadyConsumed."""
    for k in (2, 5, 20):
        for round_no in range(50):
            rng = random.Random(1000 * k + round_no)
            info = event_info(step_id=0, event_seq=1)
            state = _action_state(exists=True, consumed=False, pred_ok=True, info=info)
            cid = contracts.gen_randomness(TEST_SECRET, info)
            txs = [action_tx(KEY, nonce, info, cid) for nonce in range(1, k + 1)]
            assert len({t.tx_id for t in txs}) == k  # distinct submissions
            rng.shuffle(txs)

            outcomes = []
            for tx in txs:
                verdict = contracts.action_verification_contract(tx, state, TEST_SECRET)
                if verdict.accepted:
                    contracts.apply_action(tx, state)
                outcomes.append(verdict)
            accepted = [v for v in outcomes if v.accepted]
            rejected = [v for v in outcomes if not v.accepted]
            assert len(accepted) == 1
            assert len(rejected) == k - 1
            assert all(v.code == contracts.CODE_ALREADY_CONSUMED for v in rejected)
            assert outcomes[0].accepted  # the first delivered one wins


def test_step_chaining_requires_the_final_trigger_step():
    # Two trigger steps: the action references step 1 and needs its row.
    rule = {
        "schema": 1,
        "title": "presence and heart rate",
        "rule_id": 1,
        "trigger_operations": [
            ["alert_on_heart_rate", "watch-1", "OP_AND"],
            ["check_presence_operation", "hub-1", "OP_AND"],
        ],
        "condition": "IF_TRUE",
        "action_operations": [["open_door_operation", "lock-1", "OP_AND"]],
    }
    state = seeded_state(rule=rule)
    info = event_info(step_id=1, event_seq=2)
    insert_event_record(state, info)
    cid = contracts.gen_randomness(TEST_SECRET, info)
    tx = action_tx(KEY, 1, info, cid)

    # Only a step-0 row exists: the final trigger step never committed.
    state.insert(tables.TRIGGER_EVENT,
                 {"tRule_id": 0, "tStep_id": 0, "tTask_id": 2, "tResult": contracts.RES_OK})
    assert contracts.action_verification_contract(tx, state, TEST_SECRET).code == (
        contracts.CODE_TRIGGER_VERIFY_FAILED
    )
    state.insert(tables.TRIGGER_EVENT,
                 {"tRule_id": 0, "tStep_id": 1, "tTask_id": 2, "tResult": contracts.RES_OK})
    assert contracts.action_verification_contract(tx, state, TEST_SECRET).accepted


# ---------------------------------------------------------------------------
# rule configuration contract


def _commit_body(rule=None, usr_rule_id=101, usr_id=1):
    return {"action": "commit_rule", "usr_rule_id": usr_rule_id, "usr_id": usr_id,
            "rule": rule if rule is not None else hr_rule()}


def _acl_state(*entries):
    state = tables.TableStore()
    for signer, role, usr_id in entries:
        state.insert(tables.ACL, {"signer": signer, "role": role, "usr_id": usr_id})
    return state


def _tx(kind, payload, key=KEY, nonce=1):
    from ruledger.ledger.tx import build_tx
    return build_tx(kind, payload, key, nonce)


def test_admin_can_commit_and_normal_user_cannot():
    admin = KeyPair.from_seed(6, "acct/admin")
    user = KeyPair.from_seed(6, "acct/user")
    state = _acl_state((admin.public_hex, "Administrator", 1),
                       (user.public_hex, "NormalUser", 2))

    ok = contracts.rule_commit_contract(_tx("rule_commit", _commit_body(), admin), state)
    assert ok.accepted
    denied = contracts.rule_commit_contract(
        _tx("rule_commit", _commit_body(usr_id=2), user), state)
    assert denied.code == contracts.CODE_PERMISSION_DENIED


def test_unknown_signer_has_no_acl_entry():
    state = _acl_state()
    verdict = contracts.rule_commit_contract(_tx("rule_commit", _commit_body()), state)
    assert verdict.code == contracts.CODE_NO_ACL_ENTRY


def test_commit_for_someone_else_is_denied():
    admin = KeyPair.from_seed(6, "acct/admin")
    state = _acl_state((admin.public_hex, "Administrator", 1))
    verdict = contracts.rule_commit_contract(
        _tx("rule_commit", _commit_body(usr_id=7), admin), state)
    assert verdict.code == contracts.CODE_PERMISSION_DENIED


def test_duplicate_rule_and_binding_ids_rejected():
    admin = KeyPair.from_seed(6, "acct/admin")
    state = _acl_state((admin.public_hex, "Administrator", 1))
    tx = _tx("rule_commit", _commit_body(), admin)
    assert contracts.rule_commit_contract(tx, state).accepted
    contracts.apply_rule_commit(tx, state)

    again = _tx("rule_commit", _commit_body(), admin, nonce=2)
    assert contracts.rule_commit_contract(again, state).code == (
        contracts.CODE_DUPLICATE_RULE_ID
    )
    same_rule_fresh_binding = _tx(
        "rule_commit", _commit_body(usr_rule_id=102), admin, nonce=4)
    assert contracts.rule_commit_contract(same_rule_fresh_binding, state).code == (
        contracts.CODE_DUPLICATE_RULE_ID
    )
    fresh_rule_same_binding = _tx(
        "rule_commit", _commit_body(rule=hr_rule(rule_id=2), usr_rule_id=101), admin, nonce=3)
    assert contracts.rule_commit_contract(fresh_rule_same_binding, state).code == (
        contracts.CODE_DUPLICATE_RULE_ID
    )


def test_modify_rule_owner_or_admin_only():
    admin = KeyPair.from_seed(6, "acct/admin")
    owner = KeyPair.from_seed(6, "acct/owner")
    other = KeyPair.from_seed(6, "acct/other")
    state = _acl_state((admin.public_hex, "Administrator", 1),
                       (owner.public_hex, "Administrator", 2),
                       (other.public_hex, "NormalUser", 3))
    commit = _tx("rule_commit", _commit_body(usr_id=2), owner)
    contracts.apply_rule_commit(commit, state)

    def modify(key, nonce):
        return contracts.rule_commit_contract(
            _tx("rule_commit", {"action": "modify_rule", "rule": hr_rule()}, key, nonce), state)

    assert modify(owner, 2).accepted
    assert modify(admin, 3).accepted  # administrators may edit any rule
    assert modify(other, 4).code == contracts.CODE_PERMISSION_DENIED

    unknown = contracts.rule_commit_contract(
        _tx("rule_commit", {"action": "modify_rule", "rule": hr_rule(rule_id=42)}, admin, 5),
        state)
    assert unknown.code == contracts.CODE_UNKNOWN_RULE


def test_modify_rule_apply_rewrites_the_definition():
    admin = KeyPair.from_seed(6, "acct/admin")
    state = _acl_state((admin.public_hex, "Administrator", 1))
    contracts.apply_rule_commit(_tx("rule_commit", _commit_body(), admin), state)
    # The parse is shared per stored text, so a read before the modify must
    # not hand back the old rule after it.
    assert contracts.get_rule_definition(state, 1).to_dict() == hr_rule()
    altered = hr_rule()
    altered["action_operations"] = [["close_door_operation", "lock-1", "OP_AND"]]
    modify = _tx("rule_commit", {"action": "modify_rule", "rule": altered}, admin, 2)
    assert contracts.rule_commit_contract(modify, state).accepted
    contracts.apply_rule_commit(modify, state)
    assert contracts.get_rule_definition(state, 1).to_dict() == altered


def test_a_parsed_rule_definition_is_shared_and_frozen():
    admin = KeyPair.from_seed(6, "acct/admin")
    states = [_acl_state((admin.public_hex, "Administrator", 1)) for _ in range(2)]
    for state in states:
        contracts.apply_rule_commit(_tx("rule_commit", _commit_body(), admin), state)
    rule = contracts.get_rule_definition(states[0], 1)
    assert contracts.get_rule_definition(states[1], 1) is rule
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.title = "other"


def test_manage_accounts_upserts_entries():
    # A signer keeps its one row, so its new role takes effect: a demoted
    # administrator may no longer commit a rule.
    admin = KeyPair.from_seed(6, "acct/admin")
    state = _acl_state((admin.public_hex, "Administrator", 1),
                       ("bobkey", "NormalUser", 2))
    entries = [
        {"signer": admin.public_hex, "role": "NormalUser", "usr_id": 1},
        {"signer": "bobkey", "role": "Administrator", "usr_id": 2},
        {"signer": "carolkey", "role": "NormalUser", "usr_id": 3},
    ]
    tx = _tx("config", {"action": "manage_accounts", "entries": entries}, admin)
    assert contracts.rule_commit_contract(tx, state).accepted
    contracts.apply_rule_commit(tx, state)
    assert state.table(tables.ACL).rows == entries
    commit = _tx("rule_commit", _commit_body(), admin, nonce=2)
    assert contracts.rule_commit_contract(commit, state).code == (
        contracts.CODE_PERMISSION_DENIED)


def test_normal_user_may_bind_devices_but_nothing_else():
    user = KeyPair.from_seed(6, "acct/user")
    state = _acl_state((user.public_hex, "NormalUser", 2))
    bind = _tx("config", {"action": "bind_device", "device_id": "watch-9",
                          "vendor": "fitpulse", "usr_id": 2}, user)
    assert contracts.rule_commit_contract(bind, state).accepted
    contracts.apply_rule_commit(bind, state)
    assert state.table(tables.DEVICE_BINDING).rows[0]["device_id"] == "watch-9"

    other_user = _tx("config", {"action": "bind_device", "device_id": "lock-1",
                                "vendor": "acme", "usr_id": 1}, user, nonce=3)
    assert contracts.rule_commit_contract(other_user, state).code == \
        contracts.CODE_PERMISSION_DENIED

    for action, payload in [
        ("manage_accounts", {"entries": [{"signer": "x", "role": "NormalUser", "usr_id": 9}]}),
        ("modify_rule", {"rule": hr_rule()}),
    ]:
        verdict = contracts.rule_commit_contract(
            _tx("config", {"action": action, **payload}, user, nonce=2), state)
        assert verdict.code == contracts.CODE_PERMISSION_DENIED, action


@pytest.mark.parametrize("payload", [
    {"action": "no_such_action"},
    {"action": "commit_rule", "usr_rule_id": "x", "usr_id": 1, "rule": hr_rule()},
    {"action": "commit_rule", "usr_rule_id": 101, "usr_id": 1, "rule": "not a dict"},
    {"action": "manage_accounts", "entries": []},
    {"action": "manage_accounts", "entries": [{"signer": "k", "role": "God", "usr_id": 1}]},
    {"action": "bind_device", "device_id": 5, "vendor": "v"},
    {"action": "bind_device", "device_id": "d", "vendor": "v", "usr_id": [1, 2]},
])
def test_config_malformed_payloads(payload):
    admin = KeyPair.from_seed(6, "acct/admin")
    state = _acl_state((admin.public_hex, "Administrator", 1))
    verdict = contracts.rule_commit_contract(_tx("config", payload, admin), state)
    assert verdict.code == contracts.CODE_MALFORMED


def test_role_permission_table_is_exact():
    perms = contracts.ROLE_PERMISSIONS
    assert perms["Administrator"] == frozenset(
        {"CommitRule", "ModifyRule", "ManageAccounts", "BindDevice"})
    assert perms["NormalUser"] == frozenset({"BindDevice"})


def test_verify_tx_dispatch_rejects_unknown_kind():
    # Each body is one its own contract accepts, so only the dispatch refuses it.
    info = event_info()
    for state, tx in [
        (seeded_state(), event_tx(KEY, 1, info, "e" * 32, "f" * 32, "a" * 64)),
        (_action_state(exists=True, consumed=False, pred_ok=True, info=info),
         action_tx(KEY, 1, info, contracts.gen_randomness(TEST_SECRET, info))),
    ]:
        assert contracts.verify_tx(tx, state, lambda e, k: "a" * 64, TEST_SECRET).accepted
        bad = type(tx)("mystery", tx.body, tx.signer, tx.signature)
        verdict = contracts.verify_tx(bad, state, lambda e, k: "a" * 64, TEST_SECRET)
        assert verdict == (False, contracts.CODE_MALFORMED)
        with pytest.raises(ValueError):
            contracts.apply_tx(bad, state)


@pytest.mark.parametrize("action", ["commit_rule", "modify_rule"])
@pytest.mark.parametrize("break_rule", [
    # Accepted before, it made apply_action raise after consuming the event.
    lambda r: r.update(action_operations=[[1]]),
    lambda r: r.update(action_operations=[[["open_door_operation"], "lock-1", "OP_AND"]]),
    lambda r: r.update(trigger_operations=[["open_door_operation", "watch-1", "OP_AND"]]),
    lambda r: r.update(condition={"cmp": ["le"], "field": "heart_rate", "value": 40}),
    lambda r: r.update(schema=True),
    lambda r: r.pop("condition"),
], ids=["int_action", "list_op_name", "action_as_trigger", "list_comparator",
        "bool_schema", "no_condition"])
def test_rules_the_parser_refuses_are_malformed(action, break_rule):
    admin = KeyPair.from_seed(6, "acct/admin")
    state = _acl_state((admin.public_hex, "Administrator", 1))
    contracts.apply_rule_commit(_tx("rule_commit", _commit_body(), admin), state)
    rule = hr_rule(rule_id=1 if action == "modify_rule" else 2)
    break_rule(rule)
    verdict = contracts.rule_commit_contract(
        _tx("rule_commit", {**_commit_body(rule, usr_rule_id=102), "action": action}, admin, 2),
        state)
    assert verdict.code == contracts.CODE_MALFORMED


# ---------------------------------------------------------------------------
# no body raises: verify_tx on any JSON-shaped body, apply_tx on an accepted one

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def _mutated(draw, value):
    """value with some parts replaced by JSON values and some object fields dropped."""
    if isinstance(value, dict):
        rolls = [(k, draw(st.integers(0, 15))) for k in value]
        return {k: draw(_json) if roll == 14 else draw(_mutated(value[k]))
                for k, roll in rolls if roll != 15}
    if isinstance(value, list):
        return [draw(_mutated(v)) for v in value]
    return draw(_json) if draw(st.integers(0, 7)) == 7 else value


def _flow(rule_id, usr_rule_id, event_seq, eid):
    """An event and an action for one rule binding, both acceptable in order."""
    binding = dict(BINDING, rule_id=rule_id, usr_rule_id=usr_rule_id)
    info = event_info(step_id=0, event_seq=event_seq, binding=binding)
    event = {"event_info": info, "event_log": {"eid": eid, "log_key": "f" * 32,
                                                "log_sum": "a" * 64},
             "result_status": contracts.RES_OK, "task_ref": event_seq}
    return [("event", event),
            ("action", {"event_info": info, "cid": contracts.gen_randomness(TEST_SECRET, info)})]


# In order: each is acceptable after those before it, on _property_state.
_BODIES = [
    ("rule_commit", _commit_body(hr_rule(rule_id=2), usr_rule_id=102)),
    ("rule_commit", {"action": "modify_rule", "rule": hr_rule()}),
    ("config", {"action": "manage_accounts",
                "entries": [{"signer": "k" * 64, "role": "NormalUser", "usr_id": 2}]}),
    ("config", {"action": "bind_device", "device_id": "watch-2", "vendor": "v", "usr_id": 1}),
    *_flow(2, 102, 1, "d" * 32),
    ("action", {"event_info": event_info(),  # the event record _property_state holds
                "cid": contracts.gen_randomness(TEST_SECRET, event_info())}),
    *_flow(1, 101, 2, "e" * 32),
]


def _property_state():
    state = _action_state(exists=True, consumed=False, pred_ok=True)
    state.insert(tables.ACL, {"signer": KEY.public_hex, "role": "Administrator", "usr_id": 1})
    return state


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_no_body_makes_a_contract_raise(data):
    state = _property_state()
    for nonce, (kind, payload) in enumerate(_BODIES):
        if data.draw(st.integers(0, 3)) == 3:
            continue
        body = {"kind": kind, "nonce": nonce, **data.draw(_mutated(payload))}
        tx = SignedTransaction(kind, body, KEY.public_hex, "")
        verdict = contracts.verify_tx(tx, state, lambda e, k: "a" * 64, TEST_SECRET)
        if verdict.accepted:
            contracts.apply_tx(tx, state)


# ---------------------------------------------------------------------------
# no body BODIES admits raises: leaves at the edges of what BODIES admits

_RULE = bundled_scenario("heart_rate")["rules"][0]
_edge_str = st.sampled_from(["", "\u00e9", "\u4e2d\u6587", "AB", "watch-1"]) | st.text(max_size=4)
_edge_int = st.sampled_from([INT_MIN, INT_END - 1, -1, 0, 1, 2, 101])
_edge_info = st.just(event_info()) | st.builds(event_info, step_id=_edge_int,
                                               event_seq=_edge_int) | st.fixed_dictionaries(
    {"usr_rule_id": _edge_int, "usr_id": _edge_int, "rule_id": _edge_int,
     "rule_name": _edge_str, "step_id": _edge_int, "event_seq": _edge_int})
_edge_rule = st.builds(lambda rule_id, title: dict(_RULE, rule_id=rule_id, title=title),
                       _edge_int, _edge_str)


@st.composite
def _edge_action(draw):
    info = draw(_edge_info)
    cid = draw(_edge_str | st.just(contracts.gen_randomness(TEST_SECRET, info)))
    return "action", {"event_info": info, "cid": cid}


_edge_body = st.one_of(
    st.tuples(st.just("event"), st.fixed_dictionaries({
        "event_info": _edge_info,
        "event_log": st.fixed_dictionaries({"eid": _edge_str, "log_key": _edge_str,
                                            "log_sum": _edge_str}),
        "result_status": st.sampled_from([contracts.RES_OK, contracts.RES_ERR]),
        "task_ref": _edge_int})),
    _edge_action(),
    st.tuples(st.just("rule_commit"), st.fixed_dictionaries({
        "action": st.just("commit_rule"), "usr_rule_id": _edge_int, "usr_id": _edge_int,
        "rule": _edge_rule})),
    st.tuples(st.just("rule_commit"), st.fixed_dictionaries({
        "action": st.just("modify_rule"), "rule": _edge_rule})),
    st.tuples(st.just("config"), st.fixed_dictionaries({
        "action": st.just("manage_accounts"), "entries": st.lists(st.fixed_dictionaries({
            "signer": _edge_str | st.just(KEY.public_hex),
            "role": st.sampled_from(sorted(contracts.ROLE_PERMISSIONS)),
            "usr_id": _edge_int}), min_size=1, max_size=2)})),
    st.tuples(st.just("config"), st.fixed_dictionaries({
        "action": st.just("bind_device"), "device_id": _edge_str, "vendor": _edge_str,
        "usr_id": _edge_int})),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bodies=st.lists(_edge_body, min_size=1, max_size=4), logged=st.booleans())
def test_no_body_bodies_admits_makes_a_contract_raise(bodies, logged):
    # A non-ASCII cid made hmac.compare_digest raise TypeError in verify_random.
    state = seeded_state(_RULE)  # and an action on event_info() passes, as on _property_state
    state.insert(tables.ACL, {"signer": KEY.public_hex, "role": "Administrator", "usr_id": 1})
    insert_event_record(state, event_info())
    state.insert(tables.TRIGGER_EVENT, {"tRule_id": 0, "tStep_id": 0, "tTask_id": 1,
                                        "tResult": contracts.RES_OK})
    for nonce, (kind, payload) in enumerate(bodies):
        tx = SignedTransaction(kind, {"kind": kind, "nonce": nonce, **payload}, KEY.public_hex, "")
        log_sum = payload["event_log"]["log_sum"] if logged and kind == "event" else None
        verdict = contracts.verify_tx(tx, state, lambda e, k: log_sum, TEST_SECRET)
        assert isinstance(verdict, contracts.Verdict)
        if verdict.accepted:
            contracts.apply_tx(tx, state)
