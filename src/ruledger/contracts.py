"""The three verification contracts.

Every transaction kind maps to a contract that is a pure function of the
transaction and the committed table state, so replicas that execute the
same block in the same order always agree:

* rule configuration: role-based checks for committing and modifying
  rules, managing accounts, and binding devices;
* trigger-event verification: an event commits only if the device log
  service holds a matching attested entry and the event is fresh;
* action verification: an action request commits only if its service
  coin checks out, the referenced event exists and is unconsumed, and
  the preceding step of the rule completed successfully.

Verification (verdict) and application (state writes) are split so that
an offline audit can rebuild state from committed blocks without access
to the log service.
"""

from __future__ import annotations

import hmac
import json
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable

from .canonical import canonical_bytes
from .ledger import tables
from .ledger.tx import (
    KIND_ACTION,
    KIND_CONFIG,
    KIND_EVENT,
    KIND_RULE_COMMIT,
    SignedTransaction,
)

# Table result codes, mirrored in trigger_event rows.
RES_OK = 1
RES_ERR = -1

# ledger_verify_trigger outcomes (RES_OK on success).  The misspelling of
# "TRIGER" is load-bearing: it is the wire-visible constant name this
# check has always reported, and downstream tooling matches on it.
ERR_USER_VERIFY_FAILED = -2
ERR_TRIGER_VERIFY_FAILED = -3

# Receipt rejection codes, stable strings.
CODE_BAD_SIGNATURE = "BadSignature"
CODE_MALFORMED = "MalformedBody"
CODE_NO_ACL_ENTRY = "NoAclEntry"
CODE_PERMISSION_DENIED = "PermissionDenied"
CODE_DUPLICATE_RULE_ID = "DuplicateRuleId"
CODE_UNKNOWN_RULE = "UnknownRule"
CODE_NO_LOG_ENTRY = "NoLogEntry"
CODE_CHECKSUM_MISMATCH = "ChecksumMismatch"
CODE_STALE_SEQ = "StaleSeq"
CODE_BAD_CID = "BadCid"
CODE_NO_EVENT_RECORD = "NoEventRecord"
CODE_ALREADY_CONSUMED = "AlreadyConsumed"
CODE_TRIGGER_VERIFY_FAILED = "TriggerVerifyFailed"

# Roles and permissions.  Normal users may bind their own devices; every
# rule- or account-shaping permission is reserved for administrators.
ROLE_ADMINISTRATOR = "Administrator"
ROLE_NORMAL_USER = "NormalUser"

PERM_COMMIT_RULE = "CommitRule"
PERM_MODIFY_RULE = "ModifyRule"
PERM_MANAGE_ACCOUNTS = "ManageAccounts"
PERM_BIND_DEVICE = "BindDevice"

ROLE_PERMISSIONS: dict[str, frozenset[str]] = {
    ROLE_ADMINISTRATOR: frozenset(
        {PERM_COMMIT_RULE, PERM_MODIFY_RULE, PERM_MANAGE_ACCOUNTS, PERM_BIND_DEVICE}
    ),
    ROLE_NORMAL_USER: frozenset({PERM_BIND_DEVICE}),
}

_ACTION_PERMISSION = {
    "commit_rule": PERM_COMMIT_RULE,
    "modify_rule": PERM_MODIFY_RULE,
    "manage_accounts": PERM_MANAGE_ACCOUNTS,
    "bind_device": PERM_BIND_DEVICE,
}

EVENT_INFO_FIELDS = ("usr_rule_id", "usr_id", "rule_id", "rule_name", "step_id", "event_seq")

# A log-service read: (eid_hex, log_key_hex) -> stored checksum hex or None.
LogQuery = Callable[[str, str], "str | None"]


@dataclass
class Verdict:
    accepted: bool
    code: str | None = None

    @classmethod
    def reject(cls, code: str) -> "Verdict":
        return cls(accepted=False, code=code)

    @classmethod
    def accept(cls) -> "Verdict":
        return cls(accepted=True)


# ---------------------------------------------------------------------------
# Service coin (Cid)

def gen_randomness(secret: bytes, event_info: dict) -> str:
    """Derive the 16-byte service coin for an event, as hex.

    A keyed PRF over the canonical event descriptor: anyone holding the
    ledger secret can recompute it, nobody else can forge it.
    """
    mac = hmac.new(secret, b"cid|" + canonical_bytes(event_info), sha256)
    return mac.digest()[:16].hex()


def verify_random(secret: bytes, event_info: dict, cid: str) -> bool:
    if not isinstance(cid, str):
        return False
    return hmac.compare_digest(gen_randomness(secret, event_info), cid.lower())


# ---------------------------------------------------------------------------
# Shared lookups

def verify_usr_rule(
    state: tables.TableStore,
    usr_rule_id: int,
    usr_id: int,
    rule_id: int,
    rule_name: str,
) -> int:
    """Row id of the matching user-rule binding, or RES_ERR."""
    ids = state.table(tables.USR_RULE).find(
        ("usr_rule_id", "usr_id", "rule_id", "rule_name"),
        (usr_rule_id, usr_id, rule_id, rule_name),
    )
    return ids[0] if ids else RES_ERR


def ledger_verify_trigger(
    state: tables.TableStore,
    usr_rule_id: int,
    usr_id: int,
    rule_id: int,
    rule_name: str,
    step_id: int,
) -> int:
    """Check that step step_id of a bound rule may proceed.

    The user-rule binding must verify, and the trigger-event table must
    already hold a row for this binding at step_id - 1 with a RES_OK
    result.  Note the table is keyed by the binding row id, not by the
    global rule id.
    """
    usr_item = verify_usr_rule(state, usr_rule_id, usr_id, rule_id, rule_name)
    if usr_item == RES_ERR:
        return ERR_USER_VERIFY_FAILED
    if state.table(tables.TRIGGER_EVENT).find(
        ["tRule_id", "tStep_id", "tResult"], [usr_item, step_id - 1, RES_OK]
    ):
        return RES_OK
    return ERR_TRIGER_VERIFY_FAILED


def get_rule_definition(state: tables.TableStore, rule_id: int) -> dict | None:
    rows = state.select_entry(tables.RULE, ["rule_id"], [rule_id], ["definition"])
    if not rows:
        return None
    return json.loads(rows[0][0])


def _find_event_record(state: tables.TableStore, event_info: dict) -> int | None:
    """Row id of the event record matching the full descriptor, else None."""
    ids = state.table(tables.EVENT_RECORD).find(
        EVENT_INFO_FIELDS, [event_info[f] for f in EVENT_INFO_FIELDS]
    )
    return ids[0] if ids else None


def _event_info_ok(info) -> bool:
    if not isinstance(info, dict) or set(info) != set(EVENT_INFO_FIELDS):
        return False
    for f in ("usr_rule_id", "usr_id", "rule_id", "step_id", "event_seq"):
        if not isinstance(info[f], int) or isinstance(info[f], bool):
            return False
    return isinstance(info["rule_name"], str)


# ---------------------------------------------------------------------------
# Rule configuration contract (rule_commit and config kinds)

def rule_commit_contract(tx: SignedTransaction, state: tables.TableStore) -> Verdict:
    body = tx.body
    action = body.get("action")
    if action not in _ACTION_PERMISSION:
        return Verdict.reject(CODE_MALFORMED)

    acl_rows = state.select_entry(
        tables.ACL, ["signer"], [tx.signer], ["role", "usr_id"]
    )
    if not acl_rows:
        return Verdict.reject(CODE_NO_ACL_ENTRY)
    role, signer_usr_id = acl_rows[0]
    granted = ROLE_PERMISSIONS.get(role, frozenset())
    if _ACTION_PERMISSION[action] not in granted:
        return Verdict.reject(CODE_PERMISSION_DENIED)

    if action == "commit_rule":
        rule = body.get("rule")
        if (
            not isinstance(rule, dict)
            or not isinstance(rule.get("rule_id"), int)
            or not isinstance(rule.get("title"), str)
            or not isinstance(body.get("usr_rule_id"), int)
            or not isinstance(body.get("usr_id"), int)
        ):
            return Verdict.reject(CODE_MALFORMED)
        if body["usr_id"] != signer_usr_id:
            return Verdict.reject(CODE_PERMISSION_DENIED)
        if state.select_entry(tables.RULE, ["rule_id"], [rule["rule_id"]], ["rule_id"]):
            return Verdict.reject(CODE_DUPLICATE_RULE_ID)
        if state.select_entry(
            tables.USR_RULE, ["usr_rule_id"], [body["usr_rule_id"]], ["usr_rule_id"]
        ):
            return Verdict.reject(CODE_DUPLICATE_RULE_ID)
        return Verdict.accept()

    if action == "modify_rule":
        rule = body.get("rule")
        if not isinstance(rule, dict) or not isinstance(rule.get("rule_id"), int):
            return Verdict.reject(CODE_MALFORMED)
        owner = state.select_entry(tables.RULE, ["rule_id"], [rule["rule_id"]], ["usr_id"])
        if not owner:
            return Verdict.reject(CODE_UNKNOWN_RULE)
        if owner[0][0] != signer_usr_id and role != ROLE_ADMINISTRATOR:
            return Verdict.reject(CODE_PERMISSION_DENIED)
        return Verdict.accept()

    if action == "manage_accounts":
        entries = body.get("entries")
        if not isinstance(entries, list) or not entries:
            return Verdict.reject(CODE_MALFORMED)
        for entry in entries:
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("signer"), str)
                or entry.get("role") not in ROLE_PERMISSIONS
                or not isinstance(entry.get("usr_id"), int)
            ):
                return Verdict.reject(CODE_MALFORMED)
        return Verdict.accept()

    # bind_device
    usr_id = body.get("usr_id")
    if (
        not isinstance(body.get("device_id"), str)
        or not isinstance(body.get("vendor"), str)
        or type(usr_id) is not int
    ):
        return Verdict.reject(CODE_MALFORMED)
    if usr_id != signer_usr_id and role != ROLE_ADMINISTRATOR:
        return Verdict.reject(CODE_PERMISSION_DENIED)
    return Verdict.accept()


def apply_rule_commit(tx: SignedTransaction, state: tables.TableStore) -> None:
    body = tx.body
    action = body["action"]
    if action == "commit_rule":
        rule = body["rule"]
        state.insert(
            tables.RULE,
            {
                "rule_id": rule["rule_id"],
                "usr_id": body["usr_id"],
                "title": rule["title"],
                "definition": canonical_bytes(rule).decode("utf-8"),
            },
        )
        state.insert(
            tables.USR_RULE,
            {
                "usr_rule_id": body["usr_rule_id"],
                "usr_id": body["usr_id"],
                "rule_id": rule["rule_id"],
                "rule_name": rule["title"],
            },
        )
    elif action == "modify_rule":
        rule = body["rule"]
        tbl = state.table(tables.RULE)
        ids = tbl.find(["rule_id"], [rule["rule_id"]])
        if ids:
            tbl.update(ids[0], "definition", canonical_bytes(rule).decode("utf-8"))
    elif action == "manage_accounts":
        tbl = state.table(tables.ACL)
        for entry in body["entries"]:
            ids = tbl.find(["signer"], [entry["signer"]])
            if ids:
                tbl.update(ids[0], "role", entry["role"])
                tbl.update(ids[0], "usr_id", entry["usr_id"])
            else:
                tbl.insert(
                    {
                        "signer": entry["signer"],
                        "role": entry["role"],
                        "usr_id": entry["usr_id"],
                    }
                )
    else:  # bind_device
        state.insert(
            tables.DEVICE_BINDING,
            {
                "usr_id": body["usr_id"],
                "device_id": body["device_id"],
                "vendor": body["vendor"],
            },
        )


# ---------------------------------------------------------------------------
# Trigger-event verification contract

def event_verification_contract(
    tx: SignedTransaction,
    state: tables.TableStore,
    log_query: LogQuery,
    check_event_log: bool = True,
) -> Verdict:
    """Verify a claimed device event against the log service and history.

    check_event_log=False disables the log-service and checksum checks.
    It exists only as a negative control for the attack suite and must
    never be enabled in a real deployment.
    """
    body = tx.body
    info = body.get("event_info")
    log = body.get("event_log")
    if not _event_info_ok(info):
        return Verdict.reject(CODE_MALFORMED)
    if (
        not isinstance(log, dict)
        or not all(isinstance(log.get(k), str) for k in ("eid", "log_key", "log_sum"))
    ):
        return Verdict.reject(CODE_MALFORMED)
    if body.get("result_status") not in (RES_OK, RES_ERR):
        return Verdict.reject(CODE_MALFORMED)
    if not isinstance(body.get("task_ref"), int):
        return Verdict.reject(CODE_MALFORMED)

    if not state.table(tables.RULE).find(["rule_id"], [info["rule_id"]]):
        return Verdict.reject(CODE_UNKNOWN_RULE)
    if (
        verify_usr_rule(
            state, info["usr_rule_id"], info["usr_id"], info["rule_id"], info["rule_name"]
        )
        == RES_ERR
    ):
        return Verdict.reject(CODE_UNKNOWN_RULE)

    # Failure records attest that nothing executed, so there is no log
    # entry to check; they still consume freshness below.
    if body["result_status"] == RES_OK and check_event_log:
        stored_sum = log_query(log["eid"], log["log_key"])
        if stored_sum is None:
            return Verdict.reject(CODE_NO_LOG_ENTRY)
        if stored_sum != log["log_sum"]:
            return Verdict.reject(CODE_CHECKSUM_MISMATCH)

    # Freshness: the (rule, seq) pair must be new, and the log entry id
    # single-use.  Reusing an old entry with a bumped seq is a replay.
    if state.select_entry(
        tables.EVENT_INDEX,
        ["rule_id", "event_seq"],
        [info["rule_id"], info["event_seq"]],
        ["eid"],
    ):
        return Verdict.reject(CODE_STALE_SEQ)
    if state.select_entry(tables.EVENT_INDEX, ["eid"], [log["eid"]], ["eid"]):
        return Verdict.reject(CODE_STALE_SEQ)

    return Verdict.accept()


def apply_event(tx: SignedTransaction, state: tables.TableStore) -> bool:
    """Write the committed event's rows.  True if it minted a consumable
    event record (the final trigger step of its rule)."""
    body = tx.body
    info = body["event_info"]
    log = body["event_log"]
    usr_item = verify_usr_rule(
        state, info["usr_rule_id"], info["usr_id"], info["rule_id"], info["rule_name"]
    )
    state.insert(
        tables.TRIGGER_EVENT,
        {
            "tRule_id": usr_item,
            "tStep_id": info["step_id"],
            "tTask_id": body["task_ref"],
            "tResult": body["result_status"],
        },
    )
    state.insert(
        tables.EVENT_INDEX,
        {"rule_id": info["rule_id"], "event_seq": info["event_seq"], "eid": log["eid"]},
    )
    definition = get_rule_definition(state, info["rule_id"]) or {}
    final_trigger_step = len(definition.get("trigger_operations", [])) - 1
    consumable = (
        body["result_status"] == RES_OK and info["step_id"] == final_trigger_step
    )
    if consumable:
        record = {f: info[f] for f in EVENT_INFO_FIELDS}
        record.update(
            {"eid": log["eid"], "log_key": log["log_key"], "log_sum": log["log_sum"], "consumed": 0}
        )
        state.insert(tables.EVENT_RECORD, record)
    return consumable


# ---------------------------------------------------------------------------
# Action verification contract

def action_verification_contract(
    tx: SignedTransaction, state: tables.TableStore, secret: bytes
) -> Verdict:
    body = tx.body
    info = body.get("event_info")
    if not _event_info_ok(info) or not isinstance(body.get("cid"), str):
        return Verdict.reject(CODE_MALFORMED)
    if not verify_random(secret, info, body["cid"]):
        return Verdict.reject(CODE_BAD_CID)
    records = state.select_entry(
        tables.EVENT_RECORD, EVENT_INFO_FIELDS, [info[f] for f in EVENT_INFO_FIELDS], ["consumed"]
    )
    if not records:
        return Verdict.reject(CODE_NO_EVENT_RECORD)
    if records[0][0]:
        return Verdict.reject(CODE_ALREADY_CONSUMED)
    result = ledger_verify_trigger(
        state,
        info["usr_rule_id"],
        info["usr_id"],
        info["rule_id"],
        info["rule_name"],
        info["step_id"] + 1,
    )
    if result != RES_OK:
        return Verdict.reject(CODE_TRIGGER_VERIFY_FAILED)
    return Verdict.accept()


def apply_action(tx: SignedTransaction, state: tables.TableStore) -> list[dict]:
    """Consume the event record and write the rule's action rows.

    Returns the authorized actions, in step order, for the execution
    agent notification.
    """
    info = tx.body["event_info"]
    record_id = _find_event_record(state, info)
    state.table(tables.EVENT_RECORD).update(record_id, "consumed", 1)

    definition = get_rule_definition(state, info["rule_id"]) or {}
    triggers = definition.get("trigger_operations", [])
    actions = definition.get("action_operations", [])
    task_id = info["event_seq"]
    out: list[dict] = []
    for i, (op_name, device_id, _comb) in enumerate(actions):
        step_id = len(triggers) + i
        state.insert(
            tables.ACTION,
            {
                "rule_id": info["rule_id"],
                "task_id": task_id,
                "step_id": step_id,
                "op_name": op_name,
                "device_id": device_id,
            },
        )
        out.append({"step_id": step_id, "op_name": op_name, "device_id": device_id})
    return out


# ---------------------------------------------------------------------------
# Dispatch used by ledger nodes and the offline audit replay

def verify_tx(
    tx: SignedTransaction,
    state: tables.TableStore,
    log_query: LogQuery,
    secret: bytes,
    check_event_log: bool = True,
) -> Verdict:
    if tx.kind in (KIND_RULE_COMMIT, KIND_CONFIG):
        return rule_commit_contract(tx, state)
    if tx.kind == KIND_EVENT:
        return event_verification_contract(tx, state, log_query, check_event_log)
    if tx.kind == KIND_ACTION:
        return action_verification_contract(tx, state, secret)
    return Verdict.reject(CODE_MALFORMED)


def apply_tx(tx: SignedTransaction, state: tables.TableStore) -> dict:
    """Apply an accepted transaction's writes.  Pure over (tx, state), so
    audit replay reproduces state without the log service."""
    if tx.kind in (KIND_RULE_COMMIT, KIND_CONFIG):
        apply_rule_commit(tx, state)
        return {}
    if tx.kind == KIND_EVENT:
        return {"consumable": apply_event(tx, state)}
    if tx.kind == KIND_ACTION:
        return {"actions": apply_action(tx, state)}
    raise ValueError(f"cannot apply kind {tx.kind}")
