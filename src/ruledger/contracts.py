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

A contract checks a body against its entry in `BODIES`, built from the
shape predicates in `canonical`, before it reads any field, so no verdict
raises on a canonical body, and an accepted body's application reads its
fields unguarded and does not raise either.  Rule definitions must pass
the rule-file parser, so the actions a rule names can always be run.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import orjson

from .canonical import canonical_bytes, is_int, is_str, list_of, object_of, one_of, with_fields
from .ledger import tables
from .ledger.tx import (
    KIND_ACTION,
    KIND_CONFIG,
    KIND_EVENT,
    KIND_RULE_COMMIT,
    SignedTransaction,
)
from .rules import RuleDefinition, is_rule

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

_EVENT_INFO = dict(usr_rule_id=is_int, usr_id=is_int, rule_id=is_int, rule_name=is_str,
                   step_id=is_int, event_seq=is_int)
EVENT_INFO_FIELDS = tuple(_EVENT_INFO)
EVENT_INFO = object_of(**_EVENT_INFO)


_ACCOUNTS = list_of(with_fields(signer=is_str, role=one_of(*ROLE_PERMISSIONS), usr_id=is_int))


class _Body(NamedTuple):
    permission: str | None  # needed by an action of the rule_commit and config kinds
    admits: Callable[[object], bool]


# The body of each event and action kind, and of each action of the rule_commit
# and config kinds.  A body may hold fields its contract does not read, but
# event_info is exact.
BODIES = {
    KIND_EVENT: _Body(None, with_fields(
        event_info=EVENT_INFO, event_log=with_fields(eid=is_str, log_key=is_str, log_sum=is_str),
        result_status=one_of(RES_OK, RES_ERR), task_ref=is_int)),
    KIND_ACTION: _Body(None, with_fields(event_info=EVENT_INFO, cid=is_str)),
    "commit_rule": _Body(PERM_COMMIT_RULE, with_fields(
        usr_rule_id=is_int, usr_id=is_int, rule=is_rule)),
    "modify_rule": _Body(PERM_MODIFY_RULE, with_fields(rule=is_rule)),
    "manage_accounts": _Body(PERM_MANAGE_ACCOUNTS, with_fields(
        entries=lambda v: _ACCOUNTS(v) and len(v) > 0)),
    "bind_device": _Body(PERM_BIND_DEVICE, with_fields(
        device_id=is_str, vendor=is_str, usr_id=is_int)),
}
_CONFIG_ACTION = with_fields(action=one_of(*(n for n, b in BODIES.items() if b.permission)))


def event_body(info: dict, eid: str, log_key: str, log_sum: str, task_ref: int,
               status: int = RES_OK) -> dict:
    """The body of an event transaction: info is its EVENT_INFO, (eid,
    log_key, log_sum) the log entry it cites."""
    return {
        "event_info": info,
        "event_log": {"eid": eid, "log_key": log_key, "log_sum": log_sum},
        "result_status": status,
        "task_ref": task_ref,
    }


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
    return hmac.digest(secret, b"cid|" + canonical_bytes(event_info), "sha256")[:16].hex()


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


def get_rule_definition(state: tables.TableStore, rule_id: int) -> RuleDefinition | None:
    rows = state.select_entry(tables.RULE, ["rule_id"], [rule_id], ["definition"])
    return _parse_definition(rows[0][0]) if rows else None


@lru_cache(maxsize=256)
def _parse_definition(text: str) -> RuleDefinition:
    """The rule a stored definition text holds, parsed once per text: every
    replica and the audit share the one frozen instance."""
    # Only apply_rule_commit writes a definition, and only of a rule is_rule admitted.
    return RuleDefinition(**orjson.loads(text))


def _find_event_record(state: tables.TableStore, event_info: dict) -> int | None:
    """Row id of the event record matching the full descriptor, else None."""
    ids = state.table(tables.EVENT_RECORD).find(
        EVENT_INFO_FIELDS, [event_info[f] for f in EVENT_INFO_FIELDS]
    )
    return ids[0] if ids else None


# ---------------------------------------------------------------------------
# Rule configuration contract (rule_commit and config kinds)

def rule_commit_contract(tx: SignedTransaction, state: tables.TableStore) -> Verdict:
    body = tx.body
    if not _CONFIG_ACTION(body):
        return Verdict.reject(CODE_MALFORMED)
    action = body["action"]
    permission, admits = BODIES[action]

    acl_rows = state.select_entry(
        tables.ACL, ["signer"], [tx.signer], ["role", "usr_id"]
    )
    if not acl_rows:
        return Verdict.reject(CODE_NO_ACL_ENTRY)
    role, signer_usr_id = acl_rows[0]
    if permission not in ROLE_PERMISSIONS.get(role, frozenset()):
        return Verdict.reject(CODE_PERMISSION_DENIED)
    if not admits(body):
        return Verdict.reject(CODE_MALFORMED)

    if action == "commit_rule":
        if body["usr_id"] != signer_usr_id:
            return Verdict.reject(CODE_PERMISSION_DENIED)
        if state.select_entry(tables.RULE, ["rule_id"], [body["rule"]["rule_id"]], ["rule_id"]):
            return Verdict.reject(CODE_DUPLICATE_RULE_ID)
        if state.select_entry(
            tables.USR_RULE, ["usr_rule_id"], [body["usr_rule_id"]], ["usr_rule_id"]
        ):
            return Verdict.reject(CODE_DUPLICATE_RULE_ID)
    elif action == "modify_rule":
        owner = state.select_entry(
            tables.RULE, ["rule_id"], [body["rule"]["rule_id"]], ["usr_id"]
        )
        if not owner:
            return Verdict.reject(CODE_UNKNOWN_RULE)
        if owner[0][0] != signer_usr_id and role != ROLE_ADMINISTRATOR:
            return Verdict.reject(CODE_PERMISSION_DENIED)
    elif action == "bind_device":
        if body["usr_id"] != signer_usr_id and role != ROLE_ADMINISTRATOR:
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
        state.insert(tables.USR_RULE,
                     RuleDefinition(**rule).binding(body["usr_rule_id"], body["usr_id"]))
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
) -> Verdict:
    """Verify a claimed device event against the log service and history."""
    body = tx.body
    if not BODIES[KIND_EVENT].admits(body):
        return Verdict.reject(CODE_MALFORMED)
    info, log = body["event_info"], body["event_log"]

    # A binding implies its rule: commit_rule writes both rows, and no row is deleted.
    if (
        verify_usr_rule(
            state, info["usr_rule_id"], info["usr_id"], info["rule_id"], info["rule_name"]
        )
        == RES_ERR
    ):
        return Verdict.reject(CODE_UNKNOWN_RULE)

    # Failure records attest that nothing executed, so there is no log
    # entry to check; they still consume freshness below.
    if body["result_status"] == RES_OK:
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
    final_step = get_rule_definition(state, info["rule_id"]).steps("trigger")[-1]
    consumable = body["result_status"] == RES_OK and info["step_id"] == final_step["step_id"]
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
    if not BODIES[KIND_ACTION].admits(body):
        return Verdict.reject(CODE_MALFORMED)
    info = body["event_info"]
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

    actions = get_rule_definition(state, info["rule_id"]).steps("action")
    for step in actions:
        state.insert(tables.ACTION,
                     {"rule_id": info["rule_id"], "task_id": info["event_seq"], **step})
    return actions


# ---------------------------------------------------------------------------
# Dispatch used by ledger nodes and the offline audit replay

def verify_tx(
    tx: SignedTransaction,
    state: tables.TableStore,
    log_query: LogQuery,
    secret: bytes,
) -> Verdict:
    if tx.kind in (KIND_RULE_COMMIT, KIND_CONFIG):
        return rule_commit_contract(tx, state)
    if tx.kind == KIND_EVENT:
        return event_verification_contract(tx, state, log_query)
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
