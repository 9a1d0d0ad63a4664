"""Rule definitions, the one check of the rule format, and the one numbering
of a rule's steps.

A rule file is a single JSON object (schema 1) naming trigger and action
operations from a fixed catalog, each bound to a device and tagged with a
combinator.  `rule_fault` is the one check of that format: the parser, the
ledger's rule contract and the execution agent's message table all ask it.
`RuleDefinition.binding` is the one statement of the row binding a rule to
its owner.  `RuleDefinition.steps` numbers its operations: trigger
operations take steps 0..T-1 and action operations continue from step T,
which is the order the ledger's step-chaining check expects.  The contracts
and the execution agent read step ids from it alone.

`CATALOG` is the one statement of what an operation does: the API it calls,
the device kind that answers that API, the state field the API reads or
writes and its value.  The devices and their gateways read it too.  A
trigger operation is a fixed predicate over its device's payload: the
heart-rate alert fires at or outside HEART_RATE_LOW and HEART_RATE_HIGH.  A
rule that wants other bounds states them in a comparator condition.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, fields
from functools import cached_property

# canonical_bytes is unused here but stays importable: perfbench/tracer.py patches it.
from .canonical import (canonical_bytes, is_int, is_str, object_of,  # noqa: F401
                        one_of, with_fields)

OP_AND = "OP_AND"
OP_OR = "OP_OR"
COMBINATORS = (OP_AND, OP_OR)

CONDITION_IF_TRUE = "IF_TRUE"
_COMPARATORS = {
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "eq": lambda a, b: a == b,
}

# Device API identifiers.
HEART_RATE_API = "HEART_RATE_API"
SMARTLOCK_UNLOCK = "SMARTLOCK_UNLOCK"
SMARTLOCK_LOCK = "SMARTLOCK_LOCK"
PRESENCE_API = "PRESENCE_API"
MODE_SET_API = "MODE_SET_API"


# alert_on_heart_rate fires at or outside these bounds (beats per minute).
HEART_RATE_LOW = 40
HEART_RATE_HIGH = 180


def _heart_rate_alert(payload: dict) -> bool:
    rate = payload["heart_rate"]
    return rate <= HEART_RATE_LOW or rate >= HEART_RATE_HIGH


def _presence_home(payload: dict) -> bool:
    return payload["presence"] == "home"


@dataclass(frozen=True)
class CatalogOp:
    """An operation: its API, answered by devices of `device_kind`, reads or
    writes the state `field`.  An action writes `value` there; a read returns
    the field, or `value` on a device that never had it."""

    name: str
    api: str
    kind: str  # "trigger" or "action"
    device_kind: str
    field: str
    value: object
    predicate: object = None  # trigger ops: payload -> bool
    shape: object = None  # trigger ops: the shape of the field the predicate reads

    @cached_property
    def reads(self):
        """Whether a payload holds the field its predicate reads, in its shape."""
        return with_fields(**{self.field: self.shape})


CATALOG: dict[str, CatalogOp] = {
    op.name: op
    for op in (
        CatalogOp("alert_on_heart_rate", HEART_RATE_API, "trigger", "heart_rate",
                  "heart_rate", 0, _heart_rate_alert, is_int),
        CatalogOp("check_presence_operation", PRESENCE_API, "trigger", "presence",
                  "presence", "away", _presence_home, is_str),
        CatalogOp("open_door_operation", SMARTLOCK_UNLOCK, "action", "smart_lock",
                  "lock", "unlocked"),
        CatalogOp("close_door_operation", SMARTLOCK_LOCK, "action", "smart_lock",
                  "lock", "locked"),
        # The presence sensor doubles as the home hub, so it also takes mode changes.
        CatalogOp("set_home_mode_operation", MODE_SET_API, "action", "presence",
                  "mode", "home_mode"),
    )
}


class RuleError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


# Frozen: contracts.get_rule_definition hands every replica and the audit one instance.
@dataclass(frozen=True)
class RuleDefinition:
    schema: int
    title: str
    rule_id: int
    trigger_operations: list[list[str]]
    condition: object
    action_operations: list[list[str]]

    def to_dict(self) -> dict:
        return asdict(self)

    def binding(self, usr_rule_id: int, usr_id: int) -> dict:
        """The row that binds this rule to its owner: the ledger's USR_RULE row
        and the first four fields of each event_info of the rule."""
        return {"usr_rule_id": usr_rule_id, "usr_id": usr_id,
                "rule_id": self.rule_id, "rule_name": self.title}

    def steps(self, kind: str) -> list[dict]:
        """The "trigger" or "action" operations as {step_id, op_name,
        device_id}, in order: triggers take steps 0..T-1, actions from T."""
        if kind == "trigger":
            first, ops = 0, self.trigger_operations
        else:
            first, ops = len(self.trigger_operations), self.action_operations
        return [{"step_id": first + i, "op_name": op_name, "device_id": device_id}
                for i, (op_name, device_id, _comb) in enumerate(ops)]


_COMPARATOR_CONDITION = object_of(cmp=one_of(*_COMPARATORS), field=is_str, value=is_int)


def rule_fault(data, known_devices=None) -> tuple[str, str] | None:
    """The first fault of `data` as a rule, as (code, message), or None if it
    is one.  This is the one check of the rule format: `parse_rule` raises
    the fault as a RuleError and `is_rule` tests for it.  With known_devices,
    each operation's device must be one of them."""
    if type(data) is not dict:
        return "UnsupportedSchema", "rule must be a JSON object"
    keys = {f.name for f in fields(RuleDefinition)}
    if set(data) != keys:
        return ("UnsupportedSchema", f"bad keys (missing={sorted(keys - set(data))}, "
                                     f"extra={sorted(set(data) - keys)})")
    if data["schema"] != 1 or not is_int(data["schema"]):
        return "UnsupportedSchema", f"unsupported schema {data['schema']!r}"
    if not is_str(data["title"]) or not data["title"]:
        return "UnsupportedSchema", "title must be a non-empty string"
    if not is_int(data["rule_id"]) or data["rule_id"] < 0:
        return "UnsupportedSchema", "rule_id must be a non-negative integer"
    for kind, entries in (("trigger", data["trigger_operations"]),
                          ("action", data["action_operations"])):
        if type(entries) is not list or not entries:
            return "UnsupportedSchema", f"{kind}_operations must be a non-empty list"
        for entry in entries:
            if type(entry) is not list or len(entry) != 3:
                return ("UnsupportedSchema",
                        f"operation entry must be [op, device, combinator]: {entry!r}")
            op_name, device_id, comb = entry
            op = CATALOG.get(op_name) if is_str(op_name) else None
            if op is None or op.kind != kind:
                return "UnknownOp", f"no {kind} operation named {op_name!r}"
            if not is_str(device_id) or not device_id:
                return "UnboundDevice", f"bad device id {device_id!r}"
            if known_devices is not None and device_id not in known_devices:
                return "UnboundDevice", f"device {device_id!r} is not registered"
            if comb not in COMBINATORS:
                return "BadCombinator", f"unknown combinator {comb!r}"
    cond = data["condition"]
    if cond != CONDITION_IF_TRUE:
        if not _COMPARATOR_CONDITION(cond):
            return "UnsupportedSchema", f"bad condition {cond!r}"
        if len(data["trigger_operations"]) != 1:
            return ("UnsupportedSchema",
                    "comparator conditions require exactly one trigger operation")
        op = CATALOG[data["trigger_operations"][0][0]]
        if op.field != cond["field"] or op.shape is not is_int:
            return "UnsupportedSchema", f"no integer field {cond['field']!r} to compare"
    return None


def parse_rule(data: dict, known_devices=None) -> RuleDefinition:
    """The rule a JSON object states; raises RuleError with its first fault."""
    if (fault := rule_fault(data, known_devices)) is not None:
        raise RuleError(*fault)
    return RuleDefinition(**copy.deepcopy(data))


def is_rule(v) -> bool:
    """A JSON object the rule-file parser accepts."""
    return rule_fault(v) is None


def evaluate_trigger(rule: RuleDefinition, hits: list[bool], first_payload: dict) -> bool:
    """Whether a trigger cycle fires, given each trigger operation's predicate
    result and the first operation's payload.  A comparator condition compares
    the first payload's field, which `rule_fault` and `CatalogOp.reads` make
    sure is there; IF_TRUE folds the hits left to right, each later hit
    joining under its own operation's combinator."""
    cond = rule.condition
    if cond != CONDITION_IF_TRUE:
        return _COMPARATORS[cond["cmp"]](first_payload[cond["field"]], cond["value"])
    fired = hits[0]
    for hit, (_op, _device, comb) in zip(hits[1:], rule.trigger_operations[1:]):
        fired = (fired and hit) if comb == OP_AND else (fired or hit)
    return fired
