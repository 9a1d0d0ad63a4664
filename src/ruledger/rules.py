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

A trigger operation is a fixed predicate over its device's payload: the
heart-rate alert fires at or outside HEART_RATE_LOW and HEART_RATE_HIGH.  A
rule that wants other bounds states them in a comparator condition.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, fields

# canonical_bytes is unused here but stays importable: perfbench/tracer.py patches it.
from .canonical import canonical_bytes, is_int, is_str, object_of, one_of  # noqa: F401

OP_AND = "OP_AND"
OP_OR = "OP_OR"
COMBINATORS = (OP_AND, OP_OR)

# Fold identities: a single-element list folds to its own result.
_IDENTITY = {OP_AND: True, OP_OR: False}

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
    return payload.get("presence") == "home"


@dataclass(frozen=True)
class CatalogOp:
    name: str
    api: str
    kind: str  # "trigger" or "action"
    predicate: "object" = None  # trigger ops: payload -> bool
    fields: dict = field(default_factory=dict)  # trigger ops: payload field -> shape it reads


CATALOG: dict[str, CatalogOp] = {
    op.name: op
    for op in (
        CatalogOp("alert_on_heart_rate", HEART_RATE_API, "trigger", _heart_rate_alert,
                  {"heart_rate": is_int}),
        CatalogOp("check_presence_operation", PRESENCE_API, "trigger", _presence_home,
                  {"presence": is_str}),
        CatalogOp("open_door_operation", SMARTLOCK_UNLOCK, "action"),
        CatalogOp("close_door_operation", SMARTLOCK_LOCK, "action"),
        CatalogOp("set_home_mode_operation", MODE_SET_API, "action"),
    )
}


class RuleError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass
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
        if not isinstance(entries, list) or not entries:
            return "UnsupportedSchema", f"{kind}_operations must be a non-empty list"
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 3:
                return ("UnsupportedSchema",
                        f"operation entry must be [op, device, combinator]: {entry!r}")
            op_name, device_id, comb = entry
            op = CATALOG.get(op_name) if is_str(op_name) else None
            if op is None or op.kind != kind:
                return "UnknownOp", f"no {kind} operation named {op_name!r}"
            if not isinstance(device_id, str) or not device_id:
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
        if CATALOG[data["trigger_operations"][0][0]].fields.get(cond["field"]) is not is_int:
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


def eval_combinator(results: list[bool], combinators: list[str]) -> bool:
    """Left-to-right fold of boolean results under per-element combinators.

    The accumulator starts at the identity of the first combinator, so a
    single-element list folds to its own result regardless of combinator.
    """
    if len(results) != len(combinators):
        raise RuleError("BadCombinator", "results and combinators differ in length")
    if not results:
        raise RuleError("BadCombinator", "empty operation list")
    for comb in combinators:
        if comb not in COMBINATORS:
            raise RuleError("BadCombinator", f"unknown combinator {comb!r}")
    acc = _IDENTITY[combinators[0]]
    for result, comb in zip(results, combinators):
        if comb == OP_AND:
            acc = acc and bool(result)
        else:
            acc = acc or bool(result)
    return acc


def evaluate_trigger(
    rule: RuleDefinition, op_results: list[bool], first_payload: dict | None = None
) -> bool:
    """Combine per-operation results and apply the rule's condition."""
    folded = eval_combinator(op_results, [t[2] for t in rule.trigger_operations])
    cond = rule.condition
    if cond == CONDITION_IF_TRUE:
        return folded
    # Comparator conditions look at the first trigger's numeric payload.
    if first_payload is None or cond["field"] not in first_payload:
        return False
    return _COMPARATORS[cond["cmp"]](first_payload[cond["field"]], cond["value"])
