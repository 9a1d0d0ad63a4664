"""Scenario files: the one JSON document that pins a whole simulated run.

Everything that could make two runs differ lives here (seed, topology,
device timelines, rules, node and network faults), so replaying the same
file must reproduce the same report byte for byte.

The field tables below are the one description of the format.  Each maps a
field of one kind of object to (default or REQUIRED, shape); a shape is a
`canonical` predicate, another table (an object of those fields), or a
one-table list (a list of such objects).  `scenario_from_dict` refuses any
field no table names, fills in every default, and raises ConfigError naming
the first field its shape refuses; it then checks the rules that span
fields.  The checked dict it returns is what `World` reads.
"""

from __future__ import annotations

import copy
import json
import os
from importlib import resources

from ..canonical import is_canonical, is_int, is_str, list_of, one_of
from ..contracts import ROLE_ADMINISTRATOR, ROLE_PERMISSIONS
from ..devices import DEVICE_KINDS
from ..ledger.faults import FAULT_KINDS, FaultSpec
from ..ledger.node import ConfigError, LedgerConfig, replica_count_ok
from ..rules import parse_rule
from ..sim.network import NetConfig

TRIGGER_MODES = ("poll", "push")

REQUIRED = object()  # a field with no default


def _name(v) -> bool:
    return is_str(v) and v != ""


def _count(v) -> bool:
    return is_int(v) and v >= 0


def _positive(v) -> bool:
    return is_int(v) and v > 0


def _number(v) -> bool:
    return type(v) in (int, float)


def _state(v) -> bool:
    return type(v) is dict and is_canonical(v)


_bool = one_of(True, False)

NET = {
    "delay_range": (list(NetConfig.delay_range),  # inclusive ms bounds
                    lambda v: list_of(is_int)(v) and len(v) == 2),
    "drop_prob": (NetConfig.drop_prob, _number),  # bounds: NetConfig.validate
}

BYZANTINE = {
    "node": (REQUIRED, _count),  # below `nodes`
    "fault": (REQUIRED, one_of(*FAULT_KINDS)),
    "prob": (FaultSpec.prob, lambda v: _number(v) and 0 <= v <= 1),
}

ACCOUNT = {
    "name": (REQUIRED, _name),
    "role": (REQUIRED, one_of(*ROLE_PERMISSIONS)),
    "usr_id": (REQUIRED, is_int),
}

DEVICE = {
    "device_id": (REQUIRED, _name),
    "kind": (REQUIRED, one_of(*DEVICE_KINDS)),
    "vendor": (REQUIRED, _name),
    "initial": ({}, _state),
    "timeline": ([], list_of(  # [[at_ms, patch], ...]
        lambda v: type(v) is list and len(v) == 2 and _count(v[0]) and _state(v[1]))),
}

SCENARIO = {
    "schema": (REQUIRED, one_of(1)),
    "name": (REQUIRED, _name),
    "seed": (REQUIRED, is_int),
    "nodes": (4, lambda v: is_int(v) and replica_count_ok(v)),
    "duration_ms": (REQUIRED, _positive),
    "drain_ms": (6000, _count),
    "trigger_mode": ("poll", one_of(*TRIGGER_MODES)),
    "record_action_executions": (True, _bool),
    "with_ledger": (True, _bool),
    "commit_timeout_ms": (LedgerConfig.commit_timeout_ms, _positive),
    "net": ({}, NET),
    "byzantine": (None, BYZANTINE),  # null: every node honest
    "accounts": (REQUIRED, [ACCOUNT]),  # the first is the rule owner
    "devices": ([], [DEVICE]),
    "rules": ([], list_of(lambda v: is_str(v) or type(v) is dict)),  # inline, or a file path
}


def _checked(data, table: dict, path: str = "scenario") -> dict:
    """A fresh copy of the object `data` with every default of `table` filled in."""
    if type(data) is not dict:
        raise ConfigError(f"{path} must be an object")
    for name in data:
        if name not in table:
            raise ConfigError(f"unknown field {path}.{name}")
    out = {}
    for name, (default, shape) in table.items():
        if name not in data and default is REQUIRED:
            raise ConfigError(f"missing field {path}.{name}")
        value = data.get(name, default)
        if value is None and default is None:
            out[name] = None
        else:
            out[name] = _shaped(value, shape, f"{path}.{name}")
    return out


def _shaped(value, shape, path: str):
    if type(shape) is dict:
        return _checked(value, shape, path)
    if type(shape) is list:
        if type(value) is not list:
            raise ConfigError(f"{path} must be a list")
        return [_shaped(v, shape[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if not shape(value):
        raise ConfigError(f"bad value for {path}: {value!r}")
    return copy.deepcopy(value)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _rule_entry(entry, base_dir: str) -> dict:
    if type(entry) is dict:
        return entry
    path = entry if os.path.isabs(entry) else os.path.join(base_dir, entry)
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load rule file {path}: {exc}") from None


def scenario_from_dict(data: dict, base_dir: str = ".", seed_override=None) -> dict:
    """The checked scenario: a fresh dict with every default filled in and each
    rule, inline or loaded from a file under base_dir, in its parsed form."""
    if seed_override is not None and type(data) is dict:
        data = {**data, "seed": seed_override}
    doc = _checked(data, SCENARIO)
    try:
        NetConfig(**doc["net"]).validate()
    except ValueError as exc:
        raise ConfigError(f"bad value for scenario.net: {exc}") from None
    accounts, devices = doc["accounts"], doc["devices"]
    _require(len({a["name"] for a in accounts}) == len(accounts), "duplicate account names")
    _require(len({a["usr_id"] for a in accounts}) == len(accounts), "duplicate usr_ids")
    _require(bool(accounts) and accounts[0]["role"] == ROLE_ADMINISTRATOR,
             "the first account must be an Administrator")
    known = {d["device_id"] for d in devices}
    _require(len(known) == len(devices), "duplicate device ids")
    _require(doc["byzantine"] is None or doc["byzantine"]["node"] < doc["nodes"],
             "scenario.byzantine.node must be below scenario.nodes")
    # RuleError is a ConfigError sibling
    doc["rules"] = [parse_rule(_rule_entry(e, base_dir), known_devices=known).to_dict()
                    for e in doc["rules"]]
    _require(len({r["rule_id"] for r in doc["rules"]}) == len(doc["rules"]), "duplicate rule ids")
    return doc


def bundled_scenario(name: str) -> dict:
    """A fresh copy of the JSON object of the bundled scenario `name`."""
    ref = resources.files("ruledger.scenarios").joinpath(f"{name}.scenario.json")
    if not ref.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return json.loads(ref.read_text())


def load_scenario(path: str, seed_override=None) -> dict:
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from None
    return scenario_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)),
                              seed_override=seed_override)
