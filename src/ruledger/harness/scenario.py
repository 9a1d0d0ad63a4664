"""Scenario files: the one JSON document that pins a whole simulated run.

Everything that could make two runs differ lives here (seed, topology,
device timelines, rules, adversary behavior), so replaying the same file
must reproduce the same report byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources

from ..canonical import is_int
from ..ledger.faults import FAULT_KINDS, FaultSpec
from ..ledger.node import ConfigError
from ..rules import Thresholds, parse_rule
from ..sim.network import NetConfig
from ..tamock import MODES as PLATFORM_MODES

ROLES = ("Administrator", "NormalUser")
TRIGGER_MODES = ("poll", "push")


@dataclass
class DeviceSpec:
    device_id: str
    kind: str
    vendor: str
    initial: dict = field(default_factory=dict)
    timeline: list = field(default_factory=list)  # [[at_ms, patch], ...]


@dataclass
class AccountSpec:
    name: str
    role: str
    usr_id: int


@dataclass
class ByzantineSpec:
    node: int
    fault: FaultSpec


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    nodes: int
    duration_ms: int
    devices: list[DeviceSpec]
    accounts: list[AccountSpec]
    rules: list[dict]
    net: NetConfig = field(default_factory=NetConfig)
    poll_interval_ms: int = 500
    trigger_mode: str = "poll"
    record_action_executions: bool = True
    with_ledger: bool = True
    check_event_log: bool = True
    batch_size: int = 16
    commit_timeout_ms: int = 3000
    drain_ms: int = 6000
    thresholds: Thresholds = field(default_factory=Thresholds)
    byzantine: ByzantineSpec | None = None
    adversary_mode: str = "honest"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def scenario_from_dict(data: dict, base_dir: str = ".", seed_override=None) -> ScenarioConfig:
    _require(isinstance(data, dict), "scenario must be a JSON object")
    _require(data.get("schema") == 1, f"unsupported scenario schema: {data.get('schema')!r}")

    name = data.get("name")
    _require(isinstance(name, str) and bool(name), "scenario needs a non-empty name")
    seed = seed_override if seed_override is not None else data.get("seed")
    _require(is_int(seed), "seed must be an integer")
    nodes = data.get("nodes", 4)
    _require(is_int(nodes) and (nodes == 1 or nodes >= 4), "nodes must be 1 or >= 4")
    duration = data.get("duration_ms")
    _require(is_int(duration) and duration > 0, "duration_ms must be a positive integer")

    net_data = data.get("net", {})
    _require(isinstance(net_data, dict), "net must be an object")
    try:
        net = NetConfig(
            delay_range=tuple(net_data.get("delay_range", (1, 5))),
            drop_prob=net_data.get("drop_prob", 0.0),
            reorder=net_data.get("reorder", True),
        )
        net.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad net config: {exc}") from None

    thr_data = data.get("thresholds", {})
    _require(isinstance(thr_data, dict), "thresholds must be an object")
    thresholds = Thresholds(
        min_rate=thr_data.get("min_rate", 40), max_rate=thr_data.get("max_rate", 180)
    )

    trigger_mode = data.get("trigger_mode", "poll")
    _require(trigger_mode in TRIGGER_MODES, f"trigger_mode must be one of {TRIGGER_MODES}")
    adversary = data.get("adversary", {"mode": "honest"})
    _require(isinstance(adversary, dict), "adversary must be an object")
    adversary_mode = adversary.get("mode", "honest")
    _require(adversary_mode in PLATFORM_MODES,
             f"adversary mode must be one of {PLATFORM_MODES}")

    byz = None
    byz_data = data.get("byzantine")
    if byz_data is not None:
        _require(isinstance(byz_data, dict), "byzantine must be an object or null")
        node = byz_data.get("node")
        _require(is_int(node) and 0 <= node < nodes, "byzantine.node out of range")
        _require(byz_data.get("fault") in FAULT_KINDS,
                 f"byzantine.fault must be one of {FAULT_KINDS}")
        byz = ByzantineSpec(node=node, fault=FaultSpec.from_dict(byz_data))

    accounts = []
    for entry in data.get("accounts", []):
        _require(isinstance(entry, dict), "account entries must be objects")
        _require(isinstance(entry.get("name"), str) and bool(entry.get("name")),
                 "account needs a name")
        _require(entry.get("role") in ROLES, f"account role must be one of {ROLES}")
        _require(is_int(entry.get("usr_id")), "account usr_id must be an integer")
        accounts.append(AccountSpec(entry["name"], entry["role"], entry["usr_id"]))
    _require(bool(accounts), "at least one account is required")
    _require(len({a.name for a in accounts}) == len(accounts), "duplicate account names")
    _require(accounts[0].role == "Administrator", "the first account must be an Administrator")

    devices = []
    for entry in data.get("devices", []):
        _require(isinstance(entry, dict), "device entries must be objects")
        for key in ("device_id", "kind", "vendor"):
            _require(isinstance(entry.get(key), str) and bool(entry.get(key)),
                     f"device needs a string {key}")
        timeline = entry.get("timeline", [])
        _require(isinstance(timeline, list), "device timeline must be a list")
        for item in timeline:
            _require(isinstance(item, list) and len(item) == 2 and is_int(item[0])
                     and item[0] >= 0 and isinstance(item[1], dict),
                     f"bad timeline entry for {entry['device_id']}: {item!r}")
        devices.append(DeviceSpec(entry["device_id"], entry["kind"], entry["vendor"],
                                  dict(entry.get("initial", {})),
                                  [[t, dict(p)] for t, p in timeline]))
    _require(len({d.device_id for d in devices}) == len(devices), "duplicate device ids")

    known = {d.device_id for d in devices}
    rules = []
    for entry in data.get("rules", []):
        if isinstance(entry, str):
            path = entry if os.path.isabs(entry) else os.path.join(base_dir, entry)
            try:
                with open(path, "rb") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot load rule file {path}: {exc}") from None
        parsed = parse_rule(entry, known_devices=known)  # RuleError is a ConfigError sibling
        rules.append(parsed.to_dict())
    _require(len({r["rule_id"] for r in rules}) == len(rules), "duplicate rule ids")

    return ScenarioConfig(
        name=name,
        seed=seed,
        nodes=nodes,
        duration_ms=duration,
        devices=devices,
        accounts=accounts,
        rules=rules,
        net=net,
        poll_interval_ms=data.get("poll_interval_ms", 500),
        trigger_mode=trigger_mode,
        record_action_executions=bool(data.get("record_action_executions", True)),
        with_ledger=bool(data.get("with_ledger", True)),
        check_event_log=bool(data.get("check_event_log", True)),
        batch_size=data.get("batch_size", 16),
        commit_timeout_ms=data.get("commit_timeout_ms", 3000),
        drain_ms=data.get("drain_ms", 6000),
        thresholds=thresholds,
        byzantine=byz,
        adversary_mode=adversary_mode,
    )


def bundled_scenario(name: str) -> dict:
    """A fresh copy of the JSON object of the bundled scenario `name`."""
    ref = resources.files("ruledger.scenarios").joinpath(f"{name}.scenario.json")
    if not ref.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return json.loads(ref.read_text())


def load_scenario(path: str, seed_override=None) -> ScenarioConfig:
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from None
    return scenario_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)),
                              seed_override=seed_override)
