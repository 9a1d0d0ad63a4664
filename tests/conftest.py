"""Shared test rigs.

Two builders carry most of the suite: a bare consensus rig (nodes plus a
submitting client, no devices or agents) for protocol-level tests, and a
synthesized table state holding one committed rule binding for
contract-level tests.  Everything is seeded so failures replay.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import pytest

from ruledger.canonical import canonical_bytes, derive_seed
from ruledger.contracts import EVENT_INFO_FIELDS
from ruledger.keys import KeyPair
from ruledger.ledger import tables
from ruledger.ledger.client import RECEIPT, LedgerClient
from ruledger.ledger.faults import FaultSpec
from ruledger.ledger.node import LedgerConfig, LedgerNode
from ruledger.ledger.tx import KIND_ACTION, KIND_EVENT, build_tx
from ruledger.sim.network import NetConfig, Network, Process
from ruledger.sim.scheduler import Scheduler

TEST_SECRET = hashlib.sha256(b"secret/test").digest()

BINDING = {
    "usr_rule_id": 101,
    "usr_id": 1,
    "rule_id": 1,
    "rule_name": "unlock on abnormal heart rate",
}


def hr_rule(rule_id=1, watch="watch-1", lock="lock-1",
            title="unlock on abnormal heart rate", extra_actions=()):
    actions = [["open_door_operation", lock, "OP_AND"]]
    actions += [list(a) for a in extra_actions]
    return {
        "schema": 1,
        "title": title,
        "rule_id": rule_id,
        "trigger_operations": [["alert_on_heart_rate", watch, "OP_AND"]],
        "condition": "IF_TRUE",
        "action_operations": actions,
    }


@pytest.fixture(scope="session")
def signer_key():
    return KeyPair.from_seed(99, "acct/test-signer")


# ---------------------------------------------------------------------------
# consensus rig

class ClientProcess(Process):
    """Minimal wallet host: just a ledger client hooked to the inbox."""

    MESSAGES = {"receipt": (RECEIPT, "_on_receipt")}

    def __init__(self, addr, net, node_addrs, timeout_ms=4000):
        super().__init__(addr, net)
        self.client = LedgerClient(self, node_addrs, timeout_ms=timeout_ms)

    def _on_receipt(self, src, msg):
        self.client.on_receipt(src, msg)


def make_rig(seed, n=4, fault_kind=None, byz_index=None, commit_timeout_ms=800,
             net_config=None, client_timeout_ms=4000):
    scheduler = Scheduler()
    net = Network(scheduler, net_config or NetConfig(),
                  random.Random(derive_seed(seed, "net")))
    keys = [KeyPair.from_seed(seed, f"node{i}") for i in range(n)]
    admin = KeyPair.from_seed(seed, "acct/admin")
    config = LedgerConfig(
        node_addrs=[f"node{i}" for i in range(n)],
        node_pubkeys=[k.public_hex for k in keys],
        ledger_secret=hashlib.sha256(f"secret/{seed}".encode()).digest(),
        genesis_acl=[{"signer": admin.public_hex, "role": "Administrator", "usr_id": 1}],
        commit_timeout_ms=commit_timeout_ms,
        task_agent_addr="task",
        exec_agent_addr="exec",
    )
    for agent in ("task", "exec"):  # where the nodes send their notifications
        Sink(agent, net)
    nodes = []
    for i, kp in enumerate(keys):
        fault = None
        if fault_kind is not None and i == byz_index:
            fault = FaultSpec(fault_kind, seed=derive_seed(seed, f"node{i}/rng"))
        # No device log: an event contract finds no checksum.
        nodes.append(LedgerNode(f"node{i}", net, i, kp, config, lambda eid, key: None,
                                fault=fault))
    client = ClientProcess("client", net, config.node_addrs, timeout_ms=client_timeout_ms)
    return SimpleNamespace(scheduler=scheduler, net=net, config=config,
                           nodes=nodes, keys=keys, admin=admin, client=client)


class Sink(Process):
    """Notes (sim time, src, msg) of each message delivered to it, unchecked."""

    def __init__(self, addr, net):
        super().__init__(addr, net)
        self.inbox = []

    def on_message(self, src, msg):
        self.inbox.append((self.net.scheduler.now, src, msg))


class Tap:
    """A `sim.Network` tap, set on net at once: notes (src, dst, msg) of every
    send as `sent`, after any fault acted, one per destination of a multicast;
    keeps each in `held` as (src, dst, msg, deliver) if `hold`, so the test
    alone delivers (deliver()) or drops it; and notes (dst, msg, msg's canonical
    bytes before its handler ran) of every delivery as `watched`, failing at once
    if a handler changes its message.  Receivers of a multicast share one
    message, so none may mutate it."""

    def __init__(self, net, hold=False):
        self.hold = hold
        self.sent, self.held, self.watched = [], [], []
        net.tap = self

    def offer(self, src, dst, msg, deliver):
        self.sent.append((src, dst, msg))
        if self.hold:
            self.held.append((src, dst, msg, deliver))
        return self.hold

    def delivering(self, src, dst, msg):
        self.watched.append((dst, msg, canonical_bytes(msg)))

    def delivered(self, src, dst, msg):
        assert canonical_bytes(msg) == self.watched[-1][2], \
            f"{dst}'s handler mutated a {msg.get('type')}"


def mutated_since(watched) -> list:
    """(dst, type) of each watched message whose bytes changed after its handler
    returned, as a kept part of it may be changed later."""
    return [(dst, msg.get("type")) for dst, msg, before in watched
            if canonical_bytes(msg) != before]


def rule_commit_tx(keypair, nonce, rule=None, usr_rule_id=101, usr_id=1):
    return build_tx("rule_commit", {
        "action": "commit_rule",
        "usr_rule_id": usr_rule_id,
        "usr_id": usr_id,
        "rule": rule if rule is not None else hr_rule(),
    }, keypair, nonce)


# ---------------------------------------------------------------------------
# synthesized contract state

def seeded_state(rule=None, binding=None) -> tables.TableStore:
    """A table store as it looks right after one rule commit."""
    rule = rule if rule is not None else hr_rule()
    binding = binding if binding is not None else BINDING
    state = tables.TableStore()
    state.insert(tables.RULE, {
        "rule_id": rule["rule_id"],
        "usr_id": binding["usr_id"],
        "title": rule["title"],
        "definition": canonical_bytes(rule).decode("utf-8"),
    })
    state.insert(tables.USR_RULE, dict(binding))
    return state


def insert_event_record(state, info, consumed=False) -> None:
    """Store the event record that the final trigger step of info leaves."""
    state.insert(tables.EVENT_RECORD, {
        **{f: info[f] for f in EVENT_INFO_FIELDS},
        "eid": "e" * 32, "log_key": "f" * 32, "log_sum": "a" * 64, "consumed": int(consumed),
    })


def event_info(step_id=0, event_seq=1, binding=None, **overrides):
    binding = binding if binding is not None else BINDING
    info = {
        "usr_rule_id": binding["usr_rule_id"],
        "usr_id": binding["usr_id"],
        "rule_id": binding["rule_id"],
        "rule_name": binding["rule_name"],
        "step_id": step_id,
        "event_seq": event_seq,
    }
    info.update(overrides)
    return info


def event_tx(keypair, nonce, info, eid, log_key, log_sum,
             result_status=1, task_ref=None):
    return build_tx(KIND_EVENT, {
        "event_info": info,
        "event_log": {"eid": eid, "log_key": log_key, "log_sum": log_sum},
        "result_status": result_status,
        "task_ref": task_ref if task_ref is not None else info["event_seq"],
    }, keypair, nonce)


def action_tx(keypair, nonce, info, cid):
    return build_tx(KIND_ACTION, {"event_info": info, "cid": cid}, keypair, nonce)


# ---------------------------------------------------------------------------
# acceptance summary

ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_criterion(name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[name] = (ok, detail)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, (ok, detail) in ACCEPTANCE_RESULTS.items():
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] {name}: {detail}")
