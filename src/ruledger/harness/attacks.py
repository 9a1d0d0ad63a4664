"""Attack suite: nine abuse scenarios the ledger must shut down.

Each attack runs a small heart-rate world with one legitimate rule firing
once, layers the adversarial behavior on top, and then checks two things:
the hostile submissions were rejected with the expected codes, and the
physical outcome (device action count, table contents) matches what the
honest run alone would have produced.  "Blocked" means both held.

The three attacks that submit forged event transactions (`event_spoof` and
its negative control, `checksum_tamper`, `event_replay`) share one runner,
`_hostile_submissions`: an outside attacker submits each body the attack
crafts at 2000 ms, and the attack is blocked when every body was answered,
none was accepted, the attack's one expected code was the only code seen,
and the lock ran once.  The three platform attacks share `_platform_run`:
at the same 2000 ms, one of `PLATFORM_FORGERIES` sends forged action
requests for the platform's first trigger through `TriggerActionMock.emit`,
from the compromised platform itself or from an outsider holding its leaked
channel token.  The account-abuse attacks share `_mallory_run`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from ..agents import AgentBase
from ..canonical import derive_seed
from ..contracts import (
    CODE_ALREADY_CONSUMED,
    CODE_BAD_CID,
    CODE_CHECKSUM_MISMATCH,
    CODE_NO_LOG_ENTRY,
    CODE_PERMISSION_DENIED,
    CODE_STALE_SEQ,
    event_body,
)
from ..devices import checksum, inject_spoofed_event
from ..keys import KeyPair
from ..ledger import audit, tables
from ..ledger.node import block_txs
from ..ledger.tx import KIND_EVENT, KIND_RULE_COMMIT, SignedTransaction
from ..rules import parse_rule
from ..tamock import TriggerActionMock
from .scenario import bundled_scenario, scenario_from_dict
from .world import World


@dataclass
class AttackOutcome:
    name: str
    blocked: bool
    codes_seen: list[str] = field(default_factory=list)
    notes: str = ""
    expected_blocked: bool = True


def _base_scenario(seed: int, **overrides) -> dict:
    """The bundled heart-rate scenario, cut to one alert in a 2.5 s window."""
    data = bundled_scenario("heart_rate")
    data["devices"][0]["timeline"] = [[1000, {"heart_rate": 30}], [1400, {"heart_rate": 70}]]
    data.update(name="attack_base", seed=seed, duration_ms=2500)
    data.update(overrides)
    return data


def _make_world(seed: int, **overrides) -> World:
    return World(scenario_from_dict(_base_scenario(seed, **overrides)))


def _codes(codes) -> list[str]:
    """The distinct codes, sorted, that receipts or platform outcomes carry."""
    return sorted({code for code in codes if code})


def _lock_actions(world: World) -> int:
    return world.devices["lock-1"].actions_executed


def _hostile_submissions(name: str, seed: int, bodies, code: str,
                         expected_blocked: bool = True) -> AttackOutcome:
    """Run the base world with an attacker that, at 2000 ms, submits each event
    body `bodies(world)` returns.  Blocked: every body was answered, none was
    accepted, `code` was the only code seen, and the lock ran once."""
    world = _make_world(seed)
    attacker = AgentBase("attacker", world.net, KeyPair.from_seed(seed, "acct/attacker"),
                         world.ledger_config.node_addrs)
    sent = []

    def fire():
        for body in bodies(world):
            sent.append(attacker.submit(KIND_EVENT, body))

    world.run(hook=lambda w: w.scheduler.schedule(2000, fire))
    results = attacker.client.resolved.values()
    codes = _codes(r.code for r in results)
    blocked = (len(results) == len(sent) and not any(r.accepted for r in results)
               and codes == [code] and _lock_actions(world) == 1)
    return AttackOutcome(name, blocked, codes, f"lock actions={_lock_actions(world)}",
                         expected_blocked)


def _forge_actions(world: World, info: dict, cid: str) -> None:
    """The compromised platform emits invented event coordinates under the real
    cid, then the real pair again, which the honest request has consumed."""
    world.tamock.emit({**info, "event_seq": info["event_seq"] + 7777}, cid, 0, forged=True)
    world.tamock.emit(info, cid, 0, forged=True)


def _replay_requests(world: World, info: dict, cid: str) -> None:
    """The compromised platform replays its own request."""
    world.tamock.emit(info, cid, 0, forged=True)


def _token_reuse(world: World, info: dict, cid: str) -> None:
    """An outsider holding the leaked channel token emits the request; the token
    gets it past the channel check, and the ledger is what has to stop it."""
    outsider = TriggerActionMock("outsider", world.net, world.owner.addr, "task",
                                 world.tamock.channel_token)
    outsider.emit(info, cid, 0, forged=True)


# name -> forge(world, info, cid), which sends forged action requests
PLATFORM_FORGERIES = {"forge_actions": _forge_actions, "replay_requests": _replay_requests,
                      "token_reuse": _token_reuse}


def _platform_run(seed: int, forge):
    """The base world run with `forge(world, info, cid)` called at 2000 ms, info
    and cid those of the platform's first trigger request: the world, and the
    outcomes of every platform's forged requests and their codes."""
    world = _make_world(seed)
    world.run(hook=lambda w: w.scheduler.schedule(
        2000, lambda: forge(w, *next(iter(w.tamock.requests.values())))))
    hostile = [o for p in world.net.processes.values() if type(p) is TriggerActionMock
               for o in p.outcomes if o["forged"]]
    return world, hostile, _codes(o["code"] for o in hostile)


def _mallory_run(seed: int, submissions):
    """The base world with a second account, mallory, a NormalUser, run with
    each (at_ms, submit) of submissions calling submit(mallory) at at_ms: the
    world, and mallory's receipts and their codes."""
    world = _make_world(seed, accounts=[
        {"name": "alice", "role": "Administrator", "usr_id": 1},
        {"name": "mallory", "role": "NormalUser", "usr_id": 2},
    ])
    mallory = world.user_agents["mallory"]

    def hook(w: World):
        for at_ms, submit in submissions:
            w.scheduler.schedule(at_ms, partial(submit, mallory))

    world.run(hook=hook)
    results = list(mallory.client.resolved.values())
    return world, results, _codes(r.code for r in results)


# ---------------------------------------------------------------------------


def attack_event_spoof(seed: int, forge_log: bool = False) -> AttackOutcome:
    """Claim a trigger fired without ever touching the device.  With forge_log,
    the negative control, the vendor log also holds the forged entry."""

    def bodies(w: World):
        rng = random.Random(derive_seed(seed, "attacker/rng"))
        body = inject_spoofed_event(rng, w.bindings[1], step_id=0, event_seq=500,
                                    fake_payload={"heart_rate": 20})
        if forge_log:
            log = body["event_log"]
            w.log.write(log["eid"], log["log_key"], log["log_sum"], "watch-1", w.scheduler.now)
        return [body]

    name = "event_spoof_forged_log" if forge_log else "event_spoof"
    return _hostile_submissions(name, seed, bodies, CODE_NO_LOG_ENTRY, not forge_log)


def attack_checksum_tamper(seed: int) -> AttackOutcome:
    """Reuse a real logged execution but lie about its result payload."""

    def bodies(w: World):
        rows = w.nodes[0].state.table(tables.EVENT_RECORD).rows
        return [event_body({**w.bindings[1], "step_id": 0, "event_seq": 501},
                           real["eid"], real["log_key"], checksum({"heart_rate": 20}), 501)
                for real in rows[:1]]

    return _hostile_submissions("checksum_tamper", seed, bodies, CODE_CHECKSUM_MISMATCH)


def attack_event_replay(seed: int) -> AttackOutcome:
    """Replay the first committed event, the trigger event, verbatim and with a
    fresh sequence number."""

    def bodies(w: World):
        # By 2000 ms the honest alert at 1000 ms has committed its trigger event.
        committed = next(wire for block in w.nodes[0].chain[1:] for wire in block_txs(block)
                         if wire["kind"] == KIND_EVENT)
        body = dict(SignedTransaction.from_wire(committed).body)
        body.pop("kind", None)
        body.pop("nonce", None)
        # Verbatim replay: same event_info, same log coordinates.  Freshened
        # replay: new sequence number, old log coordinates.
        return [body, {**body, "event_info": {**body["event_info"], "event_seq": 502},
                       "task_ref": 502}]

    return _hostile_submissions("event_replay", seed, bodies, CODE_STALE_SEQ)


def attack_action_forge(seed: int) -> AttackOutcome:
    """The platform invents action requests it was never entitled to."""
    world, forged, codes = _platform_run(seed, _forge_actions)
    honest = [o for o in world.tamock.outcomes if not o["forged"]]
    accepted_total = sum(1 for o in world.tamock.outcomes if o["accepted"])
    blocked = (
        len(forged) == 2
        and all(not o["accepted"] for o in forged)
        and CODE_BAD_CID in codes
        and CODE_ALREADY_CONSUMED in codes
        and len(honest) == 1 and honest[0]["accepted"]
        and accepted_total == 1
        and _lock_actions(world) == 1
    )
    return AttackOutcome("action_forge", blocked, codes,
                         f"forged={len(forged)} lock actions={_lock_actions(world)}")


def attack_action_replay(seed: int) -> AttackOutcome:
    """The platform re-sends its own honest action request."""
    world, forged, codes = _platform_run(seed, _replay_requests)
    blocked = (
        len(forged) == 1
        and not forged[0]["accepted"]
        and codes == [CODE_ALREADY_CONSUMED]
        and _lock_actions(world) == 1
    )
    return AttackOutcome("action_replay", blocked, codes, f"lock actions={_lock_actions(world)}")


def attack_token_reuse(seed: int) -> AttackOutcome:
    """An outsider replays a captured request with a leaked channel token."""
    world, outcomes, codes = _platform_run(seed, _token_reuse)
    replayed = world.net.processes["outsider"].counters["forged_emitted"]
    blocked = (
        replayed >= 1
        and len(outcomes) >= 1
        and all(not o["accepted"] for o in outcomes)
        and codes == [CODE_ALREADY_CONSUMED]
        and world.task_agent.counters["channel_rejects"] == 0
        and _lock_actions(world) == 1
    )
    return AttackOutcome("token_reuse", blocked, codes,
                         f"replayed={replayed} lock actions={_lock_actions(world)}")


def attack_rbac_escalation(seed: int) -> AttackOutcome:
    """A NormalUser tries to grant itself admin and to commit a rule."""
    rule = parse_rule(dict(bundled_scenario("heart_rate")["rules"][0],
                           title="mallory backdoor", rule_id=9))
    world, results, codes = _mallory_run(seed, [
        (1500, lambda m: m.manage_accounts([
            {"signer": m.keypair.public_hex, "role": "Administrator", "usr_id": 2}])),
        (1600, lambda m: m.commit_rule(rule, usr_rule_id=900)),
    ])
    state = world.nodes[0].state
    acl_roles = {row["signer"]: row["role"] for row in state.table(tables.ACL).rows}
    rule_ids = {row["rule_id"] for row in state.table(tables.RULE).rows}
    blocked = (
        len(results) == 2
        and all(not r.accepted for r in results)
        and codes == [CODE_PERMISSION_DENIED]
        and acl_roles.get(world.user_agents["mallory"].keypair.public_hex) == "NormalUser"
        and 9 not in rule_ids
    )
    return AttackOutcome("rbac_escalation", blocked, codes, f"rules={sorted(rule_ids)}")


def attack_config_tamper(seed: int) -> AttackOutcome:
    """Unauthorized rule edits, on-chain and via direct store mutation."""
    altered = parse_rule(dict(bundled_scenario("heart_rate")["rules"][0],
                              action_operations=[["close_door_operation", "lock-1", "OP_AND"]]))
    world, results, codes = _mallory_run(
        seed, [(1500, lambda m: m.modify_rule(altered, usr_rule_id=101))])
    onchain_blocked = (
        len(results) == 1
        and not results[0].accepted
        and results[0].code == CODE_PERMISSION_DENIED
    )

    # Post-hoc tampering with two nodes' local copies; the offline audit
    # must flag both while a clean node still verifies.
    clean = audit.audit_node(world.nodes[0])
    world.nodes[1].state.table(tables.RULE).rows[0]["definition"] = '{"schema":1}'
    # node2's own list of accepted positions; the certificate's batch is shared by every replica.
    world.nodes[2].chain[1]["txs"].pop()
    state_tampered = audit.audit_node(world.nodes[1])
    chain_tampered = audit.audit_node(world.nodes[2])

    blocked = (
        onchain_blocked
        and clean.ok
        and not state_tampered.ok
        and not chain_tampered.ok
    )
    notes = (f"clean_audit={clean.ok} state_tamper_detected={not state_tampered.ok} "
             f"chain_tamper_detected={not chain_tampered.ok}")
    return AttackOutcome("config_tamper", blocked, codes, notes)


def attack_byzantine_node(seed: int) -> AttackOutcome:
    """The view-0 primary equivocates; honest nodes must stay consistent
    and the rule must still run exactly once."""
    # The stalled first view delays rule registration until the view change
    # completes (~commit timeout), so the trigger window sits after that.
    devices = _base_scenario(seed)["devices"]
    devices[0]["timeline"] = [[2900, {"heart_rate": 30}], [3200, {"heart_rate": 70}]]
    world = _make_world(
        seed,
        byzantine={"node": 0, "fault": "equivocate"},
        commit_timeout_ms=1500,
        duration_ms=4000,
        drain_ms=12000,
        devices=devices,
    )
    report = world.run()
    honest_heights = [len(n.chain) - 1 for n in world.honest_nodes()]
    blocked = (
        report["ledger"]["consistent"]
        and min(honest_heights) >= 1
        and report["ledger"]["tx_counts"]["event"] == 1
        and report["ledger"]["tx_counts"]["action"] == 1
        and _lock_actions(world) == 1
    )
    notes = (f"heights={report['ledger']['heights']} "
             f"view_changes={report['node_counters']['view_changes']} "
             f"lock actions={_lock_actions(world)}")
    return AttackOutcome("byzantine_node", blocked, [], notes)


# ---------------------------------------------------------------------------

ATTACKS = (
    attack_event_spoof,
    attack_checksum_tamper,
    attack_event_replay,
    attack_action_forge,
    attack_action_replay,
    attack_token_reuse,
    attack_rbac_escalation,
    attack_config_tamper,
    attack_byzantine_node,
)


def run_attack_suite(seed: int) -> dict:
    outcomes = [fn(seed) for fn in ATTACKS]
    # Control: a spoof whose forged entry the vendor log holds must land.
    control = attack_event_spoof(seed, forge_log=True)
    return {
        "seed": seed,
        "attacks": [vars(o) for o in outcomes],
        "all_blocked": all(o.blocked for o in outcomes),
        "negative_control": vars(control),
        "negative_control_succeeded": not control.blocked,
    }
