"""Attack suite: nine abuse scenarios the ledger must shut down.

Each attack runs a small heart-rate world with one legitimate rule firing
once, layers the adversarial behavior on top, and then checks two things:
the hostile submissions were rejected with the expected codes, and the
physical outcome (device action count, table contents) matches what the
honest run alone would have produced.  "Blocked" means both held.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..agents import AgentBase
from ..canonical import canonical_bytes, derive_seed
from ..contracts import (
    CODE_ALREADY_CONSUMED,
    CODE_BAD_CID,
    CODE_CHECKSUM_MISMATCH,
    CODE_NO_LOG_ENTRY,
    CODE_PERMISSION_DENIED,
    CODE_STALE_SEQ,
)
from ..devices import checksum, inject_spoofed_event
from ..keys import KeyPair
from ..ledger import audit, tables
from ..ledger.tx import KIND_EVENT, KIND_RULE_COMMIT, SignedTransaction
from ..rules import parse_rule
from .scenario import bundled_scenario, scenario_from_dict
from .world import World

DEFAULT_SEED = 1337


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


def _attacker(world: World, label: str = "attacker") -> AgentBase:
    return AgentBase(label, world.net, KeyPair.from_seed(world.config["seed"], f"acct/{label}"),
                     world.ledger_config.node_addrs)


def _attacker_codes(agent: AgentBase) -> list[str]:
    return sorted({r.code for r in agent.client.resolved.values() if r.code})


def _lock_actions(world: World) -> int:
    return world.devices["lock-1"].actions_executed


# ---------------------------------------------------------------------------


def attack_event_spoof(seed: int = DEFAULT_SEED, forge_log: bool = False) -> AttackOutcome:
    """Claim a trigger fired without ever touching the device.  With forge_log,
    the negative control, the vendor log also holds the forged entry."""
    world = _make_world(seed)
    attacker = _attacker(world)
    rng = random.Random(derive_seed(seed, "attacker/rng"))
    binding = world.bindings[1]

    def hook(w: World):
        def fire():
            body = inject_spoofed_event(rng, binding, step_id=0, event_seq=500,
                                        fake_payload={"heart_rate": 20})
            if forge_log:
                log = body["event_log"]
                w.log.write(log["eid"], log["log_key"], log["log_sum"], "watch-1", w.scheduler.now)
            attacker.submit(KIND_EVENT, body)
        w.scheduler.schedule(2000, fire)

    world.run(hook=hook)
    codes = _attacker_codes(attacker)
    accepted = any(r.accepted for r in attacker.client.resolved.values())
    blocked = (not accepted) and CODE_NO_LOG_ENTRY in codes and _lock_actions(world) == 1
    name = "event_spoof_forged_log" if forge_log else "event_spoof"
    notes = f"lock actions={_lock_actions(world)}"
    return AttackOutcome(name, blocked, codes, notes, expected_blocked=not forge_log)


def attack_checksum_tamper(seed: int = DEFAULT_SEED) -> AttackOutcome:
    """Reuse a real logged execution but lie about its result payload."""
    world = _make_world(seed)
    attacker = _attacker(world)
    binding = world.bindings[1]

    def hook(w: World):
        def fire():
            rows = w.nodes[0].state.table(tables.EVENT_RECORD).rows
            if not rows:
                return
            real = rows[0]
            body = {
                "event_info": {**binding, "step_id": 0, "event_seq": 501},
                "event_log": {
                    "eid": real["eid"],
                    "log_key": real["log_key"],
                    "log_sum": checksum({"heart_rate": 20}),
                },
                "result_status": 1,
                "task_ref": 501,
            }
            attacker.submit(KIND_EVENT, body)
        w.scheduler.schedule(2000, fire)

    world.run(hook=hook)
    codes = _attacker_codes(attacker)
    accepted = any(r.accepted for r in attacker.client.resolved.values())
    blocked = (not accepted) and CODE_CHECKSUM_MISMATCH in codes and _lock_actions(world) == 1
    return AttackOutcome("checksum_tamper", blocked, codes, f"lock actions={_lock_actions(world)}")


def attack_event_replay(seed: int = DEFAULT_SEED) -> AttackOutcome:
    """Replay a committed event, verbatim and with a fresh sequence number."""
    world = _make_world(seed)
    attacker = _attacker(world)

    def hook(w: World):
        def fire():
            committed = None
            for block in w.nodes[0].chain[1:]:
                for wire in block["txs"]:
                    if wire["kind"] == KIND_EVENT:
                        committed = wire
                        break
            if committed is None:
                return
            body = dict(SignedTransaction.from_wire(committed, checked=True).body)
            body.pop("kind", None)
            body.pop("nonce", None)
            # Verbatim replay: same event_info, same log coordinates.
            attacker.submit(KIND_EVENT, body)
            # Freshened replay: new sequence number, old log coordinates.
            freshened = {
                **body,
                "event_info": {**body["event_info"], "event_seq": 502},
                "task_ref": 502,
            }
            attacker.submit(KIND_EVENT, freshened)
        w.scheduler.schedule(2000, fire)

    world.run(hook=hook)
    codes = _attacker_codes(attacker)
    results = list(attacker.client.resolved.values())
    blocked = (
        len(results) == 2
        and all(not r.accepted for r in results)
        and codes == [CODE_STALE_SEQ]
        and _lock_actions(world) == 1
    )
    return AttackOutcome("event_replay", blocked, codes, f"lock actions={_lock_actions(world)}")


def attack_action_forge(seed: int = DEFAULT_SEED) -> AttackOutcome:
    """The platform invents action requests it was never entitled to."""
    world = _make_world(seed, adversary={"mode": "forge_actions"})
    world.run()
    forged = [o for o in world.tamock.outcomes if o["forged"]]
    honest = [o for o in world.tamock.outcomes if not o["forged"]]
    codes = sorted({o["code"] for o in forged if o["code"]})
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


def attack_action_replay(seed: int = DEFAULT_SEED) -> AttackOutcome:
    """The platform re-sends its own honest action request."""
    world = _make_world(seed, adversary={"mode": "replay_requests"})
    world.run()
    forged = [o for o in world.tamock.outcomes if o["forged"]]
    codes = sorted({o["code"] for o in forged if o["code"]})
    blocked = (
        len(forged) == 1
        and not forged[0]["accepted"]
        and codes == [CODE_ALREADY_CONSUMED]
        and _lock_actions(world) == 1
    )
    return AttackOutcome("action_replay", blocked, codes, f"lock actions={_lock_actions(world)}")


def attack_token_reuse(seed: int = DEFAULT_SEED) -> AttackOutcome:
    """An outsider replays a captured request with a leaked channel token."""
    world = _make_world(seed, adversary={"mode": "token_reuse"})
    world.run()
    adversary = world.adversary
    codes = sorted({o["code"] for o in adversary.outcomes if o["code"]})
    blocked = (
        adversary.replayed >= 1
        and len(adversary.outcomes) >= 1
        and all(not o["accepted"] for o in adversary.outcomes)
        and codes == [CODE_ALREADY_CONSUMED]
        and world.task_agent.counters["channel_rejects"] == 0
        and _lock_actions(world) == 1
    )
    return AttackOutcome("token_reuse", blocked, codes,
                         f"replayed={adversary.replayed} lock actions={_lock_actions(world)}")


def attack_rbac_escalation(seed: int = DEFAULT_SEED) -> AttackOutcome:
    """A NormalUser tries to grant itself admin and to commit a rule."""
    world = _make_world(seed, accounts=[
        {"name": "alice", "role": "Administrator", "usr_id": 1},
        {"name": "mallory", "role": "NormalUser", "usr_id": 2},
    ])
    mallory = world.user_agents["mallory"]
    rule = parse_rule({
        "schema": 1,
        "title": "mallory backdoor",
        "rule_id": 9,
        "trigger_operations": [["alert_on_heart_rate", "watch-1", "OP_AND"]],
        "condition": "IF_TRUE",
        "action_operations": [["open_door_operation", "lock-1", "OP_AND"]],
    })

    def hook(w: World):
        w.scheduler.schedule(1500, lambda: mallory.manage_accounts([
            {"signer": mallory.keypair.public_hex, "role": "Administrator", "usr_id": 2}
        ]))
        w.scheduler.schedule(1600, lambda: mallory.commit_rule(rule, usr_rule_id=900))

    world.run(hook=hook)
    results = list(mallory.client.resolved.values())
    codes = sorted({r.code for r in results if r.code})
    state = world.nodes[0].state
    acl_roles = {row["signer"]: row["role"] for row in state.table(tables.ACL).rows}
    rule_ids = {row["rule_id"] for row in state.table(tables.RULE).rows}
    blocked = (
        len(results) == 2
        and all(not r.accepted for r in results)
        and codes == [CODE_PERMISSION_DENIED]
        and acl_roles.get(mallory.keypair.public_hex) == "NormalUser"
        and 9 not in rule_ids
    )
    return AttackOutcome("rbac_escalation", blocked, codes, f"rules={sorted(rule_ids)}")


def attack_config_tamper(seed: int = DEFAULT_SEED) -> AttackOutcome:
    """Unauthorized rule edits, on-chain and via direct store mutation."""
    world = _make_world(seed, accounts=[
        {"name": "alice", "role": "Administrator", "usr_id": 1},
        {"name": "mallory", "role": "NormalUser", "usr_id": 2},
    ])
    mallory = world.user_agents["mallory"]
    altered = parse_rule({
        "schema": 1,
        "title": "unlock on abnormal heart rate",
        "rule_id": 1,
        "trigger_operations": [["alert_on_heart_rate", "watch-1", "OP_AND"]],
        "condition": "IF_TRUE",
        "action_operations": [["close_door_operation", "lock-1", "OP_AND"]],
    })

    def hook(w: World):
        w.scheduler.schedule(1500, lambda: mallory.modify_rule(altered, usr_rule_id=101))

    world.run(hook=hook)
    results = list(mallory.client.resolved.values())
    onchain_blocked = (
        len(results) == 1
        and not results[0].accepted
        and results[0].code == CODE_PERMISSION_DENIED
    )

    # Post-hoc tampering with two nodes' local copies; the offline audit
    # must flag both while a clean node still verifies.
    clean = audit.audit_node(world.nodes[0])
    world.nodes[1].state.table(tables.RULE).rows[0]["definition"] = '{"schema":1}'
    txs = world.nodes[2].chain[1]["txs"]
    tx = SignedTransaction.from_wire(txs[0])
    txs[0] = dict(txs[0], body=canonical_bytes(dict(tx.body, nonce=tx.body["nonce"] + 1)).decode())
    state_tampered = audit.audit_node(world.nodes[1])
    chain_tampered = audit.audit_node(world.nodes[2])

    codes = sorted({r.code for r in results if r.code})
    blocked = (
        onchain_blocked
        and clean.ok
        and not state_tampered.ok
        and not chain_tampered.ok
    )
    notes = (f"clean_audit={clean.ok} state_tamper_detected={not state_tampered.ok} "
             f"chain_tamper_detected={not chain_tampered.ok}")
    return AttackOutcome("config_tamper", blocked, codes, notes)


def attack_byzantine_node(seed: int = DEFAULT_SEED) -> AttackOutcome:
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


def run_attack_suite(seed: int = DEFAULT_SEED) -> dict:
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
