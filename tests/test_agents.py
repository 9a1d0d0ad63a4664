"""Wallet-agent behavior in isolation: quorum gating, log-key minting,
trigger cycles, and the refusal paths.

Ledger nodes are replaced with sink processes here; notification handling
is driven by hand-built messages so each property is tested without a
consensus run behind it.  Full-stack behavior lives in the harness tests.
"""

import random
from types import SimpleNamespace

from conftest import BINDING, ClientProcess, Sink, event_info, hr_rule
from ruledger import agents, devices
from ruledger.canonical import sha256_hex
from ruledger.devices import checksum
from ruledger.keys import KeyPair
from ruledger.ledger.tx import SignedTransaction, build_tx
from ruledger.rules import parse_rule
from ruledger.sim.network import NetConfig, Network
from ruledger.sim.scheduler import Scheduler


def _submitted(rig):
    """The submit messages one node received: the client sends each to every node."""
    return [m for _, _, m in rig.nodes[0].inbox if m.get("type") == "submit"]


def test_quorum_gate_fires_once_per_key():
    gate = agents.QuorumGate(2)
    assert not gate.offer("k", "a")
    assert not gate.offer("k", "a")  # repeat source does not count twice
    assert gate.offer("k", "b")
    assert not gate.offer("k", "c")  # already fired
    assert not gate.offer("k2", "a")
    assert gate.offer("k2", "c")


def test_quorum_gate_forgets_the_sources_of_a_fired_key():
    f = 1
    gate = agents.QuorumGate(f + 1)
    for i in range(f + 1):
        gate.offer("k", f"node{i}")
    assert "k" not in gate._seen
    assert not gate.offer("k", f"node{f + 1}")  # a later offer still counts for nothing
    assert "k" not in gate._seen


def test_quorum_gate_need_one_is_immediate():
    gate = agents.QuorumGate(1)
    assert gate.offer("k", "a")
    assert not gate.offer("k", "b")


def _rig(seed=3, addr="exec", task_agent_addr="task", **exec_kwargs):
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(seed))
    log = devices.LogService()
    nodes = [Sink(f"node{i}", net) for i in range(4)]
    gw = devices.Gateway("gw", net, "vend")
    watch = devices.Device("dev/w", net, "watch-1", "heart_rate", log,
                           initial={"heart_rate": 190})
    lock = devices.Device("dev/l", net, "lock-1", "smart_lock", log,
                          initial={"lock": "locked"})
    hub = devices.Device("dev/h", net, "hub-1", "presence", log,
                         initial={"presence": "home"})
    agent = agents.ExecutionAgent(
        addr, net, KeyPair.from_seed(1, "acct/exec"),
        [n.addr for n in nodes], random.Random(seed + 1), owner_addr="user",
        task_agent_addr=task_agent_addr, **exec_kwargs)
    for dev in (watch, lock, hub):
        agent.add_device_route(dev.device_id, gw.addr, gw.register_device(dev), dev.addr)
    return SimpleNamespace(sched=sched, net=net, log=log, nodes=nodes,
                           watch=watch, lock=lock, hub=hub, agent=agent)


def test_gen_log_key_mints_unique_tracked_pairs():
    rig = _rig()
    pairs = [rig.agent.gen_log_key() for _ in range(200)]
    assert len(set(pairs)) == 200
    assert all(len(e) == 32 and len(k) == 32 for e, k in pairs)
    # eids are a deterministic sequence under the agent's address, keys come from its rng
    assert pairs[0][0] == sha256_hex(b"eid/exec/1")[:32]
    assert pairs[0][1] == random.Random(4).randbytes(16).hex()


def test_gen_log_key_differs_across_addresses():
    a = _rig(seed=3).agent
    b = _rig(seed=3, addr="exec2").agent
    assert a.gen_log_key()[0] != b.gen_log_key()[0]


def _register(rule, binding=BINDING):
    return {"type": "register_trigger", "rule": rule, "binding": binding}


NOTIFY_ACTIONS = [{"step_id": 1, "op_name": "open_door_operation", "device_id": "lock-1"}]


def _notify(node, info=None, actions=NOTIFY_ACTIONS):
    return {"type": "notify_actions", "node": node,
            "event_info": info or event_info(), "actions": actions}


def test_actions_run_once_after_f_plus_one_notifications():
    rig = _rig(record_actions=False)
    rig.agent.on_message("node0", _notify(0))
    rig.sched.run()
    assert rig.lock.actions_executed == 0  # one node is not enough

    rig.agent.on_message("node1", _notify(1))
    rig.sched.run()
    assert rig.lock.actions_executed == 1
    assert rig.lock.state["lock"] == "unlocked"
    assert rig.agent.counters["actions_completed"] == 1

    # Late copies of the same notification are absorbed by the gate.
    rig.agent.on_message("node2", _notify(2))
    rig.agent.on_message("node3", _notify(3))
    rig.sched.run()
    assert rig.lock.actions_executed == 1
    assert rig.agent.counters["duplicate_notifies"] == 0


def test_conflicting_notification_for_consumed_event_is_refused():
    rig = _rig(record_actions=False)
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify(n))
    rig.sched.run()
    assert rig.lock.actions_executed == 1

    # Same (rule_id, event_seq), different action list: new gate key, but
    # the consumed mark blocks re-execution.
    doubled = NOTIFY_ACTIONS + [{"step_id": 2, "op_name": "close_door_operation",
                                 "device_id": "lock-1"}]
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify(n, actions=doubled))
    rig.sched.run()
    assert rig.lock.actions_executed == 1
    assert rig.agent.counters["duplicate_notifies"] == 1


def test_notifications_count_by_sender_address():
    rig = _rig(record_actions=False)
    # An outsider claiming two node indexes, and one node claiming two.
    rig.agent.on_message("mallory", _notify(0))
    rig.agent.on_message("mallory", _notify(1))
    rig.agent.on_message("node0", _notify(0))
    rig.agent.on_message("node0", _notify(1))
    rig.sched.run()
    assert rig.lock.actions_executed == 0 and rig.lock.state["lock"] == "locked"

    task = _task_rig()
    task.agent.on_message("mallory", _notify_event(0))
    task.agent.on_message("mallory", _notify_event(1))
    task.agent.on_message("node0", _notify_event(0))
    task.agent.on_message("node0", _notify_event(1))
    task.sched.run()
    assert task.platform.inbox == []


def test_malformed_notifications_are_dropped():
    rig = _rig(record_actions=False)
    task = _task_rig()
    for n in (0, 1):
        for msg in ({"type": "notify_actions", "actions": NOTIFY_ACTIONS},
                    _notify(n, info=event_info(step_id="0")),
                    _notify(n, actions=[{"step_id": 1}])):
            rig.agent.on_message(f"node{n}", msg)
        for msg in ({"type": "notify_event", "event_info": event_info()},
                    _notify_event(n, cid=["c"]),
                    _notify_event(n, info=event_info(extra=1))):
            task.agent.on_message(f"node{n}", msg)
    rig.sched.run()
    task.sched.run()
    assert rig.lock.actions_executed == 0 and task.platform.inbox == []


def test_completed_actions_are_recorded_back_to_the_ledger():
    rig = _rig()  # record_actions defaults on
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify(n))
    rig.sched.run(until=2000)  # before client retry timers fire
    submitted = _submitted(rig)
    assert len(submitted) == 1
    tx = submitted[0]["tx"]
    assert tx["kind"] == "event"
    body = SignedTransaction.from_wire(tx).body
    assert body["event_info"]["step_id"] == 1
    assert body["event_info"]["rule_id"] == BINDING["rule_id"]
    assert body["result_status"] == 1
    assert body["task_ref"] == event_info()["event_seq"]
    assert body["event_log"]["log_sum"] == checksum({"lock": "unlocked"})
    assert body["event_log"]["eid"] == sha256_hex(b"eid/exec/1")[:32]  # the agent's first eid
    assert rig.log.query_checksum(body["event_log"]["eid"],
                                  body["event_log"]["log_key"]) == body["event_log"]["log_sum"]


def test_failed_action_leaves_a_failure_record():
    rig = _rig()
    rig.lock.online = False
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify(n))
    rig.sched.run(until=2000)
    assert rig.agent.counters["action_failures"] == 1
    submitted = _submitted(rig)
    assert len(submitted) == 1
    body = SignedTransaction.from_wire(submitted[0]["tx"]).body
    assert body["result_status"] == -1
    assert body["event_log"]["log_sum"] == ""
    assert len(rig.log) == 0  # nothing executed, nothing logged


def test_every_action_runs_in_step_order_after_a_failed_one():
    rig = _rig()
    rig.lock.online = False
    rule = parse_rule(hr_rule(extra_actions=[["set_home_mode_operation", "hub-1", "OP_AND"]]))
    actions = rule.steps("action")
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify(n, actions=actions))
    rig.sched.run(until=2000)
    assert rig.agent.counters["action_failures"] == 1
    assert rig.agent.counters["actions_completed"] == 1
    assert rig.hub.actions_executed == 1 and rig.hub.state["mode"] == "home_mode"
    records = [SignedTransaction.from_wire(m["tx"]).body for m in _submitted(rig)]
    records.sort(key=lambda body: body["event_info"]["step_id"])
    assert [body["event_info"]["step_id"] for body in records] == [1, 2]  # T and T + 1
    assert [body["result_status"] for body in records] == [-1, 1]
    seqs = [body["event_info"]["event_seq"] for body in records]
    assert seqs == sorted(seqs) and seqs[0] < seqs[1]
    assert records[1]["event_log"]["log_sum"] == checksum({"mode": "home_mode"})


def test_gateway_results_without_a_fitting_payload_fail_the_step():
    rig = _rig()
    rig.agent.on_message("user", _register(hr_rule()))
    for result in ({"ok": True}, {"ok": True, "payload": {"heart_rate": "190"}}):
        rig.agent.run_trigger_cycle(rig.agent.triggers[0])
        rig.agent.on_message("gw", {"type": "rpc_result", "corr": rig.agent._corr, **result})
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify(n))
    rig.agent.on_message("gw", {"type": "rpc_result", "corr": rig.agent._corr,
                                "ok": True, "payload": "unlocked"})
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles_aborted"] == 2
    assert rig.agent.counters["device_unreachable"] == 0  # every device answered
    assert rig.agent.counters["events_submitted"] == 1  # the failure record of the action
    assert rig.agent.counters["action_failures"] == 1


def test_a_device_result_counts_only_from_the_gateway_that_was_called():
    rig = _rig()
    rig.watch.state["heart_rate"] = 72
    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.agent.on_message("node0", {"type": "rpc_result", "corr": rig.agent._corr, "ok": True,
                                   "payload": {"heart_rate": 250}})
    assert len(rig.agent.calls) == 1  # still waiting for the gateway
    rig.sched.run(until=2000)
    assert rig.agent.calls == {}
    assert rig.agent.counters["events_submitted"] == 0  # 72 is quiet: no rule ran
    assert rig.agent.counters["cycles_aborted"] == 0
    assert len(rig.log) == 1


def test_direct_commands_refused_while_ledger_is_on():
    rig = _rig()
    rig.agent.on_message("task", {"type": "exec_direct", "event_info": event_info()})
    rig.sched.run()
    assert rig.agent.counters["refused_direct"] == 1
    assert rig.lock.actions_executed == 0


def test_direct_commands_honored_in_bypass_mode():
    rig = _rig(ledger_enabled=False)
    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.on_message("task", {"type": "exec_direct", "event_info": event_info()})
    rig.agent.on_message("task", {"type": "exec_direct", "event_info": event_info()})
    rig.sched.run()
    assert rig.lock.actions_executed == 1  # consumed mark still dedups
    assert rig.agent.counters["refused_direct"] == 0
    assert rig.agent.counters["duplicate_notifies"] == 1


def test_a_direct_command_for_an_unregistered_rule_runs_nothing():
    rig = _rig(ledger_enabled=False)
    before = dict(rig.agent.counters)
    rig.agent.on_message("task", {"type": "exec_direct", "event_info": event_info()})
    rig.sched.run()
    assert rig.lock.actions_executed == 0 and rig.agent.calls == {}
    assert rig.agent.counters == before


def test_direct_commands_count_only_from_the_task_agent():
    rig = _rig(ledger_enabled=False)
    rig.agent.on_message("user", _register(hr_rule()))
    for src in ("mallory", "user", "node0"):
        rig.agent.on_message(src, {"type": "exec_direct", "event_info": event_info()})
    rig.sched.run()
    assert rig.lock.actions_executed == 0
    assert rig.agent.counters["malformed_dropped"] == 3
    rig.agent.on_message("task", {"type": "exec_direct", "event_info": event_info()})
    rig.sched.run()
    assert rig.lock.actions_executed == 1  # the forgeries marked nothing


def test_trigger_cycle_submits_event_with_logged_checksum():
    rig = _rig()
    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles"] == 1
    assert rig.agent.counters["events_submitted"] == 1
    submitted = _submitted(rig)
    body = SignedTransaction.from_wire(submitted[0]["tx"]).body
    info = body["event_info"]
    assert info == dict(BINDING, step_id=0, event_seq=1)
    assert body["task_ref"] == 1
    assert body["event_log"]["log_sum"] == checksum({"heart_rate": 190})
    assert rig.log.query_checksum(body["event_log"]["eid"],
                                  body["event_log"]["log_key"]) is not None


def test_quiet_reading_submits_nothing():
    rig = _rig()
    rig.watch.state["heart_rate"] = 72
    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles"] == 1
    assert rig.agent.counters["events_submitted"] == 0
    assert len(rig.log) == 1  # the reading itself was still logged


def test_offline_device_aborts_the_cycle():
    rig = _rig()
    rig.watch.online = False
    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles_aborted"] == 1
    assert rig.agent.counters["device_unreachable"] == 1
    assert rig.agent.counters["events_submitted"] == 0


def test_a_cycle_stops_at_its_first_unreachable_trigger_step():
    rig = _rig()
    rig.watch.online = False
    rule = dict(hr_rule(), trigger_operations=[["alert_on_heart_rate", "watch-1", "OP_AND"],
                                               ["check_presence_operation", "hub-1", "OP_AND"]])
    rig.agent.on_message("user", _register(rule))
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles_aborted"] == 1
    assert rig.agent.counters["device_unreachable"] == 1
    assert rig.agent._eid_counter == 1  # the hub's step never got log coordinates
    assert len(rig.log) == 0  # a hub read would have been logged
    assert rig.agent.counters["events_submitted"] == 0
    assert rig.agent.calls == {}


def test_push_trigger_reacts_only_to_its_devices():
    rig = _rig()
    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.on_message("dev/w", {"type": "device_push", "device_id": "watch-1"})
    rig.agent.on_message("dev/h", {"type": "device_push", "device_id": "hub-1"})
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles"] == 1

    # A polling agent ignores pushes entirely: its cycles are its two polls.
    quiet = _rig()
    quiet.agent.on_message("user", _register(hr_rule()))
    quiet.agent.start_polling(1000)
    quiet.agent.on_message("dev/w", {"type": "device_push", "device_id": "watch-1"})
    quiet.sched.run(until=2000)
    assert quiet.agent.counters["cycles"] == 2


def test_polling_schedule_covers_the_duration():
    rig = _rig()
    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.start_polling(2000)
    rig.sched.run(until=3000)
    assert rig.agent.counters["cycles"] == 4


def test_a_registration_counts_only_from_the_owners_console():
    rig = _rig()
    quiet = dict(hr_rule(), condition={"cmp": "ge", "field": "heart_rate", "value": 0})
    for src in ("mallory", "task", "node0", "exec"):
        rig.agent.on_message(src, _register(quiet))
    assert rig.agent.triggers == []
    assert rig.agent.counters["malformed_dropped"] == 4

    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.on_message("mallory", _register(quiet))  # cannot rewrite the owner's rule
    assert [t["rule"].to_dict() for t in rig.agent.triggers] == [hr_rule()]
    assert rig.agent.counters["malformed_dropped"] == 5


def test_a_second_registration_replaces_the_rule_and_keeps_the_binding():
    rig = _rig()
    rig.agent.on_message("user", _register(hr_rule()))
    first = rig.agent.triggers[0]
    rig.agent.run_trigger_cycle(first)  # in flight: the watch has not answered yet

    # The modified rule fires at 200 bpm or more, so the watch's 190 no longer does.
    modified = dict(hr_rule(title="renamed"),
                    condition={"cmp": "ge", "field": "heart_rate", "value": 200})
    rig.agent.on_message("user", _register(modified, dict(BINDING, usr_rule_id=202,
                                                          rule_name="renamed")))
    assert len(rig.agent.triggers) == 1
    assert rig.agent.triggers[0]["rule"].to_dict() == modified
    assert rig.agent.triggers[0]["binding"] == BINDING  # the ledger keeps the committed title
    assert first["rule"].to_dict() == hr_rule()  # replaced, not changed

    rig.sched.run(until=2000)  # the cycle in flight finishes under the rule it began with
    assert rig.agent.counters["events_submitted"] == 1
    body = SignedTransaction.from_wire(_submitted(rig)[0]["tx"]).body
    assert body["event_info"] == dict(BINDING, step_id=0, event_seq=1)

    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.sched.run(until=4000)
    assert rig.agent.counters["cycles"] == 2
    assert rig.agent.counters["events_submitted"] == 1  # 190 bpm is quiet for the new rule


def test_bypass_cycle_routes_final_step_to_task_agent():
    rig = _rig(ledger_enabled=False)
    task = Sink("task", rig.net)
    rig.agent.on_message("user", _register(hr_rule()))
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.sched.run(until=2000)
    assert rig.agent.counters["events_submitted"] == 0
    bypass = [m for _, _, m in task.inbox if m["type"] == "bypass_event"]
    assert len(bypass) == 1
    assert bypass[0]["event_info"]["step_id"] == 0


# ---------------------------------------------------------------------------
# task agent


def _task_rig(seed=5, **kwargs):
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(seed))
    nodes = [Sink(f"node{i}", net) for i in range(4)]
    platform = Sink("platform", net)
    agent = agents.TaskAgent("task", net, KeyPair.from_seed(2, "acct/task"),
                             [n.addr for n in nodes],
                             tamock_addr="platform", channel_token="chan-1",
                             exec_agent_addr="exec", **kwargs)
    return SimpleNamespace(sched=sched, net=net, nodes=nodes,
                           platform=platform, agent=agent)


def _notify_event(node, info=None, cid="c" * 32):
    return {"type": "notify_event", "node": node,
            "event_info": info or event_info(), "cid": cid}


def test_event_notification_forwards_once_with_retries():
    rig = _task_rig()
    rig.agent.on_message("node0", _notify_event(0))
    rig.sched.run()
    assert rig.platform.inbox == []  # below the f + 1 bar

    rig.agent.on_message("node1", _notify_event(1))
    rig.sched.run(until=1000)
    reqs = [m for _, _, m in rig.platform.inbox if m["type"] == "trigger_request"]
    assert len(reqs) == 1
    assert reqs[0]["event_info"] == event_info() and reqs[0]["cid"] == "c" * 32
    assert rig.agent.counters["trigger_requests_sent"] == 1

    # No ack: two more attempts at 2s and 6s, then silence.
    rig.sched.run()
    times = [t for t, _, m in rig.platform.inbox if m["type"] == "trigger_request"]
    assert len(times) == 3
    assert rig.agent.counters["trigger_requests_sent"] == 1  # one logical request

    rig.agent.on_message("node2", _notify_event(2))
    rig.agent.on_message("node3", _notify_event(3))
    rig.sched.run()
    assert len([m for _, _, m in rig.platform.inbox
                if m["type"] == "trigger_request"]) == 3


def test_acked_request_is_not_retried():
    rig = _task_rig()
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify_event(n))
    rig.sched.run(until=500)
    req_id = rig.platform.inbox[0][2]["req_id"]
    rig.agent.on_message("platform", {"type": "trigger_ack", "req_id": req_id})
    rig.sched.run()
    assert len(rig.platform.inbox) == 1
    assert rig.agent.pending_acks == set()


def test_a_trigger_ack_counts_only_from_the_platform():
    rig = _task_rig()
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify_event(n))
    rig.sched.run(until=500)
    rig.agent.on_message("mallory", {"type": "trigger_ack", "req_id": 1})
    rig.sched.run()
    assert len(rig.platform.inbox) == 3  # retried as if unacked
    assert rig.agent.counters["malformed_dropped"] == 1


def test_an_unacked_trigger_request_is_dropped_after_its_last_retry():
    rig = _task_rig()
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify_event(n))
    rig.sched.run(until=13_999)
    assert 1 in rig.agent.pending_acks  # the third try's 8 s wait has not ended
    rig.sched.run()
    assert len(rig.platform.inbox) == 3
    assert not rig.agent.pending_acks


def test_duplicate_event_marks_are_counted():
    rig = _task_rig()
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify_event(n))
    rig.sched.run(until=100)
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify_event(n, cid="d" * 32))
    rig.sched.run(until=200)
    assert rig.agent.counters["duplicate_notifies"] == 1
    assert len([m for _, _, m in rig.platform.inbox
                if m["type"] == "trigger_request"]) == 1


def test_repeated_bypass_event_is_a_counted_duplicate():
    rig = _task_rig(ledger_enabled=False)
    for _ in range(2):
        rig.agent.on_message("exec", {"type": "bypass_event", "event_info": event_info()})
    rig.sched.run(until=1000)
    reqs = [m for _, _, m in rig.platform.inbox if m["type"] == "trigger_request"]
    assert len(reqs) == 1
    assert rig.agent.counters["duplicate_notifies"] == 1


def test_a_bypass_event_is_refused_while_ledger_is_on():
    rig = _task_rig()
    rig.agent.on_message("exec", {"type": "bypass_event", "event_info": event_info()})
    rig.sched.run()
    assert rig.agent.counters["malformed_dropped"] == 1
    assert rig.agent.counters["trigger_requests_sent"] == 0 and rig.platform.inbox == []


def test_wrong_channel_token_is_rejected():
    rig = _task_rig()
    rig.agent.on_message("platform", {
        "type": "action_request", "req_id": 1, "channel_token": "stolen",
        "event_info": event_info(), "cid": "c" * 32})
    rig.sched.run(until=1000)
    assert rig.agent.counters["action_requests_received"] == 1
    assert rig.agent.counters["channel_rejects"] == 1
    submitted = _submitted(rig)
    assert submitted == []


def test_action_request_becomes_an_action_transaction():
    rig = _task_rig()
    rig.agent.on_message("platform", {
        "type": "action_request", "req_id": 7, "channel_token": "chan-1",
        "event_info": event_info(), "cid": "c" * 32})
    rig.sched.run(until=1000)
    submitted = _submitted(rig)
    assert len(submitted) == 1
    tx = submitted[0]["tx"]
    assert tx["kind"] == "action"
    body = SignedTransaction.from_wire(tx).body
    assert body["cid"] == "c" * 32
    assert body["event_info"] == event_info()


def test_malformed_platform_messages_are_dropped():
    rig = _task_rig(ledger_enabled=False)
    exec_sink = Sink("exec", rig.net)
    request = {"type": "action_request", "req_id": 7, "channel_token": "chan-1",
               "event_info": event_info(), "cid": ""}
    for broken in ({"event_info": {"rule_id": 1}}, {"cid": None}, {"req_id": [7]}):
        rig.agent.on_message("platform", {**request, **broken})
    rig.agent.on_message("platform", {"type": "trigger_ack", "req_id": [1]})
    rig.sched.run(until=1000)
    assert exec_sink.inbox == [] and rig.platform.inbox == []
    assert rig.agent.counters["action_requests_received"] == 0

    user = agents.UserAgent("user", rig.net, KeyPair.from_seed(3, "acct/user"),
                            [n.addr for n in rig.nodes], usr_id=1, tamock_addr="platform",
                            exec_agent_addr="exec")
    user.on_message("platform", {"type": "export_ok", "rule_id": [1]})
    assert user.export_acked == set()


def test_bypass_action_request_goes_straight_to_exec_agent():
    rig = _task_rig(ledger_enabled=False)
    exec_sink = Sink("exec", rig.net)
    rig.agent.on_message("platform", {
        "type": "action_request", "req_id": 7, "channel_token": "chan-1",
        "event_info": event_info(), "cid": ""})
    rig.sched.run(until=1000)
    direct = [m for _, _, m in exec_sink.inbox if m["type"] == "exec_direct"]
    assert len(direct) == 1
    results = [m for _, _, m in rig.platform.inbox if m["type"] == "action_result"]
    assert results == [{"type": "action_result", "req_id": 7,
                        "accepted": True, "code": None}]


# ---------------------------------------------------------------------------
# user agent export retry


def test_rule_export_retries_until_acked():
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(1))
    nodes = [Sink(f"node{i}", net) for i in range(4)]
    platform = Sink("platform", net)
    user = agents.UserAgent("user", net, KeyPair.from_seed(3, "acct/user"),
                            [n.addr for n in nodes], usr_id=1,
                            tamock_addr="platform", exec_agent_addr="exec")
    rule = parse_rule(hr_rule())
    user._export_rule(rule)
    sched.run(until=10_000)
    exports = [m for _, _, m in platform.inbox if m["type"] == "export_rule"]
    assert len(exports) == 5  # capped retry budget
    assert exports[0]["actions"] == ["open_door_operation"]

    acked = agents.UserAgent("user2", net, KeyPair.from_seed(3, "acct/user2"),
                             [n.addr for n in nodes], usr_id=1,
                             tamock_addr="platform", exec_agent_addr="exec")
    platform.inbox.clear()
    acked._export_rule(rule)
    acked.on_message("platform", {"type": "export_ok", "rule_id": rule.rule_id})
    sched.run()
    assert len([m for _, _, m in platform.inbox if m["type"] == "export_rule"]) == 1


def test_an_export_ack_counts_only_from_the_platform():
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(1))
    nodes = [Sink(f"node{i}", net) for i in range(4)]
    platform = Sink("platform", net)
    user = agents.UserAgent("user", net, KeyPair.from_seed(3, "acct/user"),
                            [n.addr for n in nodes], usr_id=1, tamock_addr="platform",
                            exec_agent_addr="exec")
    rule = parse_rule(hr_rule())
    user._export_rule(rule)
    user.on_message("mallory", {"type": "export_ok", "rule_id": rule.rule_id})
    sched.run()
    assert user.export_acked == set() and user.counters["malformed_dropped"] == 1
    assert len([m for _, _, m in platform.inbox if m["type"] == "export_rule"]) == 5


def test_a_later_export_of_an_acked_rule_is_retried_until_acked():
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(1))
    nodes = [Sink(f"node{i}", net) for i in range(4)]
    platform = Sink("platform", net)
    user = agents.UserAgent("user", net, KeyPair.from_seed(3, "acct/user"),
                            [n.addr for n in nodes], usr_id=1, tamock_addr="platform",
                            exec_agent_addr="exec")
    rule = parse_rule(hr_rule())
    user._export_rule(rule)  # the commit's export, acked at once
    user.on_message("platform", {"type": "export_ok", "rule_id": rule.rule_id})
    sched.run()
    platform.inbox.clear()
    user._export_rule(rule)  # a modify's export: the old ack does not answer it
    sched.run()
    assert len([m for _, _, m in platform.inbox if m["type"] == "export_rule"]) == 5


# ---------------------------------------------------------------------------
# ledger client receipts


def test_receipts_count_by_sender_address_and_shape():
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(4))
    nodes = [Sink(f"node{i}", net) for i in range(4)]
    owner = ClientProcess("owner", net, [n.addr for n in nodes], 1)
    client = owner.client
    tx = build_tx("config", {"action": "bind_device"}, KeyPair.from_seed(4, "acct/x"), 1)
    client.submit(tx)
    receipt = {"type": "receipt", "tx_id": tx.tx_id, "accepted": True, "code": None,
               "height": 1}
    for src in ("mallory", "eve"):
        owner.on_message(src, receipt)
    for broken in ({"code": ["x"]}, {"tx_id": [tx.tx_id]}, {"accepted": 1}, {"height": "1"}):
        owner.on_message("node0", {**receipt, **broken})
        owner.on_message("node1", {**receipt, **broken})
    assert client.resolved == {} and owner.counters["malformed_dropped"] == 8

    owner.on_message("node2", receipt)
    owner.on_message("node3", receipt)
    assert client.resolved[tx.tx_id].accepted

    refused = build_tx("config", {"action": "bind_device"}, KeyPair.from_seed(4, "acct/x"), 2)
    client.submit(refused)
    sched.run(until=100)
    for src in ("node0", "node1"):
        owner.on_message(src, {**receipt, "tx_id": refused.tx_id, "accepted": False,
                               "code": "Unauthorized", "height": None})
    assert not client.resolved[refused.tx_id].accepted
    assert client.latencies_ms == [0]  # the accepted tx's alone


def _user_rig():
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(1))
    nodes = [Sink(f"node{i}", net) for i in range(4)]
    platform, exec_sink = Sink("platform", net), Sink("exec", net)
    user = agents.UserAgent("user", net, KeyPair.from_seed(3, "acct/user"),
                            [n.addr for n in nodes], usr_id=1, tamock_addr="platform",
                            exec_agent_addr="exec")
    return SimpleNamespace(sched=sched, platform=platform, exec=exec_sink, user=user)


def test_a_rule_reaches_the_platform_and_the_exec_agent_only_once_accepted():
    rule = parse_rule(hr_rule())
    for accepted, code in ((False, "Unauthorized"), (True, None)):
        rig = _user_rig()
        tid = rig.user.commit_rule(rule, 101)
        rig.sched.run(until=100)
        for src in ("node0", "node1"):
            rig.user.on_message(src, {"type": "receipt", "tx_id": tid, "accepted": accepted,
                                      "code": code, "height": 1 if accepted else None})
        rig.sched.run(until=1000)
        assert rig.user.client.resolved[tid].accepted is accepted
        exports = [m for _, _, m in rig.platform.inbox if m["type"] == "export_rule"]
        registered = [m for _, _, m in rig.exec.inbox if m["type"] == "register_trigger"]
        assert len(exports) == len(registered) == int(accepted)
