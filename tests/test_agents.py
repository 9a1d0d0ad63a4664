"""Wallet-agent behavior in isolation: quorum gating, log-key minting,
trigger cycles, and the refusal paths.

Ledger nodes are replaced with sink processes here; notification handling
is driven by hand-built messages so each property is tested without a
consensus run behind it.  Full-stack behavior lives in the harness tests.
"""

import random
from types import SimpleNamespace

from conftest import BINDING, ClientProcess, event_info, hr_rule
from ruledger import agents, devices
from ruledger.canonical import sha256_hex
from ruledger.devices import checksum
from ruledger.keys import KeyPair
from ruledger.ledger.tx import SignedTransaction, build_tx
from ruledger.rules import parse_rule
from ruledger.sim.network import NetConfig, Network, Process
from ruledger.sim.scheduler import Scheduler


class Sink(Process):
    def __init__(self, addr, net):
        super().__init__(addr, net)
        self.inbox = []

    def on_message(self, src, msg):
        self.inbox.append((self.net.scheduler.now, src, msg))


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


def _rig(seed=3, **exec_kwargs):
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(seed))
    log = devices.LogService()
    nodes = [Sink(f"node{i}", net) for i in range(4)]
    gw = devices.Gateway("gw", net, "vend")
    watch = devices.Device("dev/w", net, "watch-1", "heart_rate", "vend", log,
                           initial={"heart_rate": 190})
    lock = devices.Device("dev/l", net, "lock-1", "smart_lock", "vend", log,
                          initial={"lock": "locked"})
    agent = agents.ExecutionAgent(
        "exec", net, KeyPair.from_seed(1, "acct/exec"),
        [n.addr for n in nodes], random.Random(seed + 1), **exec_kwargs)
    agent.add_device_route("watch-1", gw.addr, gw.register_device(watch))
    agent.add_device_route("lock-1", gw.addr, gw.register_device(lock))
    return SimpleNamespace(sched=sched, net=net, log=log, nodes=nodes,
                           watch=watch, lock=lock, agent=agent)


def test_gen_log_key_mints_unique_tracked_pairs():
    rig = _rig()
    pairs = [rig.agent.gen_log_key() for _ in range(200)]
    assert len(set(pairs)) == 200
    assert all(len(e) == 32 and len(k) == 32 for e, k in pairs)
    assert set(pairs) == rig.agent.minted
    # eids are a deterministic label sequence, keys come from the agent rng
    assert pairs[0][0] == sha256_hex(b"eid/exec/1")[:32]
    assert pairs[0][1] == random.Random(4).randbytes(16).hex()


def test_gen_log_key_differs_across_labels():
    a = _rig(seed=3).agent
    b = _rig(seed=3, label="exec2").agent
    assert a.gen_log_key()[0] != b.gen_log_key()[0]


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
    assert (body["event_log"]["eid"], body["event_log"]["log_key"]) in rig.agent.minted
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


def test_gateway_results_without_a_fitting_payload_fail_the_step():
    rig = _rig()
    rig.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "poll"})
    for result in ({"ok": True}, {"ok": True, "payload": {"heart_rate": "190"}}):
        rig.agent.run_trigger_cycle(rig.agent.triggers[0])
        rig.agent.on_message("gw", {"type": "rpc_result", "corr": rig.agent._corr, **result})
    for n in (0, 1):
        rig.agent.on_message(f"node{n}", _notify(n))
    rig.agent.on_message("gw", {"type": "rpc_result", "corr": rig.agent._corr,
                                "ok": True, "payload": "unlocked"})
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles_aborted"] == 2
    assert rig.agent.counters["events_submitted"] == 1  # the failure record of the action
    assert rig.agent.counters["action_failures"] == 1


def test_a_device_result_counts_only_from_the_gateway_that_was_called():
    rig = _rig()
    rig.watch.state["heart_rate"] = 72
    rig.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "poll"})
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.agent.on_message("node0", {"type": "rpc_result", "corr": rig.agent._corr, "ok": True,
                                   "payload": {"heart_rate": 250}})
    assert len(rig.agent._pending_rpc) == 1  # still waiting for the gateway
    rig.sched.run(until=2000)
    assert rig.agent._pending_rpc == {}
    assert rig.agent.counters["events_submitted"] == 0  # 72 is quiet: no rule ran
    assert rig.agent.counters["cycles_aborted"] == 0
    assert len(rig.log) == 1


def test_direct_commands_refused_while_ledger_is_on():
    rig = _rig()
    rig.agent.on_message("anyone", {"type": "exec_direct", "event_info": event_info()})
    rig.sched.run()
    assert rig.agent.counters["refused_direct"] == 1
    assert rig.lock.actions_executed == 0


def test_direct_commands_honored_in_bypass_mode():
    rig = _rig(ledger_enabled=False)
    rig.agent.on_message("task", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "poll"})
    rig.agent.on_message("task", {"type": "exec_direct", "event_info": event_info()})
    rig.agent.on_message("task", {"type": "exec_direct", "event_info": event_info()})
    rig.sched.run()
    assert rig.lock.actions_executed == 1  # consumed mark still dedups
    assert rig.agent.counters["refused_direct"] == 0
    assert rig.agent.counters["duplicate_notifies"] == 1


def test_trigger_cycle_submits_event_with_logged_checksum():
    rig = _rig()
    rig.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "poll"})
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
    rig.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "poll"})
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles"] == 1
    assert rig.agent.counters["events_submitted"] == 0
    assert len(rig.log) == 1  # the reading itself was still logged


def test_offline_device_aborts_the_cycle():
    rig = _rig()
    rig.watch.online = False
    rig.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "poll"})
    rig.agent.run_trigger_cycle(rig.agent.triggers[0])
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles_aborted"] == 1
    assert rig.agent.counters["device_unreachable"] == 1
    assert rig.agent.counters["events_submitted"] == 0


def test_push_trigger_reacts_only_to_its_devices():
    rig = _rig()
    rig.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "push"})
    rig.agent.on_message("dev", {"type": "device_push", "device_id": "watch-1"})
    rig.agent.on_message("dev", {"type": "device_push", "device_id": "thermo-9"})
    rig.sched.run(until=2000)
    assert rig.agent.counters["cycles"] == 1

    # A poll-mode registration ignores pushes entirely.
    quiet = _rig()
    quiet.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                    "binding": BINDING, "mode": "poll"})
    quiet.agent.on_message("dev", {"type": "device_push", "device_id": "watch-1"})
    quiet.sched.run(until=2000)
    assert quiet.agent.counters["cycles"] == 0


def test_polling_schedule_covers_the_duration():
    rig = _rig()
    rig.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "poll"})
    rig.agent.start_polling(2000)
    rig.sched.run(until=3000)
    assert rig.agent.counters["cycles"] == 4


def test_bypass_cycle_routes_final_step_to_task_agent():
    rig = _rig(ledger_enabled=False, task_agent_addr="task")
    task = Sink("task", rig.net)
    rig.agent.on_message("user", {"type": "register_trigger", "rule": hr_rule(),
                                  "binding": BINDING, "mode": "poll"})
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
                             tamock_addr="platform", channel_token="chan-1", **kwargs)
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
    assert rig.agent.pending_acks == {}


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
    rig = _task_rig(ledger_enabled=False, exec_agent_addr="exec")
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
                            [n.addr for n in rig.nodes], usr_id=1)
    user.on_message("platform", {"type": "export_ok", "rule_id": [1]})
    assert user.export_acked == set()


def test_bypass_action_request_goes_straight_to_exec_agent():
    rig = _task_rig(ledger_enabled=False, exec_agent_addr="exec")
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
                            tamock_addr="platform")
    rule = parse_rule(hr_rule())
    user._export_rule(rule)
    sched.run(until=10_000)
    exports = [m for _, _, m in platform.inbox if m["type"] == "export_rule"]
    assert len(exports) == 5  # capped retry budget
    assert exports[0]["actions"] == ["open_door_operation"]

    acked = agents.UserAgent("user2", net, KeyPair.from_seed(3, "acct/user2"),
                             [n.addr for n in nodes], usr_id=1,
                             tamock_addr="platform")
    platform.inbox.clear()
    acked._export_rule(rule)
    acked.on_message("platform", {"type": "export_ok", "rule_id": rule.rule_id})
    sched.run()
    assert len([m for _, _, m in platform.inbox if m["type"] == "export_rule"]) == 1


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
