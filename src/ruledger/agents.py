"""Wallet agents: the user's console, the execution agent, and the task agent.

These are the only holders of signing keys.  Each one wraps a ledger
client for submissions and reacts to node notifications.  It acts on the
ledger's word, a receipt or a notification, only through the one f + 1 rule,
`LedgerClient.heard` in `ledger.client`: a notification counts once f + 1
node addresses sent the same content, so a minority of lying nodes, or
anyone else, cannot steer an agent.  No agent is told f: it derives from the
agent's node list by the one fault bound, `ledger.node.max_faulty`.  An
event, named by its (rule_id, event_seq), is then acted on at most once
(`AgentBase._first`).
Each agent declares the shape of every message it handles in `MESSAGES`,
and the sender of each one that only one party sends, such as an ack, a
device push or a bypass hand-off; the boundary every process shares (see
`sim.Process`) checks both before a handler reads the message, and drops a
message from anyone else as malformed.

Each decision is made in one place: a message sent until it is answered
goes through `Process.resend`, with its waits fixed at the call site; a
device call is matched to its result through `Process.call`; an accepted
rule, committed or modified, reaches the platform and the execution agent
through `UserAgent._submit_rule`; step ids come from `RuleDefinition.steps`;
a rule's steps call their devices through `ExecutionAgent._call_steps`; an
event body comes from `contracts.event_body`.
"""

from __future__ import annotations

from .canonical import (digest_hex, is_int, is_str, list_of, message, object_of, one_of,
                        sha256_hex, with_fields)
from .contracts import BINDING, EVENT_INFO, RES_ERR, RES_OK, event_body
from .devices import RPC_RESULT, checksum
from .keys import KeyPair
from .ledger.client import RECEIPT, LedgerClient, QuorumGate  # noqa: F401 (re-exported)
from .ledger.tx import KIND_ACTION, KIND_CONFIG, KIND_EVENT, KIND_RULE_COMMIT, build_tx
from .rules import CATALOG, RuleDefinition, evaluate_trigger, is_rule
from .sim.network import Process, sent_by

POLL_INTERVAL_MS = 500  # a poll-mode trigger runs once per interval

_ACTIONS = list_of(object_of(step_id=is_int, op_name=one_of(*CATALOG), device_id=is_str))


class AgentBase(Process):
    MESSAGES = {"receipt": (RECEIPT, "_on_receipt")}

    def __init__(self, addr, net, keypair: KeyPair, node_addrs):
        super().__init__(addr, net)
        self.keypair = keypair
        self.client = LedgerClient(self, node_addrs)
        self.gate = self.client.new_gate()  # for notifications
        self.marks: set[tuple] = set()  # the (rule_id, event_seq) of events acted on
        self.counters["duplicate_notifies"] = 0  # counted by _first
        self._nonce = 0

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce

    def submit(self, kind, payload, cb=None) -> str:
        tx = build_tx(kind, payload, self.keypair, self.next_nonce())
        return self.client.submit(tx, cb)

    def _on_receipt(self, src, msg):
        self.client.on_receipt(src, msg)

    def _first(self, info: dict) -> bool:
        """Record the event once; a repeat counts as a duplicate notify."""
        mark = (info["rule_id"], info["event_seq"])
        if mark in self.marks:
            self.counters["duplicate_notifies"] += 1
            return False
        self.marks.add(mark)
        return True


class UserAgent(AgentBase):
    """The rule owner's console: commits rules, wires up the other parties."""

    MESSAGES = {**AgentBase.MESSAGES, "export_ok": (
        with_fields(type=one_of("export_ok"), rule_id=is_int), "_on_export_ok",
        sent_by("tamock_addr"))}

    def __init__(self, addr, net, keypair, node_addrs, usr_id, tamock_addr, exec_agent_addr):
        super().__init__(addr, net, keypair, node_addrs)
        self.usr_id = usr_id
        self.tamock_addr = tamock_addr
        self.exec_agent_addr = exec_agent_addr
        self.export_acked: set[int] = set()  # rules whose latest export the platform acked

    def commit_rule(self, rule: RuleDefinition, usr_rule_id: int) -> str:
        return self._submit_rule("commit_rule", rule, usr_rule_id)

    def modify_rule(self, rule: RuleDefinition, usr_rule_id: int) -> str:
        return self._submit_rule("modify_rule", rule, usr_rule_id)

    def _submit_rule(self, action, rule, usr_rule_id) -> str:
        """Submit the rule; once accepted, a commit and a modify alike, export
        it to the platform and register it with the execution agent: the one
        hand-off of a rule."""
        payload = {
            "action": action,
            "usr_rule_id": usr_rule_id,
            "usr_id": self.usr_id,
            "rule": rule.to_dict(),
        }

        def after(receipt):
            if receipt.accepted:
                self._export_rule(rule)
                self._register_trigger(rule, usr_rule_id)

        return self.submit(KIND_RULE_COMMIT, payload, after)

    def manage_accounts(self, entries) -> str:
        return self.submit(KIND_CONFIG, {"action": "manage_accounts", "entries": entries})

    def bind_device(self, device_id, vendor, usr_id) -> str:
        payload = {"action": "bind_device", "device_id": device_id,
                   "vendor": vendor, "usr_id": usr_id}
        return self.submit(KIND_CONFIG, payload)

    def _export_rule(self, rule: RuleDefinition) -> None:
        # The platform mock only needs the action list to route requests.
        msg = {
            "type": "export_rule",
            "rule_id": rule.rule_id,
            "title": rule.title,
            "actions": [op for op, _dev, _comb in rule.action_operations],
        }
        self.export_acked.discard(rule.rule_id)  # an earlier export's ack does not answer this one
        self.resend(lambda: self.send(self.tamock_addr, msg), [1500] * 5,
                    lambda: rule.rule_id in self.export_acked)

    def _register_trigger(self, rule, usr_rule_id) -> None:
        self.send(self.exec_agent_addr, {"type": "register_trigger", "rule": rule.to_dict(),
                                         "binding": rule.binding(usr_rule_id, self.usr_id)})

    def _on_export_ok(self, src, msg):
        self.export_acked.add(msg["rule_id"])


class ExecutionAgent(AgentBase):
    """Runs trigger cycles against devices and executes authorized actions.

    Runs one trigger per rule id, as registered by the rule owner's console
    (`owner_addr`) alone.  A trigger runs on each poll tick once
    `start_polling` has marked the agent as polling, and otherwise on each
    push from one of its trigger devices, sent by that device itself: a
    polling agent takes no pushes.

    Holds the vendor tokens.  A trigger cycle and an action run call their
    steps' devices through one loop, `_call_steps`, which mints a fresh
    (eid, log_key) pair before each call, so the device's log write is bound
    to this attempt before any transaction cites it.  A trigger cycle stops
    at its first step without a usable payload; an action run goes on
    through every action and records each one.  Action commands are only
    honored when they arrive as ledger notifications from f + 1 nodes;
    direct commands, from the task agent alone, are refused unless the
    ledger is disabled for a baseline measurement.
    """

    MESSAGES = {
        **AgentBase.MESSAGES,
        "register_trigger": (message("register_trigger", rule=is_rule,
                                     binding=object_of(**BINDING)), "_on_register_trigger",
                             sent_by("owner_addr")),
        "device_push": (message("device_push", device_id=is_str), "_on_device_push",
                        lambda agent, msg: agent.device_addrs.get(msg["device_id"])),
        "notify_actions": (with_fields(type=one_of("notify_actions"), event_info=EVENT_INFO,
                                       actions=_ACTIONS), "_on_notify_actions"),
        "exec_direct": (message("exec_direct", event_info=EVENT_INFO), "_on_exec_direct",
                        sent_by("task_agent_addr")),
        "rpc_result": (RPC_RESULT, "answered"),
    }

    def __init__(self, addr, net, keypair, node_addrs, rng, owner_addr, task_agent_addr,
                 record_actions=True, ledger_enabled=True):
        super().__init__(addr, net, keypair, node_addrs)
        self.rng = rng
        self.owner_addr = owner_addr  # the rule owner's console, the one registrar
        self.record_actions = record_actions
        self.ledger_enabled = ledger_enabled
        self.task_agent_addr = task_agent_addr
        self.device_routes: dict[str, tuple[str, str]] = {}  # device -> (gateway, token)
        self.device_addrs: dict[str, str] = {}  # device -> its address, its pushes' one sender
        self.triggers: list[dict] = []  # {rule, binding}, one per rule id
        self.polling = False  # set by start_polling; a polling agent takes no pushes
        self._eid_counter = 0
        self._seq: dict[int, int] = {}
        self._cycle_start: dict[tuple, int] = {}
        self.e2e_ms: list[int] = []
        self.counters.update({
            "cycles": 0,
            "cycles_aborted": 0,
            "device_unreachable": 0,
            "events_submitted": 0,
            "actions_completed": 0,
            "action_failures": 0,
            "refused_direct": 0,
        })

    def add_device_route(self, device_id: str, gateway_addr: str, token: str,
                         device_addr: str) -> None:
        self.device_routes[device_id] = (gateway_addr, token)
        self.device_addrs[device_id] = device_addr

    def gen_log_key(self) -> tuple[str, str]:
        """Fresh per-attempt log coordinates: deterministic unique eid plus
        a random log key the device files the checksum under."""
        self._eid_counter += 1
        return (sha256_hex(f"eid/{self.addr}/{self._eid_counter}".encode())[:32],
                self.rng.randbytes(16).hex())

    def next_seq(self, rule_id: int) -> int:
        self._seq[rule_id] = self._seq.get(rule_id, 0) + 1
        return self._seq[rule_id]

    def start_polling(self, duration_ms: int) -> None:
        self.polling = True
        for k in range(1, duration_ms // POLL_INTERVAL_MS + 1):
            self.net.scheduler.schedule(k * POLL_INTERVAL_MS, self._poll_tick)

    def _poll_tick(self) -> None:
        for trig in self.triggers:
            self.run_trigger_cycle(trig)

    def _on_register_trigger(self, src, msg):
        rule = RuleDefinition(**msg["rule"])  # MESSAGES' is_rule has checked it
        # A rule id already run keeps its binding, as a modify rewrites only the
        # ledger's definition, and gets a new entry, not a changed one, so a
        # cycle in flight finishes under the rule it started with.
        i = next((i for i, t in enumerate(self.triggers) if t["rule"].rule_id == rule.rule_id),
                 None)
        if i is None:
            self.triggers.append({"rule": rule, "binding": msg["binding"]})
        else:
            self.triggers[i] = {"rule": rule, "binding": self.triggers[i]["binding"]}

    def _on_device_push(self, src, msg):
        for trig in self.triggers:
            devices = [dev for _op, dev, _c in trig["rule"].trigger_operations]
            if not self.polling and msg["device_id"] in devices:
                self.run_trigger_cycle(trig)

    # ------------------------------------------------------------------
    # trigger side

    def run_trigger_cycle(self, trig: dict) -> None:
        self.counters["cycles"] += 1
        t0 = self.net.scheduler.now
        called = []  # (step, eid, log_key, payload, hit) per step answered

        def on_result(step, eid, log_key, result) -> bool:
            op = CATALOG[step["op_name"]]
            payload = result.get("payload")
            if not (result["ok"] and op.reads(payload)):
                self.counters["cycles_aborted"] += 1
                if result.get("error") == "DeviceOffline":
                    self.counters["device_unreachable"] += 1
                return False
            called.append((step, eid, log_key, payload, bool(op.predicate(payload))))
            return True

        self._call_steps(trig["rule"].steps("trigger"), on_result,
                         lambda: self._finish_cycle(trig, called, t0))

    def _finish_cycle(self, trig, called, t0) -> None:
        rule: RuleDefinition = trig["rule"]
        results = [hit for (_s, _e, _k, _p, hit) in called]
        if not evaluate_trigger(rule, results, called[0][3]):
            return
        infos = [{**trig["binding"], "step_id": step["step_id"],
                  "event_seq": self.next_seq(rule.rule_id)} for step, *_ in called]
        task_ref = infos[-1]["event_seq"]
        self._cycle_start[(rule.rule_id, task_ref)] = t0
        if not self.ledger_enabled:  # only the final trigger step's event goes on
            self.send(self.task_agent_addr, {"type": "bypass_event", "event_info": infos[-1]})
            return
        for info, (_step, eid, log_key, payload, _hit) in zip(infos, called):
            self._submit_event(event_body(info, eid, log_key, checksum(payload), task_ref))

    # ------------------------------------------------------------------
    # action side

    def _on_notify_actions(self, src, msg) -> None:
        info, actions = msg["event_info"], msg["actions"]
        key = digest_hex({"event_info": info, "actions": actions})
        if self.client.heard(self.gate, src, key) and self._first(info):
            self._exec_actions(info, actions)

    def _on_exec_direct(self, src, msg) -> None:
        if self.ledger_enabled:
            self.counters["refused_direct"] += 1
            return
        info = msg["event_info"]
        if not self._first(info):
            return
        trig = next((t for t in self.triggers
                     if t["binding"]["rule_id"] == info["rule_id"]), None)
        if trig is None:
            return
        self._exec_actions(info, trig["rule"].steps("action"))

    def _exec_actions(self, info, actions) -> None:
        """Run every action, failed or not, and record each one; the cycle's
        e2e sample is taken after the last."""

        def on_result(action, eid, log_key, result) -> bool:
            ok = result["ok"] and type(result.get("payload")) is dict
            self.counters["actions_completed" if ok else "action_failures"] += 1
            if self.record_actions and self.ledger_enabled:
                # A failed execution still leaves a signed failure record; nothing
                # ran on the device, so there is no log entry to check against.
                # info is an EVENT_INFO, so its other four fields are the rule's binding.
                record = {**info, "step_id": action["step_id"],
                          "event_seq": self.next_seq(info["rule_id"])}
                self._submit_event(event_body(record, eid, log_key,
                                              checksum(result["payload"]) if ok else "",
                                              info["event_seq"], RES_OK if ok else RES_ERR))
            return True

        def finish() -> None:
            t0 = self._cycle_start.pop((info["rule_id"], info["event_seq"]), None)
            if t0 is not None:
                self.e2e_ms.append(self.net.scheduler.now - t0)

        self._call_steps(actions, on_result, finish)

    def _call_steps(self, steps, on_result, finish) -> None:
        """Call each step's device in turn, under fresh log coordinates, while
        on_result(step, eid, log_key, result) returns true; run finish after
        the last step."""
        if not steps:
            finish()
            return
        step = steps[0]
        eid, log_key = self.gen_log_key()

        def done(result):
            if on_result(step, eid, log_key, result):
                self._call_steps(steps[1:], on_result, finish)

        device_id = step["device_id"]
        if device_id not in self.device_routes:  # answered as a gateway answers
            done({"ok": False, "error": "UnknownDevice"})
            return
        gateway_addr, token = self.device_routes[device_id]
        self.call(gateway_addr, {"type": "rpc_call", "token": token, "device_id": device_id,
                                 "api": CATALOG[step["op_name"]].api, "eid": eid,
                                 "log_key": log_key}, done)

    def _submit_event(self, body: dict) -> None:
        self.counters["events_submitted"] += 1
        self.submit(KIND_EVENT, body)


class TaskAgent(AgentBase):
    """Bridges committed trigger events to the rule platform and turns the
    platform's action requests into action transactions.  It never inspects
    or enforces anything itself: the ledger contract is the gatekeeper."""

    MESSAGES = {
        **AgentBase.MESSAGES,
        "notify_event": (with_fields(type=one_of("notify_event"), event_info=EVENT_INFO,
                                     cid=is_str), "_on_notify_event"),
        # Only a bypass run hands events on this way; in a ledger run nobody may.
        "bypass_event": (message("bypass_event", event_info=EVENT_INFO), "_on_bypass_event",
                         lambda agent, _msg: None if agent.ledger_enabled
                         else agent.exec_agent_addr),
        "action_request": (with_fields(type=one_of("action_request"), req_id=is_int,
                                       channel_token=is_str, event_info=EVENT_INFO, cid=is_str),
                           "_on_action_request"),
        "trigger_ack": (with_fields(type=one_of("trigger_ack"), req_id=is_int), "_on_trigger_ack",
                        sent_by("tamock_addr")),
    }

    def __init__(self, addr, net, keypair, node_addrs, tamock_addr, channel_token,
                 exec_agent_addr, ledger_enabled=True):
        super().__init__(addr, net, keypair, node_addrs)
        self.tamock_addr = tamock_addr
        self.channel_token = channel_token
        self.ledger_enabled = ledger_enabled
        self.exec_agent_addr = exec_agent_addr
        self.pending_acks: set[int] = set()  # trigger requests sent, not yet acked
        self._req = 0
        self.counters.update({
            "trigger_requests_sent": 0,
            "action_requests_received": 0,
            "channel_rejects": 0,
        })

    def _on_trigger_ack(self, src, msg) -> None:
        self.pending_acks.discard(msg["req_id"])

    def _on_notify_event(self, src, msg) -> None:
        info, cid = msg["event_info"], msg["cid"]
        key = digest_hex({"event_info": info, "cid": cid})
        if self.client.heard(self.gate, src, key) and self._first(info):
            self._send_trigger_request(info, cid)

    def _on_bypass_event(self, src, msg) -> None:
        if self._first(msg["event_info"]):
            self._send_trigger_request(msg["event_info"], "")

    def _send_trigger_request(self, info, cid) -> None:
        self._req += 1
        req_id = self._req
        msg = {"type": "trigger_request", "req_id": req_id,
               "event_info": info, "cid": cid}
        self.pending_acks.add(req_id)
        self.counters["trigger_requests_sent"] += 1
        self.resend(lambda: self.send(self.tamock_addr, msg), [2000, 4000, 8000],
                    lambda: req_id not in self.pending_acks,
                    lambda: self.pending_acks.discard(req_id))

    def _on_action_request(self, src, msg) -> None:
        self.counters["action_requests_received"] += 1
        if msg["channel_token"] != self.channel_token:
            self.counters["channel_rejects"] += 1
            return
        info, cid, req_id = msg["event_info"], msg["cid"], msg["req_id"]
        if not self.ledger_enabled:
            self.send(self.exec_agent_addr, {"type": "exec_direct", "event_info": info})
            self.send(src, {"type": "action_result", "req_id": req_id,
                            "accepted": True, "code": None})
            return

        def done(receipt):
            self.send(src, {"type": "action_result", "req_id": req_id,
                            "accepted": receipt.accepted, "code": receipt.code})

        self.submit(KIND_ACTION, {"event_info": info, "cid": cid}, done)
