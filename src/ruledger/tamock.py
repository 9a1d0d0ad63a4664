"""Mock of the cloud rule platform the task agent talks to.

The real platform is a black box that receives trigger notifications and
asks for actions to run.  This mock implements that request/ack protocol
honestly.  It takes a rule export only from the rule owner's console, and a
trigger request or an action result only from the task agent.  A compromised
platform is one whose `emit` an attack calls with forged requests
(`harness.attacks`), after reading what the platform saw in `requests`.
"""

from __future__ import annotations

from .canonical import is_int, is_str, list_of, message, one_of, or_none, with_fields
from .contracts import EVENT_INFO
from .sim.network import Process, sent_by


class TriggerActionMock(Process):
    MESSAGES = {
        "export_rule": (message("export_rule", rule_id=is_int, title=is_str,
                                actions=list_of(is_str)), "_on_export", sent_by("owner_addr")),
        "trigger_request": (with_fields(type=one_of("trigger_request"), req_id=is_int,
                                        event_info=EVENT_INFO, cid=is_str), "_on_trigger",
                            sent_by("task_agent_addr")),
        "action_result": (message("action_result", req_id=is_int, accepted=one_of(True, False),
                                  code=or_none(is_str)), "_on_action_result",
                          sent_by("task_agent_addr")),
    }

    def __init__(self, addr, net, owner_addr, task_agent_addr, channel_token):
        super().__init__(addr, net)
        self.task_agent_addr = task_agent_addr
        self.channel_token = channel_token
        self.owner_addr = owner_addr  # the one console whose rule exports count
        self.exported: dict[int, dict] = {}
        self.outcomes: list[dict] = []
        # trigger req_id -> (event_info, cid): what the platform saw, and its retry dedup
        self.requests: dict[int, tuple[dict, str]] = {}
        self._forged: set[int] = set()
        self._req = 0
        self.counters.update({
            "trigger_requests": 0,
            "action_requests_emitted": 0,
            "forged_emitted": 0,
            "unknown_rule": 0,
        })

    def _on_export(self, src, msg) -> None:
        self.exported[msg["rule_id"]] = {"title": msg["title"], "actions": msg["actions"]}
        self.send(src, {"type": "export_ok", "rule_id": msg["rule_id"]})

    def _on_action_result(self, src, msg) -> None:
        self.outcomes.append({
            "req_id": msg["req_id"],
            "accepted": msg["accepted"],
            "code": msg["code"],
            "forged": msg["req_id"] in self._forged,
        })

    def _on_trigger(self, src, msg) -> None:
        # Ack first so the task agent stops retrying, then dedup: a retry of
        # an already-handled request must not double-fire actions.
        self.send(src, {"type": "trigger_ack", "req_id": msg["req_id"]})
        if msg["req_id"] in self.requests:
            return
        info, cid = msg["event_info"], msg["cid"]
        self.requests[msg["req_id"]] = (info, cid)
        self.counters["trigger_requests"] += 1
        if info["rule_id"] not in self.exported:
            self.counters["unknown_rule"] += 1
            return
        # One request per action in the rule.  The ledger consumes the event
        # on the first accepted one and authorizes the whole action list, so
        # for single-action rules this is exactly one round trip.
        for idx in range(len(self.exported[info["rule_id"]]["actions"])):
            self.emit(info, cid, idx)

    def emit(self, info, cid, action_index: int, forged: bool = False) -> None:
        """Send the task agent an action request under a fresh req_id;
        `forged` tags it, and its outcome, as one the platform had no
        trigger for."""
        self._req += 1
        if forged:
            self._forged.add(self._req)
            self.counters["forged_emitted"] += 1
        else:
            self.counters["action_requests_emitted"] += 1
        self.send(self.task_agent_addr, {
            "type": "action_request",
            "req_id": self._req,
            "event_info": info,
            "cid": cid,
            "action_index": action_index,
            "channel_token": self.channel_token,
        })
