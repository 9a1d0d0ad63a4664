"""Mock of the cloud rule platform the task agent talks to.

The real platform is a black box that receives trigger notifications and
asks for actions to run.  This mock implements that request/ack protocol
honestly, plus three adversarial behaviors the attack harness uses: forging
action requests, replaying its own requests and leaking the channel token
to an outside endpoint.  In every mode it takes a rule export only from the
rule owner's console.
"""

from __future__ import annotations

from .canonical import is_int, is_str, list_of, message, one_of, or_none, with_fields
from .contracts import EVENT_INFO
from .sim.network import Process

MODE_HONEST = "honest"
MODE_FORGE_ACTIONS = "forge_actions"
MODE_REPLAY_REQUESTS = "replay_requests"
MODE_TOKEN_REUSE = "token_reuse"

MODES = (MODE_HONEST, MODE_FORGE_ACTIONS, MODE_REPLAY_REQUESTS, MODE_TOKEN_REUSE)

ACTION_RESULT = message("action_result", req_id=is_int, accepted=one_of(True, False),
                        code=or_none(is_str))


class TriggerActionMock(Process):
    MESSAGES = {
        "export_rule": (message("export_rule", rule_id=is_int, title=is_str,
                                actions=list_of(is_str)), "_on_export"),
        "trigger_request": (with_fields(type=one_of("trigger_request"), req_id=is_int,
                                        event_info=EVENT_INFO, cid=is_str), "_on_trigger"),
        "action_result": (ACTION_RESULT, "_on_action_result"),
    }

    def __init__(self, addr, net, owner_addr, task_agent_addr, mode=MODE_HONEST,
                 channel_token="", adversary_addr=None):
        super().__init__(addr, net)
        if mode not in MODES:
            raise ValueError(f"unknown platform mode {mode!r}")
        self.mode = mode
        self.task_agent_addr = task_agent_addr
        self.channel_token = channel_token
        self.adversary_addr = adversary_addr
        self.owner_addr = owner_addr  # the one console whose rule exports count
        self.exported: dict[int, dict] = {}
        self.outcomes: list[dict] = []
        self._seen_reqs: set[int] = set()
        self._forged: set[int] = set()
        self._req = 0
        self.counters.update({
            "trigger_requests": 0,
            "action_requests_emitted": 0,
            "forged_emitted": 0,
            "unknown_rule": 0,
        })

    def _on_export(self, src, msg) -> None:
        if not self.sender_is(src, self.owner_addr):
            return
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
        if msg["req_id"] in self._seen_reqs:
            return
        self._seen_reqs.add(msg["req_id"])
        self.counters["trigger_requests"] += 1

        info, cid = msg["event_info"], msg["cid"]
        if info["rule_id"] not in self.exported:
            self.counters["unknown_rule"] += 1
            return

        # One request per action in the rule.  The ledger consumes the event
        # on the first accepted one and authorizes the whole action list, so
        # for single-action rules this is exactly one round trip.
        actions = self.exported[info["rule_id"]]["actions"]
        requests = [self._emit(info, cid, idx, forged=False) for idx in range(len(actions))]

        if self.mode == MODE_FORGE_ACTIONS:
            # Variant A: invented event coordinates under the real cid.
            fake = dict(info)
            fake["event_seq"] = info["event_seq"] + 7777
            self.net.scheduler.schedule(200, lambda: self._emit(fake, cid, 0, forged=True))
            # Variant B: the real pair again, after the honest one consumed it.
            self.net.scheduler.schedule(400, lambda: self._emit(info, cid, 0, forged=True))
        elif self.mode == MODE_REPLAY_REQUESTS:
            self.net.scheduler.schedule(300, lambda: self._emit(info, cid, 0, forged=True))
        elif self.mode == MODE_TOKEN_REUSE and self.adversary_addr is not None:
            self.send(self.adversary_addr, {"type": "leak", "request": dict(requests[0])})

    def _emit(self, info, cid, action_index: int, forged: bool) -> dict:
        self._req += 1
        req_id = self._req
        if forged:
            self._forged.add(req_id)
            self.counters["forged_emitted"] += 1
        else:
            self.counters["action_requests_emitted"] += 1
        request = {
            "type": "action_request",
            "req_id": req_id,
            "event_info": dict(info),
            "cid": cid,
            "action_index": action_index,
            "channel_token": self.channel_token,
        }
        self.send(self.task_agent_addr, request)
        return request


class AdversaryEndpoint(Process):
    """Outside party holding a leaked channel token.  It replays a captured
    action request verbatim; the stolen token gets it past the channel
    check, and the ledger contract is what has to stop it."""

    MESSAGES = {
        "leak": (message("leak", request=with_fields()), "_on_leak"),
        "action_result": (ACTION_RESULT, "_on_action_result"),
    }

    def __init__(self, addr, net, task_agent_addr):
        super().__init__(addr, net)
        self.task_agent_addr = task_agent_addr
        self.replayed = 0
        self.outcomes: list[dict] = []

    def _on_leak(self, src, msg) -> None:
        request = dict(msg["request"])
        request["req_id"] = 100000 + self.replayed
        self.replayed += 1
        self.net.scheduler.schedule(500, lambda: self.send(self.task_agent_addr, request))

    def _on_action_result(self, src, msg) -> None:
        self.outcomes.append({"req_id": msg["req_id"], "accepted": msg["accepted"],
                              "code": msg["code"]})
