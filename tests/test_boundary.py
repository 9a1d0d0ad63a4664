"""The message boundary of every process: `Process.on_message` counts a message
its `MESSAGES` table refuses, by its shape or its sender, once, and a handler
never raises on a message the table admits.

The property drives each process of a built heart_rate world with each type
it handles, its fields well typed half the time so that a good share of the
messages gets past the table and into the handlers.  It drives a ledger world
and a bypass one (`with_ledger` false) alike, as some handlers take other
branches in each.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BINDING, event_info, hr_rule
from ruledger.harness.scenario import bundled_scenario, scenario_from_dict
from ruledger.harness.world import World
from ruledger.keys import KeyPair
from ruledger.ledger.tx import build_tx
from ruledger.rules import CATALOG


def _world(with_ledger: bool) -> World:
    """Stopped mid-run, while the rule is committed and a trigger poll is in flight."""
    world = World(scenario_from_dict(dict(bundled_scenario("heart_rate"),
                                          with_ledger=with_ledger), seed_override=42))
    world.prepare()
    world.scheduler.run(until=3002)
    return world


_WORLDS = (_world(True), _world(False))
_WORLD = _WORLDS[0]
# Each message type of each process class, drawn alike however many processes share it.
_HANDLED = sorted({(type(p).__name__, kind)
                   for p in _WORLD.net.processes.values() for kind in p.MESSAGES})

_FIELDS = {
    "receipt": ("tx_id", "accepted", "code", "height"),
    "export_ok": ("rule_id",),
    "register_trigger": ("rule", "binding"),
    "device_push": ("device_id",),
    "notify_actions": ("event_info", "actions", "height"),
    "exec_direct": ("event_info",),
    "rpc_result": ("corr", "ok", "payload", "error", "device_id"),
    "notify_event": ("event_info", "cid", "height"),
    "bypass_event": ("event_info",),
    "action_request": ("req_id", "channel_token", "event_info", "cid", "action_index"),
    "trigger_ack": ("req_id",),
    "rpc": ("api", "eid", "log_key", "corr"),
    "rpc_call": ("token", "device_id", "api", "eid", "log_key", "corr"),
    "export_rule": ("rule_id", "title", "actions"),
    "trigger_request": ("req_id", "event_info", "cid"),
    "action_result": ("req_id", "accepted", "code"),
    "submit": ("tx",),
    "pre_prepare": ("view", "height", "digest", "batch", "sender", "sig"),
    "prepare": ("view", "height", "digest", "sender", "sig"),
    "commit": ("view", "height", "digest", "sender", "sig"),
    "committed": ("view", "height", "digest", "batch", "votes"),
    "view_change": ("new_view", "last_height", "cert", "sender", "sig"),
    "new_view": ("view", "vcs", "pre_prepare"),
    "sync_req": ("height",),
}

# The ints just past the canonical range [-2**63, 2**64), which the boundary refuses.
_OUT_OF_RANGE = [-2**63 - 1, 2**64]
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.sampled_from(_OUT_OF_RANGE)
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["heart_rate", "presence", "rule_id", "0"]), kids,
                      max_size=3),
    max_leaves=8,
)
# One draw in nine past the range, so most typed messages still reach their handler.
_small = st.sampled_from([0, 1, 2, 3] * 4 + _OUT_OF_RANGE)
_text = st.text(max_size=3)
_KEY = KeyPair.from_seed(42, "acct/boundary")
_WIRES = [build_tx("config", {"action": "bind_device", "device_id": "watch-1", "vendor": "v",
                              "usr_id": 1}, _KEY, n).wire() for n in range(3)]
_info = st.builds(event_info, step_id=_small, event_seq=_small)
_presence = dict(hr_rule(rule_id=4), trigger_operations=[
    ["check_presence_operation", "watch-1", "OP_AND"]])
_rule = st.sampled_from([
    hr_rule(), hr_rule(rule_id=2, watch="watch-9"),
    dict(hr_rule(rule_id=3), condition={"cmp": "ge", "field": "heart_rate", "value": 100}),
    dict(_presence, condition={"cmp": "ge", "field": "presence", "value": 1}),  # refused
])
_payload = st.fixed_dictionaries({}, optional={
    "heart_rate": st.integers(0, 250) | _text, "presence": st.sampled_from(["home", "away"]),
    "lock": _text})
_TYPED = {
    "tx_id": _text, "accepted": st.booleans(), "code": st.none() | _text,
    "height": _small, "rule_id": _small, "rule": _rule, "binding": st.just(BINDING),
    "device_id": st.sampled_from(sorted(_WORLD.devices) + ["watch-9"]),
    "event_info": _info,
    "actions": st.lists(st.fixed_dictionaries({
        "step_id": _small, "op_name": st.sampled_from(sorted(CATALOG)),
        "device_id": st.sampled_from(["lock-1", "lock-9"])}), max_size=2),
    "corr": st.integers(0, 9), "ok": st.booleans(), "payload": _payload | _text, "error": _text,
    "cid": _text, "req_id": _small, "action_index": _small,
    "channel_token": st.sampled_from([_WORLD.tamock.channel_token, "stolen"]),
    "api": st.sampled_from(sorted({op.api for op in CATALOG.values()})),
    "eid": st.just("e0"), "log_key": st.just("k0"),  # a second call reuses the log pair
    "token": st.sampled_from(sorted(t for gw in _WORLD.gateways.values() for t in gw.tokens)),
    "title": _text,
    "tx": st.sampled_from(_WIRES),
    "view": _small, "sender": _small, "new_view": _small, "last_height": _small,
    "digest": _text, "sig": _text, "batch": st.lists(st.sampled_from(_WIRES), max_size=2),
    "votes": st.dictionaries(st.sampled_from(["0", "1", "2", "3"]), _text),
    "vcs": st.just({}), "pre_prepare": st.none(), "cert": st.none(),
}
# A field that means something else in one message type.
_TYPED_IN = {("export_rule", "actions"): st.lists(st.sampled_from(sorted(CATALOG)), max_size=2)}


_ABSENT = object()
_seq = iter(range(100, 10**6))


def _call_in_flight(agent) -> tuple[str, int]:
    """Put a device call of the execution agent in flight, a trigger poll's or an
    authorized action's, and return the gateway it went to and its correlation id."""
    seq = next(_seq)
    if agent.triggers and seq % 2:
        agent.run_trigger_cycle(agent.triggers[0])
    else:
        notify = {"type": "notify_actions", "event_info": event_info(event_seq=seq),
                  "actions": [{"step_id": 1, "op_name": "open_door_operation",
                               "device_id": "lock-1"}]}
        agent.on_message("node0", notify)
        agent.on_message("node1", notify)
    return max(agent.calls, key=lambda call: call[1])


@st.composite
def _delivery(draw):
    """A process of either world, a registered sender, and a message of a type the
    process handles: well typed half the time, with now and then one field missing
    or of any shape.  A well-shaped message of a type taken from one sender comes
    from the address its `MESSAGES` sender slot gives half the time."""
    cls, kind = draw(st.sampled_from(_HANDLED))
    processes = dict(sorted(draw(st.sampled_from(_WORLDS)).net.processes.items()))
    process = draw(st.sampled_from([p for p in processes.values() if type(p).__name__ == cls]))
    typed = draw(st.booleans())
    odd = draw(st.sampled_from(_FIELDS[kind])) if draw(st.booleans()) else None
    msg = {"type": kind}
    for name in _FIELDS[kind]:
        strategy = _TYPED_IN.get((kind, name), _TYPED[name]) if typed else _json
        value = draw(st.just(_ABSENT) | _json if name == odd else strategy)
        if value is not _ABSENT:
            msg[name] = value
    src = draw(st.sampled_from(sorted(processes)))
    entry = process.entry_for(msg)  # a slot reads only a message its shape admits
    if entry is not None and len(entry) == 3 and draw(st.booleans()):
        src = entry[2](process, msg) or src  # None: nobody may send it
    if cls == "ExecutionAgent" and kind == "rpc_result" and typed:
        src, msg["corr"] = _call_in_flight(process)  # the result comes from the gateway
    return process, src, msg


def test_the_fields_table_covers_every_handled_type():
    assert {kind for _cls, kind in _HANDLED} == set(_FIELDS)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(delivery=_delivery())
def test_no_message_raises_out_of_any_process(delivery):
    process, src, msg = delivery
    entry = process.entry_for(msg)
    if entry is None or len(entry) == 3 and src != entry[2](process, msg):
        before = process.counters["malformed_dropped"]
        process.on_message(src, msg)
        assert process.counters["malformed_dropped"] == before + 1
    else:
        getattr(process, entry[1])(src, msg)  # no catch: an admitted message never raises
