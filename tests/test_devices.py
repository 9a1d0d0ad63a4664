"""Device endpoints, vendor gateways, and the execution log service."""

import hashlib
import random

import pytest

from conftest import Sink
from ruledger import devices
from ruledger.canonical import canonical_bytes
from ruledger.rules import (
    HEART_RATE_API,
    MODE_SET_API,
    PRESENCE_API,
    SMARTLOCK_LOCK,
    SMARTLOCK_UNLOCK,
)
from ruledger.sim.network import NetConfig, Network
from ruledger.sim.scheduler import Scheduler


class Driver(Sink):
    def own(self, device):
        """Stand as device's gateway, the one sender it takes calls from."""
        device.gateway_addr = self.addr
        return device


def _rig(seed=1, config=None):
    sched = Scheduler()
    net = Network(sched, config or NetConfig(), random.Random(seed))
    log = devices.LogService()
    driver = Driver("driver", net)
    return sched, net, log, driver


def test_checksum_matches_direct_hash():
    payload = {"lock": "unlocked"}
    direct = hashlib.sha256(b'{"lock":"unlocked"}').hexdigest()
    assert devices.checksum(payload) == direct
    assert devices.checksum({"lock": "locked"}) != direct
    assert canonical_bytes(payload) == b'{"lock":"unlocked"}'


def test_log_service_is_write_once():
    log = devices.LogService()
    log.write("e1", "k1", "sum1", "dev", 5)
    assert log.query_checksum("e1", "k1") == "sum1"
    assert log.lookup("e1", "k1") == {"log_sum": "sum1", "device_id": "dev", "at_ms": 5}
    assert len(log) == 1
    with pytest.raises(ValueError):
        log.write("e1", "k1", "sum2", "dev", 6)
    assert log.query_checksum("e1", "k1") == "sum1"
    # Same eid under a different key is a distinct entry.
    log.write("e1", "k2", "sum2", "dev", 6)
    assert len(log) == 2


def test_log_key_guessing_finds_nothing():
    log = devices.LogService()
    rng = random.Random(7)
    log.write(rng.randbytes(16).hex(), rng.randbytes(16).hex(), "s", "dev", 0)
    hits = sum(
        log.query_checksum(rng.randbytes(16).hex(), rng.randbytes(16).hex()) is not None
        for _ in range(100_000)
    )
    assert hits == 0


def test_rpc_logs_before_replying():
    sched, net, log, driver = _rig()
    dev = devices.Device("dev/watch-1", net, "watch-1", "heart_rate", log,
                         initial={"heart_rate": 72})
    seen_at_reply = []

    class Probe(Driver):
        def on_message(self, src, msg):
            seen_at_reply.append(log.query_checksum("e1", "k1"))
            super().on_message(src, msg)

    probe = Probe("probe", net)
    probe.own(dev)
    probe.send(dev.addr, {"type": "rpc", "api": HEART_RATE_API,
                          "eid": "e1", "log_key": "k1", "corr": 9})
    sched.run()
    assert seen_at_reply == [devices.checksum({"heart_rate": 72})]
    (_, src, reply), = probe.inbox
    assert src == dev.addr
    assert reply == {"type": "rpc_result", "corr": 9, "device_id": "watch-1",
                     "ok": True, "payload": {"heart_rate": 72}}


def test_offline_device_refuses_and_logs_nothing():
    sched, net, log, driver = _rig()
    dev = driver.own(devices.Device("dev/l", net, "lock-1", "smart_lock", log,
                                    initial={"online": False, "lock": "locked"}))
    assert dev.online is False
    assert dev.state == {"lock": "locked"}  # the online flag is not state
    driver.send(dev.addr, {"type": "rpc", "api": SMARTLOCK_UNLOCK,
                           "eid": "e", "log_key": "k", "corr": 1})
    sched.run()
    (_, _, reply), = driver.inbox
    assert reply["ok"] is False and reply["error"] == "DeviceOffline"
    assert len(log) == 0 and dev.state["lock"] == "locked"


# What each device API is, stated here apart from rules.CATALOG: the kind that
# answers it, its payload on a device with an empty state, and whether it is
# an action.  The presence sensor doubles as the home hub.
API_FACTS = {
    HEART_RATE_API: ("heart_rate", {"heart_rate": 0}, False),
    SMARTLOCK_UNLOCK: ("smart_lock", {"lock": "unlocked"}, True),
    SMARTLOCK_LOCK: ("smart_lock", {"lock": "locked"}, True),
    PRESENCE_API: ("presence", {"presence": "away"}, False),
    MODE_SET_API: ("presence", {"mode": "home_mode"}, True),
}


def test_wrong_api_for_device_kind():
    # Every (kind, API) pair: a device answers exactly its kind's APIs and
    # refuses any other, an unknown one included, without a log entry.
    sched, net, log, driver = _rig()
    kinds = ("heart_rate", "presence", "smart_lock")
    assert devices.DEVICE_KINDS == kinds
    calls = [(kind, api) for kind in kinds for api in [*API_FACTS, "NO_SUCH_API"]]
    for i, (kind, api) in enumerate(calls):
        dev = driver.own(devices.Device(f"dev/{i}", net, f"dev-{i}", kind, log))
        driver.send(dev.addr, {"type": "rpc", "api": api, "eid": f"e{i}", "log_key": "k",
                               "corr": i})
    sched.run()
    replies = sorted((r[2] for r in driver.inbox), key=lambda r: r["corr"])
    assert [r["corr"] for r in replies] == list(range(len(calls)))
    for (kind, api), reply in zip(calls, replies):
        answers = API_FACTS.get(api, ("",))[0] == kind
        assert reply["ok"] is answers and reply.get("error") == (None if answers else "UnknownApi")
        assert (log.lookup(f"e{reply['corr']}", "k") is not None) is answers
    assert len(log) == len(API_FACTS)


def test_a_reused_log_pair_is_refused_before_the_device_acts():
    sched, net, log, driver = _rig()
    lock = driver.own(devices.Device("dev/l", net, "lock-1", "smart_lock", log,
                                     initial={"lock": "locked"}))
    for api in (SMARTLOCK_UNLOCK, SMARTLOCK_LOCK):
        driver.send(lock.addr, {"type": "rpc", "api": api, "eid": "e", "log_key": "k", "corr": 1})
        sched.run()
    assert [reply.get("error") for _, _, reply in driver.inbox] == [None, "LogKeyReused"]
    assert lock.state["lock"] == "unlocked" and lock.actions_executed == 1 and len(log) == 1


def test_action_apis_mutate_state_and_count():
    sched, net, log, driver = _rig()
    lock = driver.own(devices.Device("dev/l", net, "lock-1", "smart_lock", log,
                                     initial={"lock": "locked"}))
    hub = driver.own(devices.Device("dev/h", net, "hub-1", "presence", log,
                                    initial={"presence": "away"}))
    for i, (addr, api) in enumerate([(lock.addr, SMARTLOCK_UNLOCK),
                                     (lock.addr, SMARTLOCK_LOCK),
                                     (hub.addr, MODE_SET_API),
                                     (hub.addr, PRESENCE_API)]):
        driver.send(addr, {"type": "rpc", "api": api,
                           "eid": f"e{i}", "log_key": f"k{i}", "corr": i})
    sched.run()
    assert lock.actions_executed == 2 and lock.state["lock"] == "locked"
    assert hub.actions_executed == 1 and hub.state["mode"] == "home_mode"
    assert len(log) == 4  # sensor reads are logged too
    payloads = [r[2]["payload"] for r in sorted(driver.inbox, key=lambda r: r[2]["corr"])]
    assert payloads == [{"lock": "unlocked"}, {"lock": "locked"},
                        {"mode": "home_mode"}, {"presence": "away"}]

    # Each API on a fresh device with an empty state: an action writes its
    # field and counts; a read returns its field's default and changes nothing.
    assert ({api for api, op in devices.APIS.items() if op.kind == "action"}
            == {api for api, (*_, action) in API_FACTS.items() if action})
    for i, (api, (kind, payload, action)) in enumerate(API_FACTS.items()):
        dev = driver.own(devices.Device(f"dev/fresh{i}", net, f"fresh-{i}", kind, log))
        driver.inbox.clear()
        driver.send(dev.addr, {"type": "rpc", "api": api, "eid": f"fresh{i}", "log_key": "k",
                               "corr": i})
        sched.run()
        (_, _, reply), = driver.inbox
        assert reply["payload"] == payload
        assert log.query_checksum(f"fresh{i}", "k") == devices.checksum(payload)
        assert dev.actions_executed == int(action)
        assert dev.state == (payload if action else {})


def test_patch_updates_state_and_pushes():
    sched, net, log, driver = _rig()
    dev = devices.Device("dev/w", net, "watch-1", "heart_rate", log,
                         initial={"heart_rate": 70})
    dev.push_targets.append(driver.addr)
    states = []
    sched.schedule(100, lambda: dev.apply_patch({"heart_rate": 190}))
    sched.schedule(150, lambda: states.append(dict(dev.state)))
    sched.schedule(200, lambda: dev.apply_patch({"online": False}))
    sched.run()
    assert states == [{"heart_rate": 190}] and dev.state == {"heart_rate": 190}
    assert dev.online is False
    pushes = [m for _, _, m in driver.inbox if m["type"] == "device_push"]
    assert len(pushes) == 2 and pushes[0]["device_id"] == "watch-1"


def test_unknown_device_kind_rejected():
    sched, net, log, _ = _rig()
    with pytest.raises(ValueError):
        devices.Device("dev/x", net, "x-1", "toaster", log)


def test_gateway_relays_and_restores_caller_corr():
    sched, net, log, driver = _rig()
    gw = devices.Gateway("gw/fitpulse", net, "fitpulse")
    dev = devices.Device("dev/w", net, "watch-1", "heart_rate", log,
                         initial={"heart_rate": 55})
    token = gw.register_device(dev)
    driver.send(gw.addr, {"type": "rpc_call", "token": token, "device_id": "watch-1",
                          "api": HEART_RATE_API, "eid": "e", "log_key": "k", "corr": 77})
    sched.run()
    (_, src, reply), = driver.inbox
    assert src == gw.addr
    assert reply["corr"] == 77 and reply["ok"] and reply["payload"] == {"heart_rate": 55}
    assert gw.counters == {"malformed_dropped": 0, "BadToken": 0, "UnknownDevice": 0}


def test_gateway_token_checks():
    sched, net, log, driver = _rig()
    gw = devices.Gateway("gw/v", net, "v")
    dev = devices.Device("dev/w", net, "watch-1", "heart_rate", log)
    token = gw.register_device(dev)
    other = gw.mint_token("lock-9", (SMARTLOCK_UNLOCK,))

    calls = [
        {"token": "tok-forged", "device_id": "watch-1", "api": HEART_RATE_API},
        {"token": other, "device_id": "watch-1", "api": HEART_RATE_API},  # wrong device
        {"token": token, "device_id": "watch-1", "api": SMARTLOCK_UNLOCK},  # out of scope
        {"token": other, "device_id": "lock-9", "api": SMARTLOCK_UNLOCK},  # not registered
    ]
    for i, call in enumerate(calls):
        driver.send(gw.addr, {"type": "rpc_call", "eid": "e", "log_key": f"k{i}",
                              "corr": i, **call})
    sched.run()
    errors = [r[2]["error"] for r in sorted(driver.inbox, key=lambda r: r[2]["corr"])]
    assert errors == ["BadToken", "BadToken", "BadToken", "UnknownDevice"]
    assert gw.counters == {"malformed_dropped": 0, "BadToken": 3, "UnknownDevice": 1}
    assert len(log) == 0


def test_stray_rpc_result_is_ignored():
    sched, net, log, driver = _rig()
    gw = devices.Gateway("gw/v", net, "v")
    driver.send(gw.addr, {"type": "rpc_result", "corr": 404, "ok": True})
    sched.run()
    assert driver.inbox == []


def test_gateway_relays_a_result_only_from_the_called_device():
    sched, net, log, driver = _rig()
    gw = devices.Gateway("gw/v", net, "v")
    dev = devices.Device("dev/w", net, "watch-1", "heart_rate", log,
                         initial={"heart_rate": 55})
    token = gw.register_device(dev)
    gw.on_message(driver.addr, {"type": "rpc_call", "token": token, "device_id": "watch-1",
                                "api": HEART_RATE_API, "eid": "e", "log_key": "k", "corr": 7})
    gw.on_message("dev/impostor", {"type": "rpc_result", "corr": 1, "ok": True,
                                   "payload": {"heart_rate": 250}})
    sched.run()
    (_, _, reply), = driver.inbox
    assert reply["corr"] == 7 and reply["payload"] == {"heart_rate": 55}


def test_a_device_takes_calls_only_from_its_gateway():
    # Anyone who could reach a device could otherwise skip its gateway's token check.
    sched, net, log, driver = _rig()
    gw = devices.Gateway("gw/v", net, "v")
    lock = devices.Device("dev/l", net, "lock-1", "smart_lock", log,
                          initial={"lock": "locked"})
    assert lock.gateway_addr is None
    token = gw.register_device(lock)
    assert lock.gateway_addr == gw.addr
    driver.send(lock.addr, {"type": "rpc", "api": SMARTLOCK_UNLOCK, "eid": "e", "log_key": "k",
                            "corr": 1})
    sched.run()
    assert driver.inbox == [] and lock.state["lock"] == "locked" and len(log) == 0
    assert lock.counters["malformed_dropped"] == 1
    driver.send(gw.addr, {"type": "rpc_call", "token": token, "device_id": "lock-1",
                          "api": SMARTLOCK_UNLOCK, "eid": "e", "log_key": "k", "corr": 2})
    sched.run()
    assert lock.state["lock"] == "unlocked" and lock.actions_executed == 1


def _timeline_run(seed):
    sched, net, log, driver = _rig(seed=seed, config=NetConfig(delay_range=(1, 15)))
    dev = driver.own(devices.Device("dev/w", net, "watch-1", "heart_rate", log,
                                    initial={"heart_rate": 70}))
    for t, rate in [(50, 188), (120, 75), (300, 39)]:
        sched.schedule(t, lambda r=rate: dev.apply_patch({"heart_rate": r}))
        sched.schedule(t + 5, lambda i=t: driver.send(
            dev.addr, {"type": "rpc", "api": HEART_RATE_API,
                       "eid": f"e{i}", "log_key": f"k{i}", "corr": i}))
    sched.run()
    readings = [m["payload"] for _, _, m in sorted(driver.inbox, key=lambda r: r[2]["corr"])]
    return readings, sorted(driver.inbox), sorted(log._entries.items())


def test_timeline_is_deterministic_per_seed():
    a = _timeline_run(42)
    b = _timeline_run(42)
    c = _timeline_run(43)
    assert a == b
    assert a[0] == c[0]  # patches are scheduled, so every reading matches
    assert a[1] != c[1] or a[2] != c[2]  # delivery times differ across seeds


def test_spoofed_event_body_shape():
    rng = random.Random(9)
    binding = {"usr_rule_id": 101, "usr_id": 1, "rule_id": 1, "rule_name": "r"}
    body = devices.inject_spoofed_event(rng, binding, step_id=0, event_seq=4,
                                        fake_payload={"heart_rate": 190})
    info = body["event_info"]
    assert info == {"usr_rule_id": 101, "usr_id": 1, "rule_id": 1,
                    "rule_name": "r", "step_id": 0, "event_seq": 4}
    assert len(body["event_log"]["eid"]) == 32
    assert len(body["event_log"]["log_key"]) == 32
    assert body["event_log"]["log_sum"] == devices.checksum({"heart_rate": 190})
    assert body["result_status"] == 1 and body["task_ref"] == 4

    again = devices.inject_spoofed_event(random.Random(9), binding, 0, 4,
                                         {"heart_rate": 190})
    assert again == body
