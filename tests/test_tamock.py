"""Behavior of the rule-platform mock in each of its modes."""

import random

import pytest

from conftest import Sink, event_info
from ruledger import tamock
from ruledger.sim.network import NetConfig, Network
from ruledger.sim.scheduler import Scheduler


def _rig(mode, with_adversary=False):
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(1))
    task = Sink("task", net)
    driver = Sink("driver", net)
    adversary = tamock.AdversaryEndpoint("adv", net, "task") if with_adversary else None
    platform = tamock.TriggerActionMock(
        "platform", net, mode=mode, task_agent_addr="task", channel_token="chan-1",
        adversary_addr="adv" if with_adversary else None, owner_addr="driver")
    return sched, net, platform, task, driver, adversary


def _export(driver, platform, rule_id=1, actions=("open_door_operation",)):
    driver.send(platform.addr, {"type": "export_rule", "rule_id": rule_id,
                                "title": "t", "actions": list(actions)})


def _trigger(driver, platform, req_id=1, info=None, cid="c" * 32):
    driver.send(platform.addr, {"type": "trigger_request", "req_id": req_id,
                                "event_info": info or event_info(), "cid": cid})


def test_mode_validation():
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(1))
    with pytest.raises(ValueError):
        tamock.TriggerActionMock("p", net, "driver", "task", mode="chaotic")


def test_export_is_acked_and_stored():
    sched, net, platform, task, driver, _ = _rig(tamock.MODE_HONEST)
    _export(driver, platform, actions=("open_door_operation", "set_home_mode_operation"))
    sched.run()
    assert platform.exported[1]["actions"] == ["open_door_operation",
                                               "set_home_mode_operation"]
    acks = [m for _, _, m in driver.inbox if m["type"] == "export_ok"]
    assert acks == [{"type": "export_ok", "rule_id": 1}]


def test_export_counts_only_from_the_owners_console():
    sched, net, platform, task, driver, _ = _rig(tamock.MODE_HONEST)
    _export(driver, platform)
    sched.run()
    _export(task, platform, actions=())
    sched.run()
    assert platform.exported[1]["actions"] == ["open_door_operation"]
    assert platform.counters["malformed_dropped"] == 1
    assert not [m for _, _, m in task.inbox if m["type"] == "export_ok"]


def test_honest_mode_emits_one_request_per_action_and_acks_first():
    sched, net, platform, task, driver, _ = _rig(tamock.MODE_HONEST)
    _export(driver, platform, actions=("open_door_operation", "set_home_mode_operation"))
    sched.run()
    _trigger(driver, platform, req_id=9)
    sched.run()

    acks = [m for _, _, m in driver.inbox if m["type"] == "trigger_ack"]
    assert acks == [{"type": "trigger_ack", "req_id": 9}]
    reqs = [m for _, _, m in task.inbox if m["type"] == "action_request"]
    assert len(reqs) == 2
    assert [r["action_index"] for r in reqs] == [0, 1]
    assert all(r["channel_token"] == "chan-1" for r in reqs)
    assert all(r["event_info"] == event_info() and r["cid"] == "c" * 32 for r in reqs)
    assert platform.counters["action_requests_emitted"] == 2
    assert platform.counters["forged_emitted"] == 0


def test_retried_trigger_request_is_acked_but_not_refired():
    sched, net, platform, task, driver, _ = _rig(tamock.MODE_HONEST)
    _export(driver, platform)
    sched.run()
    _trigger(driver, platform, req_id=9)
    _trigger(driver, platform, req_id=9)
    sched.run()
    assert len([m for _, _, m in driver.inbox if m["type"] == "trigger_ack"]) == 2
    assert len([m for _, _, m in task.inbox if m["type"] == "action_request"]) == 1
    assert platform.counters["trigger_requests"] == 1


def test_trigger_for_unexported_rule_is_dropped():
    sched, net, platform, task, driver, _ = _rig(tamock.MODE_HONEST)
    _trigger(driver, platform)
    sched.run()
    assert platform.counters["unknown_rule"] == 1
    assert task.inbox == []


def test_forge_mode_adds_two_late_forgeries():
    sched, net, platform, task, driver, _ = _rig(tamock.MODE_FORGE_ACTIONS)
    _export(driver, platform)
    sched.run()
    t0 = sched.now
    _trigger(driver, platform, info=event_info(event_seq=3))
    sched.run()

    reqs = [(t, m) for t, _, m in task.inbox if m["type"] == "action_request"]
    assert len(reqs) == 3
    honest, fake_seq, replayed = (m for _, m in reqs)
    assert honest["event_info"]["event_seq"] == 3
    assert fake_seq["event_info"]["event_seq"] == 3 + 7777
    assert replayed["event_info"] == honest["event_info"]
    assert replayed["req_id"] != honest["req_id"]
    # Forgeries trail the honest request by the scripted offsets.
    assert reqs[1][0] >= t0 + 200 and reqs[2][0] >= t0 + 400
    assert platform.counters["forged_emitted"] == 2
    assert platform.counters["action_requests_emitted"] == 1


def test_replay_mode_resends_the_same_coordinates_once():
    sched, net, platform, task, driver, _ = _rig(tamock.MODE_REPLAY_REQUESTS)
    _export(driver, platform)
    sched.run()
    _trigger(driver, platform)
    sched.run()
    reqs = [m for _, _, m in task.inbox if m["type"] == "action_request"]
    assert len(reqs) == 2
    assert reqs[0]["event_info"] == reqs[1]["event_info"]
    assert reqs[0]["cid"] == reqs[1]["cid"]
    assert platform.counters["forged_emitted"] == 1


def test_token_reuse_leaks_to_the_adversary_who_replays():
    sched, net, platform, task, driver, adversary = _rig(
        tamock.MODE_TOKEN_REUSE, with_adversary=True)
    _export(driver, platform)
    sched.run()
    _trigger(driver, platform)
    sched.run()

    reqs = [m for _, _, m in task.inbox if m["type"] == "action_request"]
    assert len(reqs) == 2  # honest one plus the adversary's replay
    stolen = reqs[1]
    assert stolen["req_id"] >= 100000
    assert stolen["channel_token"] == "chan-1"  # the leaked token verbatim
    assert stolen["event_info"] == reqs[0]["event_info"]
    assert adversary.replayed == 1


def test_outcomes_tag_forged_requests():
    sched, net, platform, task, driver, _ = _rig(tamock.MODE_REPLAY_REQUESTS)
    _export(driver, platform)
    sched.run()
    _trigger(driver, platform)
    sched.run()
    for _, _, req in task.inbox:
        driver.send(platform.addr, {"type": "action_result", "req_id": req["req_id"],
                                    "accepted": req["req_id"] == 1, "code": None})
    sched.run()
    flags = {(o["req_id"], o["forged"]) for o in platform.outcomes}
    assert flags == {(1, False), (2, True)}
