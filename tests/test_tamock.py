"""Behavior of the rule-platform mock: the honest protocol, and the forged
requests an attack sends through `emit`."""

import random

from conftest import Sink, event_info
from ruledger import tamock
from ruledger.sim.network import NetConfig, Network
from ruledger.sim.scheduler import Scheduler


def _rig():
    sched = Scheduler()
    net = Network(sched, NetConfig(), random.Random(1))
    task = Sink("task", net)
    driver = Sink("driver", net)
    platform = tamock.TriggerActionMock("platform", net, "driver", "task", "chan-1")
    return sched, net, platform, task, driver


def _export(driver, platform, rule_id=1, actions=("open_door_operation",)):
    driver.send(platform.addr, {"type": "export_rule", "rule_id": rule_id,
                                "title": "t", "actions": list(actions)})


def _trigger(task, platform, req_id=1, info=None, cid="c" * 32):
    task.send(platform.addr, {"type": "trigger_request", "req_id": req_id,
                              "event_info": info or event_info(), "cid": cid})


def _of_type(sink, kind):
    return [m for _, _, m in sink.inbox if m["type"] == kind]


def _triggered():
    """A rig whose platform has exported one single-action rule and handled one
    trigger request (req_id 1, event_seq 3), its honest request sent."""
    sched, net, platform, task, driver = _rig()
    _export(driver, platform)
    sched.run()
    _trigger(task, platform, info=event_info(event_seq=3))
    sched.run()
    return sched, net, platform, task, driver


def test_export_is_acked_and_stored():
    sched, net, platform, task, driver = _rig()
    _export(driver, platform, actions=("open_door_operation", "set_home_mode_operation"))
    sched.run()
    assert platform.exported[1]["actions"] == ["open_door_operation",
                                               "set_home_mode_operation"]
    assert _of_type(driver, "export_ok") == [{"type": "export_ok", "rule_id": 1}]


def test_export_counts_only_from_the_owners_console():
    sched, net, platform, task, driver = _rig()
    _export(driver, platform)
    sched.run()
    _export(task, platform, actions=())
    sched.run()
    assert platform.exported[1]["actions"] == ["open_door_operation"]
    assert platform.counters["malformed_dropped"] == 1
    assert not _of_type(task, "export_ok")


def test_a_trigger_is_acked_and_emits_one_request_per_action():
    sched, net, platform, task, driver = _rig()
    _export(driver, platform, actions=("open_door_operation", "set_home_mode_operation"))
    sched.run()
    _trigger(task, platform, req_id=9)
    sched.run()

    assert _of_type(task, "trigger_ack") == [{"type": "trigger_ack", "req_id": 9}]
    reqs = _of_type(task, "action_request")
    assert len(reqs) == 2
    assert [r["action_index"] for r in reqs] == [0, 1]
    assert all(r["channel_token"] == "chan-1" for r in reqs)
    assert all(r["event_info"] == event_info() and r["cid"] == "c" * 32 for r in reqs)
    assert platform.requests == {9: (event_info(), "c" * 32)}
    assert platform.counters["action_requests_emitted"] == 2
    assert platform.counters["forged_emitted"] == 0


def test_retried_trigger_request_is_acked_but_not_refired():
    sched, net, platform, task, driver = _rig()
    _export(driver, platform)
    sched.run()
    _trigger(task, platform, req_id=9)
    _trigger(task, platform, req_id=9, info=event_info(event_seq=5))
    sched.run()
    assert len(_of_type(task, "trigger_ack")) == 2
    assert len(_of_type(task, "action_request")) == 1
    assert platform.counters["trigger_requests"] == 1
    assert platform.requests == {9: (event_info(), "c" * 32)}  # the first one seen


def test_trigger_for_unexported_rule_is_dropped():
    sched, net, platform, task, driver = _rig()
    _trigger(task, platform)
    sched.run()
    assert platform.counters["unknown_rule"] == 1
    assert _of_type(task, "action_request") == []


def test_a_trigger_and_a_result_count_only_from_the_task_agent():
    sched, net, platform, task, driver = _rig()
    _export(driver, platform)
    sched.run()
    _trigger(driver, platform)
    driver.send(platform.addr, {"type": "action_result", "req_id": 1,
                                "accepted": False, "code": "Forged"})
    sched.run()
    assert platform.counters["malformed_dropped"] == 2
    assert platform.counters["trigger_requests"] == 0
    assert platform.requests == {} and platform.outcomes == []
    assert not _of_type(driver, "trigger_ack") and task.inbox == []


def test_forge_mode_adds_two_late_forgeries():
    """The forge_actions forgery: invented coordinates, then the real pair again."""
    sched, net, platform, task, driver = _triggered()
    info, cid = platform.requests[1]
    platform.emit({**info, "event_seq": info["event_seq"] + 7777}, cid, 0, forged=True)
    platform.emit(info, cid, 0, forged=True)
    sched.run()

    honest, fake_seq, replayed = _of_type(task, "action_request")
    assert [r["req_id"] for r in (honest, fake_seq, replayed)] == [1, 2, 3]
    assert fake_seq["event_info"]["event_seq"] == 3 + 7777
    assert replayed["event_info"] == honest["event_info"] and replayed["cid"] == honest["cid"]
    assert {r["channel_token"] for r in (fake_seq, replayed)} == {"chan-1"}
    assert platform.counters["forged_emitted"] == 2
    assert platform.counters["action_requests_emitted"] == 1


def test_replay_mode_resends_the_same_coordinates_once():
    """The replay_requests forgery: the platform's own request, sent again."""
    sched, net, platform, task, driver = _triggered()
    platform.emit(*platform.requests[1], 0, forged=True)
    sched.run()

    honest, replayed = _of_type(task, "action_request")
    assert replayed["req_id"] == 2 and replayed["channel_token"] == "chan-1"
    assert replayed["event_info"] == honest["event_info"] and replayed["cid"] == honest["cid"]
    assert platform.counters["forged_emitted"] == 1
    assert platform.counters["action_requests_emitted"] == 1


def test_an_outsider_with_the_leaked_token_emits_under_its_own_address():
    sched, net, platform, task, driver = _triggered()
    outsider = tamock.TriggerActionMock("outsider", net, "driver", "task",
                                        platform.channel_token)
    outsider.emit(*platform.requests[1], 0, forged=True)
    sched.run()

    reqs = [(src, m) for _, src, m in task.inbox if m["type"] == "action_request"]
    assert [src for src, _ in reqs] == ["platform", "outsider"]
    honest, stolen = (m for _, m in reqs)
    assert stolen["channel_token"] == "chan-1"  # the leaked token verbatim
    assert stolen["event_info"] == honest["event_info"] and stolen["cid"] == honest["cid"]
    assert outsider.counters["forged_emitted"] == 1
    assert platform.counters["forged_emitted"] == 0


def test_outcomes_tag_forged_requests():
    sched, net, platform, task, driver = _triggered()
    platform.emit(*platform.requests[1], 0, forged=True)
    sched.run()
    for req in _of_type(task, "action_request"):
        task.send(platform.addr, {"type": "action_result", "req_id": req["req_id"],
                                  "accepted": req["req_id"] == 1, "code": None})
    sched.run()
    flags = {(o["req_id"], o["forged"], o["accepted"]) for o in platform.outcomes}
    assert flags == {(1, False, True), (2, True, False)}
