"""Scheduler and network determinism.

The whole system's reproducibility reduces to these two classes: event
order under equal timestamps, and seeded delivery delays.
"""

import random

import pytest

from conftest import Sink, Tap
from ruledger.canonical import is_int, message
from ruledger.harness import cli
from ruledger.harness.world import World
from ruledger.ledger.faults import FaultSpec
from ruledger.sim.network import NetConfig, Network, Process
from ruledger.sim.scheduler import Scheduler, SimulationPanic


def test_scheduler_orders_by_time_then_insertion():
    sch = Scheduler()
    seen = []
    sch.schedule(10, lambda: seen.append("late"))
    sch.schedule(5, lambda: seen.append("a"))
    sch.schedule(5, lambda: seen.append("b"))
    sch.schedule(0, lambda: seen.append("first"))
    sch.run()
    assert seen == ["first", "a", "b", "late"]
    assert sch.now == 10


def test_scheduler_until_stops_before_later_events():
    sch = Scheduler()
    seen = []
    sch.schedule(5, lambda: seen.append(5))
    sch.schedule(15, lambda: seen.append(15))
    sch.run(until=10)
    assert seen == [5]
    assert sch.pending() == 1


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Scheduler().schedule(-1, lambda: None)


def test_runaway_loop_panics():
    sch = Scheduler()

    def respawn():
        sch.schedule(1, respawn)

    sch.schedule(0, respawn)
    with pytest.raises(SimulationPanic):
        sch.run(max_events=1000)


def _run_pair(seed, n_msgs=40, config=None):
    sch = Scheduler()
    net = Network(sch, config or NetConfig(), random.Random(seed))
    a = Sink("a", net)
    b = Sink("b", net)
    for i in range(n_msgs):
        a.send("b", {"i": i})
    sch.run()
    return net, b.inbox


def test_same_seed_same_delivery_schedule():
    _, inbox1 = _run_pair(123)
    _, inbox2 = _run_pair(123)
    assert inbox1 == inbox2
    _, inbox3 = _run_pair(124)
    assert inbox3 != inbox1


def test_drop_probability_applies():
    net, inbox = _run_pair(5, n_msgs=200, config=NetConfig(drop_prob=0.5))
    assert net.dropped > 0
    assert net.delivered == 200 - net.dropped
    assert len(inbox) == net.delivered


def test_reorder_mode_can_reorder():
    config = NetConfig(delay_range=(1, 20))
    _, inbox = _run_pair(77, n_msgs=60, config=config)
    assert [msg["i"] for _, _, msg in inbox] != list(range(60))


def test_messages_are_copied_not_aliased():
    sch = Scheduler()
    net = Network(sch, NetConfig(), random.Random(1))
    a = Sink("a", net)
    b = Sink("b", net)
    msg = {"x": [1, 2]}
    a.send("b", msg)
    msg["x"].append(3)  # mutation after send must not be visible
    sch.run()
    assert b.inbox[0][2] == {"x": [1, 2]}


def test_non_canonical_message_fails_at_send():
    sch = Scheduler()
    net = Network(sch, NetConfig(), random.Random(1))
    a = Sink("a", net)
    Sink("b", net)
    with pytest.raises(TypeError):
        a.send("b", {"x": 1.5})


class Logger(Process):
    """Appends (time, src, dst, msg) of each delivery to a log shared by all receivers."""

    def __init__(self, addr, net, log):
        super().__init__(addr, net)
        self.log = log

    def on_message(self, src, msg):
        self.log.append((self.net.scheduler.now, src, self.addr, msg))


def _fan_out(multicast, seed=9):
    sch = Scheduler()
    net = Network(sch, NetConfig(delay_range=(1, 20), drop_prob=0.3), random.Random(seed))
    log = []
    src = Logger("src", net, log)
    dsts = [Logger(f"r{i}", net, log).addr for i in range(6)]
    for i in range(20):
        msg = {"i": i, "body": [i, "x"]}
        if multicast:
            net.send("src", dsts, msg)
        else:
            for dst in dsts:
                src.send(dst, msg)
    sch.run()
    return log, (net.sent, net.dropped, net.delivered)


def test_a_multicast_replays_as_the_same_unicasts():
    multicast, unicasts = _fan_out(True), _fan_out(False)
    assert multicast == unicasts  # delivery times, order, messages and counters
    sent, dropped, delivered = multicast[1]
    assert sent == 120 and 0 < dropped < sent and delivered == sent - dropped


def _reader_class():
    """A new Process class with one message type, whose shape check notes each
    message it checks in the class's `checked` list."""

    def shape(msg):
        Reader.checked.append(msg)
        return msg.get("ok") is True

    class Reader(Process):
        checked = []
        MESSAGES = {"x": (shape, "_on_x")}

        def __init__(self, addr, net):
            super().__init__(addr, net)
            self.inbox = []

        def _on_x(self, src, msg):
            self.inbox.append(msg)

    return Reader


def test_multicast_receivers_share_one_message_and_one_shape_check_per_class():
    # Handlers never mutate a delivered message (see `Process`), so a multicast
    # is parsed once for all its receivers and checked once per receiving class.
    sch = Scheduler()
    net = Network(sch, NetConfig(), random.Random(1))
    ReaderA, ReaderB = _reader_class(), _reader_class()
    readers = [ReaderA(f"a{i}", net) for i in range(3)] + [ReaderB(f"b{i}", net) for i in range(2)]
    Sink("src", net)
    msg = {"type": "x", "ok": True, "body": [1, 2]}
    net.send("src", [r.addr for r in readers], msg)
    sch.run()
    delivered = readers[0].inbox[0]
    assert delivered == msg and delivered is not msg
    assert all(len(r.inbox) == 1 and r.inbox[0] is delivered for r in readers)
    assert ReaderA.checked == [delivered] and ReaderB.checked == [delivered]
    # A refused multicast is checked once per class and counted by every receiver.
    net.send("src", [r.addr for r in readers], {"type": "x", "ok": False})
    sch.run()
    assert len(ReaderA.checked) == len(ReaderB.checked) == 2
    assert [r.counters["malformed_dropped"] for r in readers] == [1] * 5
    # The memo lives only while a multicast is delivered: a direct call checks for itself.
    assert net.verdicts is None
    readers[0].on_message("src", msg)
    readers[1].on_message("src", {"type": "x", "ok": False})
    assert len(ReaderA.checked) == 4 and readers[0].inbox[-1] is msg
    assert readers[1].counters["malformed_dropped"] == 2


# ---------------------------------------------------------------------------
# the tap: the one seam through which a test holds and watches traffic


def test_a_held_delivery_runs_when_and_in_the_order_the_tap_picks():
    sch = Scheduler()
    rng = random.Random(1)
    net = Network(sch, NetConfig(drop_prob=0.5), rng)
    b = Sink("b", net)
    Sink("a", net)
    state = rng.getstate()
    tap = Tap(net, hold=True)
    for i in range(3):
        net.send("a", "b", {"i": i})
    assert sch.pending() == 0 and rng.getstate() == state  # a held delivery draws nothing
    assert [(src, dst, msg) for src, dst, msg, _ in tap.held] == \
        [("a", "b", {"i": i}) for i in range(3)]
    tap.held[2][3]()
    tap.held[0][3]()  # held[1] is dropped: never delivered
    sch.run()
    assert [msg["i"] for _, _, msg in b.inbox] == [2, 0]
    assert (net.sent, net.dropped, net.delivered) == (3, 0, 2)
    assert [msg["i"] for _, msg, _ in tap.watched] == [2, 0]


def test_a_held_multicast_keeps_its_one_shape_check_per_class():
    sch = Scheduler()
    net = Network(sch, NetConfig(), random.Random(1))
    Reader = _reader_class()
    readers = [Reader(f"r{i}", net) for i in range(3)]
    Sink("src", net)
    tap = Tap(net, hold=True)
    net.send("src", [r.addr for r in readers], {"type": "x", "ok": True})
    for *_, deliver in reversed(tap.held):
        deliver()
    assert len(Reader.checked) == 1 and all(len(r.inbox) == 1 for r in readers)


@pytest.mark.parametrize("kind", ["drop", "corrupt"])
def test_the_senders_fault_acts_before_the_tap(kind):
    sch = Scheduler()
    net = Network(sch, NetConfig(), random.Random(1))
    a = Sink("a", net)
    Sink("b", net)
    a.fault = FaultSpec(kind, prob=1.0, seed=3)
    tap = Tap(net, hold=True)
    msg = {"type": "x", "body": "some bytes to flip"}
    a.send("b", msg)
    a.fault = None
    a.send("b", msg)
    offered = [m for _, _, m in tap.sent]
    assert offered[-1] == msg and len(offered) == len(tap.held) == (1 if kind == "drop" else 2)
    assert kind == "drop" or offered[0] != msg  # corrupted before it was offered


def test_the_tap_is_told_before_and_after_each_handler():
    # Only after its handler ran can the tap tell that it mutated its message.
    sch = Scheduler()
    net = Network(sch, NetConfig(), random.Random(1))

    class Mutator(Sink):
        def on_message(self, src, msg):
            msg["seen"] = True

    Mutator("m", net)
    Sink("a", net)
    tap = Tap(net)
    net.send("a", "m", {"type": "x"})
    with pytest.raises(AssertionError, match="m's handler mutated a x"):
        sch.run()
    assert tap.watched == [("m", {"type": "x", "seen": True}, b'{"type":"x"}')]


def test_a_watching_tap_sees_every_send_and_delivery_of_a_run():
    world = World(cli._load("heart_rate", 42))
    tap = Tap(world.net)
    report = world.run()
    assert report["devices"]["lock-1"]["actions_executed"] == 3
    assert len(tap.sent) == world.net.sent > 0
    assert len(tap.watched) == world.net.delivered == world.net.sent - world.net.dropped


def test_a_handler_takes_a_message_only_from_its_one_sender():
    net = Network(Scheduler(), NetConfig(), random.Random(1))
    p = Sink("p", net)
    assert p.sender_is("a", "a") and p.counters["malformed_dropped"] == 0
    assert not p.sender_is("b", "a") and not p.sender_is("a", None)
    assert p.counters["malformed_dropped"] == 2


class _Caller(Process):
    MESSAGES = {"pong": (message("pong", corr=is_int), "answered")}


def test_a_reply_runs_its_call_once_and_only_from_the_callee():
    net = Network(Scheduler(), NetConfig(), random.Random(1))
    caller, callee = _Caller("caller", net), Sink("callee", net)
    Sink("mallory", net)
    replies = []
    ping = {"type": "ping"}
    caller.call("callee", ping, replies.append)
    net.scheduler.run()
    assert [m for _, _, m in callee.inbox] == [{"type": "ping", "corr": 1}]
    assert ping == {"type": "ping"}  # sent under the corr, not changed
    for src, corr in (("mallory", 1), ("callee", 2), ("callee", 1), ("callee", 1)):
        caller.on_message(src, {"type": "pong", "corr": corr})
    assert replies == [{"type": "pong", "corr": 1}]  # the third reply alone answered the call
    assert caller.calls == {} and caller.counters["malformed_dropped"] == 0


def test_a_resend_without_give_up_ends_silently():
    net = Network(Scheduler(), NetConfig(), random.Random(1))
    p = Sink("p", net)
    sends = []
    p.resend(lambda: sends.append(net.scheduler.now), [10, 20], lambda: False)
    net.scheduler.run()  # the last wait ends with nothing to run
    assert sends == [0, 10] and net.scheduler.now == 30


def test_a_multicast_to_an_unknown_destination_sends_nothing():
    sch = Scheduler()
    rng = random.Random(1)
    net = Network(sch, NetConfig(drop_prob=0.5), rng)
    Sink("a", net)
    Sink("b", net)
    state = rng.getstate()
    with pytest.raises(KeyError):
        net.send("a", ["b", "nobody"], {})
    assert sch.pending() == 0 and net.sent == 0 and rng.getstate() == state


def test_unknown_destination_and_duplicate_address():
    sch = Scheduler()
    net = Network(sch, NetConfig(), random.Random(1))
    a = Sink("a", net)
    with pytest.raises(KeyError):
        a.send("nobody", {})
    with pytest.raises(ValueError):
        Sink("a", net)


def test_net_config_validation():
    with pytest.raises(ValueError):
        NetConfig(delay_range=(5, 1)).validate()
    with pytest.raises(ValueError):
        NetConfig(drop_prob=1.0).validate()
