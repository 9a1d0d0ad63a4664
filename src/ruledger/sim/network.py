"""In-memory message passing between simulated processes.

No sockets are involved: `send` draws a delivery delay for each destination
from the network's seeded RNG and schedules the destination's handler, so
two messages on one link may arrive in either order.  Messages must be
canonical-serializable dicts, which keeps them both deterministic to copy
and realistic to corrupt byte-wise in fault experiments.

`send` takes one address or a list of them, and hands the message to the
sending process's `fault` if it has one, else to `transmit`; a fault sends
what it lets through by `transmit`, so nothing is faulted twice.  `transmit`
serializes the message once and parses those bytes once, so no receiver
aliases the sender's objects and all share one read-only parse (see
`Process`); each destination still costs its own drop draw, delay draw and
counts, in list order, so one multicast replays exactly as the same unicasts
one after another.

`tap` is the one seam through which a test holds or watches traffic; no run
the program itself makes sets it.  `transmit` offers it each (src, dst,
message) by `tap.offer(src, dst, msg, deliver)`, after the sender's fault
has acted and before the drop and delay draws, so a held delivery skips no
fault.  A true return keeps the delivery: it draws nothing, and runs only
if the tap calls `deliver()`, down the same `_deliver` path as a scheduled
one (its multicast's shape verdicts included); else it is dropped.  Every
delivery calls `tap.delivering(src, dst, msg)` before its handler runs and
`tap.delivered(src, dst, msg)` after.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import orjson

from ..canonical import canonical_bytes
from ..keys import VerifyMemo
from .scheduler import Scheduler


@dataclass
class NetConfig:
    delay_range: tuple[int, int] = (1, 5)  # inclusive ms bounds
    drop_prob: float = 0.0

    def validate(self) -> None:
        lo, hi = self.delay_range
        if not (0 <= lo <= hi):
            raise ValueError(f"bad delay_range: {self.delay_range}")
        if not (0.0 <= self.drop_prob < 1.0):
            raise ValueError(f"bad drop_prob: {self.drop_prob}")


def sent_by(attr: str):
    """The sender slot of a message taken only from the address in the
    receiver's attribute attr."""
    return lambda process, _msg: getattr(process, attr)


class Process:
    """Anything with an inbox, and the one boundary where it checks what it reads.

    `MESSAGES` maps each message type the process handles to (shape, handler
    name), or to (shape, handler name, sender) when one party alone sends it;
    subclasses declare it from the `canonical` shape predicates and add their
    own entries to `counters`.  sender(process, msg) gives the one address the
    message is taken from, or None if nobody may send it (`sent_by` builds the
    common case); a message any process may send is authenticated otherwise,
    by a signature, a token, the f + 1 rule or a call's corr.  The boundary
    invariant: no message raises out of `on_message`.  A message the table
    does not admit, by its shape or its sender, is counted once in
    `counters["malformed_dropped"]` and goes no further; a handler runs only
    on a message its entry admits, reads it unguarded, and never raises on
    it, so the last-resort catch in `on_message` stays unused.
    The receivers of a multicast share one message, so a handler never mutates
    a delivered message or any part it keeps.  They share its shape check too:
    one per receiving class during `Network._deliver`, else one per call.  The
    sender check is each receiver's own, as the sender slot reads the receiver.
    A process's `fault`, a Byzantine one's, acts on what it sends, so the
    process itself has one send path (see `ledger.faults`).

    `resend` is the one retry loop: the ledger client's resubmission, the user
    agent's rule export and the task agent's trigger request all run on it,
    each with its waits fixed at the call site.  `call` is the one
    call-and-reply path: the execution agent's device calls and a gateway's
    relay to its device both run on it, and `answered` is the handler of
    their replies.
    """

    MESSAGES: dict[str, tuple] = {}
    fault = None  # if set, `Network.send` hands it every message this process sends

    def __init__(self, addr: str, net: "Network"):
        self.addr = addr
        self.net = net
        self.counters: dict[str, int] = {"malformed_dropped": 0}
        self.calls: dict[tuple[str, int], object] = {}  # (callee, corr) -> on_reply
        self._corr = 0
        net.register(addr, self)

    def entry_for(self, msg) -> tuple | None:
        """msg's `MESSAGES` entry if its shape admits msg, else None."""
        kind = msg["type"] if type(msg) is dict and "type" in msg else None
        entry = self.MESSAGES.get(kind) if type(kind) is str else None
        return entry if entry is not None and entry[0](msg) else None

    def on_message(self, src: str, msg: dict) -> None:
        verdicts = {} if self.net.verdicts is None else self.net.verdicts
        if type(self) not in verdicts:
            verdicts[type(self)] = self.entry_for(msg)
        entry = verdicts[type(self)]
        if entry is None or len(entry) == 3 and src != entry[2](self, msg):
            self.counters["malformed_dropped"] += 1
            return
        try:
            getattr(self, entry[1])(src, msg)
        except (KeyError, TypeError, ValueError):  # last resort; MESSAGES should leave none
            self.counters["malformed_dropped"] += 1

    def send(self, dst: str | list[str], msg: dict) -> None:
        self.net.send(self.addr, dst, msg)

    def call(self, dst: str, msg: dict, on_reply) -> None:
        """Send msg to dst under a fresh corr; on_reply(reply) runs once dst
        answers it (see `answered`)."""
        self._corr += 1
        self.calls[(dst, self._corr)] = on_reply
        self.send(dst, {**msg, "corr": self._corr})

    def answered(self, src: str, msg: dict) -> None:
        """The handler of a reply, whose shape has an int corr: it runs its
        call's on_reply only if src is the callee.  A reply that answers no
        call in flight, a late or a repeated one included, is ignored and not
        counted."""
        on_reply = self.calls.pop((src, msg["corr"]), None)
        if on_reply is not None:
            on_reply(msg)

    def resend(self, send, waits, done, give_up=None) -> None:
        """Call send, then after each of waits (ms) in turn stop if done()
        holds, or else send again; give_up, if given, runs once the last wait
        ends without done().  Each send comes before the timer it arms."""
        send()
        self.net.scheduler.schedule(
            waits[0], partial(self._after_wait, send, waits[1:], done, give_up))

    def _after_wait(self, send, waits, done, give_up) -> None:
        if done():
            return
        if waits:
            self.resend(send, waits, done, give_up)
        elif give_up is not None:
            give_up()


class Network:
    def __init__(self, scheduler: Scheduler, config: NetConfig, rng: random.Random):
        config.validate()
        self.scheduler = scheduler
        self.config = config
        self.rng = rng
        self.processes: dict[str, Process] = {}
        self.sent = 0
        self.dropped = 0
        self.delivered = 0
        self.verify = VerifyMemo()  # shared by every replica on this network
        self.verdicts: dict[type, tuple | None] | None = None  # the delivering multicast's
        self.tap = None  # a test's hold-and-watch hook (see the module docstring)

    def register(self, addr: str, process: Process) -> None:
        if addr in self.processes:
            raise ValueError(f"duplicate process address: {addr}")
        self.processes[addr] = process

    def send(self, src: str, dsts: str | list[str], msg: dict) -> None:
        """Send msg to one address or to each of a list, through src's fault if
        it has one (see the module docstring)."""
        dsts = [dsts] if isinstance(dsts, str) else dsts
        for dst in dsts:
            if dst not in self.processes:
                raise KeyError(f"unknown destination: {dst}")
        sender = self.processes.get(src)
        if getattr(sender, "fault", None) is None:
            self.transmit(src, dsts, msg)
        else:
            sender.fault.send(sender, dsts, msg)

    def transmit(self, src: str, dsts: list[str], msg: dict) -> None:
        """Schedule msg's delivery to each of dsts, unfaulted, unless the tap keeps it."""
        # Deep-copy through canonical bytes: non-canonical payloads fail loudly.
        shared = orjson.loads(canonical_bytes(msg))
        verdicts: dict[type, tuple | None] = {}  # receiving class -> its entry_for verdict
        lo, hi = self.config.delay_range
        for dst in dsts:
            self.sent += 1
            deliver = partial(self._deliver, src, dst, shared, verdicts)
            if self.tap is not None and self.tap.offer(src, dst, shared, deliver):
                continue
            if self.config.drop_prob > 0 and self.rng.random() < self.config.drop_prob:
                self.dropped += 1
                continue
            delay = self.rng.randint(lo, hi)
            self.scheduler.schedule(delay, deliver)

    def _deliver(self, src: str, dst: str, msg: dict, verdicts: dict) -> None:
        self.delivered += 1
        tap = self.tap
        if tap is not None:
            tap.delivering(src, dst, msg)
        self.verdicts = verdicts
        try:
            self.processes[dst].on_message(src, msg)
        finally:
            self.verdicts = None
        if tap is not None:
            tap.delivered(src, dst, msg)
