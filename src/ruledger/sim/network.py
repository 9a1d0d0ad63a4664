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


class Process:
    """Anything with an inbox, and the one boundary where it checks what it reads.

    `MESSAGES` maps each message type the process handles to (shape, handler
    name); subclasses declare it from the `canonical` shape predicates and
    add their own entries to `counters`.  The boundary invariant: no message
    raises out of `on_message`.  A message the table does not admit is
    counted once in `counters["malformed_dropped"]` and goes no further; a
    handler runs only on a message its shape admits, reads it unguarded, and
    never raises on it, so the last-resort catch in `on_message` stays unused.
    The receivers of a multicast share one message, so a handler never mutates
    a delivered message or any part it keeps.  They share its shape check too:
    one per receiving class during `Network._deliver`, else one per call.
    A process's `fault`, a Byzantine one's, acts on what it sends, so the
    process itself has one send path (see `ledger.faults`).

    `resend` is the one retry loop: the ledger client's resubmission, the user
    agent's rule export and the task agent's trigger request all run on it,
    each with its waits fixed at the call site.
    """

    MESSAGES: dict[str, tuple] = {}
    fault = None  # if set, `Network.send` hands it every message this process sends

    def __init__(self, addr: str, net: "Network"):
        self.addr = addr
        self.net = net
        self.counters: dict[str, int] = {"malformed_dropped": 0}
        net.register(addr, self)

    def handler_for(self, msg) -> str | None:
        """The name of msg's handler if MESSAGES admits msg, else None."""
        kind = msg["type"] if type(msg) is dict and "type" in msg else None
        entry = self.MESSAGES.get(kind) if type(kind) is str else None
        return entry[1] if entry is not None and entry[0](msg) else None

    def on_message(self, src: str, msg: dict) -> None:
        verdicts = {} if self.net.verdicts is None else self.net.verdicts
        if type(self) not in verdicts:
            verdicts[type(self)] = self.handler_for(msg)
        handler = verdicts[type(self)]
        # Equivalent mutant: getattr(self, None) raises a TypeError, which the catch counts alike.
        if handler is None:
            self.counters["malformed_dropped"] += 1
            return
        try:
            getattr(self, handler)(src, msg)
        except (KeyError, TypeError, ValueError):  # last resort; MESSAGES should leave none
            self.counters["malformed_dropped"] += 1

    def sender_is(self, src: str, addr) -> bool:
        """Whether src is addr, the one process a handler takes its message
        from; a message from anyone else is counted as malformed."""
        if src != addr:
            self.counters["malformed_dropped"] += 1
        return src == addr

    def send(self, dst: str | list[str], msg: dict) -> None:
        self.net.send(self.addr, dst, msg)

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
        self.verdicts: dict[type, str | None] | None = None  # the delivering multicast's
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
        verdicts: dict[type, str | None] = {}  # receiving class -> its handler_for verdict
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
