"""Byzantine faults of ledger nodes.

A faulty node misbehaves only through what it sends: dropping, duplicating,
delaying, corrupting, or equivocating.  The node itself is the honest replica
with one send path; a node's `fault` is a `FaultSpec`, and `sim.Network.send`
hands it every message the node sends (see `sim.Process`).  `FaultSpec.send`
sends what it lets through by `Network.transmit`, so nothing is faulted twice,
and draws from its own RNG, seeded by `seed`, so a faulty run replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

FAULT_DROP = "drop"
FAULT_DUPLICATE = "duplicate"
FAULT_DELAY = "delay"
FAULT_CORRUPT = "corrupt"
FAULT_EQUIVOCATE = "equivocate"

FAULT_KINDS = (
    FAULT_DROP,
    FAULT_DUPLICATE,
    FAULT_DELAY,
    FAULT_CORRUPT,
    FAULT_EQUIVOCATE,
)

FAULT_DELAY_MS = 400  # how much later a delaying node sends each message


@dataclass
class FaultSpec:
    kind: str
    prob: float = 0.6  # applied per outbound message for drop/corrupt
    seed: int = 0  # of the RNG the drop and corrupt draws come from

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind}")
        self.rng = random.Random(self.seed)

    def send(self, node, dsts: list[str], msg: dict) -> None:
        """Send msg from node (a `ledger.node.LedgerNode`) to each of dsts, in
        order, as this fault acts on it."""
        net, rng = node.net, self.rng
        if self.kind == FAULT_DUPLICATE:
            for dst in dsts:
                net.transmit(node.addr, [dst, dst], msg)
        elif self.kind == FAULT_DELAY:
            net.scheduler.schedule(FAULT_DELAY_MS, partial(net.transmit, node.addr, dsts, msg))
        elif self.kind == FAULT_EQUIVOCATE and msg["type"] == "pre_prepare":
            # Conflicting proposals to two halves of the replica set: a reversed
            # or duplicated batch changes the digest.
            wires = msg["batch"]
            other = list(reversed(wires)) if len(wires) > 1 else wires + wires
            variant = node._pre_prepare(msg["view"], msg["height"], other)
            low = node.config.node_addrs[:node.config.n // 2]  # the half sent the original
            for dst in dsts:
                net.transmit(node.addr, [dst], msg if dst in low else variant)
        elif self.kind == FAULT_EQUIVOCATE:
            net.transmit(node.addr, dsts, msg)
        else:  # drop or corrupt each message with probability prob
            for dst in dsts:
                if rng.random() >= self.prob:
                    net.transmit(node.addr, [dst], msg)
                elif self.kind == FAULT_CORRUPT:
                    net.transmit(node.addr, [dst], corrupt_msg(msg, rng))


def corrupt_msg(msg: dict, rng: random.Random) -> dict:
    """Flip one byte somewhere in the message's serialized form.

    The result is delivered as an opaque blob when it no longer parses,
    which is how real receivers would see garbage on the wire.
    """
    import json

    raw = bytearray(json.dumps(msg, sort_keys=True).encode("utf-8"))
    pos = rng.randrange(len(raw))
    raw[pos] ^= 1 << rng.randrange(8)
    try:
        mutated = json.loads(raw.decode("utf-8"))
        # Equivalent mutant: one flipped bit leaves an object's JSON an object or no JSON.
        if isinstance(mutated, dict):
            return mutated
    except (ValueError, UnicodeDecodeError):
        pass
    return {"type": "garbage", "blob": raw.hex()}
