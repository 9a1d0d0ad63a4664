"""Byzantine fault hooks for ledger nodes.

A faulty node misbehaves only through its outbound consensus traffic:
dropping, duplicating, delaying, corrupting, or equivocating.  Each hook
draws from the node's own seeded RNG so a faulty run replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind}")


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
        if isinstance(mutated, dict):
            return mutated
    except (ValueError, UnicodeDecodeError):
        pass
    return {"type": "garbage", "blob": raw.hex()}
