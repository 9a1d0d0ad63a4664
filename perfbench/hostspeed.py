"""Host speed, measured with a fixed reference workload.

On a small virtual machine shared with other tenants, their load changes
the speed of every instruction the benchmark runs, in regimes that last
from seconds to minutes; on a 2-vCPU Xeon VM the same simulation measured
30 % slower in one regime than in the next. A fixed reference of the
kinds of work the program does (dict and list churn, string formatting,
sorted JSON, SHA-256 and Ed25519 verification) is run between pieces of
measured work. The ratio of its mean time to REF_NOMINAL_S says how slow the host
was while the work ran; dividing measured seconds by that factor
expresses them in reference seconds, which cancels most of the host's
drift. The reference uses only the standard library and `cryptography`,
never `ruledger`, so no change to the program changes it.
"""

from __future__ import annotations

import hashlib
import json
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# The reference's mean CPU time on the 2-vCPU Xeon VM (2.1 GHz) the
# benchmark was written on. It only fixes the scale; never change it.
REF_NOMINAL_S = 0.015

_DOC = {f"key{i}": [i, "v" * (i % 13), {"n": i, "s": str(i)}] for i in range(60)}
_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_MSG = json.dumps(_DOC, sort_keys=True).encode()[:300]
_SIG = _KEY.sign(_MSG)


def reference() -> int:
    acc = 0
    table: dict[str, list] = {}
    for i in range(4500):
        key = f"row{i % 97}"
        table.setdefault(key, []).append(i)
        acc += len(table[key]) * (i & 7)
    for _ in range(33):
        raw = json.dumps(_DOC, sort_keys=True, separators=(",", ":")).encode()
        acc += len(hashlib.sha256(raw).hexdigest())
        acc += len(json.loads(raw))
    public = _KEY.public_key()
    for _ in range(25):
        public.verify(_SIG, _MSG)
    return acc


class HostSpeed:
    """Runs the reference once per `every_s` of measured work."""

    def __init__(self, clock=time.process_time, every_s: float = 0.2):
        self.clock = clock
        self.every_s = every_s
        self.samples: list[float] = []
        self._since = every_s  # so the first call takes a sample

    def after(self, work_s: float) -> None:
        self._since += work_s
        while self._since >= self.every_s:
            self._since -= self.every_s
            self.sample()

    def sample(self) -> None:
        t0 = self.clock()
        reference()
        self.samples.append(self.clock() - t0)

    def factor(self) -> float:
        """Host slowness while the work ran: > 1 means slower than nominal."""
        return sum(self.samples) / len(self.samples) / REF_NOMINAL_S
