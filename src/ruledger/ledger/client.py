"""Submission helper shared by the wallet agents, and the one f + 1 rule.

The client sends each transaction to every node, as PBFT's client multicasts
its request, so no single node stands between it and the ledger.  A
submission that stays unresolved past the timeout is sent to every node
again, by the owner's `Process.resend`; after two tries per node it resolves
as a `Timeout`.

An agent acts on the ledger's word only through `LedgerClient.heard`: a key
(a receipt's outcome, a notification's content) counts as said once f + 1
distinct node addresses sent it, and a sender that is not a node counts for
nothing.  f is `node.max_faulty` of the client's node list, the one fault
bound, so no caller states it.  With at most f faulty replicas, one of
those f + 1 is honest, so a lying minority cannot spoof a receipt, a
signature reject included, or a notification.  Receipts use one gate per pending submission, notifications
one gate per agent (see `agents`).
"""

from __future__ import annotations

from typing import Callable

from ..canonical import is_int, is_str, message, one_of, or_none
from ..sim.network import Process
from .node import max_faulty
from .tx import SignedTransaction, TxReceipt

ReceiptCallback = Callable[[TxReceipt], None]

RECEIPT = message("receipt", tx_id=is_str, accepted=one_of(True, False),
                  code=or_none(is_str), height=or_none(is_int))


class QuorumGate:
    """Fires once per key, after `need` distinct sources offered that key."""

    def __init__(self, need: int):
        self.need = need
        self._seen: dict = {}
        self._fired: set = set()

    def offer(self, key, source) -> bool:
        if key in self._fired:
            return False
        sources = self._seen.setdefault(key, set())
        sources.add(source)
        if len(sources) >= self.need:
            self._fired.add(key)
            del self._seen[key]  # _fired answers every later offer of key
            return True
        return False


class LedgerClient:
    def __init__(self, owner: Process, node_addrs: list[str], timeout_ms: int = 8000):
        self.owner = owner
        self.node_addrs = node_addrs
        self.timeout_ms = timeout_ms
        self.pending: dict[str, dict] = {}  # tx_id -> {gate, cb, tx, send, submitted_at}
        self.resolved: dict[str, TxReceipt] = {}
        self.latencies_ms: list[int] = []

    def submit(self, tx: SignedTransaction, cb: ReceiptCallback | None = None) -> str:
        """Multicast tx, and again after each timeout it stays unresolved.  A
        second submit of a pending tx starts its tries and gate afresh."""
        tid = tx.tx_id

        def send():  # one multicast of the pending tx
            self.owner.send(self.node_addrs, {"type": "submit", "tx": self.pending[tid]["tx"].wire()})

        self.pending[tid] = {
            "gate": self.new_gate(),
            "cb": cb,
            "tx": tx,
            "send": send,  # names this submission apart from a later one of tid
            "submitted_at": self.owner.net.scheduler.now,
        }
        # The loop's timers outlive the submission, so they hold tid and send only.
        self.owner.resend(
            send,
            [self.timeout_ms] * 2 * len(self.node_addrs),
            lambda: self.pending.get(tid, {}).get("send") is not send,
            lambda: self._resolve(tid, TxReceipt(tid, False, code="Timeout", height=None)),
        )
        return tid

    def new_gate(self) -> QuorumGate:
        return QuorumGate(max_faulty(len(self.node_addrs)) + 1)

    def heard(self, gate: QuorumGate, src: str, key) -> bool:
        """The one f + 1 rule: true exactly once per key, when the (f + 1)-th
        distinct node address offers it.  Any other sender counts for nothing."""
        return src in self.node_addrs and gate.offer(key, src)

    def on_receipt(self, src: str, msg: dict) -> None:
        """Resolve a pending submission once f + 1 nodes sent the same outcome.
        The owner's boundary (`Process.on_message`) has already checked the
        receipt against RECEIPT."""
        receipt = TxReceipt.from_wire(msg)
        state = self.pending.get(receipt.tx_id)
        key = (receipt.accepted, receipt.code, receipt.height)
        if state is not None and self.heard(state["gate"], src, key):
            self._resolve(receipt.tx_id, receipt)

    def _resolve(self, tid: str, receipt: TxReceipt) -> None:
        state = self.pending.pop(tid)
        self.resolved[tid] = receipt
        if receipt.accepted:
            self.latencies_ms.append(
                self.owner.net.scheduler.now - state["submitted_at"]
            )
        if state["cb"] is not None:
            state["cb"](receipt)
