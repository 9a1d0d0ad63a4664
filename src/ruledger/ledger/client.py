"""Submission helper shared by the wallet agents, and the one f + 1 rule.

The client sends each transaction to every node, as PBFT's client multicasts
its request, so no single node stands between it and the ledger.  A
submission that stays unresolved past the timeout is sent to every node
again.

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
        # tx_id -> {gate, cb, tx, tries, submitted_at}
        self.pending: dict[str, dict] = {}
        self.resolved: dict[str, TxReceipt] = {}
        self.latencies_ms: list[int] = []

    def submit(self, tx: SignedTransaction, cb: ReceiptCallback | None = None) -> str:
        tid = tx.tx_id
        self.pending[tid] = {
            "gate": self.new_gate(),
            "cb": cb,
            "tx": tx,
            "tries": 1,
            "submitted_at": self.owner.net.scheduler.now,
        }
        self._send(tid)
        return tid

    def _send(self, tid: str) -> None:
        """Send a pending submission to every node and arm its timeout."""
        state = self.pending[tid]
        msg = {"type": "submit", "tx": state["tx"].wire()}
        self.owner.net.send(self.owner.addr, self.node_addrs, msg)  # one multicast
        tries = state["tries"]
        self.owner.net.scheduler.schedule(self.timeout_ms, lambda: self._on_timeout(tid, tries))

    def _on_timeout(self, tid: str, tries: int) -> None:
        state = self.pending.get(tid)
        if state is None or state["tries"] != tries:
            return
        if state["tries"] >= 2 * len(self.node_addrs):
            self._resolve(
                tid, TxReceipt(tid, False, code="Timeout", height=None)
            )
            return
        state["tries"] += 1
        self._send(tid)

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
        state = self.pending.pop(tid, None)
        if state is None:
            return
        self.resolved[tid] = receipt
        if receipt.accepted:
            self.latencies_ms.append(
                self.owner.net.scheduler.now - state["submitted_at"]
            )
        if state["cb"] is not None:
            state["cb"](receipt)
