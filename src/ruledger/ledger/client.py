"""Submission helper shared by the wallet agents.

The client sends each transaction to every node, as PBFT's client multicasts
its request, so no single node stands between it and the ledger.  It counts
receipt replies from the node addresses and resolves once f + 1 of them
agree, a signature reject included, so a lying minority cannot spoof an
outcome.  A submission that stays unresolved past the timeout is sent to
every node again.
"""

from __future__ import annotations

from typing import Callable

from ..canonical import is_int, is_str, message, one_of, or_none
from ..sim.network import Process
from .tx import SignedTransaction, TxReceipt

ReceiptCallback = Callable[[TxReceipt], None]

RECEIPT = message("receipt", tx_id=is_str, accepted=one_of(True, False),
                  code=or_none(is_str), height=or_none(is_int))


class LedgerClient:
    def __init__(
        self,
        owner: Process,
        node_addrs: list[str],
        f: int,
        timeout_ms: int = 8000,
    ):
        self.owner = owner
        self.node_addrs = node_addrs
        self.f = f
        self.timeout_ms = timeout_ms
        # tx_id -> {tally, cb, tx, tries, submitted_at}
        self.pending: dict[str, dict] = {}
        self.resolved: dict[str, TxReceipt] = {}
        self.latencies_ms: list[int] = []

    def submit(self, tx: SignedTransaction, cb: ReceiptCallback | None = None) -> str:
        tid = tx.tx_id
        self.pending[tid] = {
            "tally": {},
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
        for addr in self.node_addrs:
            self.owner.send(addr, msg)
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

    def on_receipt(self, src: str, msg: dict) -> None:
        """Count a receipt only from a node address.  The owner's boundary
        (`Process.on_message`) has already checked it against RECEIPT."""
        if src not in self.node_addrs:
            return
        receipt = TxReceipt.from_wire(msg)
        state = self.pending.get(receipt.tx_id)
        if state is None:
            return
        key = (receipt.accepted, receipt.code, receipt.height)
        senders = state["tally"].setdefault(key, [])
        if src in senders:
            return
        senders.append(src)
        if len(senders) >= self.f + 1:
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
