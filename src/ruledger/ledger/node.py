"""Replicated ledger node.

Nodes order submitted transactions with a three-phase commit protocol
(pre-prepare, prepare, commit) over the simulated network, tolerating
f = (N - 1) // 3 Byzantine peers.  A node commits a block once it holds
2f + 1 matching commit votes, executes the batch through the verification
contracts, and answers submitters with receipts.  Committed-block gossip
heals nodes that a faulty primary starved or split, and a timeout-driven
view change rotates the primary when no progress is made.

Single-node mode (N = 1) skips voting and is intended for tests only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .. import contracts
from ..canonical import digest_hex
from ..keys import KeyPair, verify_signature_obj
from ..sim.network import Network, Process
from . import tables
from .faults import (
    FAULT_CORRUPT,
    FAULT_DELAY,
    FAULT_DROP,
    FAULT_DUPLICATE,
    FAULT_EQUIVOCATE,
    FaultSpec,
    corrupt_msg,
)
from .tx import KIND_ACTION, KIND_EVENT, SignedTransaction, TxReceipt

GENESIS_PREV = "0" * 64


class ConfigError(ValueError):
    """Invalid ledger or scenario configuration."""


@dataclass
class LedgerConfig:
    node_addrs: list[str]
    node_pubkeys: list[str]
    ledger_secret: bytes
    genesis_acl: list[dict] = field(default_factory=list)
    batch_size: int = 16
    commit_timeout_ms: int = 3000
    check_event_log: bool = True
    task_agent_addr: str | None = None
    exec_agent_addr: str | None = None

    def __post_init__(self) -> None:
        n = len(self.node_addrs)
        if n != len(self.node_pubkeys):
            raise ConfigError("node_addrs and node_pubkeys length mismatch")
        if n != 1 and n < 4:
            raise ConfigError(
                f"replicated mode needs at least 4 nodes (got {n}); "
                "single-node test mode uses exactly 1"
            )

    @property
    def n(self) -> int:
        return len(self.node_addrs)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    def primary(self, view: int) -> int:
        return view % self.n


def _pp_body(view: int, height: int, digest: str) -> dict:
    return {"t": "pp", "v": view, "h": height, "d": digest}


def _p_body(view: int, height: int, digest: str) -> dict:
    return {"t": "p", "v": view, "h": height, "d": digest}


def _c_body(view: int, height: int, digest: str) -> dict:
    return {"t": "c", "v": view, "h": height, "d": digest}


def _vc_body(new_view: int, last_height: int, cert_digest: str) -> dict:
    return {"t": "vc", "v": new_view, "lh": last_height, "cd": cert_digest}


def batch_digest(batch_wires: list[dict]) -> str:
    return digest_hex(batch_wires)


def _dict(value) -> dict:
    """value if it is a dict, else a TypeError, which on_message counts as malformed."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def genesis_block() -> dict:
    content = {"height": 0, "prev_digest": GENESIS_PREV, "txs": []}
    return {
        **content,
        "digest": digest_hex(content),
        "proof": {"view": -1, "proposal_digest": "", "votes": {}},
    }


class _Slot:
    """Vote bookkeeping for one (view, height) consensus instance."""

    def __init__(self) -> None:
        self.batch: list[SignedTransaction] | None = None
        self.digest: str | None = None
        # digest -> node index -> (tag, sig); a pre-prepare doubles as the
        # primary's prepare, tagged "pp" so certs can re-verify it.
        self.prepares: dict[str, dict[int, tuple[str, str]]] = {}
        self.commits: dict[str, dict[int, str]] = {}
        self.sent_prepare = False
        self.sent_commit = False


class LedgerNode(Process):
    def __init__(
        self,
        addr: str,
        net: Network,
        index: int,
        keypair: KeyPair,
        config: LedgerConfig,
        rng: random.Random,
        fault: FaultSpec | None = None,
        log_query: contracts.LogQuery | None = None,
    ):
        super().__init__(addr, net)
        self.index = index
        self.keypair = keypair
        self.config = config
        self.rng = rng
        self.fault = fault
        self.log_query: contracts.LogQuery = log_query or (lambda eid, key: None)

        self.view = 0
        self.chain: list[dict] = [genesis_block()]
        self.state = tables.TableStore()
        for entry in config.genesis_acl:
            self.state.insert(
                tables.ACL,
                {
                    "signer": entry["signer"],
                    "role": entry["role"],
                    "usr_id": entry["usr_id"],
                },
            )

        self.pool: dict[str, SignedTransaction] = {}
        self.submitters: dict[str, list[str]] = {}
        self.decided: dict[str, TxReceipt] = {}
        self.slots: dict[tuple[int, int], _Slot] = {}
        self.committed_buffer: dict[int, dict] = {}
        self.pp_buffer: list[dict] = []
        self.vc_msgs: dict[int, dict[int, dict]] = {}
        self.in_view_change = False
        self._timer_epoch = 0
        self._vc_round = 0
        self.counters: dict[str, int] = {
            "malformed_dropped": 0,
            "equivocations_detected": 0,
            "view_changes": 0,
            "blocks_committed": 0,
            "txs_committed": 0,
            "txs_rejected": 0,
        }

    # ------------------------------------------------------------------
    # plumbing

    @property
    def next_height(self) -> int:
        return len(self.chain)

    def _sign(self, body: dict) -> str:
        return self.keypair.sign_obj(body)

    def _peer_key(self, index: int) -> str | None:
        if 0 <= index < self.config.n:
            return self.config.node_pubkeys[index]
        return None

    def _vote_valid(self, body: dict, index, sig) -> bool:
        if not isinstance(index, int) or not isinstance(sig, str):
            return False
        key = self._peer_key(index)
        return key is not None and verify_signature_obj(body, sig, key)

    def _cast(self, dst: str, msg: dict) -> None:
        """Send one message, subject to this node's fault hooks."""
        if self.fault is None:
            self.send(dst, msg)
            return
        kind = self.fault.kind
        if kind == FAULT_DROP:
            if self.rng.random() < self.fault.prob:
                return
            self.send(dst, msg)
        elif kind == FAULT_DUPLICATE:
            self.send(dst, msg)
            self.send(dst, msg)
        elif kind == FAULT_DELAY:
            extra = self.fault.extra_delay_ms
            self.net.scheduler.schedule(extra, lambda: self.net.send(self.addr, dst, msg))
        elif kind == FAULT_CORRUPT:
            if self.rng.random() < self.fault.prob:
                self.send(dst, corrupt_msg(msg, self.rng))
            else:
                self.send(dst, msg)
        else:  # equivocate misbehaves only at proposal time
            self.send(dst, msg)

    def _broadcast(self, msg: dict, include_self: bool = True) -> None:
        for i, dst in enumerate(self.config.node_addrs):
            if not include_self and i == self.index:
                continue
            self._cast(dst, msg)

    # ------------------------------------------------------------------
    # inbox

    def on_message(self, src: str, msg: dict) -> None:
        if not isinstance(msg, dict):
            self.counters["malformed_dropped"] += 1
            return
        handler = {
            "submit": self._on_submit,
            "request": self._on_request,
            "pre_prepare": self._on_pre_prepare,
            "prepare": self._on_prepare,
            "commit": self._on_commit,
            "committed": self._on_committed,
            "view_change": self._on_view_change,
            "new_view": self._on_new_view,
            "sync_req": self._on_sync_req,
        }.get(msg.get("type"))
        if handler is None:
            self.counters["malformed_dropped"] += 1
            return
        try:
            handler(src, msg)
        except (KeyError, TypeError, ValueError):
            self.counters["malformed_dropped"] += 1

    # ------------------------------------------------------------------
    # submission path

    def _parse_tx(self, wire) -> SignedTransaction | None:
        try:
            tx = SignedTransaction.from_wire(wire)
        except (KeyError, TypeError):
            return None
        if not tx.well_formed() or not tx.signature_valid():
            return None
        return tx

    def _on_submit(self, src: str, msg: dict) -> None:
        tx = self._parse_tx(msg.get("tx"))
        if tx is None:
            reply = TxReceipt(tx_id="", accepted=False, code=contracts.CODE_BAD_SIGNATURE)
            try:
                bad = SignedTransaction.from_wire(msg["tx"])
                reply = TxReceipt(bad.tx_id, False, contracts.CODE_BAD_SIGNATURE)
            except (KeyError, TypeError):
                pass
            self._cast(src, {"type": "receipt", **reply.wire()})
            return
        self._broadcast({"type": "request", "tx": tx.wire(), "client": src})

    def _on_request(self, src: str, msg: dict) -> None:
        tx = self._parse_tx(msg.get("tx"))
        if tx is None:
            self.counters["malformed_dropped"] += 1
            return
        client = msg.get("client")
        tid = tx.tx_id
        if tid in self.decided:
            if isinstance(client, str):
                self._cast(client, {"type": "receipt", **self.decided[tid].wire()})
            return
        waiters = self.submitters.setdefault(tid, [])
        if isinstance(client, str) and client not in waiters:
            waiters.append(client)
        if tid not in self.pool:
            self.pool[tid] = tx
            self._rearm_timer()
            self._maybe_propose()

    # ------------------------------------------------------------------
    # proposals

    def _undecided_batch(self) -> list[SignedTransaction]:
        out = []
        for tid, tx in self.pool.items():
            if tid not in self.decided:
                out.append(tx)
            if len(out) >= self.config.batch_size:
                break
        return out

    def _maybe_propose(self) -> None:
        if self.config.primary(self.view) != self.index or self.in_view_change:
            return
        h = self.next_height
        slot = self.slots.get((self.view, h))
        if slot is not None and slot.digest is not None:
            return  # a proposal for this height is already in flight
        batch = self._undecided_batch()
        if not batch:
            return
        if self.config.n == 1:
            wires = [tx.wire() for tx in batch]
            digest = batch_digest(wires)
            vote = self._sign(_c_body(self.view, h, digest))
            self._commit_block(self.view, h, digest, batch, {self.index: vote})
            return
        self._propose(batch)

    def _pre_prepare(self, view: int, height: int, digest: str, wires: list[dict]) -> dict:
        return {
            "type": "pre_prepare",
            "view": view,
            "height": height,
            "digest": digest,
            "batch": wires,
            "sender": self.index,
            "sig": self._sign(_pp_body(view, height, digest)),
        }

    def _propose(self, batch: list[SignedTransaction]) -> None:
        h = self.next_height
        wires = [tx.wire() for tx in batch]
        if self.fault is not None and self.fault.kind == FAULT_EQUIVOCATE:
            self._propose_equivocating(h, wires)
            return
        self._broadcast(self._pre_prepare(self.view, h, batch_digest(wires), wires))

    def _propose_equivocating(self, h: int, wires_a: list[dict]) -> None:
        """Send conflicting proposals to two halves of the replica set."""
        if len(wires_a) > 1:
            wires_b = list(reversed(wires_a))
        else:
            wires_b = wires_a + wires_a  # duplicate entry changes the digest
        variants = [
            self._pre_prepare(self.view, h, batch_digest(wires), wires)
            for wires in (wires_a, wires_b)
        ]
        half = self.config.n // 2
        for i, dst in enumerate(self.config.node_addrs):
            self.send(dst, variants[0] if i < half else variants[1])

    # ------------------------------------------------------------------
    # three-phase votes

    def _slot(self, view: int, height: int) -> _Slot:
        return self.slots.setdefault((view, height), _Slot())

    def _on_pre_prepare(self, src: str, msg: dict) -> None:
        view, h = msg["view"], msg["height"]
        sender = msg["sender"]
        if view != self.view or sender != self.config.primary(view):
            self.counters["malformed_dropped"] += 1
            return
        if h < self.next_height:
            return
        if h > self.next_height:
            if len(self.pp_buffer) < 64:
                self.pp_buffer.append(msg)
            return
        digest = msg["digest"]
        if not self._vote_valid(_pp_body(view, h, digest), sender, msg["sig"]):
            self.counters["malformed_dropped"] += 1
            return
        slot = self._slot(view, h)
        if slot.digest is not None and slot.digest != digest:
            self.counters["equivocations_detected"] += 1
            return  # first accepted pre-prepare wins
        if slot.digest == digest:
            return
        batch = self._parse_batch(msg["batch"])
        if batch is None:
            return
        if batch_digest(msg["batch"]) != digest or not batch:
            self.counters["malformed_dropped"] += 1
            return
        slot.batch = batch
        slot.digest = digest
        slot.prepares.setdefault(digest, {})[sender] = ("pp", msg["sig"])
        if not slot.sent_prepare:
            slot.sent_prepare = True
            self._broadcast(
                {
                    "type": "prepare",
                    "view": view,
                    "height": h,
                    "digest": digest,
                    "sender": self.index,
                    "sig": self._sign(_p_body(view, h, digest)),
                }
            )
        self._rearm_timer()
        self._check_slot(view, h)

    def _on_prepare(self, src: str, msg: dict) -> None:
        view, h, digest, sender = msg["view"], msg["height"], msg["digest"], msg["sender"]
        if h < self.next_height:
            return
        if not self._vote_valid(_p_body(view, h, digest), sender, msg["sig"]):
            self.counters["malformed_dropped"] += 1
            return
        slot = self._slot(view, h)
        slot.prepares.setdefault(digest, {})[sender] = ("p", msg["sig"])
        self._check_slot(view, h)

    def _on_commit(self, src: str, msg: dict) -> None:
        view, h, digest, sender = msg["view"], msg["height"], msg["digest"], msg["sender"]
        if h < self.next_height:
            return
        if not self._vote_valid(_c_body(view, h, digest), sender, msg["sig"]):
            self.counters["malformed_dropped"] += 1
            return
        slot = self._slot(view, h)
        slot.commits.setdefault(digest, {})[sender] = msg["sig"]
        self._check_slot(view, h)

    def _check_slot(self, view: int, height: int) -> None:
        if height != self.next_height:
            return
        slot = self.slots.get((view, height))
        if slot is None:
            return
        quorum = self.config.quorum
        if (
            slot.digest is not None
            and not slot.sent_commit
            and len(slot.prepares.get(slot.digest, {})) >= quorum
        ):
            slot.sent_commit = True
            self._broadcast(
                {
                    "type": "commit",
                    "view": view,
                    "height": height,
                    "digest": slot.digest,
                    "sender": self.index,
                    "sig": self._sign(_c_body(view, height, slot.digest)),
                }
            )
        if slot.digest is not None and slot.batch is not None:
            votes = slot.commits.get(slot.digest, {})
            if len(votes) >= quorum:
                self._commit_block(view, height, slot.digest, slot.batch, dict(votes))

    # ------------------------------------------------------------------
    # commit and execution

    def _commit_block(
        self,
        view: int,
        height: int,
        proposal_digest: str,
        batch: list[SignedTransaction],
        votes: dict[int, str],
    ) -> None:
        if height != self.next_height:
            return
        content_txs: list[dict] = []
        receipts: list[tuple[str, TxReceipt]] = []
        notifications: list[tuple] = []
        for tx in batch:
            tid = tx.tx_id
            if tid in self.decided:
                continue  # at-most-once commit per tx id
            verdict = contracts.verify_tx(
                tx,
                self.state,
                self.log_query,
                self.config.ledger_secret,
                self.config.check_event_log,
            )
            if verdict.accepted:
                effects = contracts.apply_tx(tx, self.state)
                content_txs.append(tx.wire())
                self.counters["txs_committed"] += 1
                if tx.kind == KIND_EVENT and effects.get("consumable"):
                    cid = contracts.gen_randomness(
                        self.config.ledger_secret, tx.body["event_info"]
                    )
                    notifications.append(("task_event", tx.body["event_info"], cid))
                elif tx.kind == KIND_ACTION:
                    notifications.append(
                        ("exec_actions", tx.body["event_info"], effects["actions"])
                    )
            else:
                self.counters["txs_rejected"] += 1
            receipt = TxReceipt(tid, verdict.accepted, verdict.code, height)
            self.decided[tid] = receipt
            receipts.append((tid, receipt))
            self.pool.pop(tid, None)

        content = {
            "height": height,
            "prev_digest": self.chain[-1]["digest"],
            "txs": content_txs,
        }
        block = {
            **content,
            "digest": digest_hex(content),
            "proof": {
                "view": view,
                "proposal_digest": proposal_digest,
                "votes": {str(i): sig for i, sig in sorted(votes.items())},
            },
        }
        self.chain.append(block)
        self.counters["blocks_committed"] += 1
        self._vc_round = 0
        self.in_view_change = False

        for tid, receipt in receipts:
            for client in self.submitters.pop(tid, []):
                self._cast(client, {"type": "receipt", **receipt.wire()})
        for notif in notifications:
            self._dispatch_notification(notif, height)

        if self.config.n > 1:
            self._broadcast(
                {
                    "type": "committed",
                    "view": view,
                    "height": height,
                    "digest": proposal_digest,
                    "batch": [tx.wire() for tx in batch],
                    "votes": {str(i): sig for i, sig in sorted(votes.items())},
                },
                include_self=False,
            )

        self._drain_committed_buffer()
        self._replay_pp_buffer()
        self._rearm_timer()
        self._maybe_propose()

    def _dispatch_notification(self, notif: tuple, height: int) -> None:
        kind = notif[0]
        if kind == "task_event" and self.config.task_agent_addr:
            _, event_info, cid = notif
            self._cast(
                self.config.task_agent_addr,
                {
                    "type": "notify_event",
                    "event_info": event_info,
                    "cid": cid,
                    "height": height,
                    "node": self.index,
                },
            )
        elif kind == "exec_actions" and self.config.exec_agent_addr:
            _, event_info, actions = notif
            self._cast(
                self.config.exec_agent_addr,
                {
                    "type": "notify_actions",
                    "event_info": event_info,
                    "actions": actions,
                    "height": height,
                    "node": self.index,
                },
            )

    # ------------------------------------------------------------------
    # committed-block gossip and sync

    def _on_committed(self, src: str, msg: dict) -> None:
        h = msg["height"]
        if h < self.next_height:
            return
        if h > self.next_height:
            self.committed_buffer.setdefault(h, msg)
            return
        self._commit_from_gossip(msg)

    def _commit_from_gossip(self, msg: dict) -> None:
        h, digest = msg["height"], msg["digest"]
        if batch_digest(msg["batch"]) != digest:
            self.counters["malformed_dropped"] += 1
            return
        votes: dict[int, str] = {}
        body = _c_body(msg["view"], h, digest)
        for key, sig in _dict(msg["votes"]).items():
            idx = int(key)
            if self._vote_valid(body, idx, sig):
                votes[idx] = sig
        if len(votes) < self.config.quorum:
            self.counters["malformed_dropped"] += 1
            return
        batch = self._parse_batch(msg["batch"])
        if batch is not None:
            self._commit_block(msg["view"], h, digest, batch, votes)

    def _parse_batch(self, wires) -> list[SignedTransaction] | None:
        """Parse and verify every wire; None, counted as malformed, if any fails."""
        batch = []
        for wire in wires:
            tx = self._parse_tx(wire)
            if tx is None:
                self.counters["malformed_dropped"] += 1
                return None
            batch.append(tx)
        return batch

    def _drain_committed_buffer(self) -> None:
        while self.next_height in self.committed_buffer:
            msg = self.committed_buffer.pop(self.next_height)
            before = self.next_height
            self._commit_from_gossip(msg)
            if self.next_height == before:
                break  # invalid gossip; stop rather than loop

    def _replay_pp_buffer(self) -> None:
        buffered, self.pp_buffer = self.pp_buffer, []
        for msg in buffered:
            if msg["height"] >= self.next_height:
                self._on_pre_prepare("", msg)

    def _on_sync_req(self, src: str, msg: dict) -> None:
        h = msg["height"]
        if not isinstance(h, int) or h < 1 or h >= self.next_height:
            return
        # Reconstruct gossip for the requested height from the stored block.
        # The digest and votes cover the whole proposal but the block keeps
        # only accepted txs, so a block that rejected any tx fails the
        # receiver's digest check and cannot be served (ROADMAP item 4).
        block = self.chain[h]
        self._cast(
            src,
            {
                "type": "committed",
                "view": block["proof"]["view"],
                "height": h,
                "digest": block["proof"]["proposal_digest"],
                "batch": block["txs"],
                "votes": block["proof"]["votes"],
            },
        )

    # ------------------------------------------------------------------
    # timeouts and view changes

    def _work_pending(self) -> bool:
        if any(tid not in self.decided for tid in self.pool):
            return True
        h = self.next_height
        return any(hh == h and slot.digest for (_, hh), slot in self.slots.items())

    def _rearm_timer(self) -> None:
        self._timer_epoch += 1
        if self.config.n == 1 or not self._work_pending():
            return
        epoch = self._timer_epoch
        timeout = self.config.commit_timeout_ms * (2 ** min(self._vc_round, 6))
        self.net.scheduler.schedule(timeout, lambda: self._on_timeout(epoch))

    def _on_timeout(self, epoch: int) -> None:
        if epoch != self._timer_epoch or not self._work_pending():
            return
        self._vc_round += 1
        self.counters["view_changes"] += 1
        self._start_view_change(self.view + 1)

    def _prepared_cert(self) -> dict | None:
        h = self.next_height
        best: dict | None = None
        for (view, hh), slot in self.slots.items():
            if hh != h or slot.digest is None or slot.batch is None:
                continue
            votes = slot.prepares.get(slot.digest, {})
            if len(votes) < self.config.quorum:
                continue
            cert = {
                "view": view,
                "height": h,
                "digest": slot.digest,
                "batch": [tx.wire() for tx in slot.batch],
                "prepares": {
                    str(i): [tag, sig] for i, (tag, sig) in sorted(votes.items())
                },
            }
            if best is None or view > best["view"]:
                best = cert
        return best

    def _validate_cert(self, cert: dict) -> bool:
        try:
            view, h, digest = cert["view"], cert["height"], cert["digest"]
            if batch_digest(cert["batch"]) != digest:
                return False
            valid = 0
            for key, (tag, sig) in _dict(cert["prepares"]).items():
                idx = int(key)
                body = _pp_body(view, h, digest) if tag == "pp" else _p_body(view, h, digest)
                if tag == "pp" and idx != self.config.primary(view):
                    return False
                if self._vote_valid(body, idx, sig):
                    valid += 1
            return valid >= self.config.quorum
        except (KeyError, TypeError, ValueError):
            return False

    def _start_view_change(self, target_view: int) -> None:
        self.in_view_change = True
        cert = self._prepared_cert()
        cert_digest = digest_hex(cert) if cert else ""
        last_height = self.next_height - 1
        msg = {
            "type": "view_change",
            "new_view": target_view,
            "last_height": last_height,
            "cert": cert,
            "sender": self.index,
            "sig": self._sign(_vc_body(target_view, last_height, cert_digest)),
        }
        self._broadcast(msg)
        # Ask peers whether the stalled height already committed elsewhere.
        self._broadcast({"type": "sync_req", "height": self.next_height}, include_self=False)
        self._rearm_timer()

    def _on_view_change(self, src: str, msg: dict) -> None:
        new_view, sender = msg["new_view"], msg["sender"]
        cert = msg.get("cert")
        cert_digest = digest_hex(cert) if cert else ""
        body = _vc_body(new_view, msg["last_height"], cert_digest)
        if not self._vote_valid(body, sender, msg["sig"]):
            self.counters["malformed_dropped"] += 1
            return
        if cert is not None and not self._validate_cert(cert):
            self.counters["malformed_dropped"] += 1
            return
        if new_view <= self.view:
            return
        bucket = self.vc_msgs.setdefault(new_view, {})
        bucket[sender] = msg
        if (
            self.config.primary(new_view) == self.index
            and len(bucket) >= self.config.quorum
        ):
            self._become_primary(new_view, bucket)

    def _best_cert(self, vcs: dict[int, dict]) -> dict | None:
        best = None
        for idx in sorted(vcs):
            cert = vcs[idx].get("cert")
            if cert is None or cert["height"] != self.next_height:
                continue
            if best is None or cert["view"] > best["view"]:
                best = cert
        return best

    def _become_primary(self, new_view: int, bucket: dict[int, dict]) -> None:
        if new_view <= self.view:
            return
        self.view = new_view
        self.in_view_change = False
        vcs = {idx: bucket[idx] for idx in sorted(bucket)}
        cert = self._best_cert(vcs)
        pre_prepare = None
        h = self.next_height
        if cert is not None:
            pre_prepare = self._pre_prepare(new_view, h, cert["digest"], cert["batch"])
        else:
            wires = [tx.wire() for tx in self._undecided_batch()]
            if wires:
                pre_prepare = self._pre_prepare(new_view, h, batch_digest(wires), wires)
        self._broadcast(
            {
                "type": "new_view",
                "view": new_view,
                "vcs": {str(i): m for i, m in vcs.items()},
                "pre_prepare": pre_prepare,
            }
        )
        self._rearm_timer()

    def _on_new_view(self, src: str, msg: dict) -> None:
        view = msg["view"]
        if view < self.view:
            return
        vcs: dict[int, dict] = {}
        for key, vc in _dict(msg["vcs"]).items():
            idx = int(key)
            cert = _dict(vc).get("cert")
            cert_digest = digest_hex(cert) if cert else ""
            body = _vc_body(vc["new_view"], vc["last_height"], cert_digest)
            if vc["new_view"] != view or not self._vote_valid(body, idx, vc["sig"]):
                self.counters["malformed_dropped"] += 1
                return
            if cert is not None and not self._validate_cert(cert):
                self.counters["malformed_dropped"] += 1
                return
            vcs[idx] = vc
        if len(vcs) < self.config.quorum:
            self.counters["malformed_dropped"] += 1
            return
        pre_prepare = msg.get("pre_prepare")
        cert = self._best_cert(vcs)
        if cert is not None and (
            pre_prepare is None or _dict(pre_prepare).get("digest") != cert["digest"]
        ):
            # The new primary must re-propose the prepared batch.
            self.counters["malformed_dropped"] += 1
            return
        self.view = view
        self.in_view_change = False
        self._rearm_timer()
        if pre_prepare is not None:
            self._on_pre_prepare(src, pre_prepare)
        self._maybe_propose()
