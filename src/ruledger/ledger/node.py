"""Replicated ledger node.

Nodes order submitted transactions with a three-phase commit protocol
(pre-prepare, prepare, commit) over the simulated network, tolerating
f = (N - 1) // 3 Byzantine peers.  A node commits a block once it holds
2f + 1 matching commit votes, executes the batch through the verification
contracts, and answers submitters with receipts.  Committed-block gossip
heals nodes that a faulty primary starved or split, and a timeout-driven
view change rotates the primary when no progress is made.  A single node
(N = 1) runs the same three phases with a quorum of one.

`MESSAGES`, the one validation layer, gives the exact shape of every message
(nested ones, certificates, transaction wires and vote maps included).
`on_message` counts what it does not admit once in `malformed_dropped`: a
handler runs only on a message the table admits, and reads it unguarded.
Future-height messages are buffered only once authenticated.  A batch stays
in the wire form the table admitted, which `batch_digest` covers, from the
pool to the block; only `_commit_block` turns wires into `SignedTransaction`s.

The node keeps only the consensus state a handler can still read:
- `pool` maps the id of each undecided transaction to its wire and never
  holds a decided id: `_on_request` answers a decided id from `decided`,
  and `_commit_block` pops each id it decides;
- `slots` maps height -> view -> `_Slot` for heights at or above
  `next_height` only: handlers ignore lower heights, and `_commit_block`
  drops the height it commits;
- `vc_msgs` holds view-change buckets only for views above `view`:
  `_on_view_change` ignores the others, and `_enter_view` drops them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice

from .. import contracts
from ..canonical import digest_hex, is_canonical
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
from .tx import KIND_ACTION, KIND_EVENT, TX_KINDS, SignedTransaction, TxReceipt

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


# The tag each vote message signs; a pre-prepare doubles as the primary's prepare.
_VOTE_TAGS = {"pre_prepare": "pp", "prepare": "p", "commit": "c"}


def _vote_body(tag: str, view: int, height: int, digest: str) -> dict:
    return {"t": tag, "v": view, "h": height, "d": digest}


def _vc_body(new_view: int, last_height: int, cert_digest: str) -> dict:
    return {"t": "vc", "v": new_view, "lh": last_height, "cd": cert_digest}


def batch_digest(batch_wires: list[dict]) -> str:
    return digest_hex(batch_wires)


def valid_commit_votes(pubkeys: list[str], view: int, height: int, digest: str,
                       votes: dict[str, str]) -> dict[int, str]:
    """The votes of a commit certificate whose signatures check, by node index.
    votes is keyed by decimal node indexes, as MESSAGES and BLOCK_PROOF require."""
    body = _vote_body("c", view, height, digest)
    valid: dict[int, str] = {}
    for key, sig in votes.items():
        idx = int(key)
        if idx < len(pubkeys) and verify_signature_obj(body, sig, pubkeys[idx]):
            valid[idx] = sig
    return valid


def _signed(wires: list[dict]) -> bool:
    """Whether each tx wire carries its signer's signature over its body."""
    return all(verify_signature_obj(w["body"], w["signature"], w["signer"]) for w in wires)


# ----------------------------------------------------------------------
# wire format: a predicate per shape, composed into one table of messages


def _int(v) -> bool:
    return type(v) is int  # bool is an int subclass, never a protocol number


def _str(v) -> bool:
    return type(v) is str


def _object(**fields):
    """An object with exactly these fields, each admitted by its predicate."""
    items = tuple(fields.items())

    def admits(v) -> bool:
        if type(v) is not dict or len(v) != len(items):
            return False
        for name, ok in items:
            if name not in v or not ok(v[name]):
                return False
        return True

    return admits


def _message(kind: str, **fields):
    return _object(type=lambda v: v == kind, **fields)


def _list_of(ok):
    return lambda v: type(v) is list and all(map(ok, v))


def _by_index(ok):
    """An object keyed by decimal node indexes."""
    return lambda v: type(v) is dict and all(
        type(k) is str and k.isdecimal() and ok(x) for k, x in v.items()
    )


def _or_none(ok):
    return lambda v: v is None or ok(v)


_tx_fields = _object(kind=lambda v: v in TX_KINDS, signer=_str, signature=_str,
                     body=lambda v: type(v) is dict and is_canonical(v))


def _tx_wire(v) -> bool:
    """A signed transaction whose body repeats its kind and carries an int nonce."""
    return _tx_fields(v) and v["body"].get("kind") == v["kind"] and _int(v["body"].get("nonce"))


_BATCH = _list_of(_tx_wire)
_VOTE_FIELDS = {"view": _int, "height": _int, "digest": _str, "sender": _int, "sig": _str}
_PRE_PREPARE = _message("pre_prepare", **_VOTE_FIELDS, batch=_BATCH)
_CERT = _object(view=_int, height=_int, digest=_str, batch=_BATCH, prepares=_by_index(
    lambda v: type(v) is list and len(v) == 2 and v[0] in ("pp", "p") and _str(v[1])))
_VIEW_CHANGE = _message(
    "view_change", new_view=_int, last_height=_int, cert=_or_none(_CERT), sender=_int, sig=_str
)

# type -> (shape, handler).  Nested messages are checked with their parent.
MESSAGES = {
    "submit": (_message("submit", tx=_tx_wire), "_on_submit"),
    "request": (_message("request", tx=_tx_wire, client=_str), "_on_request"),
    "pre_prepare": (_PRE_PREPARE, "_on_pre_prepare"),
    "prepare": (_message("prepare", **_VOTE_FIELDS), "_on_vote"),
    "commit": (_message("commit", **_VOTE_FIELDS), "_on_vote"),
    "committed": (
        _message("committed", view=_int, height=_int, digest=_str, batch=_BATCH,
                 votes=_by_index(_str)),
        "_on_committed",
    ),
    "view_change": (_VIEW_CHANGE, "_on_view_change"),
    "new_view": (
        _message("new_view", view=_int, vcs=_by_index(_VIEW_CHANGE),
                 pre_prepare=_or_none(_PRE_PREPARE)),
        "_on_new_view",
    ),
    "sync_req": (_message("sync_req", height=_int), "_on_sync_req"),
}


def handler_for(msg) -> str | None:
    """The name of msg's handler if MESSAGES admits msg, else None."""
    kind = msg.get("type") if type(msg) is dict else None
    entry = MESSAGES.get(kind) if type(kind) is str else None
    return entry[1] if entry is not None and entry[0](msg) else None


# The commit certificate a block stores; the audit checks it in dumps.
BLOCK_PROOF = _object(view=_int, proposal_digest=_str, votes=_by_index(_str))


def block_digest(height: int, prev_digest: str, txs: list[dict]) -> str:
    """The digest of a block's content, which its commit certificate is not part of."""
    return digest_hex({"height": height, "prev_digest": prev_digest, "txs": txs})


def make_block(height: int, prev_digest: str, txs: list[dict], proof: dict) -> dict:
    return {"height": height, "prev_digest": prev_digest, "txs": txs,
            "digest": block_digest(height, prev_digest, txs), "proof": proof}


def genesis_block() -> dict:
    return make_block(0, GENESIS_PREV, [], {"view": -1, "proposal_digest": "", "votes": {}})


def genesis_state(genesis_acl: list[dict]) -> tables.TableStore:
    """The table state below block 1: one ACL row per genesis account."""
    state = tables.TableStore()
    for entry in genesis_acl:
        state.insert(tables.ACL, {key: entry[key] for key in ("signer", "role", "usr_id")})
    return state


class _Slot:
    """Vote bookkeeping for one (view, height) consensus instance."""

    def __init__(self) -> None:
        self.batch: list[dict] | None = None  # tx wires; set together with digest
        self.digest: str | None = None
        # digest -> node index -> (tag, sig); a pre-prepare doubles as the
        # primary's prepare, tagged "pp" so certs can re-verify it.
        self.prepares: dict[str, dict[int, tuple[str, str]]] = {}
        self.commits: dict[str, dict[int, str]] = {}
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
        self.state = genesis_state(config.genesis_acl)

        self.pool: dict[str, dict] = {}  # tx id -> wire
        self.submitters: dict[str, list[str]] = {}
        self.decided: dict[str, TxReceipt] = {}
        self.slots: dict[int, dict[int, _Slot]] = {}  # height -> view -> slot
        self.committed_buffer: dict[int, tuple] = {}  # height -> _commit_block args
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

    def _vote_valid(self, body: dict, index: int, sig: str) -> bool:
        keys = self.config.node_pubkeys
        return 0 <= index < len(keys) and verify_signature_obj(body, sig, keys[index])

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
        handler = handler_for(msg)
        if handler is None:
            self.counters["malformed_dropped"] += 1
            return
        try:
            getattr(self, handler)(src, msg)
        except (KeyError, TypeError, ValueError):  # last resort; MESSAGES should leave none
            self.counters["malformed_dropped"] += 1

    # ------------------------------------------------------------------
    # submission path

    def _on_submit(self, src: str, msg: dict) -> None:
        wire = msg["tx"]
        if not _signed([wire]):
            reply = TxReceipt(digest_hex(wire["body"]), False, contracts.CODE_BAD_SIGNATURE)
            self._cast(src, {"type": "receipt", **reply.wire()})
            return
        self._broadcast({"type": "request", "tx": wire, "client": src})

    def _on_request(self, src: str, msg: dict) -> None:
        wire, client = msg["tx"], msg["client"]
        # A faulty entry node may name an address nobody owns; sending there raises.
        if client not in self.net.processes or not _signed([wire]):
            self.counters["malformed_dropped"] += 1
            return
        tid = digest_hex(wire["body"])
        if tid in self.decided:
            self._cast(client, {"type": "receipt", **self.decided[tid].wire()})
            return
        waiters = self.submitters.setdefault(tid, [])
        if client not in waiters:
            waiters.append(client)
        if tid not in self.pool:
            self.pool[tid] = wire
            self._rearm_timer()
            self._maybe_propose()

    # ------------------------------------------------------------------
    # proposals

    def _undecided_batch(self) -> list[dict]:
        return list(islice(self.pool.values(), self.config.batch_size))

    def _maybe_propose(self) -> None:
        if self.config.primary(self.view) != self.index or self.in_view_change:
            return
        slot = self.slots.get(self.next_height, {}).get(self.view)
        if slot is not None and slot.digest is not None:
            return  # a proposal for this height is already in flight
        wires = self._undecided_batch()
        if wires:
            self._propose(wires)

    def _vote(self, kind: str, view: int, height: int, digest: str) -> dict:
        return {
            "type": kind,
            "view": view,
            "height": height,
            "digest": digest,
            "sender": self.index,
            "sig": self._sign(_vote_body(_VOTE_TAGS[kind], view, height, digest)),
        }

    def _pre_prepare(self, view: int, height: int, digest: str, wires: list[dict]) -> dict:
        return {**self._vote("pre_prepare", view, height, digest), "batch": wires}

    def _propose(self, wires: list[dict]) -> None:
        h = self.next_height
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
        return self.slots.setdefault(height, {}).setdefault(view, _Slot())

    def _on_pre_prepare(self, src: str, msg: dict, verified: bool = False) -> None:
        view, h, digest, sender = msg["view"], msg["height"], msg["digest"], msg["sender"]
        if view != self.view or sender != self.config.primary(view):
            self.counters["malformed_dropped"] += 1
            return
        if h < self.next_height:
            return
        body = _vote_body("pp", view, h, digest)
        if not verified and not self._vote_valid(body, sender, msg["sig"]):
            self.counters["malformed_dropped"] += 1
            return
        if h > self.next_height:
            if len(self.pp_buffer) < 64:
                self.pp_buffer.append(msg)
            return
        slot = self._slot(view, h)
        if slot.digest is not None:
            if slot.digest != digest:
                self.counters["equivocations_detected"] += 1
            return  # first accepted pre-prepare wins
        batch = msg["batch"]
        if not batch or batch_digest(batch) != digest or not _signed(batch):
            self.counters["malformed_dropped"] += 1
            return
        slot.batch = batch
        slot.digest = digest
        slot.prepares.setdefault(digest, {})[sender] = ("pp", msg["sig"])
        self._broadcast(self._vote("prepare", view, h, digest))
        self._rearm_timer()
        self._check_slot(slot, view, h)

    def _on_vote(self, src: str, msg: dict) -> None:
        """A prepare or a commit."""
        view, h, digest = msg["view"], msg["height"], msg["digest"]
        sender, sig = msg["sender"], msg["sig"]
        if h < self.next_height:
            return
        tag = _VOTE_TAGS[msg["type"]]
        if not self._vote_valid(_vote_body(tag, view, h, digest), sender, sig):
            self.counters["malformed_dropped"] += 1
            return
        slot = self._slot(view, h)
        if tag == "p":
            slot.prepares.setdefault(digest, {})[sender] = (tag, sig)
        else:
            slot.commits.setdefault(digest, {})[sender] = sig
        self._check_slot(slot, view, h)

    def _check_slot(self, slot: _Slot, view: int, height: int) -> None:
        if height != self.next_height or slot.digest is None:
            return
        quorum = self.config.quorum
        if not slot.sent_commit and len(slot.prepares.get(slot.digest, {})) >= quorum:
            slot.sent_commit = True
            self._broadcast(self._vote("commit", view, height, slot.digest))
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
        batch: list[dict],
        votes: dict[int, str],
    ) -> None:
        if height != self.next_height:
            return
        content_txs: list[dict] = []
        receipts: list[tuple[str, TxReceipt]] = []
        notifications: list[tuple] = []
        for wire in batch:
            tx = SignedTransaction.from_wire(wire)
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
                content_txs.append(wire)
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

        signed = {str(i): sig for i, sig in sorted(votes.items())}
        proof = {"view": view, "proposal_digest": proposal_digest, "votes": signed}
        self.chain.append(make_block(height, self.chain[-1]["digest"], content_txs, proof))
        self.slots.pop(height, None)
        self.counters["blocks_committed"] += 1
        self._vc_round = 0
        self.in_view_change = False

        for tid, receipt in receipts:
            for client in self.submitters.pop(tid, []):
                self._cast(client, {"type": "receipt", **receipt.wire()})
        for notif in notifications:
            self._dispatch_notification(notif, height)

        self._broadcast(
            {
                "type": "committed",
                "view": view,
                "height": height,
                "digest": proposal_digest,
                "batch": batch,
                "votes": signed,
            },
            include_self=False,
        )

        while self.next_height in self.committed_buffer:  # each entry is certified
            self._commit_block(*self.committed_buffer.pop(self.next_height))
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
        view, h, digest, batch = msg["view"], msg["height"], msg["digest"], msg["batch"]
        if h < self.next_height or h in self.committed_buffer:
            return
        if batch_digest(batch) != digest:
            self.counters["malformed_dropped"] += 1
            return
        votes = valid_commit_votes(self.config.node_pubkeys, view, h, digest, msg["votes"])
        if len(votes) < self.config.quorum or not _signed(batch):
            self.counters["malformed_dropped"] += 1
            return
        # Only certified heights are buffered, so no peer can grow the buffer.
        if h > self.next_height:
            self.committed_buffer[h] = (view, h, digest, batch, votes)
        else:
            self._commit_block(view, h, digest, batch, votes)

    def _replay_pp_buffer(self) -> None:
        buffered, self.pp_buffer = self.pp_buffer, []
        for msg in buffered:
            if msg["height"] >= self.next_height:
                self._on_pre_prepare("", msg, verified=True)

    def _on_sync_req(self, src: str, msg: dict) -> None:
        h = msg["height"]
        if h < 1 or h >= self.next_height:
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
        """Whether a transaction waits, or a proposal for the next height is in flight."""
        return bool(self.pool) or any(
            slot.digest for slot in self.slots.get(self.next_height, {}).values()
        )

    def _rearm_timer(self) -> None:
        self._timer_epoch += 1
        if not self._work_pending():
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
        """The certificate of the next height's proposal prepared in the highest view."""
        h = self.next_height
        for view, slot in sorted(self.slots.get(h, {}).items(), reverse=True):
            votes = slot.prepares.get(slot.digest, {})
            if slot.digest is not None and len(votes) >= self.config.quorum:
                return {
                    "view": view,
                    "height": h,
                    "digest": slot.digest,
                    "batch": slot.batch,
                    "prepares": {
                        str(i): [tag, sig] for i, (tag, sig) in sorted(votes.items())
                    },
                }
        return None

    def _view_change_valid(self, vc: dict) -> bool:
        """A view change's signature and, if it carries one, its prepared certificate."""
        cert = vc["cert"]
        body = _vc_body(vc["new_view"], vc["last_height"], digest_hex(cert) if cert else "")
        if not self._vote_valid(body, vc["sender"], vc["sig"]):
            return False
        if cert is None:
            return True
        view, h, digest = cert["view"], cert["height"], cert["digest"]
        if batch_digest(cert["batch"]) != digest:
            return False
        valid = 0
        for key, (tag, sig) in cert["prepares"].items():
            idx = int(key)
            if tag == "pp" and idx != self.config.primary(view):
                return False
            if self._vote_valid(_vote_body(tag, view, h, digest), idx, sig):
                valid += 1
        return valid >= self.config.quorum

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
        if not self._view_change_valid(msg):
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
            cert = vcs[idx]["cert"]
            if cert is None or cert["height"] != self.next_height:
                continue
            if best is None or cert["view"] > best["view"]:
                best = cert
        return best

    def _enter_view(self, view: int) -> None:
        """Move to view, ending any view change, and drop the buckets of views up to it."""
        self.view = view
        self.in_view_change = False
        self.vc_msgs = {v: bucket for v, bucket in self.vc_msgs.items() if v > view}

    def _become_primary(self, new_view: int, bucket: dict[int, dict]) -> None:
        if new_view <= self.view:
            return
        self._enter_view(new_view)
        vcs = {idx: bucket[idx] for idx in sorted(bucket)}
        cert = self._best_cert(vcs)
        pre_prepare = None
        h = self.next_height
        if cert is not None:
            pre_prepare = self._pre_prepare(new_view, h, cert["digest"], cert["batch"])
        else:
            wires = self._undecided_batch()
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
        for key, vc in msg["vcs"].items():
            idx = int(key)
            if vc["new_view"] != view or vc["sender"] != idx or not self._view_change_valid(vc):
                self.counters["malformed_dropped"] += 1
                return
            vcs[idx] = vc
        if len(vcs) < self.config.quorum:
            self.counters["malformed_dropped"] += 1
            return
        pre_prepare = msg["pre_prepare"]
        cert = self._best_cert(vcs)
        if cert is not None and (pre_prepare is None or pre_prepare["digest"] != cert["digest"]):
            # The new primary must re-propose the prepared batch.
            self.counters["malformed_dropped"] += 1
            return
        self._enter_view(view)
        self._rearm_timer()
        if pre_prepare is not None:
            self._on_pre_prepare(src, pre_prepare)
        self._maybe_propose()
