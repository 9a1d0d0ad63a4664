"""Replicated ledger node.

A transaction enters the ledger one way: the client sends it to every node
as a `submit`, and `_on_submit` parses and checks its body once
(`SignedTransaction.from_wire`; a refused body is malformed), verifies its
signature once, answers a bad signature or a decided id at once, and
otherwise pools it and notes the sender as a waiter for the receipt.  No
node relays a submission, so none stands between a client and the other
replicas.

Nodes order pooled transactions with a three-phase commit protocol
(pre-prepare, prepare, commit) over the simulated network, tolerating
f = `max_faulty(N)` Byzantine peers.  A node commits a block once it holds
`quorum_size(N)` = 2f + 1 matching commit votes and executes the batch
through the verification contracts.  `_commit_block` then sends a receipt
to each submitter that waits on one of the batch's transactions, and after
all receipts, in tx order, one notification per accepted transaction an
agent acts on: `notify_event`, with the event's cid, to the task agent for
each event that a rule's action may consume, and `notify_actions`, with the
authorized action list, to the execution agent for each action.  Agents act
on a notification once f + 1 nodes sent it (see `client`).

A pre-prepare signs the prepare body, so it is its sender's prepare vote, as
in PBFT (the primary's own prepare, which it still multicasts, carries the
same signature).  So there is one certificate shape, `_CERT_FIELDS`: a
batch, its digest, and a quorum of votes of one tag on (view, height,
digest), "p" in the prepared certificate a view change carries and "c" in
the commit certificate a `committed` message carries and `_commit_block`
takes.  `_certificate` builds one, `_checked_cert` checks one, and
`valid_votes` counts the votes for the node and for the audit alike.

The primary takes its own proposal at once: `_propose` and
`_become_primary` send the pre-prepare to the peers only and handle it
in-process before they return, so a height is in flight from the moment it
is proposed and no later submission can make a second proposal for it
(PBFT assigns each sequence number once).  A timeout-driven view change
rotates the primary when no progress is made: the commit timer starts when
work arrives at an idle node and restarts only on progress (an accepted
pre-prepare or a commit), so a stream of new submissions never puts a
timeout off, and each timeout inside a view change moves its target one view
on.  A single node (N = 1) runs the same three phases with a quorum of one.

Catch-up is pull only.  Each block keeps `proposal`, the batch its commit
certificate signs, beside `txs`, the accepted subsequence, so every block
can be served again.  A node that holds a commit quorum it cannot apply (a
height above `next_height`, or a digest other than its slot's) sends a
`sync_req` for the blocks from `next_height` to the voter that completed the
quorum, once per such height; a view change, which states its sender's last
height, is answered as such a request by every peer.  `_on_sync_req` answers
with at most `SYNC_RUN` blocks as `committed` messages, and `_on_committed`
applies a block only with its certificate.

`LedgerNode.MESSAGES`, the node's table at the boundary every process shares
(see `sim.Process`), gives the exact shape of every message (nested ones,
certificates, transaction wires and vote maps included): a handler runs only
on a message the table admits, and reads it unguarded.  Future-height
messages are buffered only once authenticated.  Consensus treats a tx body
as opaque: a wire's body is its signed canonical text (see `tx`), which the
table admits as a string and whose hash is the tx id.  A batch stays in the
wire form the table admitted, which `batch_digest` covers, from the pool to
the block.  A batch wire equal to its pool entry is not checked again, as
`_on_submit` checked it before pooling it; any other is parsed, checked and
verified.  So no replica serializes a body after `_on_submit`, and
`_commit_block` only parses the bodies it executes.  `_on_submit` and
`_batch_signed` are the only checkers of tx signatures: the offline audit
trusts a commit certificate's f + 1 honest voters to have run them (see
`audit`).  Every check goes through `net.verify`, the memo all replicas of a
simulation share (see `keys`); the audit verifies its commit votes for
itself.
A fault-free node sends each broadcast as one multicast (see `sim.network`);
a faulty one sends per destination, through its fault hooks.

The node keeps only the consensus state a handler can still read:
- `pool` maps the id of each undecided transaction to its wire and never
  holds a decided id: `_on_submit` answers a decided id from `decided`,
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
from ..canonical import (
    by_index,
    canonical_bytes,
    digest_hex,
    is_int,
    is_str,
    list_of,
    message,
    object_of,
    one_of,
    or_none,
)
from ..keys import KeyPair
from ..sim.network import Network, Process
from . import tables
from .faults import (
    FAULT_CORRUPT,
    FAULT_DELAY,
    FAULT_DELAY_MS,
    FAULT_DROP,
    FAULT_DUPLICATE,
    FAULT_EQUIVOCATE,
    FaultSpec,
    corrupt_msg,
)
from .tx import KIND_ACTION, KIND_EVENT, TX_KINDS, SignedTransaction, TxReceipt, text_id

GENESIS_PREV = "0" * 64
SYNC_RUN = 8  # the most blocks one sync reply carries
BATCH_SIZE = 16  # the most transactions one proposal carries


class ConfigError(ValueError):
    """Invalid ledger or scenario configuration."""


# The one fault bound.  f and every quorum are facts about the replica count n
# (PBFT needs n >= 3f + 1), so everything derives them from a replica list.

def replica_count_ok(n: int) -> bool:
    """Whether n replicas run: one in single-node test mode, else at least 4."""
    return n == 1 or n >= 4


def max_faulty(n: int) -> int:
    """f, the most Byzantine replicas n replicas tolerate."""
    return (n - 1) // 3


def quorum_size(n: int) -> int:
    """2f + 1: the votes that prepare or commit a proposal among n replicas."""
    return 2 * max_faulty(n) + 1


@dataclass
class LedgerConfig:
    node_addrs: list[str]
    node_pubkeys: list[str]
    ledger_secret: bytes
    genesis_acl: list[dict] = field(default_factory=list)
    commit_timeout_ms: int = 3000
    task_agent_addr: str | None = None
    exec_agent_addr: str | None = None

    def __post_init__(self) -> None:
        n = len(self.node_addrs)
        if n != len(self.node_pubkeys):
            raise ConfigError("node_addrs and node_pubkeys length mismatch")
        if not replica_count_ok(n):
            raise ConfigError(
                f"replicated mode needs at least 4 nodes (got {n}); "
                "single-node test mode uses exactly 1"
            )

    @property
    def n(self) -> int:
        return len(self.node_addrs)

    @property
    def f(self) -> int:
        return max_faulty(self.n)

    @property
    def quorum(self) -> int:
        return quorum_size(self.n)

    def primary(self, view: int) -> int:
        return view % self.n


# The tag each vote message signs; a pre-prepare is its sender's prepare vote.
_VOTE_TAGS = {"pre_prepare": "p", "prepare": "p", "commit": "c"}


def _vote_body(tag: str, view: int, height: int, digest: str) -> dict:
    return {"t": tag, "v": view, "h": height, "d": digest}


def _vc_body(new_view: int, last_height: int, cert_digest: str) -> dict:
    return {"t": "vc", "v": new_view, "lh": last_height, "cd": cert_digest}


def batch_digest(batch_wires: list[dict]) -> str:
    return digest_hex(batch_wires)


def valid_votes(pubkeys: list[str], tag: str, view: int, height: int, digest: str,
                votes: dict[str, str], verify) -> dict[int, str]:
    """The votes of a certificate, prepared (tag "p") or committed ("c"), whose
    signatures `verify` (over bytes, as `keys.verify_signature`) checks, by node
    index.  votes is keyed by decimal node indexes, as MESSAGES and
    audit.BLOCK_PROOF require."""
    body = canonical_bytes(_vote_body(tag, view, height, digest))
    valid: dict[int, str] = {}
    for key, sig in votes.items():
        idx = int(key)
        if idx < len(pubkeys) and verify(body, sig, pubkeys[idx]):
            valid[idx] = sig
    return valid


# ----------------------------------------------------------------------
# wire format: the shapes LedgerNode.MESSAGES is composed of


# A signed transaction whose body is its text, which only `SignedTransaction.from_wire` reads.
tx_wire = object_of(kind=one_of(*TX_KINDS), body=is_str, signer=is_str, signature=is_str)
_BATCH = list_of(tx_wire)
_VOTE_FIELDS = dict(view=is_int, height=is_int, digest=is_str, sender=is_int, sig=is_str)
_PRE_PREPARE = message("pre_prepare", **_VOTE_FIELDS, batch=_BATCH)
# The one certificate shape, prepared or committed: a quorum of votes on a batch.
_CERT_FIELDS = dict(view=is_int, height=is_int, digest=is_str, batch=_BATCH, votes=by_index(is_str))
_CERT = object_of(**_CERT_FIELDS)
_VIEW_CHANGE = message("view_change", new_view=is_int, last_height=is_int,
                       cert=or_none(_CERT), sender=is_int, sig=is_str)


def block_digest(height: int, prev_digest: str, txs: list[dict]) -> str:
    """The digest of a block's content, which its commit certificate is not part of."""
    return digest_hex({"height": height, "prev_digest": prev_digest, "txs": txs})


def make_block(height: int, prev_digest: str, txs: list[dict], proposal: list[dict],
               proof: dict) -> dict:
    return {"height": height, "prev_digest": prev_digest, "txs": txs, "proposal": proposal,
            "digest": block_digest(height, prev_digest, txs), "proof": proof}


def _certificate(view: int, height: int, digest: str, batch: list[dict],
                votes: dict[int, str]) -> dict:
    """A certificate of `_CERT_FIELDS`' shape, its votes in node order."""
    return {"view": view, "height": height, "digest": digest, "batch": batch,
            "votes": {str(i): sig for i, sig in sorted(votes.items())}}


def genesis_block() -> dict:
    return make_block(0, GENESIS_PREV, [], [], {"view": -1, "proposal_digest": "", "votes": {}})


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
        # digest -> node index -> sig; the primary's pre-prepare is its prepare
        self.prepares: dict[str, dict[int, str]] = {}
        self.commits: dict[str, dict[int, str]] = {}
        self.sent_commit = False


class LedgerNode(Process):
    # type -> (shape, handler).  Nested messages are checked with their parent.
    MESSAGES = {
        "submit": (message("submit", tx=tx_wire), "_on_submit"),
        "pre_prepare": (_PRE_PREPARE, "_on_pre_prepare"),
        "prepare": (message("prepare", **_VOTE_FIELDS), "_on_vote"),
        "commit": (message("commit", **_VOTE_FIELDS), "_on_vote"),
        "committed": (message("committed", **_CERT_FIELDS), "_on_committed"),
        "view_change": (_VIEW_CHANGE, "_on_view_change"),
        "new_view": (
            message("new_view", view=is_int, vcs=by_index(_VIEW_CHANGE),
                    pre_prepare=or_none(_PRE_PREPARE)),
            "_on_new_view",
        ),
        "sync_req": (message("sync_req", height=is_int), "_on_sync_req"),
    }

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
        self.committed_buffer: dict[int, dict] = {}  # height -> commit certificate
        self.pp_buffer: list[dict] = []
        self.vc_msgs: dict[int, dict[int, dict]] = {}
        self.vc_target: int | None = None  # the view a view change in progress aims at
        self._sync_asked = 0  # the highest quorum height a sync_req was sent for
        self._timer_epoch = 0
        self._vc_round = 0
        self.counters.update({
            "equivocations_detected": 0,
            "view_changes": 0,
            "blocks_committed": 0,
            "txs_committed": 0,
            "txs_rejected": 0,
        })

    # ------------------------------------------------------------------
    # plumbing

    @property
    def next_height(self) -> int:
        return len(self.chain)

    def _sign(self, body: dict) -> str:
        return self.keypair.sign_obj(body)

    def _vote_valid(self, body: dict, index: int, sig: str) -> bool:
        keys = self.config.node_pubkeys
        return 0 <= index < len(keys) and self.net.verify(canonical_bytes(body), sig, keys[index])

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
            self.net.scheduler.schedule(FAULT_DELAY_MS, lambda: self.net.send(self.addr, dst, msg))
        elif kind == FAULT_CORRUPT:
            if self.rng.random() < self.fault.prob:
                self.send(dst, corrupt_msg(msg, self.rng))
            else:
                self.send(dst, msg)
        else:  # equivocate misbehaves only at proposal time
            self.send(dst, msg)

    def _broadcast(self, msg: dict, dsts: list[str] | None = None) -> None:
        """Send msg to dsts (every node by default) as one multicast; a faulty
        node sends it one `_cast` at a time, so its hooks act per destination."""
        dsts = self.config.node_addrs if dsts is None else dsts
        if self.fault is None:
            self.net.send(self.addr, dsts, msg)
        else:
            for dst in dsts:
                self._cast(dst, msg)

    def _peers(self) -> list[str]:
        return [dst for dst in self.config.node_addrs if dst != self.addr]

    # ------------------------------------------------------------------
    # submission path

    def _on_submit(self, src: str, msg: dict) -> None:
        """The one way a transaction enters the ledger (see the module docstring)."""
        wire = msg["tx"]
        tx = SignedTransaction.from_wire(wire)  # the one parse and canonical check
        if tx is None:
            self.counters["malformed_dropped"] += 1
            return
        tid = tx.tx_id
        if not self.net.verify(tx.body_bytes(), tx.signature, tx.signer):
            reply = TxReceipt(tid, False, contracts.CODE_BAD_SIGNATURE)
            self._cast(src, {"type": "receipt", **reply.wire()})
            return
        if tid in self.decided:
            self._cast(src, {"type": "receipt", **self.decided[tid].wire()})
            return
        waiters = self.submitters.setdefault(tid, [])
        if src not in waiters:
            waiters.append(src)
        if tid not in self.pool:
            # The timer starts when work arrives and restarts only on progress, so
            # submissions that never pause cannot put a silent primary's timeout off.
            idle = not self._work_pending()
            self.pool[tid] = wire
            if idle:
                self._rearm_timer()
            self._maybe_propose()

    # ------------------------------------------------------------------
    # proposals

    def _batch_signed(self, wires: list[dict]) -> bool:
        """Whether each wire has a body `SignedTransaction.from_wire` admits, signed by
        its signer; a wire equal to its pool entry was checked when `_on_submit`
        pooled it, so only the others are parsed and verified."""
        unpooled = [w for w in wires if self.pool.get(text_id(w["body"])) != w]
        return all(tx is not None and self.net.verify(tx.body_bytes(), tx.signature, tx.signer)
                   for tx in map(SignedTransaction.from_wire, unpooled))

    def _undecided_batch(self) -> list[dict]:
        return list(islice(self.pool.values(), BATCH_SIZE))

    def _maybe_propose(self) -> None:
        if self.config.primary(self.view) != self.index or self.vc_target is not None:
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
        """Send a pre-prepare for the next height to the peers and take it here at
        once, so the height is in flight before any later submission is handled."""
        pre_prepare = self._pre_prepare(self.view, self.next_height, batch_digest(wires), wires)
        if self.fault is not None and self.fault.kind == FAULT_EQUIVOCATE:
            self._propose_equivocating(pre_prepare)
        else:
            self._broadcast(pre_prepare, self._peers())
        self._on_pre_prepare(self.addr, pre_prepare)

    def _propose_equivocating(self, pre_prepare: dict) -> None:
        """Send conflicting proposals to two halves of the replica set."""
        wires = pre_prepare["batch"]
        # A reversed or duplicated batch changes the digest.
        other = list(reversed(wires)) if len(wires) > 1 else wires + wires
        variants = [pre_prepare,
                    self._pre_prepare(self.view, pre_prepare["height"], batch_digest(other), other)]
        half = self.config.n // 2
        for i, dst in enumerate(self.config.node_addrs):
            if dst != self.addr:
                self.send(dst, variants[0] if i < half else variants[1])

    # ------------------------------------------------------------------
    # three-phase votes

    def _slot(self, view: int, height: int) -> _Slot:
        return self.slots.setdefault(height, {}).setdefault(view, _Slot())

    def _on_pre_prepare(self, src: str, msg: dict) -> None:
        """A peer's pre-prepare, this node's own as primary, or a buffered one
        replayed: each passes the same signature check, through `net.verify`."""
        view, h, digest, sender = msg["view"], msg["height"], msg["digest"], msg["sender"]
        if view != self.view or sender != self.config.primary(view):
            self.counters["malformed_dropped"] += 1
            return
        if h < self.next_height:
            return
        if not self._vote_valid(_vote_body("p", view, h, digest), sender, msg["sig"]):
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
        if not batch or batch_digest(batch) != digest or not self._batch_signed(batch):
            self.counters["malformed_dropped"] += 1
            return
        slot.batch = batch
        slot.digest = digest
        slot.prepares.setdefault(digest, {})[sender] = msg["sig"]
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
        votes = (slot.prepares if tag == "p" else slot.commits).setdefault(digest, {})
        votes[sender] = sig
        if (tag == "c" and len(votes) >= self.config.quorum
                and (h, digest) != (self.next_height, slot.digest)):
            self._request_sync(self.config.node_addrs[sender], h)
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
            self._commit_block(_certificate(view, height, slot.digest, slot.batch, votes))

    # ------------------------------------------------------------------
    # commit and execution

    def _commit_block(self, cert: dict) -> None:
        """Execute a commit certificate's batch as the block at its height."""
        height, batch = cert["height"], cert["batch"]
        if height != self.next_height:
            return
        content_txs: list[dict] = []
        receipts: list[tuple[str, TxReceipt]] = []
        notifications: list[tuple[str, dict]] = []  # (agent address, message)
        task_agent, exec_agent = self.config.task_agent_addr, self.config.exec_agent_addr
        for wire in batch:
            tid = text_id(wire["body"])
            if tid in self.decided:
                continue  # at-most-once commit per tx id
            tx = SignedTransaction.from_wire(wire, checked=True)  # see `_batch_signed`
            verdict = contracts.verify_tx(tx, self.state, self.log_query, self.config.ledger_secret)
            if verdict.accepted:
                effects = contracts.apply_tx(tx, self.state)
                content_txs.append(wire)
                self.counters["txs_committed"] += 1
                info = tx.body.get("event_info")
                if tx.kind == KIND_EVENT and effects.get("consumable") and task_agent:
                    cid = contracts.gen_randomness(self.config.ledger_secret, info)
                    notifications.append((task_agent, {
                        "type": "notify_event", "event_info": info, "cid": cid,
                        "height": height}))
                elif tx.kind == KIND_ACTION and exec_agent:
                    notifications.append((exec_agent, {
                        "type": "notify_actions", "event_info": info,
                        "actions": effects["actions"], "height": height}))
            else:
                self.counters["txs_rejected"] += 1
            receipt = TxReceipt(tid, verdict.accepted, verdict.code, height)
            self.decided[tid] = receipt
            receipts.append((tid, receipt))
            self.pool.pop(tid, None)

        proof = {"view": cert["view"], "proposal_digest": cert["digest"], "votes": cert["votes"]}
        self.chain.append(make_block(height, self.chain[-1]["digest"], content_txs, batch, proof))
        self.slots.pop(height, None)
        self.counters["blocks_committed"] += 1
        self._vc_round = 0
        self.vc_target = None

        for tid, receipt in receipts:
            for client in self.submitters.pop(tid, []):
                self._cast(client, {"type": "receipt", **receipt.wire()})
        for agent, msg in notifications:
            self._cast(agent, msg)

        while self.next_height in self.committed_buffer:  # each entry is certified
            self._commit_block(self.committed_buffer.pop(self.next_height))
        self._replay_pp_buffer()
        self._rearm_timer()
        self._maybe_propose()

    # ------------------------------------------------------------------
    # catch-up: sync requests and their replies

    def _request_sync(self, peer: str, quorum_height: int) -> None:
        """Ask peer, whose commit vote completed a quorum this node cannot
        apply, for the blocks from next_height: once per quorum height."""
        if quorum_height > self._sync_asked:
            self._sync_asked = quorum_height
            self._cast(peer, {"type": "sync_req", "height": self.next_height})

    def _on_committed(self, src: str, msg: dict) -> None:
        """One block of a sync reply, applied only with its commit certificate."""
        h = msg["height"]
        if h < self.next_height or h in self.committed_buffer:
            return
        cert = self._checked_cert(msg, "c")
        if cert is None or not self._batch_signed(cert["batch"]):
            self.counters["malformed_dropped"] += 1
            return
        # Only certified heights are buffered, so no peer can grow the buffer.
        if h > self.next_height:
            self.committed_buffer[h] = cert
        else:
            self._commit_block(cert)

    def _replay_pp_buffer(self) -> None:
        buffered, self.pp_buffer = self.pp_buffer, []
        for msg in buffered:
            if msg["height"] >= self.next_height:
                self._on_pre_prepare("", msg)

    def _on_sync_req(self, src: str, msg: dict) -> None:
        """Send the committed blocks from the asked height, at most SYNC_RUN of them."""
        start = max(msg["height"], 1)
        for block in self.chain[start:start + SYNC_RUN]:
            proof = block["proof"]
            self._cast(src, {"type": "committed", "view": proof["view"], "height": block["height"],
                             "digest": proof["proposal_digest"], "batch": block["proposal"],
                             "votes": proof["votes"]})

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
        # A view change that timed out moves on to the view after its target.
        self._start_view_change((self.view if self.vc_target is None else self.vc_target) + 1)

    def _prepared_cert(self) -> dict | None:
        """The certificate of the next height's proposal prepared in the highest view."""
        h = self.next_height
        for view, slot in sorted(self.slots.get(h, {}).items(), reverse=True):
            votes = slot.prepares.get(slot.digest, {})
            if slot.digest is not None and len(votes) >= self.config.quorum:
                return _certificate(view, h, slot.digest, slot.batch, votes)
        return None

    def _checked_cert(self, cert: dict, tag: str) -> dict | None:
        """The one certificate check, for prepared (tag "p") and commit ("c")
        certificates alike: cert with only its valid votes, if its batch has its
        digest and a quorum of its votes is valid, else None."""
        view, h, digest, batch = cert["view"], cert["height"], cert["digest"], cert["batch"]
        if batch_digest(batch) != digest:
            return None
        votes = valid_votes(self.config.node_pubkeys, tag, view, h, digest, cert["votes"],
                            self.net.verify)
        if len(votes) < self.config.quorum:
            return None
        return _certificate(view, h, digest, batch, votes)

    def _view_change_valid(self, vc: dict) -> bool:
        """A view change's signature and, if it carries one, its prepared certificate."""
        cert = vc["cert"]
        body = _vc_body(vc["new_view"], vc["last_height"], digest_hex(cert) if cert else "")
        if not self._vote_valid(body, vc["sender"], vc["sig"]):
            return False
        return cert is None or self._checked_cert(cert, "p") is not None

    def _start_view_change(self, target_view: int) -> None:
        self.vc_target = target_view
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
        self._rearm_timer()

    def _on_view_change(self, src: str, msg: dict) -> None:
        new_view, sender = msg["new_view"], msg["sender"]
        if not self._view_change_valid(msg):
            self.counters["malformed_dropped"] += 1
            return
        # A view change states how far its sender got: send it what it lacks.
        self._on_sync_req(self.config.node_addrs[sender], {"height": msg["last_height"] + 1})
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
        self.vc_target = None
        self.vc_msgs = {v: bucket for v, bucket in self.vc_msgs.items() if v > view}

    def _become_primary(self, new_view: int, bucket: dict[int, dict]) -> None:
        if new_view <= self.view:
            return
        self._enter_view(new_view)
        vcs = {idx: bucket[idx] for idx in sorted(bucket)}
        cert = self._best_cert(vcs)
        # Re-propose the prepared batch, else a fresh one, and take it here at once.
        wires = cert["batch"] if cert is not None else self._undecided_batch()
        pre_prepare = None
        if wires:
            pre_prepare = self._pre_prepare(new_view, self.next_height, batch_digest(wires), wires)
        new_view_msg = {"type": "new_view", "view": new_view,
                        "vcs": {str(i): m for i, m in vcs.items()}, "pre_prepare": pre_prepare}
        self._broadcast(new_view_msg, self._peers())
        self._rearm_timer()
        if pre_prepare is not None:
            self._on_pre_prepare(self.addr, pre_prepare)

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
