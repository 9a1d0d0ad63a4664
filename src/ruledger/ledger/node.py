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
in PBFT (the primary's own prepare, which it still sends to its peers,
carries the same signature).  So there is one certificate shape,
`_CERT_FIELDS`: a batch, its digest, and a quorum of votes of one tag on
(view, height, digest), "p" in the prepared certificate a view change
carries and "c" in the commit certificate a `committed` message carries,
`_commit_block` takes and each block keeps.  `_certificate` builds one, and `cert_votes` checks
one's batch against its digest and returns its valid votes, for the node's
`_checked_cert` and for the audit alike.

A replica sends its own messages to its peers only and takes them through
the handlers its peers run before it returns, so each rule is stated once:
`_propose` hands its pre-prepare to `_on_pre_prepare`, `_start_view_change`
its view change to `_on_view_change`, and `_become_primary` its new view to
`_on_new_view`, the one way into a view for every replica.  So a height is
in flight from the moment it is proposed and no later submission can make a
second proposal for it (PBFT assigns each sequence number once).  Votes are
the exception: `_cast` puts its prepare or commit in its slot's votes the
moment it signs it, as a PBFT replica adds its own to its log (Castro and
Liskov, OSDI 1999, section 4.2), because `_check_slot` casts them and a vote
handed to `_on_vote` would re-enter `_check_slot`.  None of its own messages
waits on a network trip.  A timeout-driven view change rotates the primary
when no progress is made: the commit timer starts when work arrives at an
idle node and restarts only on progress (an accepted pre-prepare or a
commit), so a stream of new submissions never puts a timeout off, and each
timeout inside a view change moves its target one view on.

The batch is the pool: a primary proposes every pooled transaction, in
arrival order, up to `MAX_BATCH` wires, as PBFT batches requests (Castro and
Liskov, TOCS 2002), so a backlog drains in one block.  The cap bounds the size
of a pre-prepare: `MESSAGES` refuses a longer batch in any message, so no
peer can make a replica parse and verify an unbounded list.

Catch-up is pull only.  Each block keeps `cert`, the commit certificate
`_check_slot` committed it by, and `txs`, the ascending positions in its batch
that were accepted, so each tx is stored once and every block can be served
again as it is; `block_txs` reads a block's accepted wires.  A node that
holds a commit quorum it cannot apply (a height above `next_height`, or a
digest other than its slot's) sends a `sync_req` for the blocks from
`next_height` to the voter that completed the quorum, once per such height;
every peer answers a view change, which states its sender's last height, as
such a request once per sender and (last_height, new_view).  `_on_sync_req`
answers with the stored certificates of at most `SYNC_RUN` blocks as
`committed` messages.  `_on_committed` checks a reply's certificate and
writes it into its slot as a commit quorum, so a block commits one way,
through `_check_slot`, whether its votes came one by one or in a
certificate; a certified height above `next_height` waits in its slot like
any other.

`LedgerNode.MESSAGES`, the node's table at the boundary every process shares
(see `sim.Process`), gives the exact shape of every message (nested ones,
certificates, transaction wires and vote maps included): a handler runs only
on a message the table admits, and reads it unguarded.  A later height's
messages are kept only once authenticated.  Consensus treats a tx body
as opaque: a wire's body is its signed canonical text (see `tx`), which the
table admits as a string and whose hash, together with the signer, is the
tx id.  A batch stays in the wire form the table admitted, which
`batch_digest` covers, from the pool to the block.  A batch wire equal to
its pool entry is not checked again, as
`_on_submit` checked it before pooling it; any other is parsed, checked and
verified.  So no replica serializes a body after `_on_submit`, and
`_commit_block` parses only a wire outside the pool, which keeps each parsed tx.
Each vote body is serialized once (`_vote_bytes`).  `_on_submit` and
`_batch_signed` are the only checkers of tx signatures: the offline audit
trusts a commit certificate's f + 1 honest voters to have run them (see
`audit`).  Every check goes through `net.verify`, the memo all replicas of a
simulation share (see `keys`); the audit verifies its commit votes for
itself.
A node sends each broadcast to its peers as one multicast (see
`sim.network`), never a message to itself, and has no fault code: the
network hands a faulty node's sends to its `fault` (see `faults`).

The node keeps only the consensus state a handler can still read:
- `pool` maps the id of each undecided transaction to its wire and parsed tx,
  and never holds a decided id: `_on_submit` answers a decided id from `decided`,
  and `_commit_block` pops each id it decides;
- `slots` maps height -> view -> `_Slot` for the window of heights
  `next_height <= h < next_height + WINDOW` only, as PBFT's low and high
  watermarks bound its log: handlers ignore every other height, and
  `_commit_block` drops the height it commits.  A pre-prepare, a vote or a
  sync reply's certificate for a later height waits in its slot, and
  `_check_slot` acts on it once that height is next.  Votes are kept for
  views below `view + N` only, so no peer can open a slot for every view;
  a lower view stays, as its commit quorum still commits;
- `vc_msgs` holds view-change buckets only for views above `view`, and in
  them only each sender's highest view change: `_on_view_change` ignores
  the others and replaces a sender's lower one, and `_enter_view` drops the
  buckets up to `view`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
from .faults import FaultSpec
from .tx import KIND_ACTION, KIND_EVENT, TX_KINDS, SignedTransaction, TxReceipt, text_id

GENESIS_PREV = "0" * 64
SYNC_RUN = 8  # the most blocks one sync reply carries
MAX_BATCH = 4096  # the most wires one batch carries, a bound no workload reaches
WINDOW = 64  # the heights from next_height a replica keeps consensus state for


class ConfigError(ValueError):
    """Invalid ledger or scenario configuration."""


# The one fault bound.  f and every quorum are facts about the replica count n
# (PBFT needs n >= 3f + 1), so everything derives them from a replica list.

def replica_count_ok(n: int) -> bool:
    """Whether n replicas run: at least 4, so that f is at least 1."""
    return n >= 4


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
    task_agent_addr: str  # where `notify_event` goes
    exec_agent_addr: str  # where `notify_actions` goes
    genesis_acl: list[dict] = field(default_factory=list)
    commit_timeout_ms: int = 3000

    def __post_init__(self) -> None:
        n = len(self.node_addrs)
        if n != len(self.node_pubkeys):
            raise ConfigError("node_addrs and node_pubkeys length mismatch")
        if not replica_count_ok(n):
            raise ConfigError(f"a ledger needs at least 4 nodes (got {n})")

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


@lru_cache(maxsize=1024)
def _vote_bytes(tag: str, view: int, height: int, digest: str) -> bytes:
    """The signed bytes of a vote body, serialized once for every replica that checks it."""
    return canonical_bytes(_vote_body(tag, view, height, digest))


def _vc_body(new_view: int, last_height: int, cert_digest: str) -> dict:
    return {"t": "vc", "v": new_view, "lh": last_height, "cd": cert_digest}


def batch_digest(batch_wires: list[dict]) -> str:
    return digest_hex(batch_wires)


def cert_votes(pubkeys: list[str], cert: dict, tag: str, verify) -> dict[int, str] | None:
    """The votes of cert, a certificate `CERT` admits, prepared (tag "p") or
    committed ("c"), whose signatures `verify` (over bytes, as
    `keys.verify_signature`) checks, by node index; None if its batch does not
    have its digest."""
    digest = cert["digest"]
    if batch_digest(cert["batch"]) != digest:
        return None
    body = _vote_bytes(tag, cert["view"], cert["height"], digest)
    valid: dict[int, str] = {}
    for key, sig in cert["votes"].items():
        idx = int(key)
        if idx < len(pubkeys) and verify(body, sig, pubkeys[idx]):
            valid[idx] = sig
    return valid


# ----------------------------------------------------------------------
# wire format: the shapes LedgerNode.MESSAGES is composed of


# A signed transaction whose body is its text, which only `SignedTransaction.from_wire` reads.
tx_wire = object_of(kind=one_of(*TX_KINDS), body=is_str, signer=is_str, signature=is_str)
# Every batch a peer sends (pre-prepare, re-proposal, sync reply, certificate) is bounded.
_BATCH = list_of(tx_wire, most=MAX_BATCH)
_VOTE_FIELDS = dict(view=is_int, height=is_int, digest=is_str, sender=is_int, sig=is_str)
_PRE_PREPARE = message("pre_prepare", **_VOTE_FIELDS, batch=_BATCH)
# The one certificate shape, prepared or committed: a quorum of votes on a batch.
_CERT_FIELDS = dict(view=is_int, height=is_int, digest=is_str, batch=_BATCH, votes=by_index(is_str))
CERT = object_of(**_CERT_FIELDS)
_VIEW_CHANGE = message("view_change", new_view=is_int, last_height=is_int,
                       cert=or_none(CERT), sender=is_int, sig=is_str)


def block_digest(height: int, prev_digest: str, cert_digest: str, txs: list[int]) -> str:
    """The digest of a block's content: its place in the chain, its batch by the
    commit certificate's digest, and txs, the positions in that batch it accepted."""
    return digest_hex({"height": height, "prev_digest": prev_digest,
                       "batch_digest": cert_digest, "txs": txs})


def _certificate(view: int, height: int, digest: str, batch: list[dict],
                votes: dict[int, str]) -> dict:
    """A certificate of `_CERT_FIELDS`' shape, its votes in node order."""
    return {"view": view, "height": height, "digest": digest, "batch": batch,
            "votes": {str(i): sig for i, sig in sorted(votes.items())}}


def make_block(prev_digest: str, txs: list[int], cert: dict) -> dict:
    """The block at cert's height: txs, the ascending positions in cert's batch it accepted."""
    height = cert["height"]
    return {"height": height, "prev_digest": prev_digest, "txs": txs,
            "digest": block_digest(height, prev_digest, cert["digest"], txs), "cert": cert}


def block_txs(block: dict) -> list[dict]:
    """The wires a block accepted, read from its certificate's batch."""
    return [block["cert"]["batch"][pos] for pos in block["txs"]]


def genesis_block() -> dict:
    return make_block(GENESIS_PREV, [], _certificate(-1, 0, "", [], {}))


def genesis_state(genesis_acl: list[dict]) -> tables.TableStore:
    """The table state below block 1: the genesis accounts' ACL rows."""
    state = tables.TableStore()
    contracts.write_accounts(state, genesis_acl)
    return state


class _Slot:
    """Vote bookkeeping for one (view, height) consensus instance."""

    def __init__(self) -> None:
        self.batch: list[dict] | None = None  # tx wires; set together with digest
        self.digest: str | None = None
        # digest -> node index -> sig; the primary's pre-prepare is its prepare
        self.prepares: dict[str, dict[int, str]] = {}
        self.commits: dict[str, dict[int, str]] = {}
        self.sent_prepare = False
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
        log_query: contracts.LogQuery,
        fault: FaultSpec | None = None,
    ):
        super().__init__(addr, net)
        self.index = index
        self.keypair = keypair
        self.config = config
        self.fault = fault
        self.log_query = log_query

        self.view = 0
        self.chain: list[dict] = [genesis_block()]
        self.state = genesis_state(config.genesis_acl)

        self.pool: dict[str, tuple[dict, SignedTransaction]] = {}  # tx id -> (wire, its tx)
        self.submitters: dict[str, list[str]] = {}
        self.decided: dict[str, TxReceipt] = {}
        self.slots: dict[int, dict[int, _Slot]] = {}  # height -> view -> slot
        self.vc_msgs: dict[int, dict[int, dict]] = {}
        self.vc_target: int | None = None  # the view a view change in progress aims at
        self._sync_asked = 0  # the highest quorum height a sync_req was sent for
        self._vc_answered: dict[int, tuple[int, int]] = {}  # sender -> (last_height, new_view)
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

    def _vote_valid(self, body: bytes, index: int, sig: str) -> bool:
        keys = self.config.node_pubkeys
        return 0 <= index < len(keys) and self.net.verify(body, sig, keys[index])

    def _broadcast(self, msg: dict) -> None:
        """Send msg to every other node as one multicast; a node takes its own at once."""
        self.net.send(self.addr, [dst for dst in self.config.node_addrs if dst != self.addr], msg)

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
            self.send(src, {"type": "receipt", **reply.wire()})
            return
        if tid in self.decided:
            self.send(src, {"type": "receipt", **self.decided[tid].wire()})
            return
        waiters = self.submitters.setdefault(tid, [])
        if src not in waiters:
            waiters.append(src)
        # The timer starts when work arrives and restarts only on progress, so
        # submissions that never pause cannot put a silent primary's timeout off.
        # A tid already pooled keeps its place (its wire is equal) and finds the node busy.
        idle = not self._work_pending()
        self.pool[tid] = (wire, tx)
        if idle:
            self._rearm_timer()
        self._maybe_propose()

    # ------------------------------------------------------------------
    # proposals

    def _pooled(self, tid: str, wire: dict) -> SignedTransaction | None:
        """The tx `_on_submit` parsed and checked for wire, if wire equals tid's pool entry."""
        entry = self.pool.get(tid)
        return entry[1] if entry is not None and entry[0] == wire else None

    def _batch_signed(self, wires: list[dict]) -> bool:
        """Whether each wire has a body `SignedTransaction.from_wire` admits, signed by
        its signer; a wire equal to its pool entry was checked when `_on_submit`
        pooled it, so only the others are parsed and verified."""
        unpooled = [w for w in wires if self._pooled(text_id(w["signer"], w["body"]), w) is None]
        return all(tx is not None and self.net.verify(tx.body_bytes(), tx.signature, tx.signer)
                   for tx in map(SignedTransaction.from_wire, unpooled))

    def _undecided_batch(self) -> list[dict]:
        """The whole pool's wires, in arrival order, up to MAX_BATCH of them."""
        return [wire for wire, _tx in islice(self.pool.values(), MAX_BATCH)]

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
            "sig": self.keypair.sign(_vote_bytes(_VOTE_TAGS[kind], view, height, digest)),
        }

    def _pre_prepare(self, view: int, height: int, wires: list[dict]) -> dict:
        return {**self._vote("pre_prepare", view, height, batch_digest(wires)), "batch": wires}

    def _propose(self, wires: list[dict]) -> None:
        """Send a pre-prepare for the next height to the peers and take it here at
        once, so the height is in flight before any later submission is handled."""
        pre_prepare = self._pre_prepare(self.view, self.next_height, wires)
        self._broadcast(pre_prepare)
        self._on_pre_prepare(self.addr, pre_prepare)

    # ------------------------------------------------------------------
    # three-phase votes

    def _slot(self, view: int, height: int) -> _Slot:
        return self.slots.setdefault(height, {}).setdefault(view, _Slot())

    def _in_window(self, height: int) -> bool:
        return self.next_height <= height < self.next_height + WINDOW

    def _on_pre_prepare(self, src: str, msg: dict) -> None:
        """A peer's pre-prepare or this node's own as primary, for any height in
        the window: each passes the same checks, through `net.verify`, and goes
        into its slot, where `_check_slot` prepares it once its height is next."""
        view, h, digest, sender = msg["view"], msg["height"], msg["digest"], msg["sender"]
        if view != self.view or sender != self.config.primary(view):
            self.counters["malformed_dropped"] += 1
            return
        if not self._in_window(h):
            return
        if not self._vote_valid(_vote_bytes("p", view, h, digest), sender, msg["sig"]):
            self.counters["malformed_dropped"] += 1
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
        self._check_slot(view, h)

    def _on_vote(self, src: str, msg: dict) -> None:
        """A prepare or a commit."""
        view, h, digest = msg["view"], msg["height"], msg["digest"]
        sender, sig = msg["sender"], msg["sig"]
        if not self._in_window(h) or view >= self.view + self.config.n:
            return
        tag = _VOTE_TAGS[msg["type"]]
        if not self._vote_valid(_vote_bytes(tag, view, h, digest), sender, sig):
            self.counters["malformed_dropped"] += 1
            return
        slot = self._slot(view, h)
        votes = (slot.prepares if tag == "p" else slot.commits).setdefault(digest, {})
        votes[sender] = sig
        if (tag == "c" and len(votes) >= self.config.quorum
                and (h, digest) != (self.next_height, slot.digest)):
            self._request_sync(self.config.node_addrs[sender], h)
        self._check_slot(view, h)

    def _check_slot(self, view: int, height: int) -> None:
        """Act on the next height's slot in view once its pre-prepare is in: the
        one place that sends a prepare, and then a commit on a prepared quorum,
        each only while voting: in the current view with no view change in
        flight, as a PBFT replica stops voting in a view it is leaving.  A
        commit quorum of any view, or a sync reply's certificate, commits the
        block: this is the one caller of `_commit_block`."""
        slot = self.slots.get(height, {}).get(view)
        if height != self.next_height or slot is None or slot.digest is None:
            return
        voting = view == self.view and self.vc_target is None
        if voting and not slot.sent_prepare:
            slot.sent_prepare = True
            self._cast(slot.prepares, self._vote("prepare", view, height, slot.digest))
            self._rearm_timer()
        quorum = self.config.quorum
        if voting and not slot.sent_commit and len(slot.prepares.get(slot.digest, {})) >= quorum:
            slot.sent_commit = True
            self._cast(slot.commits, self._vote("commit", view, height, slot.digest))
        votes = slot.commits.get(slot.digest, {})
        if len(votes) >= quorum:
            self._commit_block(_certificate(view, height, slot.digest, slot.batch, votes))

    def _cast(self, votes: dict[str, dict[int, str]], vote: dict) -> None:
        """Log this node's own vote in votes, a slot's prepares or commits, and
        send it to the peers."""
        votes.setdefault(vote["digest"], {})[self.index] = vote["sig"]
        self._broadcast(vote)

    # ------------------------------------------------------------------
    # commit and execution

    def _commit_block(self, cert: dict) -> None:
        """Execute a commit certificate's batch as the block at next_height, then
        act on every slot of the new next_height, in whichever view."""
        height, batch = cert["height"], cert["batch"]
        accepted: list[int] = []  # positions in batch
        receipts: list[tuple[str, TxReceipt]] = []
        notifications: list[tuple[str, dict]] = []  # (agent address, message)
        for pos, wire in enumerate(batch):
            tid = text_id(wire["signer"], wire["body"])
            if tid in self.decided:
                continue  # at-most-once commit per tx id
            # A pooled wire's tx is reused; any other was checked by `_batch_signed`.
            tx = self._pooled(tid, wire) or SignedTransaction.from_wire(wire)
            verdict = contracts.verify_tx(tx, self.state, self.log_query, self.config.ledger_secret)
            if verdict.accepted:
                effects = contracts.apply_tx(tx, self.state)
                accepted.append(pos)
                self.counters["txs_committed"] += 1
                info = tx.body.get("event_info")
                if tx.kind == KIND_EVENT and effects.get("consumable"):
                    cid = contracts.gen_randomness(self.config.ledger_secret, info)
                    notifications.append((self.config.task_agent_addr, {
                        "type": "notify_event", "event_info": info, "cid": cid,
                        "height": height}))
                elif tx.kind == KIND_ACTION:
                    notifications.append((self.config.exec_agent_addr, {
                        "type": "notify_actions", "event_info": info,
                        "actions": effects["actions"], "height": height}))
            else:
                self.counters["txs_rejected"] += 1
            receipt = TxReceipt(tid, verdict.accepted, verdict.code, height)
            self.decided[tid] = receipt
            receipts.append((tid, receipt))
            self.pool.pop(tid, None)

        self.chain.append(make_block(self.chain[-1]["digest"], accepted, cert))
        self.slots.pop(height, None)
        self.counters["blocks_committed"] += 1
        self._vc_round = 0
        self.vc_target = None

        for tid, receipt in receipts:
            for client in self.submitters.pop(tid, []):
                self.send(client, {"type": "receipt", **receipt.wire()})
        for agent, msg in notifications:
            self.send(agent, msg)

        for view in list(self.slots.get(self.next_height, {})):
            self._check_slot(view, self.next_height)
        self._rearm_timer()
        self._maybe_propose()

    # ------------------------------------------------------------------
    # catch-up: sync requests and their replies

    def _request_sync(self, peer: str, quorum_height: int) -> None:
        """Ask peer, whose commit vote completed a quorum this node cannot
        apply, for the blocks from next_height: once per quorum height."""
        if quorum_height > self._sync_asked:
            self._sync_asked = quorum_height
            self.send(peer, {"type": "sync_req", "height": self.next_height})

    def _on_committed(self, src: str, msg: dict) -> None:
        """One block of a sync reply, for a height in the window: its checked
        commit certificate goes into its slot, which casts no vote of its own,
        and `_check_slot` commits it once its height is next."""
        view, h, digest, batch = msg["view"], msg["height"], msg["digest"], msg["batch"]
        if not self._in_window(h):
            return
        votes = self._checked_cert(msg, "c")
        if votes is None or not self._batch_signed(batch):
            self.counters["malformed_dropped"] += 1
            return
        slot = self._slot(view, h)
        slot.batch, slot.digest = batch, digest
        slot.commits[digest] = votes
        slot.sent_prepare = slot.sent_commit = True
        self._check_slot(view, h)

    def _on_sync_req(self, src: str, msg: dict) -> None:
        """Send the commit certificates of the blocks from the asked height, at
        most SYNC_RUN of them."""
        start = max(msg["height"], 1)
        for block in self.chain[start:start + SYNC_RUN]:
            self.send(src, {"type": "committed", **block["cert"]})

    # ------------------------------------------------------------------
    # timeouts and view changes

    def _work_pending(self) -> bool:
        """Whether a transaction waits, or a proposal for the next height is in flight."""
        return bool(self.pool) or any(
            slot.digest for slot in self.slots.get(self.next_height, {}).values()
        )

    def _rearm_timer(self) -> None:
        self._timer_epoch += 1
        # Equivalent mutant: work that reaches an idle node re-arms, voiding an idle timer.
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

    def _checked_cert(self, cert: dict, tag: str) -> dict[int, str] | None:
        """The one certificate check, for prepared (tag "p") and commit ("c")
        certificates alike: cert's valid votes (`cert_votes`), if they are a
        quorum, else None."""
        votes = cert_votes(self.config.node_pubkeys, cert, tag, self.net.verify)
        return votes if votes is not None and len(votes) >= self.config.quorum else None

    def _view_change_valid(self, vc: dict) -> bool:
        """A view change's signature and, if it carries one, its prepared certificate."""
        cert = vc["cert"]
        body = _vc_body(vc["new_view"], vc["last_height"], digest_hex(cert) if cert else "")
        if not self._vote_valid(canonical_bytes(body), vc["sender"], vc["sig"]):
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
            "sig": self.keypair.sign_obj(_vc_body(target_view, last_height, cert_digest)),
        }
        self._broadcast(msg)
        self._rearm_timer()
        self._on_view_change(self.addr, msg)

    def _on_view_change(self, src: str, msg: dict) -> None:
        """A peer's view change or this node's own: answer it as a sync request,
        file it in its bucket if its view is ahead, and lead that view once the
        bucket is a quorum and this node is its primary."""
        new_view, sender = msg["new_view"], msg["sender"]
        if not self._view_change_valid(msg):
            self.counters["malformed_dropped"] += 1
            return
        # A view change states how far its sender got: send it what it lacks, once
        # per sender and (last_height, new_view), so a replayed one is not answered.
        # This node's own asks from next_height, so the answer sends nothing.
        answered = (msg["last_height"], new_view)
        if answered > self._vc_answered.get(sender, (-1, -1)):
            self._vc_answered[sender] = answered
            self._on_sync_req(self.config.node_addrs[sender], {"height": msg["last_height"] + 1})
        if new_view <= self.view:
            return
        # Only each sender's highest view change is kept, so vc_msgs holds at most n.
        if any(view > new_view and sender in held for view, held in self.vc_msgs.items()):
            return
        for held in self.vc_msgs.values():
            held.pop(sender, None)
        self.vc_msgs = {view: held for view, held in self.vc_msgs.items() if held}
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
        """Send the new view, re-proposing the prepared batch, else a fresh one,
        and take it here at once, as every replica takes it."""
        vcs = {idx: bucket[idx] for idx in sorted(bucket)}
        cert = self._best_cert(vcs)
        wires = cert["batch"] if cert is not None else self._undecided_batch()
        pre_prepare = None
        if wires:
            pre_prepare = self._pre_prepare(new_view, self.next_height, wires)
        msg = {"type": "new_view", "view": new_view,
               "vcs": {str(i): m for i, m in vcs.items()}, "pre_prepare": pre_prepare}
        self._broadcast(msg)
        self._on_new_view(self.addr, msg)

    def _on_new_view(self, src: str, msg: dict) -> None:
        """A new primary's new view, a peer's or this node's own: the one way
        into a view, once its view changes and its pre-prepare are checked."""
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
