"""Ledger dumps and the full-chain audit.

A dump is newline-delimited canonical JSON: a header naming the replica
set, one line per block, and a state-digest footer.  The audit checks that
block 0 is the genesis block; for each later block it checks its height and
prev-digest link, its commit certificate, its content digest and its
accepted positions, and replays its accepted transactions; last, it checks
the replayed state against the footer's digest.  Any out-of-band mutation of
a stored block or table row breaks one of those checks.

Each block carries `cert`, the commit certificate that committed it, in the
shape consensus sends it (`node.CERT`), and `txs`, the strictly ascending
positions in the certificate's batch that were accepted, so each tx is
stored once (`node.block_txs` reads them).  The audit checks the
certificate's shape and height first, as the content digest covers the batch
through the certificate's digest; it checks the votes with the node's own
certificate check (`node.cert_votes`), which also checks the batch against
that digest, and checks that `txs` ascends strictly within the batch.  A
block whose txs cannot be read (a malformed certificate or bad positions)
has no replay, and neither has any block after it or after a height gap, so
the footer is then not compared.  Each record is checked against its shape
before it is read, so a malformed dump is reported, never raised on.  A tx
body is its signed text, as on the wire (see `tx`): the batch digest covers
it as a string, and the replay parses each committed body once, through
`SignedTransaction.from_wire`, and reports a body it refuses.

The audit checks no tx signature: it trusts the commit certificate it
checks.  Of a quorum's 2f + 1 valid commit votes at most f are Byzantine,
so at least f + 1 honest replicas voted for the proposal, and an honest
replica votes only on a batch whose every tx signature it checked
(`_on_submit` and `_batch_signed` in `node`), as PBFT's quorum intersection
argues (Castro & Liskov, OSDI 1999, §4).  A signature altered after commit
changes a wire of the batch, which then no longer matches its certificate's
digest.

The header's `n` and `f` are not trusted: the audit derives f and the
commit quorum from the header's key list by the one fault bound
(`node.max_faulty`), and reports a header whose `n` or `f` disagrees with
that list, or whose list is no valid replica count, as malformed.  So is a
header whose genesis ACL names a signer twice: genesis writes the ACL as
`manage_accounts` does (`contracts.write_accounts`), so the two entries
would be one row.  The audit does trust the key list and the genesis ACL
themselves, so a dump re-keyed throughout is consistent with itself:
compare its header with the deployment's keys.  Under such a header no audit proves anything, whether
or not it re-checks tx signatures: the forger holds every voting key and
writes the genesis ACL, so it can sign both the votes and the txs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import contracts, keys
# digest_hex is bound here for perfbench/tracer.py, which rebinds it per module.
from ..canonical import (  # noqa: F401
    canonical_bytes,
    digest_hex,
    is_int,
    is_str,
    list_of,
    message,
    object_of,
)
from .node import (
    CERT,
    LedgerNode,
    block_digest,
    block_txs,
    cert_votes,
    genesis_block,
    genesis_state,
    max_faulty,
    quorum_size,
    replica_count_ok,
)
from .tx import SignedTransaction

HEADER = message("header", n=is_int, f=is_int, node_index=is_int, node_pubkeys=list_of(is_str),
                 genesis_acl=list_of(object_of(signer=is_str, role=is_str, usr_id=is_int)))
# A block's commit certificate is checked on its own (`CERT`), so the issue can name it.
BLOCK = message("block", height=is_int, prev_digest=is_str, txs=list_of(is_int),
                digest=is_str, cert=lambda v: True)
FOOTER = message("state", digest=is_str)


@dataclass
class AuditResult:
    ok: bool
    height: int
    issues: list[str] = field(default_factory=list)


def dump_lines(node: LedgerNode) -> list[dict]:
    header = {
        "type": "header",
        "n": node.config.n,
        "f": node.config.f,
        "node_index": node.index,
        "node_pubkeys": list(node.config.node_pubkeys),
        "genesis_acl": list(node.config.genesis_acl),
    }
    lines: list[dict] = [header]
    lines.extend({"type": "block", **block} for block in node.chain)
    lines.append({"type": "state", "digest": node.state.state_digest()})
    return lines


def dump_bytes(node: LedgerNode) -> bytes:
    return b"\n".join(canonical_bytes(line) for line in dump_lines(node)) + b"\n"


def write_dump(node: LedgerNode, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_bytes(node))


def content_digests(node: LedgerNode) -> list[str]:
    """The digest chain over block content; the cross-node equality surface.

    A block's digest covers its height, its prev digest, its batch by the
    commit certificate's digest, and its accepted positions, so honest
    replicas that commit one batch share it.  The certificate's votes are
    per-node attestation metadata (each replica stores the votes it happened
    to collect), so they are not covered.
    """
    return [block["digest"] for block in node.chain]


def _parse_dump(data: bytes) -> list[dict]:
    import json

    records = []
    for raw in data.splitlines():
        if raw.strip():
            records.append(json.loads(raw))
    return records


def _header_ok(record) -> bool:
    """Whether record is a header whose key list is a replica set that runs,
    with that set's n and f, and whose genesis ACL names each signer once."""
    if not HEADER(record):
        return False
    n = len(record["node_pubkeys"])
    signers = [entry["signer"] for entry in record["genesis_acl"]]
    return (replica_count_ok(n) and record["n"] == n and record["f"] == max_faulty(n)
            and len(set(signers)) == len(signers))


def audit_records(records: list) -> AuditResult:
    if not records or not _header_ok(records[0]):
        return AuditResult(False, 0, ["missing or malformed header record"])
    malformed = [f"record {i}: malformed" for i, record in enumerate(records[1:], 1)
                 if not (BLOCK(record) or FOOTER(record))]
    if malformed:
        return AuditResult(False, 0, malformed)
    issues: list[str] = []
    header = records[0]
    blocks = [r for r in records if r["type"] == "block"]
    footers = [r for r in records if r["type"] == "state"]
    pubkeys = header["node_pubkeys"]
    quorum = quorum_size(len(pubkeys))

    genesis = {"type": "block", **genesis_block()}
    if blocks[:1] != [genesis]:
        issues.append("block 0: not the genesis block")
    prev_digest = genesis["digest"]
    state = genesis_state(header["genesis_acl"])  # None once a block has no replay
    for i, block in enumerate(blocks[1:], 1):
        h, cert, txs = block["height"], block["cert"], block["txs"]
        if h != i:
            issues.append(f"height gap: expected {i}, found {h}")
            state = None
            break
        if block["prev_digest"] != prev_digest:
            issues.append(f"block {i}: prev_digest does not match chain")
        prev_digest = block["digest"]
        # A certificate of another height may hold valid votes, but not for this block.
        if not CERT(cert) or cert["height"] != h:
            issues.append(f"block {i}: malformed commit certificate")
            state = None
            continue
        if block_digest(h, block["prev_digest"], cert["digest"], txs) != block["digest"]:
            issues.append(f"block {i}: content digest mismatch")
        votes = cert_votes(pubkeys, cert, "c", keys.verify_signature)
        if votes is None:
            issues.append(f"block {i}: proposal does not match its commit certificate")
        elif len(votes) < quorum:
            issues.append(
                f"block {i}: commit certificate has {len(votes)} valid votes, needs {quorum}"
            )
        # Positions ascend strictly, from at least 0 to below the batch's length.
        if not all(a < b for a, b in zip([-1, *txs], [*txs, len(cert["batch"])])):
            issues.append(f"block {i}: txs are not ascending positions in the proposal")
            state = None
        elif state is not None:
            for wire in block_txs(block):
                tx = SignedTransaction.from_wire(wire)
                if tx is None:
                    issues.append(f"block {i}: committed tx with a malformed body")
                    continue
                try:
                    contracts.apply_tx(tx, state)
                except Exception as exc:  # replay must never crash the audit
                    issues.append(f"block {i}: replay failed: {exc}")

    if not footers:
        issues.append("missing state footer")
    elif state is not None and footers[-1]["digest"] != state.state_digest():
        issues.append("state digest does not match transaction replay")

    return AuditResult(ok=not issues, height=len(blocks) - 1, issues=issues)


def audit_dump(path: str) -> AuditResult:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        records = _parse_dump(data)
    except (ValueError, RecursionError) as exc:  # the parser recurses per nesting level
        return AuditResult(False, 0, [f"unparseable dump: {exc}"])
    return audit_records(records)


def audit_node(node: LedgerNode) -> AuditResult:
    """Audit a live node's stored chain and current table state."""
    return audit_records(dump_lines(node))
