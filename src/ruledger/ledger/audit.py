"""Ledger dumps and the full-chain audit.

A dump is newline-delimited canonical JSON: a header naming the replica
set, one line per block, and a state-digest footer.  The audit checks that
block 0 is the genesis block, recomputes every content digest, walks the
prev-digest chain, verifies each block's commit certificate, and finally
replays all committed transactions to check the recorded state digest.
Any out-of-band mutation of a stored block or table row breaks one of
those checks.

Each block carries `proposal`, the batch its commit certificate signs: the
audit checks its digest against the certificate and that `txs` is an
in-order subsequence of it.  Block content is tied to the chain by the
recomputed digests.  Each record is checked against its shape before it is
read, so a malformed dump is reported, never raised on.  A tx body is its
signed text, as on the wire (see `tx`): the digests cover it as a string,
and the replay parses each committed body once, through
`SignedTransaction.from_wire`, and reports a body it refuses.

The audit checks no tx signature: it trusts the commit certificate it
checks.  Of a quorum's 2f + 1 valid commit votes at most f are Byzantine,
so at least f + 1 honest replicas voted for the proposal, and an honest
replica votes only on a batch whose every tx signature it checked
(`_on_submit` and `_batch_signed` in `node`), as PBFT's quorum intersection
argues (Castro & Liskov, OSDI 1999, §4).  A signature altered after commit
changes the wire, so `txs` is then no subsequence of `proposal`, or
`proposal` no longer matches its certificate.

The header's `n` and `f` are not trusted: the audit derives f and the
commit quorum from the header's key list by the one fault bound
(`node.max_faulty`), and reports a header whose `n` or `f` disagrees with
that list, or whose list is no valid replica count, as malformed.  It does
trust the key list and the genesis ACL themselves, so a dump re-keyed
throughout is consistent with itself: compare its header with the
deployment's keys.  Under such a header no audit proves anything, whether
or not it re-checks tx signatures: the forger holds every voting key and
writes the genesis ACL, so it can sign both the votes and the txs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import contracts, keys
# digest_hex is bound here for perfbench/tracer.py, which rebinds it per module.
from ..canonical import (  # noqa: F401
    by_index,
    canonical_bytes,
    digest_hex,
    is_int,
    is_str,
    list_of,
    message,
    object_of,
)
from .node import (
    LedgerNode,
    batch_digest,
    block_digest,
    genesis_block,
    genesis_state,
    max_faulty,
    quorum_size,
    replica_count_ok,
    tx_wire,
    valid_votes,
)
from .tx import SignedTransaction

HEADER = message("header", n=is_int, f=is_int, node_index=is_int, node_pubkeys=list_of(is_str),
                 genesis_acl=list_of(object_of(signer=is_str, role=is_str, usr_id=is_int)))
# A block's commit certificate is checked on its own, so the issue can name it.
BLOCK = message("block", height=is_int, prev_digest=is_str, txs=list_of(tx_wire),
                proposal=list_of(tx_wire), digest=is_str, proof=lambda v: True)
BLOCK_PROOF = object_of(view=is_int, proposal_digest=is_str, votes=by_index(is_str))
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

    Commit certificates are per-node attestation metadata (each replica
    stores the votes it happened to collect), so they are excluded here.
    """
    return [block["digest"] for block in node.chain]


def _subsequence(txs: list[dict], proposal: list[dict]) -> bool:
    """Whether txs appear in proposal, in the same order."""
    rest = iter(proposal)
    return all(any(wire == tx for wire in rest) for tx in txs)


def _parse_dump(data: bytes) -> list[dict]:
    import json

    records = []
    for raw in data.splitlines():
        if raw.strip():
            records.append(json.loads(raw))
    return records


def _header_ok(record) -> bool:
    """Whether record is a header whose key list is a replica set that runs,
    with that set's n and f."""
    if not HEADER(record):
        return False
    n = len(record["node_pubkeys"])
    return replica_count_ok(n) and record["n"] == n and record["f"] == max_faulty(n)


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
    for i, block in enumerate(blocks[1:], 1):
        h, proof = block["height"], block["proof"]
        if h != i:
            issues.append(f"height gap: expected {i}, found {h}")
            break
        if block["prev_digest"] != prev_digest:
            issues.append(f"block {i}: prev_digest does not match chain")
        if block_digest(h, block["prev_digest"], block["txs"]) != block["digest"]:
            issues.append(f"block {i}: content digest mismatch")
        if not _subsequence(block["txs"], block["proposal"]):
            issues.append(f"block {i}: txs are not an in-order subsequence of the proposal")
        if not BLOCK_PROOF(proof):
            issues.append(f"block {i}: malformed commit certificate")
        elif batch_digest(block["proposal"]) != proof["proposal_digest"]:
            issues.append(f"block {i}: proposal does not match its commit certificate")
        else:
            valid = len(valid_votes(
                pubkeys, "c", proof["view"], h, proof["proposal_digest"], proof["votes"],
                keys.verify_signature,
            ))
            if valid < quorum:
                issues.append(
                    f"block {i}: commit certificate has {valid} valid votes, needs {quorum}"
                )
        prev_digest = block["digest"]

    # Replay all committed transactions to rebuild the table state.
    state = genesis_state(header["genesis_acl"])
    for block in blocks:
        for wire in block["txs"]:
            tx = SignedTransaction.from_wire(wire)
            if tx is None:
                issues.append(f"block {block['height']}: committed tx with a malformed body")
                continue
            try:
                contracts.apply_tx(tx, state)
            except Exception as exc:  # replay must never crash the audit
                issues.append(f"block {block['height']}: replay failed: {exc}")

    if not footers:
        issues.append("missing state footer")
    elif footers[-1]["digest"] != state.state_digest():
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
