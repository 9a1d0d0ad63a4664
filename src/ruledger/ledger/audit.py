"""Ledger dumps and the full-chain audit.

A dump is newline-delimited canonical JSON: a header naming the replica
set, one line per block, and a state-digest footer.  The audit recomputes
every content digest, walks the prev-digest chain, verifies each block's
commit certificate, and finally replays all committed transactions to
check the recorded state digest.  Any out-of-band mutation of a stored
block or table row breaks one of those checks.

Commit certificates attest the consensus proposal; block content is tied
to the chain by the recomputed digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import contracts
# digest_hex is bound here for perfbench/tracer.py, which rebinds it per module.
from ..canonical import canonical_bytes, digest_hex  # noqa: F401
from .node import (
    BLOCK_PROOF,
    GENESIS_PREV,
    LedgerNode,
    block_digest,
    genesis_state,
    valid_commit_votes,
)
from .tx import SignedTransaction


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


def _parse_dump(data: bytes) -> list[dict]:
    import json

    records = []
    for raw in data.splitlines():
        if raw.strip():
            records.append(json.loads(raw))
    return records


def audit_records(records: list[dict]) -> AuditResult:
    issues: list[str] = []
    if not records or records[0].get("type") != "header":
        return AuditResult(False, 0, ["missing header record"])
    header = records[0]
    blocks = [r for r in records if r.get("type") == "block"]
    footers = [r for r in records if r.get("type") == "state"]
    pubkeys = header.get("node_pubkeys", [])
    f = header.get("f", 0)
    quorum = 2 * f + 1

    prev_digest = GENESIS_PREV
    for i, block in enumerate(blocks):
        h = block.get("height")
        if h != i:
            issues.append(f"height gap: expected {i}, found {h}")
            break
        if block.get("prev_digest") != prev_digest:
            issues.append(f"block {i}: prev_digest does not match chain")
        if block_digest(h, block["prev_digest"], block["txs"]) != block.get("digest"):
            issues.append(f"block {i}: content digest mismatch")
        proof = block.get("proof")
        if i > 0 and not BLOCK_PROOF(proof):
            issues.append(f"block {i}: malformed commit certificate")
        elif i > 0:
            valid = len(valid_commit_votes(
                pubkeys, proof["view"], h, proof["proposal_digest"], proof["votes"]
            ))
            if valid < quorum:
                issues.append(
                    f"block {i}: commit certificate has {valid} valid votes, needs {quorum}"
                )
        prev_digest = block.get("digest", prev_digest)

    # Replay all committed transactions to rebuild the table state.
    state = genesis_state(header.get("genesis_acl", []))
    for block in blocks:
        for wire in block.get("txs", []):
            tx = SignedTransaction.from_wire(wire)
            if not tx.signature_valid():
                issues.append(f"block {block['height']}: committed tx with bad signature")
                continue
            try:
                contracts.apply_tx(tx, state)
            except Exception as exc:  # replay must never crash the audit
                issues.append(f"block {block['height']}: replay failed: {exc}")

    if not footers:
        issues.append("missing state footer")
    elif footers[-1].get("digest") != state.state_digest():
        issues.append("state digest does not match transaction replay")

    return AuditResult(ok=not issues, height=len(blocks) - 1, issues=issues)


def audit_dump(path: str) -> AuditResult:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        records = _parse_dump(data)
    except ValueError as exc:
        return AuditResult(False, 0, [f"unparseable dump: {exc}"])
    return audit_records(records)


def audit_node(node: LedgerNode) -> AuditResult:
    """Audit a live node's stored chain and current table state."""
    return audit_records(dump_lines(node))
