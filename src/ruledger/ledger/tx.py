"""Signed transactions and receipts.

A transaction is a dict body plus a detached Ed25519 signature by the
submitting wallet over the body's text: its canonical JSON (see
`canonical`).  On the wire and in a dump a body is that text, so consensus
orders, digests and stores it as an opaque string, and a tx's id is the
SHA-256 of its text.  The body carries its own kind tag and a submitter
nonce, so byte-identical bodies are the same transaction and re-submissions
with fresh nonces are distinct ones.

`SignedTransaction.from_wire` is the one reader of a body's text, and it
parses it once: it admits only the exact canonical JSON of its own parse, so
structurally equal bodies are one text and one id, and a float, a NaN,
nesting deeper than `MAX_DEPTH`, other whitespace, other key order and a
duplicate key are all refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

# digest_hex and verify_signature are bound here for perfbench/tracer.py, which
# rebinds them per module.
from ..canonical import canonical_bytes, digest_hex, is_int, sha256_hex  # noqa: F401
from ..keys import KeyPair, verify_signature  # noqa: F401

KIND_RULE_COMMIT = "rule_commit"
KIND_EVENT = "event"
KIND_ACTION = "action"
KIND_CONFIG = "config"

TX_KINDS = (KIND_RULE_COMMIT, KIND_EVENT, KIND_ACTION, KIND_CONFIG)


def text_id(text: str) -> str:
    """The id of the tx whose body text is text."""
    return sha256_hex(text.encode("utf-8"))


@dataclass(frozen=True)
class SignedTransaction:
    kind: str
    body: dict
    signer: str  # hex public key
    signature: str  # hex detached signature over the body's text
    # The canonical JSON of body.  A tx built from a dict body alone, as a test's
    # unsigned one may be, derives it on each use.
    text: str | None = field(default=None, repr=False, compare=False)

    @property
    def tx_id(self) -> str:
        return text_id(self.body_text())

    def body_text(self) -> str:
        return canonical_bytes(self.body).decode("utf-8") if self.text is None else self.text

    def body_bytes(self) -> bytes:
        return self.body_text().encode("utf-8")

    def wire(self) -> dict:
        return {
            "kind": self.kind,
            "body": self.body_text(),
            "signer": self.signer,
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, data: dict, checked: bool = False) -> "SignedTransaction | None":
        """The tx a wire carries, if its body text is exactly the canonical JSON of
        an object with the wire's kind and an int nonce, else None; never raises.
        A body `checked` by an earlier call is not serialized again."""
        text, kind = data["body"], data["kind"]
        try:
            body = json.loads(text)
            ok = checked or canonical_bytes(body) == text.encode("utf-8")
        except (ValueError, TypeError, RecursionError):  # the parser recurses per nesting level
            return None
        if ok and type(body) is dict and body.get("kind") == kind and is_int(body.get("nonce")):
            return cls(kind, body, data["signer"], data["signature"], text)
        return None


def build_tx(kind: str, payload: dict, keypair: KeyPair, nonce: int) -> SignedTransaction:
    """Assemble and sign a transaction body of the given kind."""
    if kind not in TX_KINDS:
        raise ValueError(f"unknown tx kind: {kind}")
    body: dict[str, Any] = {"kind": kind, "nonce": nonce}
    body.update(payload)
    text = canonical_bytes(body).decode("utf-8")
    return SignedTransaction(kind, body, keypair.public_hex, keypair.sign(text.encode()), text)


@dataclass(frozen=True)
class TxReceipt:
    tx_id: str
    accepted: bool
    code: str | None = None  # rejection code, None on accept
    height: int | None = None  # commit height, None for pre-consensus rejects

    def wire(self) -> dict:
        return {
            "tx_id": self.tx_id,
            "accepted": self.accepted,
            "code": self.code,
            "height": self.height,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "TxReceipt":
        return cls(
            tx_id=data["tx_id"],
            accepted=data["accepted"],
            code=data["code"],
            height=data["height"],
        )
