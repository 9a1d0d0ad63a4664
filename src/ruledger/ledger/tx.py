"""Signed transactions and receipts.

A transaction is a canonical dict body plus a detached Ed25519 signature
by the submitting wallet.  The body carries its own kind tag and a
submitter nonce, so byte-identical bodies are the same transaction and
re-submissions with fresh nonces are distinct ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..canonical import canonical_bytes, digest_hex
from ..keys import KeyPair, verify_signature

KIND_RULE_COMMIT = "rule_commit"
KIND_EVENT = "event"
KIND_ACTION = "action"
KIND_CONFIG = "config"

TX_KINDS = (KIND_RULE_COMMIT, KIND_EVENT, KIND_ACTION, KIND_CONFIG)


@dataclass(frozen=True)
class SignedTransaction:
    kind: str
    body: dict
    signer: str  # hex public key
    signature: str  # hex detached signature over canonical body bytes

    @property
    def tx_id(self) -> str:
        return digest_hex(self.body)

    def body_bytes(self) -> bytes:
        return canonical_bytes(self.body)

    def signature_valid(self) -> bool:
        return verify_signature(self.body_bytes(), self.signature, self.signer)

    def wire(self) -> dict:
        return {
            "kind": self.kind,
            "body": self.body,
            "signer": self.signer,
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "SignedTransaction":
        return cls(
            kind=data["kind"],
            body=data["body"],
            signer=data["signer"],
            signature=data["signature"],
        )


def build_tx(kind: str, payload: dict, keypair: KeyPair, nonce: int) -> SignedTransaction:
    """Assemble and sign a transaction body of the given kind."""
    if kind not in TX_KINDS:
        raise ValueError(f"unknown tx kind: {kind}")
    body: dict[str, Any] = {"kind": kind, "nonce": nonce}
    body.update(payload)
    signature = keypair.sign(canonical_bytes(body))
    return SignedTransaction(kind=kind, body=body, signer=keypair.public_hex, signature=signature)


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
