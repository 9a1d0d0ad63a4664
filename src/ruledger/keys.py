"""Ed25519 wallet keys and detached signatures over canonical bytes.

A simulation's replicas share one process and verify through their `Network`'s
`VerifyMemo`, so each distinct signed message costs one Ed25519 check.  The memo
takes the canonical bytes the caller already holds (a tx's are its body text, as
it came in on the wire), so a lookup serializes nothing.
"""

from __future__ import annotations

import hashlib
from typing import Any

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import canonical_bytes


class KeyPair:
    """An Ed25519 keypair.  Private bytes never leave this object."""

    def __init__(self, private: Ed25519PrivateKey):
        self._private = private
        self.public_hex: str = private.public_key().public_bytes_raw().hex()

    @classmethod
    def from_seed(cls, root_seed: int, label: str) -> "KeyPair":
        """Deterministic keypair for reproducible simulations."""
        raw = hashlib.sha256(f"key/{root_seed}/{label}".encode("utf-8")).digest()
        return cls(Ed25519PrivateKey.from_private_bytes(raw))

    def sign(self, message: bytes) -> str:
        return self._private.sign(message).hex()

    def sign_obj(self, obj: Any) -> str:
        return self.sign(canonical_bytes(obj))

    def __repr__(self) -> str:  # never expose private material
        return f"KeyPair(public={self.public_hex[:16]}...)"


def verify_signature(message: bytes, signature_hex: str, public_hex: str) -> bool:
    """True iff signature_hex is a valid detached signature by public_hex."""
    try:
        public = Ed25519PublicKey.from_public_bytes(bytes.fromhex(public_hex))
        public.verify(bytes.fromhex(signature_hex), message)
        return True
    except (InvalidSignature, ValueError):
        return False


class VerifyMemo:
    """`verify_signature` keeping the last `CAP` results, keyed by the full message bytes
    so no other message hits an entry; a miss calls the module's `verify_signature`."""

    CAP = 256

    def __init__(self) -> None:
        self.results: dict[tuple[bytes, str, str], bool] = {}  # oldest first
        self.lookups = 0  # the verifies a deployment, one process per replica, would pay

    def __call__(self, message: bytes, signature_hex: str, public_hex: str) -> bool:
        self.lookups += 1
        key = (message, signature_hex, public_hex)
        if key not in self.results:
            if len(self.results) >= self.CAP:
                del self.results[next(iter(self.results))]
            self.results[key] = verify_signature(*key)
        return self.results[key]
