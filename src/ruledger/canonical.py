"""Canonical serialization and digests.

Every hashed or signed structure in the system is a JSON-compatible dict
reduced to canonical bytes: keys sorted, no insignificant whitespace,
UTF-8.  Two structurally equal dicts always produce identical bytes, which
is what makes block digests and signatures comparable across nodes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

# Only these leaf types may appear in canonical structures.  Floats are
# excluded on purpose: protocol values are ints, strings, bools, or None.
_LEAF_TYPES = (str, int, bool, type(None))

# Containers may nest this deep.  Protocol messages nest about 10 levels;
# the bound keeps the recursive walk far below the interpreter's recursion limit.
MAX_DEPTH = 100


def is_canonical(obj: Any) -> bool:
    """True iff obj is a leaf, or a list, tuple or str-keyed dict of canonical
    values, with containers nested at most MAX_DEPTH deep."""
    return _canonical_within(obj, MAX_DEPTH)


def _canonical_within(obj: Any, depth: int) -> bool:
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            return False
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return isinstance(obj, _LEAF_TYPES)
    if depth == 0:
        return False
    for item in obj:
        if not (isinstance(item, _LEAF_TYPES) or _canonical_within(item, depth - 1)):
            return False
    return True


def canonical_bytes(obj: Any) -> bytes:
    """Serialize obj to canonical JSON bytes.

    Raises TypeError for values outside the canonical subset (floats,
    bytes, custom classes, non-string keys, nesting deeper than MAX_DEPTH).
    """
    if not is_canonical(obj):
        raise TypeError(f"non-canonical value in {type(obj).__name__}")
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_hex(obj: Any) -> str:
    """SHA-256 of the canonical serialization, as lowercase hex."""
    return sha256_hex(canonical_bytes(obj))


def derive_seed(root_seed: int, label: str) -> int:
    """Derive an independent integer seed for a named RNG stream."""
    raw = hashlib.sha256(f"{root_seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "big")
