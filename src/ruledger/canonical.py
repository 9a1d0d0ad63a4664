"""Canonical serialization and digests.

Every hashed or signed structure in the system is a JSON-compatible dict
reduced to canonical bytes: keys sorted, no insignificant whitespace,
UTF-8, keys in code point order as in RFC 8785.  Two structurally equal
dicts always produce identical bytes, which is what makes block digests and
signatures comparable across nodes.

`is_canonical` decides the subset: str, bool, None, ints in
[-2**63, 2**64), and lists, tuples and exactly-str-keyed dicts of them,
nested at most MAX_DEPTH deep, with no lone surrogate in any string.  The
native codec orjson then writes the bytes; for every value of the subset
they equal `json.dumps(sort_keys=True, separators=(",", ":"),
ensure_ascii=False)`, and its int range is the subset's.  Bytes this module
wrote are read back with `orjson.loads`; text from outside (a tx body, a
dump, a scenario file) goes through the stdlib `json.loads`, which raises
RecursionError on deep nesting where orjson's parser can overflow the C
stack.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any

import orjson

# Only these leaf types may appear in canonical structures.  Floats are
# excluded on purpose: protocol values are ints, strings, bools, or None.
_LEAF_TYPES = (str, int, bool, type(None))
_EXACT_LEAVES = frozenset((bool, type(None)))  # a set lookup on type() beats isinstance
# The ints orjson encodes, i64 and u64; a peer's larger int is malformed at the boundary.
INT_MIN, INT_END = -2**63, 2**64
# What UTF-8 cannot encode: a lone surrogate, which the JSON escape \ud800 parses to.
_lone_surrogate = re.compile("[\ud800-\udfff]").search

# Containers may nest this deep.  Protocol messages nest about 10 levels;
# the bound keeps the recursive walk far below the interpreter's recursion limit.
MAX_DEPTH = 100


def is_canonical(obj: Any) -> bool:
    """True iff obj is a leaf, or a list, tuple or str-keyed dict of canonical
    values, with containers nested at most MAX_DEPTH deep, every int in
    [INT_MIN, INT_END), and no string in it, key or leaf, holds a lone
    surrogate.  A key must be a str itself, not a subclass: orjson refuses one."""
    return _canonical_within(obj, MAX_DEPTH)


def _canonical_within(obj: Any, depth: int) -> bool:
    if isinstance(obj, dict):
        for key in obj:  # isascii() is the fast path past the surrogate search
            if not (type(key) is str and (key.isascii() or not _lone_surrogate(key))):
                return False
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        if isinstance(obj, str):
            return not _lone_surrogate(obj)
        if isinstance(obj, int):  # bool included
            return INT_MIN <= obj < INT_END
        return obj is None
    if depth == 0:
        return False
    for item in obj:
        # A plain leaf is judged here, on one type() call; anything else by a call.
        kind = type(item)
        if kind is str:
            if item.isascii():
                continue
        elif kind is int:
            if INT_MIN <= item < INT_END:
                continue
        elif kind in _EXACT_LEAVES:
            continue
        if not _canonical_within(item, depth - 1):
            return False
    return True


# ----------------------------------------------------------------------
# Shape predicates: the one vocabulary for checking input from outside
# (peer messages, transaction bodies, agent notifications, dump records)
# before reading it.  Each is, or builds, a predicate that never raises.


def is_int(v: Any) -> bool:
    # bool is an int subclass, never a protocol number
    return type(v) is int and INT_MIN <= v < INT_END


def is_str(v: Any) -> bool:
    return type(v) is str and (v.isascii() or not _lone_surrogate(v))


def one_of(*values):
    """One of these leaf values, of the same type (True is not 1)."""
    admitted = {(type(x), x) for x in values}
    return lambda v: isinstance(v, _LEAF_TYPES) and (type(v), v) in admitted


def with_fields(**fields):
    """An object holding at least these fields, each admitted by its predicate."""
    items = tuple(fields.items())

    def admits(v) -> bool:
        if type(v) is not dict:
            return False
        for name, ok in items:
            if name not in v or not ok(v[name]):
                return False
        return True

    return admits


def object_of(**fields):
    """An object with exactly these fields, each admitted by its predicate."""
    has = with_fields(**fields)
    return lambda v: has(v) and len(v) == len(fields)


def message(kind: str, **fields):
    """A message object: these fields plus a `type` equal to kind."""
    return object_of(type=one_of(kind), **fields)


def list_of(ok, most: int | None = None):
    """A list of values ok admits, of at most `most` items if given."""
    return lambda v: type(v) is list and (most is None or len(v) <= most) and all(map(ok, v))


def by_index(ok):
    """An object keyed by node indexes, each the ASCII decimal of an int in the
    canonical range: bounded in length first, as `int` raises on a long one."""
    digits = len(str(INT_END))
    return lambda v: type(v) is dict and all(
        type(k) is str and k.isascii() and k.isdecimal() and len(k) <= digits
        and int(k) < INT_END and ok(x) for k, x in v.items()
    )


def or_none(ok):
    return lambda v: v is None or ok(v)


def canonical_bytes(obj: Any) -> bytes:
    """Serialize obj to canonical JSON bytes.

    Raises TypeError for values outside the canonical subset (floats,
    bytes, custom classes, non-string keys, ints outside [INT_MIN, INT_END),
    nesting deeper than MAX_DEPTH).
    """
    if not is_canonical(obj):
        raise TypeError(f"non-canonical value in {type(obj).__name__}")
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_hex(obj: Any) -> str:
    """SHA-256 of the canonical serialization, as lowercase hex."""
    return sha256_hex(canonical_bytes(obj))


def derive_seed(root_seed: int, label: str) -> int:
    """Derive an independent integer seed for a named RNG stream."""
    raw = hashlib.sha256(f"{root_seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "big")
