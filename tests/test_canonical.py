"""Canonical serialization: the byte layer everything else hashes and signs."""

import hashlib
import json
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruledger.canonical import (
    MAX_DEPTH,
    canonical_bytes,
    derive_seed,
    digest_hex,
    is_canonical,
    is_str,
    sha256_hex,
)


def test_key_order_is_irrelevant():
    a = {"b": 1, "a": {"y": None, "x": [True, "s"]}}
    b = {"a": {"x": [True, "s"], "y": None}, "b": 1}
    assert canonical_bytes(a) == canonical_bytes(b)


def test_exact_bytes():
    assert canonical_bytes({"b": 2, "a": 1}) == b'{"a":1,"b":2}'
    assert canonical_bytes([1, "x", None, False]) == b'[1,"x",null,false]'


def test_digest_matches_direct_sha256():
    # Independent of digest_hex: hash the literal canonical form directly.
    obj = {"rule_id": 1, "name": "unlock"}
    expected = hashlib.sha256(b'{"name":"unlock","rule_id":1}').hexdigest()
    assert digest_hex(obj) == expected
    assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()


@pytest.mark.parametrize("bad", [
    1.5,
    {"a": 2.0},
    [float("nan")],
    {1: "non-string key"},
    {"a": b"bytes"},
    {"a": {1, 2}},
])
def test_non_canonical_values_rejected(bad):
    with pytest.raises(TypeError):
        canonical_bytes(bad)


def _nested(depth, wrap):
    value = wrap(None)
    for _ in range(depth - 1):
        value = wrap(value)
    return value


@pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: {"a": v}], ids=["list", "dict"])
def test_nesting_depth_is_bounded(wrap):
    assert is_canonical(_nested(MAX_DEPTH, wrap))
    assert not is_canonical(_nested(MAX_DEPTH + 1, wrap))
    with pytest.raises(TypeError):  # refused, not a RecursionError
        canonical_bytes(_nested(5000, wrap))


def test_bools_are_not_ints_in_output():
    # json renders bools as true/false even though bool subclasses int.
    assert canonical_bytes({"a": True}) == b'{"a":true}'
    assert canonical_bytes({"a": 1}) == b'{"a":1}'
    assert digest_hex({"a": True}) != digest_hex({"a": 1})


canonical_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(canonical_values)
def test_round_trip_through_json(value):
    assert json.loads(canonical_bytes(value).decode("utf-8")) == value


@given(canonical_values)
def test_serialization_is_stable(value):
    assert canonical_bytes(value) == canonical_bytes(json.loads(canonical_bytes(value)))


# The reference: the plain form of `is_canonical`, with no fast path for exact
# leaf types.  The property below holds the two to the same verdicts.
_REF_LEAF_TYPES = (str, int, bool, type(None))


def _reference_within(obj, depth):
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            return False
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return isinstance(obj, _REF_LEAF_TYPES)
    if depth == 0:
        return False
    for item in obj:
        if not (isinstance(item, _REF_LEAF_TYPES) or _reference_within(item, depth - 1)):
            return False
    return True


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class _Tag(str):
    pass


_leaves = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.text(max_size=4)
           | st.sampled_from(list(_Level)) | st.text(max_size=4).map(_Tag)
           | st.floats() | st.binary(max_size=2))
_keys = (st.text(max_size=4) | st.text(max_size=4).map(_Tag) | st.integers(-3, 3)
         | st.booleans() | st.none() | st.sampled_from(list(_Level)) | st.tuples(st.integers(0, 2)))
_any_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=3) | st.tuples(children, children)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=12,
)
_WRAPS = (lambda v: [v], lambda v: (v,), lambda v: {"a": v}, lambda v: {_Tag("k"): v})


def _wrapped(value, levels, kinds):
    """value inside `levels` containers, the i-th of kind _WRAPS[kinds[i % len(kinds)]]."""
    for i in range(levels):
        value = _WRAPS[kinds[i % len(kinds)]](value)
    return value


# Values nested from a few levels under MAX_DEPTH to one level over it.
_deep_values = st.builds(_wrapped, _any_values, st.integers(MAX_DEPTH - 3, MAX_DEPTH + 1),
                         st.lists(st.integers(0, len(_WRAPS) - 1), min_size=1, max_size=4))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_any_values | _deep_values)
@example(_nested(MAX_DEPTH, lambda v: [v]))
@example(_nested(MAX_DEPTH + 1, lambda v: [v]))
@example(_nested(MAX_DEPTH, lambda v: (_Level.LOW, v)))
@example(_nested(MAX_DEPTH + 1, lambda v: {_Tag("k"): v, "b": True}))
def test_is_canonical_agrees_with_the_reference(value):
    assert is_canonical(value) == _reference_within(value, MAX_DEPTH)


def test_derive_seed_streams_are_stable_and_distinct():
    assert derive_seed(42, "net") == derive_seed(42, "net")
    assert derive_seed(42, "net") != derive_seed(42, "node0/rng")
    assert derive_seed(42, "net") != derive_seed(43, "net")
    assert 0 <= derive_seed(0, "") < 2**64


@pytest.mark.parametrize("value", ["\ud800", {"\udfff": 1}, ["ok", "a\ud83d"], {"k": ("\ud800",)}])
def test_a_lone_surrogate_is_not_canonical(value):
    # UTF-8 cannot encode one, and a peer's JSON "\ud800" parses to one.
    assert not is_canonical(value)
    with pytest.raises(TypeError):
        canonical_bytes(value)
    assert not is_str("\ud800") and is_str("é\U0001f600")
