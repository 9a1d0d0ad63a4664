"""Canonical serialization: the byte layer everything else hashes and signs."""

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruledger.canonical import (
    MAX_DEPTH,
    canonical_bytes,
    derive_seed,
    digest_hex,
    is_canonical,
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


def test_derive_seed_streams_are_stable_and_distinct():
    assert derive_seed(42, "net") == derive_seed(42, "net")
    assert derive_seed(42, "net") != derive_seed(42, "node0/rng")
    assert derive_seed(42, "net") != derive_seed(43, "net")
    assert 0 <= derive_seed(0, "") < 2**64
