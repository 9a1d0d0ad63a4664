"""Canonical serialization: the byte layer everything else hashes and signs."""

import hashlib
import json
from enum import IntEnum

import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruledger.canonical import (
    MAX_DEPTH,
    canonical_bytes,
    derive_seed,
    digest_hex,
    is_canonical,
    is_int,
    is_str,
    sha256_hex,
)

# The ints the codec encodes: i64 and u64.
_INT_MIN, _INT_MAX = -2**63, 2**64 - 1


def _reference_bytes(value) -> bytes:
    """The stdlib's canonical form, the one `canonical_bytes` must reproduce."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


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
    {type("Key", (str,), {})("k"): 1},  # a str subclass key, which the codec refuses
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
    assert orjson.loads(canonical_bytes(value)) == value  # how the network reads them back


# Every plane, with the characters JSON writers disagree on most: control
# characters, DEL, the line and paragraph separators, and non-BMP code points
# (UTF-16 sorts some of them before U+E000-U+FFFF; code point order must win).
_ODD_CHARS = "\x00\x1f\"\\/\x7f\x80\u2028\u2029\ue000\uffff\U00010000\U0001f600\U0010ffff"
_unicode = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(_ODD_CHARS),
                   max_size=12)
_unicode_values = st.recursive(
    st.none() | st.booleans() | st.integers(_INT_MIN, _INT_MAX) | _unicode,
    lambda children: st.lists(children, max_size=4) | st.tuples(children)
    | st.dictionaries(_unicode, children, max_size=6),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_unicode_values)
@example({"\uffff": 0, "\U00010000": 1, "\ue000": 2, "a": 3})
def test_bytes_match_the_stdlib_reference(value):
    assert canonical_bytes(value) == _reference_bytes(value)


def test_every_code_point_encodes_as_the_reference():
    points = [c for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    for i in range(0, len(points), 1024):
        text = "".join(map(chr, points[i:i + 1024]))
        assert canonical_bytes(text) == _reference_bytes(text), hex(points[i])
        assert canonical_bytes({text: [text]}) == _reference_bytes({text: [text]}), hex(points[i])


@pytest.mark.parametrize("value", [_INT_MIN, _INT_MAX])
def test_the_int_range_ends_are_canonical(value):
    assert is_int(value) and is_canonical(value) and is_canonical([value])
    assert canonical_bytes({"v": [value]}) == _reference_bytes({"v": [value]})


@pytest.mark.parametrize("value", [_INT_MIN - 1, _INT_MAX + 1, -2**70])
def test_an_int_past_the_range_is_refused(value):
    assert not is_int(value)
    for wrapped in (value, [value], {"k": value}, ([None, (value,)],)):
        assert not is_canonical(wrapped)
        with pytest.raises(TypeError):
            canonical_bytes(wrapped)


@given(canonical_values)
def test_serialization_is_stable(value):
    assert canonical_bytes(value) == canonical_bytes(json.loads(canonical_bytes(value)))


# The reference: the plain form of `is_canonical`, with no fast path for exact
# leaf types.  The property below holds the two to the same verdicts.
_REF_LEAF_TYPES = (str, int, bool, type(None))


def _reference_leaf(obj) -> bool:
    return isinstance(obj, _REF_LEAF_TYPES) and (
        not isinstance(obj, int) or _INT_MIN <= obj <= _INT_MAX)


def _reference_within(obj, depth):
    if isinstance(obj, dict):
        if not all(type(key) is str for key in obj):
            return False
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return _reference_leaf(obj)
    if depth == 0:
        return False
    for item in obj:
        if not (_reference_leaf(item) or _reference_within(item, depth - 1)):
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
