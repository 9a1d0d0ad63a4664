"""Wallet keys: deterministic derivation, detached signatures and the verify memo."""

from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hr_rule, make_rig, rule_commit_tx
from ruledger import keys
from ruledger.canonical import canonical_bytes
from ruledger.keys import KeyPair, VerifyMemo, verify_signature


def test_sign_verify_round_trip():
    kp = KeyPair.from_seed(1, "a")
    sig = kp.sign(b"payload")
    assert verify_signature(b"payload", sig, kp.public_hex)


def test_wrong_key_and_tampered_message_fail():
    kp, other = KeyPair.from_seed(1, "a"), KeyPair.from_seed(1, "b")
    sig = kp.sign(b"payload")
    assert not verify_signature(b"payload", sig, other.public_hex)
    assert not verify_signature(b"payload2", sig, kp.public_hex)


def test_malformed_hex_inputs_fail_closed():
    kp = KeyPair.from_seed(1, "a")
    sig = kp.sign(b"x")
    assert not verify_signature(b"x", "zz-not-hex", kp.public_hex)
    assert not verify_signature(b"x", sig, "deadbeef")  # wrong length key
    assert not verify_signature(b"x", "", kp.public_hex)


def test_seeded_keys_are_reproducible():
    a = KeyPair.from_seed(7, "node0")
    b = KeyPair.from_seed(7, "node0")
    assert a.public_hex == b.public_hex
    # Both instances must produce verifiable signatures over the same bytes.
    assert verify_signature(b"m", a.sign(b"m"), b.public_hex)


def test_public_hex_is_the_raw_public_key():
    # A seeded key's public half is pinned: every dump and report names it.
    kp = KeyPair.from_seed(7, "node0")
    assert kp.public_hex == "5075337487844d8f0044ab56931a04d072d6feb79be4d154ec0cf213ab57d355"
    raw = kp._private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    assert kp.public_hex == raw.hex()


def test_seeded_keys_differ_by_label_and_seed():
    keys = {
        KeyPair.from_seed(7, "node0").public_hex,
        KeyPair.from_seed(7, "node1").public_hex,
        KeyPair.from_seed(8, "node0").public_hex,
    }
    assert len(keys) == 3


def test_sign_obj_matches_canonical_signature():
    kp = KeyPair.from_seed(1, "x")
    obj = {"b": 2, "a": 1}
    assert verify_signature(canonical_bytes({"a": 1, "b": 2}), kp.sign_obj(obj), kp.public_hex)


def test_repr_does_not_leak_private_material():
    kp = KeyPair.from_seed(3, "leak-check")
    text = repr(kp)
    assert "private" not in text.lower() or "public" in text
    assert kp.public_hex[:16] in text
    assert len(text) < 64


_SIGNERS = [KeyPair.from_seed(5, f"memo/{i}") for i in range(2)]
_BODIES = [{"n": i, "s": "payload"} for i in range(3)]
_SIGS = [[kp.sign_obj(body) for body in _BODIES] for kp in _SIGNERS]


def _flip(text: str) -> str:
    return ("1" if text[0] == "0" else "0") + text[1:]


def _triple(body: int, signer: int, change: str):
    obj, sig, pub = _BODIES[body], _SIGS[signer][body], _SIGNERS[signer].public_hex
    if change == "body":
        obj = {**obj, "s": _flip(obj["s"])}
    elif change == "sig":
        sig = _flip(sig)
    elif change == "key":
        pub = _SIGNERS[1 - signer].public_hex
    return canonical_bytes(obj), sig, pub


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                          st.sampled_from(["none", "body", "sig", "key"])), max_size=30),
       st.integers(1, 4))
def test_memo_agrees_with_verify_over_any_interleaving(calls, cap):
    memo = VerifyMemo()
    memo.CAP = cap  # a small cap also exercises eviction
    # The same body with a bad signature right after a good one, then good again.
    calls = [(0, 0, "none"), (0, 0, "sig"), (0, 0, "none"), *calls]
    for call in calls:
        message, sig, pub = _triple(*call)
        assert memo(message, sig, pub) == verify_signature(message, sig, pub)
        assert len(memo.results) <= cap
    assert memo.lookups == len(calls)


def test_memo_is_bounded():
    memo = VerifyMemo()
    for i in range(10 * VerifyMemo.CAP):
        memo(canonical_bytes({"n": i}), _SIGS[0][0], _SIGNERS[0].public_hex)
    assert len(memo.results) <= VerifyMemo.CAP
    assert memo.lookups == 10 * VerifyMemo.CAP


def test_a_live_run_checks_each_distinct_triple_once(monkeypatch):
    rig = make_rig(seed=3)
    real = []
    verify = keys.verify_signature

    def counting(message, sig, pub):
        real.append((message, sig, pub))
        return verify(message, sig, pub)

    monkeypatch.setattr(keys, "verify_signature", counting)
    for i in range(1, 4):
        tx = rule_commit_tx(rig.admin, nonce=i, rule=hr_rule(rule_id=i), usr_rule_id=100 + i)
        rig.scheduler.schedule(10 * i, lambda t=tx: rig.client.client.submit(t))
    rig.scheduler.run(until=3000)
    memo = rig.net.verify
    assert len(rig.client.client.resolved) == 3
    assert len(memo.results) < VerifyMemo.CAP  # nothing was evicted
    assert len(real) == len(set(real)) == len(memo.results)
    assert memo.lookups >= len(real)
