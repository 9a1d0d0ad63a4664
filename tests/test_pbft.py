"""Consensus layer: three-phase commit, view changes, Byzantine tolerance.

Safety is checked as byte-identical block content digests across the
honest nodes; liveness as honest nodes eventually committing submitted
transactions within the simulated window.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hr_rule, make_rig, rule_commit_tx
from ruledger.keys import KeyPair
from ruledger.ledger import audit
from ruledger.ledger import node as node_mod
from ruledger.ledger.node import ConfigError, LedgerConfig
from ruledger.ledger.tx import SignedTransaction


def _honest_prefix_consistent(nodes, byz_index=None):
    digests = [audit.content_digests(n) for i, n in enumerate(nodes) if i != byz_index]
    limit = min(len(d) for d in digests)
    return all(d[:limit] == digests[0][:limit] for d in digests)


def test_fault_free_commit_reaches_all_nodes():
    rig = make_rig(seed=1)
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=5000)

    receipt = rig.client.client.resolved[tx.tx_id]
    assert receipt.accepted and receipt.height == 1
    for node in rig.nodes:
        assert len(node.chain) == 2
        assert node.chain[1]["txs"][0]["body"]["rule"]["rule_id"] == 1
        assert node.counters["view_changes"] == 0
    assert _honest_prefix_consistent(rig.nodes)


def test_single_node_mode_commits_with_a_quorum_of_one():
    rig = make_rig(seed=2, n=1)
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=2000)
    assert rig.client.client.resolved[tx.tx_id].accepted
    assert len(rig.nodes[0].chain) == 2


@pytest.mark.parametrize("n", [0, 2, 3])
def test_too_few_nodes_is_a_config_error(n):
    with pytest.raises(ConfigError):
        LedgerConfig(node_addrs=[f"n{i}" for i in range(n)],
                     node_pubkeys=["k"] * n, ledger_secret=b"s")


@pytest.mark.parametrize("n,f", [(1, 0), (4, 1), (7, 2), (10, 3)])
def test_fault_bound_and_quorum(n, f):
    config = LedgerConfig(node_addrs=[f"n{i}" for i in range(n)],
                          node_pubkeys=["k"] * n, ledger_secret=b"s")
    assert config.f == f
    assert config.quorum == 2 * f + 1
    assert config.primary(0) == 0
    assert config.primary(n + 2) == 2 % n


def test_bad_signature_rejected_before_consensus():
    rig = make_rig(seed=3)
    good = rule_commit_tx(rig.admin, nonce=1)
    forged = SignedTransaction(good.kind, dict(good.body, nonce=2),
                               good.signer, good.signature)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(forged))
    rig.scheduler.run(until=5000)
    receipt = rig.client.client.resolved[forged.tx_id]
    assert not receipt.accepted
    assert receipt.code == "BadSignature"
    assert all(len(n.chain) == 1 for n in rig.nodes)


def test_equivocating_primary_cannot_split_honest_nodes():
    rig = make_rig(seed=4, fault_kind="equivocate", byz_index=0)
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=20000)

    assert _honest_prefix_consistent(rig.nodes, byz_index=0)
    honest = rig.nodes[1:]
    # Each half sees only one variant, so neither fork can gather a commit
    # quorum; progress comes from the view change under the next primary.
    assert all(n.counters["txs_committed"] == 1 for n in honest)
    assert all(n.view >= 1 for n in honest)
    assert rig.client.client.resolved[tx.tx_id].accepted


def test_conflicting_pre_prepares_are_detected():
    # A node that does receive both variants keeps the first and counts
    # the fork attempt.
    rig = make_rig(seed=41)
    tx = rule_commit_tx(rig.admin, nonce=1)
    primary = rig.keys[0]
    node = rig.nodes[1]
    wires_a = [tx.wire()]
    wires_b = [tx.wire(), tx.wire()]

    def pp(wires):
        digest = node_mod.batch_digest(wires)
        return {"type": "pre_prepare", "view": 0, "height": 1, "digest": digest,
                "batch": wires, "sender": 0,
                "sig": primary.sign_obj({"t": "pp", "v": 0, "h": 1, "d": digest})}

    node.on_message("node0", pp(wires_a))
    first_digest = node.slots[1][0].digest
    node.on_message("node0", pp(wires_b))
    assert node.counters["equivocations_detected"] == 1
    assert node.slots[1][0].digest == first_digest


def test_mute_primary_triggers_view_change():
    # Dropping every outbound message is as good as a crashed primary.
    rig = make_rig(seed=5, fault_kind="drop", byz_index=0)
    rig.nodes[0].fault.prob = 1.0
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=20000)

    honest = rig.nodes[1:]
    assert all(n.counters["txs_committed"] == 1 for n in honest)
    assert all(n.view >= 1 for n in honest)
    assert _honest_prefix_consistent(rig.nodes, byz_index=0)
    assert rig.client.client.resolved[tx.tx_id].accepted
    # Entering a view drops the view-change buckets at or below it.
    assert all(view > n.view for n in rig.nodes for view in n.vc_msgs)


def test_non_primary_byzantine_does_not_stall_commits():
    rig = make_rig(seed=6, fault_kind="corrupt", byz_index=2)
    txs = [rule_commit_tx(rig.admin, nonce=i, rule=hr_rule(rule_id=i), usr_rule_id=100 + i)
           for i in range(1, 5)]
    for i, tx in enumerate(txs):
        rig.scheduler.schedule(10 + 50 * i, lambda t=tx: rig.client.client.submit(t))
    rig.scheduler.run(until=20000)
    for tx in txs:
        assert rig.client.client.resolved[tx.tx_id].accepted
    assert _honest_prefix_consistent(rig.nodes, byz_index=2)


def test_garbage_messages_are_counted_not_fatal():
    rig = make_rig(seed=7)
    node = rig.nodes[1]
    before = node.counters["malformed_dropped"]
    node.on_message("node0", {"type": "no_such_handler"})
    node.on_message("node0", {"type": "prepare"})  # missing every field
    node.on_message("node0", {"type": "pre_prepare", "view": 0, "height": 1,
                              "digest": "d", "batch": [], "sender": 0, "sig": "zz"})
    # Containers of the wrong shape, down to the fields behind a signature.
    empty = node_mod.batch_digest([])
    cert = {"view": 0, "height": 1, "digest": empty, "batch": [], "prepares": [1]}
    vc = {"type": "view_change", "new_view": 1, "last_height": 0, "cert": cert, "sender": 2,
          "sig": rig.keys[2].sign_obj(node_mod._vc_body(1, 0, node_mod.digest_hex(cert)))}
    node.on_message("node2", vc)
    node.on_message("node2", {"type": "new_view", "view": 1, "vcs": [1, 2], "pre_prepare": None})
    node.on_message("node2", {"type": "new_view", "view": 1, "vcs": {"0": [1]},
                              "pre_prepare": None})
    node.on_message("node2", {"type": "committed", "view": 0, "height": 1, "digest": empty,
                              "batch": [], "votes": [1]})
    assert node.counters["malformed_dropped"] == before + 7

    # The node still works afterwards.
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=5000)
    assert rig.client.client.resolved[tx.tx_id].accepted


def _committed_gossip(node, height):
    block = node.chain[height]
    return {"type": "committed", "view": block["proof"]["view"], "height": height,
            "digest": block["proof"]["proposal_digest"], "batch": block["txs"],
            "votes": block["proof"]["votes"]}


def _commit_in_sequence(rig, txs):
    for tx in txs:
        rig.scheduler.schedule(10, lambda t=tx: rig.client.client.submit(t))
        rig.scheduler.run(until=rig.scheduler.now + 2000)


def _rule_txs(rig, count):
    return [rule_commit_tx(rig.admin, nonce=i, rule=hr_rule(rule_id=i), usr_rule_id=100 + i)
            for i in range(1, count + 1)]


def test_committed_heights_leave_no_consensus_state():
    rig = make_rig(seed=15)
    txs = _rule_txs(rig, 4)
    _commit_in_sequence(rig, txs)
    for tx in txs:
        assert rig.client.client.resolved[tx.tx_id].accepted
    for n in rig.nodes:
        assert n.next_height == 5
        assert all(h >= n.next_height for h in n.slots)
        assert not n.pool


def _nested_list(depth):
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


def test_duplicate_commit_gossip_does_not_double_apply():
    rig = make_rig(seed=8)
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=5000)
    node = rig.nodes[3]
    height_before = len(node.chain)
    node.on_message("node0", _committed_gossip(node, 1))
    assert len(node.chain) == height_before
    assert node.counters["txs_committed"] == 1


@pytest.mark.parametrize("junk", [
    # Buffered unread, it raised inside node1's next commit.
    lambda txs: {"type": "pre_prepare", "view": 0, "height": 2, "sender": 0},
    # Buffered unverified, 64 of these could crowd out the honest one.
    lambda txs: {"type": "pre_prepare", "view": 0, "height": 2, "digest": "d",
                 "batch": [], "sender": 0, "sig": "00"},
    # Sending the receipt to that address raised inside node1's commit.
    lambda txs: {"type": "request", "tx": txs[0].wire(), "client": "nowhere"},
    # Walking a body this deep raised RecursionError out of on_message.
    lambda txs: {"type": "request", "client": "client", "tx": dict(
        txs[0].wire(), body=dict(txs[0].body, deep=_nested_list(5000)))},
], ids=["shapeless_future_pre_prepare", "unsigned_future_pre_prepare",
        "request_naming_unknown_client", "request_with_deeply_nested_body"])
def test_junk_is_dropped_at_entry_and_commits_go_on(junk):
    # Raising mid-commit cut that commit step short and counted the honest
    # message behind it as malformed; an entry check counts the junk itself.
    rig = make_rig(seed=13)
    txs = _rule_txs(rig, 2)
    rig.nodes[1].on_message("node2", junk(txs))
    assert rig.nodes[1].counters["malformed_dropped"] == 1
    _commit_in_sequence(rig, txs)
    for tx in txs:
        assert rig.client.client.resolved[tx.tx_id].accepted
    for n in rig.nodes:
        assert len(n.chain) == 3 and n.counters["txs_committed"] == 2
    assert [n.counters["malformed_dropped"] for n in rig.nodes] == [0, 1, 0, 0]
    assert _honest_prefix_consistent(rig.nodes)


def test_junk_gossip_for_a_future_height_does_not_displace_the_honest_copy():
    source = make_rig(seed=14)
    _commit_in_sequence(source, _rule_txs(source, 2))
    honest = [_committed_gossip(source.nodes[0], h) for h in (1, 2)]

    rig = make_rig(seed=14)  # same keys, nothing committed yet
    node = rig.nodes[3]
    forged = {"0": rig.keys[0].sign_obj({"t": "c", "v": 0, "h": 2, "d": "0" * 64})}
    for h in range(2, 40):  # well-shaped, but without a commit quorum
        node.on_message("node2", dict(honest[1], height=h, votes=forged))
    node.on_message("node0", honest[1])
    node.on_message("node0", honest[0])  # commits height 1, then drains height 2
    assert audit.content_digests(node) == audit.content_digests(source.nodes[0])
    assert node.committed_buffer == {}
    assert node.counters["malformed_dropped"] == 38


def test_client_retries_through_other_entry_nodes():
    # Entry node 0 is mute, so the first submission goes nowhere; the
    # timeout retry lands on node 1 and commits.
    rig = make_rig(seed=9, fault_kind="drop", byz_index=0, client_timeout_ms=1500)
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.nodes[0].fault.prob = 1.0
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=30000)
    assert rig.client.client.resolved[tx.tx_id].accepted
    assert _honest_prefix_consistent(rig.nodes, byz_index=0)


def test_same_tx_submitted_twice_commits_once():
    rig = make_rig(seed=10)
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=5000)
    first = rig.client.client.resolved[tx.tx_id]
    # Resubmission of a decided tx answers from the decision cache.
    rig.client.client.resolved.clear()
    rig.scheduler.schedule(0, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=10000)
    again = rig.client.client.resolved[tx.tx_id]
    assert first.accepted and again.accepted
    assert first.height == again.height == 1
    assert all(n.counters["txs_committed"] == 1 for n in rig.nodes)


def test_commit_certificates_verify_in_audit():
    rig = make_rig(seed=11)
    txs = [rule_commit_tx(rig.admin, nonce=i, rule=hr_rule(rule_id=i), usr_rule_id=100 + i)
           for i in range(1, 4)]
    for i, tx in enumerate(txs):
        rig.scheduler.schedule(10 + 40 * i, lambda t=tx: rig.client.client.submit(t))
    rig.scheduler.run(until=8000)
    for node in rig.nodes:
        result = audit.audit_node(node)
        assert result.ok, result.issues


# ---------------------------------------------------------------------------
# node boundary fuzz: no peer message may raise out of on_message

_FIELDS = {
    "submit": ("tx",),
    "request": ("tx", "client"),
    "pre_prepare": ("view", "height", "digest", "batch", "sender", "sig"),
    "prepare": ("view", "height", "digest", "sender", "sig"),
    "commit": ("view", "height", "digest", "sender", "sig"),
    "committed": ("view", "height", "digest", "batch", "votes"),
    "view_change": ("new_view", "last_height", "cert", "sender", "sig"),
    "new_view": ("view", "vcs", "pre_prepare"),
    "sync_req": ("height",),
}

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "2", "kind", "body", "view", "height",
                                       "digest", "batch", "prepares"]), kids, max_size=4),
    max_leaves=10,
)
# Mostly small ints, which hit the node's view, height and peer indexes.
_num = st.integers(0, 3) | _json
_FUZZ_SEED = 12
_ADMIN = KeyPair.from_seed(_FUZZ_SEED, "acct/admin")
_wire = st.integers(1, 50).map(lambda nonce: rule_commit_tx(_ADMIN, nonce).wire())
_batch = st.lists(_wire | _json, max_size=3) | _json
_cert = st.fixed_dictionaries({}, optional={
    "view": _num, "height": _num, "digest": _json, "batch": _batch, "prepares": _json,
})
_VALUES = {"view": _num, "height": _num, "sender": _num, "new_view": _num,
           "last_height": _num, "batch": _batch, "cert": st.none() | _cert | _json}
# Well-typed values, so that a good share of messages gets past MESSAGES;
# now and then a float hides in a transaction body, which is not canonical.
_nodes = st.sampled_from(["0", "1", "2", "3"])
_typed_wire = _wire | _wire.map(lambda w: dict(w, body=dict(w["body"], x=0.5)))
_TYPED = {"view": st.integers(0, 3), "height": st.integers(0, 3), "sender": st.integers(0, 3),
          "new_view": st.integers(0, 3), "last_height": st.integers(0, 3),
          "digest": st.text(max_size=3), "sig": st.text(max_size=3),
          "client": st.text(max_size=3), "tx": _typed_wire,
          "batch": st.lists(_typed_wire, max_size=3),
          "votes": st.dictionaries(_nodes, st.text(max_size=3)),
          "vcs": st.just({}), "pre_prepare": st.none(),
          "cert": st.none() | st.fixed_dictionaries({
              "view": st.integers(0, 3), "height": st.integers(0, 3),
              "digest": st.text(max_size=3), "batch": st.lists(_typed_wire, max_size=3),
              "prepares": st.dictionaries(_nodes, st.tuples(
                  st.sampled_from(["pp", "p"]), st.text(max_size=3)).map(list))})}


def _make_valid(msg, keys):
    """Give msg valid digests, signatures and votes where its drawn fields
    allow, so it reaches the handler's paths behind those checks."""
    for holder in (msg.get("cert"), msg):
        if isinstance(holder, dict) and "batch" in holder:
            try:
                holder["digest"] = node_mod.batch_digest(holder["batch"])
            except TypeError:
                pass
    try:
        if msg["type"] == "view_change":
            cert = msg.get("cert")
            body = node_mod._vc_body(msg["new_view"], msg["last_height"],
                                     node_mod.digest_hex(cert) if cert else "")
        elif msg["type"] == "committed":
            body = node_mod._vote_body("c", msg["view"], msg["height"], msg["digest"])
            msg["votes"] = {str(i): k.sign_obj(body) for i, k in enumerate(keys)}
            return
        else:
            tag = node_mod._VOTE_TAGS[msg["type"]]
            body = node_mod._vote_body(tag, msg["view"], msg["height"], msg["digest"])
        msg["sig"] = keys[msg["sender"]].sign_obj(body)
    except (KeyError, TypeError, IndexError):
        pass  # the drawn fields cannot be signed; send them as they are


@st.composite
def _peer_msg(draw, rig, kind=None):
    """A message of a handled type with JSON-shaped fields, well typed half
    the time, and half the time addressed at the receiving node's current
    view and height."""
    node = rig.nodes[1]
    kind = kind or draw(st.sampled_from(sorted(_FIELDS)))
    msg = {"type": kind}
    values = _TYPED if draw(st.booleans()) else _VALUES
    for name in _FIELDS[kind]:
        if draw(st.integers(0, 9)):
            msg[name] = draw(values.get(name, _json))
    if draw(st.booleans()):
        current = {"view": node.view, "height": node.next_height,
                   "sender": rig.config.primary(node.view),
                   "new_view": node.view + 1, "last_height": node.next_height - 1}
        msg.update((k, v) for k, v in current.items() if k in _FIELDS[kind])
    if kind == "new_view":
        if draw(st.booleans()):
            msg["pre_prepare"] = draw(_peer_msg(rig, "pre_prepare"))
        if draw(st.booleans()):
            msg["vcs"] = {}
            for i in range(draw(st.integers(0, 4))):
                vc = draw(_peer_msg(rig, "view_change"))
                vc.update(sender=i, new_view=msg.get("view"))
                _make_valid(vc, rig.keys)
                msg["vcs"][str(i)] = vc
    elif draw(st.booleans()):
        _make_valid(msg, rig.keys)
    return msg


@pytest.fixture(scope="module")
def fuzz_rig():
    return make_rig(seed=_FUZZ_SEED)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_peer_messages_never_raise_out_of_a_node(fuzz_rig, data):
    msg = data.draw(_peer_msg(fuzz_rig))
    src = data.draw(st.sampled_from(fuzz_rig.config.node_addrs + ["client"]))
    node = fuzz_rig.nodes[1]
    handler = node_mod.handler_for(msg)
    if handler is None:
        before = node.counters["malformed_dropped"]
        node.on_message(src, msg)
        assert node.counters["malformed_dropped"] == before + 1
    else:
        getattr(node, handler)(src, msg)  # no catch: an admitted message never raises
