"""Consensus layer: three-phase commit, view changes, Byzantine tolerance.

Safety is checked as byte-identical block content digests across the
honest nodes; liveness as honest nodes eventually committing submitted
transactions within the simulated window.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hr_rule, make_rig, rule_commit_tx
from ruledger import keys as keys_mod
from ruledger.keys import KeyPair
from ruledger.ledger import audit
from ruledger.ledger.faults import FaultSpec
from ruledger.ledger import node as node_mod
from ruledger.ledger.node import ConfigError, LedgerConfig
from ruledger.ledger.tx import SignedTransaction, build_tx


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
        assert SignedTransaction.from_wire(node.chain[1]["txs"][0]).body["rule"]["rule_id"] == 1
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


def _pre_prepare(rig, view, wires, height=1, sender=None, digest=None):
    """The pre-prepare of view's primary (or of sender) for wires (under digest, if
    given), signed with the sender's key."""
    sender = rig.config.primary(view) if sender is None else sender
    digest = node_mod.batch_digest(wires) if digest is None else digest
    return {"type": "pre_prepare", "view": view, "height": height, "digest": digest,
            "batch": wires, "sender": sender,
            "sig": rig.keys[sender].sign_obj(node_mod._vote_body("p", view, height, digest))}


def test_conflicting_pre_prepares_are_detected():
    # A node that does receive both variants keeps the first and counts
    # the fork attempt.
    rig = make_rig(seed=41)
    tx = rule_commit_tx(rig.admin, nonce=1)
    node = rig.nodes[1]
    node.on_message("node0", _pre_prepare(rig, 0, [tx.wire()]))
    first_digest = node.slots[1][0].digest
    node.on_message("node0", _pre_prepare(rig, 0, [tx.wire(), tx.wire()]))
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
    cert = {"view": 0, "height": 1, "digest": empty, "batch": [], "votes": [1]}
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


def _sync_reply(node, height):
    block = node.chain[height]
    return {"type": "committed", "view": block["proof"]["view"], "height": height,
            "digest": block["proof"]["proposal_digest"], "batch": block["proposal"],
            "votes": block["proof"]["votes"]}


def _record_sends(rig):
    """Note (src, dst, msg) of every message sent from now on, one per
    destination of a multicast."""
    sent = []
    send = rig.net.send

    def recording(src, dsts, msg):
        sent.extend((src, dst, msg) for dst in ([dsts] if isinstance(dsts, str) else dsts))
        send(src, dsts, msg)

    rig.net.send = recording
    return sent


def _submit(tx):
    return {"type": "submit", "tx": tx.wire()}


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


def test_duplicate_commit_gossip_does_not_double_apply():
    rig = make_rig(seed=8)
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=5000)
    node = rig.nodes[3]
    height_before = len(node.chain)
    node.on_message("node0", _sync_reply(node, 1))
    assert len(node.chain) == height_before
    assert node.counters["txs_committed"] == 1


@pytest.mark.parametrize("junk", [
    # Buffered unread, it raised inside node1's next commit.
    lambda txs: {"type": "pre_prepare", "view": 0, "height": 2, "sender": 0},
    # Buffered unverified, 64 of these could crowd out the honest one.
    lambda txs: {"type": "pre_prepare", "view": 0, "height": 2, "digest": "d",
                 "batch": [], "sender": 0, "sig": "00"},
    # Walking a body this deep raised RecursionError out of on_message.
    lambda txs: {"type": "submit", "tx": dict(
        txs[0].wire(), body=txs[0].body_text()[:-1] + ',"x":' + "[" * 5000 + "]" * 5000 + "}")},
    # A string UTF-8 cannot encode raised UnicodeEncodeError out of the handler.
    lambda txs: {"type": "prepare", "view": 0, "height": 1, "digest": "\ud800", "sender": 2,
                 "sig": "00"},
    lambda txs: {"type": "submit", "tx": dict(
        txs[0].wire(), body=txs[0].body_text()[:-1] + ',"x":"\ud800"}')},
    lambda txs: {"type": "submit", "tx": dict(
        txs[0].wire(), body=txs[0].body_text()[:-1] + ',"x":"\\ud800"}')},
], ids=["shapeless_future_pre_prepare", "unsigned_future_pre_prepare",
        "submit_with_deeply_nested_body", "prepare_with_a_lone_surrogate",
        "submit_with_a_lone_surrogate", "submit_with_an_escaped_lone_surrogate"])
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


def test_poison_config_tx_is_answered_and_commits_go_on():
    # An unhashable action made the rule contract raise inside every replica's
    # commit step: no block committed and the views kept changing.
    rig = make_rig(seed=3)
    poison = build_tx("config", {"action": ["x"]}, KeyPair.from_seed(3, "acct/outsider"), 1)
    commit = rule_commit_tx(rig.admin, nonce=1)
    _commit_in_sequence(rig, [poison, commit])
    resolved = rig.client.client.resolved
    assert poison.tx_id in resolved and resolved[poison.tx_id].code == "MalformedBody"
    assert commit.tx_id in resolved and resolved[commit.tx_id].accepted
    for n in rig.nodes:
        assert n.next_height == 3 and n.counters["view_changes"] == 0
    assert _honest_prefix_consistent(rig.nodes)


def test_junk_gossip_for_a_future_height_does_not_displace_the_honest_copy():
    source = make_rig(seed=14)
    _commit_in_sequence(source, _rule_txs(source, 2))
    honest = [_sync_reply(source.nodes[0], h) for h in (1, 2)]

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


def test_a_node_cut_off_while_blocks_commit_pulls_them_without_a_view_change():
    # Block 1 rejects an outsider's tx, so its proposal is not its txs.
    rig = make_rig(seed=16)
    lagging = rig.nodes[3]
    lagging.on_message = lambda src, msg: None  # every inbound delivery is lost
    outsider = build_tx("config", {"action": ["x"]}, KeyPair.from_seed(16, "acct/outsider"), 1)
    first, second = _rule_txs(rig, 2)
    _commit_in_sequence(rig, [outsider, first])
    assert [n.next_height for n in rig.nodes] == [3, 3, 3, 1]
    del lagging.on_message  # the link is back
    _commit_in_sequence(rig, [second])

    source = rig.nodes[0]
    assert audit.content_digests(lagging) == audit.content_digests(source)
    assert all(n.counters["view_changes"] == 0 for n in rig.nodes)
    assert rig.client.client.resolved[second.tx_id].accepted
    assert lagging.chain[1]["txs"] == [] and lagging.chain[1]["proposal"] == [outsider.wire()]
    assert audit.audit_node(lagging).ok


def test_a_view_change_brings_its_sender_up_to_date():
    rig = make_rig(seed=21)
    lagging = rig.nodes[3]
    lagging.on_message = lambda src, msg: None
    first, second, third = _rule_txs(rig, 3)
    _commit_in_sequence(rig, [first, second])
    del lagging.on_message
    # Only the lagging node holds work, so only it times out.
    lagging.on_message("client", _submit(third))
    rig.scheduler.run(until=rig.scheduler.now + rig.config.commit_timeout_ms + 20)
    assert [n.counters["view_changes"] for n in rig.nodes] == [0, 0, 0, 1]
    assert audit.content_digests(lagging) == audit.content_digests(rig.nodes[0])


def test_commits_send_no_blocks_and_a_sync_reply_is_a_bounded_run():
    rig = make_rig(seed=17)
    sent = _record_sends(rig)
    _commit_in_sequence(rig, _rule_txs(rig, node_mod.SYNC_RUN + 2))
    assert all(n.next_height == node_mod.SYNC_RUN + 3 for n in rig.nodes)
    assert not [msg for _, _, msg in sent if msg["type"] == "committed"]

    rig.nodes[0].on_message("node3", {"type": "sync_req", "height": 2})
    replies = [msg for _, _, msg in sent if msg["type"] == "committed"]
    assert [msg["height"] for msg in replies] == list(range(2, 2 + node_mod.SYNC_RUN))
    assert all(msg["batch"] == rig.nodes[0].chain[msg["height"]]["proposal"] for msg in replies)


def test_each_timeout_inside_a_view_change_moves_its_target_on():
    rig = make_rig(seed=18)
    node = rig.nodes[1]
    first, second = _rule_txs(rig, 2)
    node.on_message("client", _submit(first))
    node._on_timeout(node._timer_epoch)
    epoch = node._timer_epoch
    # A new submission does not put the view change's timeout off.
    node.on_message("client", _submit(second))
    node._on_timeout(epoch)  # the view change to 1 timed out in turn
    rig.scheduler.run(until=rig.scheduler.now + 50)
    # Peers hold node1's view changes for view 1 and then view 2.
    assert {view: set(bucket) for view, bucket in rig.nodes[2].vc_msgs.items()} == {1: {1}, 2: {1}}
    assert node.view == 0 and node.vc_target == 2


def test_a_client_retry_goes_to_every_replica():
    # The replicas wait out a mute primary longer than the client waits for a receipt.
    rig = make_rig(seed=19, fault_kind="drop", byz_index=0, commit_timeout_ms=2000,
                   client_timeout_ms=1500)
    rig.nodes[0].fault.prob = 1.0  # the view-0 primary is mute
    tx = rule_commit_tx(rig.admin, nonce=1)
    sent = _record_sends(rig)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=1600)
    submits = [dst for src, dst, msg in sent if src == "client" and msg["type"] == "submit"]
    assert submits == [*rig.config.node_addrs, *rig.config.node_addrs]


def test_a_mute_view_0_primary_loses_no_submission():
    # The submission reaches every replica, so the view change after the
    # commit timeout commits it; the client's retry is never needed.
    rig = make_rig(seed=9, fault_kind="drop", byz_index=0, client_timeout_ms=4000)
    rig.nodes[0].fault.prob = 1.0
    tx = rule_commit_tx(rig.admin, nonce=1)
    sent = _record_sends(rig)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=3900)
    receipt = rig.client.client.resolved.get(tx.tx_id)
    assert receipt is not None and receipt.accepted
    submits = [dst for src, dst, msg in sent if src == "client" and msg["type"] == "submit"]
    assert submits == rig.config.node_addrs


def test_one_replica_cannot_spoof_a_signature_reject():
    rig = make_rig(seed=27)
    tx = rule_commit_tx(rig.admin, nonce=1)
    forged = {"type": "receipt", "tx_id": tx.tx_id, "accepted": False,
              "code": "BadSignature", "height": None}
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.schedule(11, lambda: rig.nodes[1].send("client", forged))
    rig.scheduler.run(until=5000)
    receipt = rig.client.client.resolved[tx.tx_id]
    assert receipt.accepted and receipt.height == 1


@pytest.mark.parametrize("n", [4, 10])
def test_concurrent_fault_free_submissions_make_no_view_change(n):
    rig = make_rig(seed=22, n=n)
    txs = _rule_txs(rig, 24)
    for i, tx in enumerate(txs):  # one each millisecond, faster than a round trip
        rig.scheduler.schedule(10 + i, lambda t=tx: rig.client.client.submit(t))
    rig.scheduler.run(until=6000)
    assert all(rig.client.client.resolved[tx.tx_id].accepted for tx in txs)
    counts = [(node.counters["view_changes"], node.counters["equivocations_detected"])
              for node in rig.nodes]
    assert counts == [(0, 0)] * n


def _proposals(sent, sender):
    """The pre-prepares sender sent, alone or inside a new_view."""
    found = []
    for src, _, msg in sent:
        if src == sender and msg["type"] == "new_view" and msg["pre_prepare"] is not None:
            found.append(msg["pre_prepare"])
        elif src == sender and msg["type"] == "pre_prepare":
            found.append(msg)
    return found


def test_a_request_right_after_a_proposal_makes_no_second_pre_prepare():
    rig = make_rig(seed=23)
    primary = rig.nodes[0]
    first, second = _rule_txs(rig, 2)
    sent = _record_sends(rig)
    primary.on_message("client", _submit(first))  # proposes height 1
    primary.on_message("client", _submit(second))  # before any message is delivered
    assert [(p["height"], p["batch"]) for p in _proposals(sent, "node0")] == [(1, [first.wire()])] * 3
    assert primary.slots[1][0].batch == [first.wire()]
    rig.scheduler.run(until=rig.scheduler.now + 500)
    assert [n.next_height for n in rig.nodes] == [3] * 4
    assert all(n.counters["equivocations_detected"] == 0 for n in rig.nodes)


def test_a_request_right_after_a_new_view_makes_no_second_pre_prepare():
    rig = make_rig(seed=24)
    new_primary = rig.nodes[1]
    first, second = _rule_txs(rig, 2)
    new_primary.on_message("client", _submit(first))  # not the primary of view 0
    sent = _record_sends(rig)
    for i in (0, 2, 3):  # a quorum of view changes for view 1
        new_primary.on_message(f"node{i}", {
            "type": "view_change", "new_view": 1, "last_height": 0, "cert": None, "sender": i,
            "sig": rig.keys[i].sign_obj(node_mod._vc_body(1, 0, ""))})
    new_primary.on_message("client", _submit(second))
    proposals = _proposals(sent, "node1")
    assert [(p["view"], p["height"], p["batch"]) for p in proposals] == [(1, 1, [first.wire()])] * 3
    assert new_primary.view == 1 and new_primary.slots[1][1].batch == [first.wire()]
    rig.scheduler.run(until=rig.scheduler.now + 500)
    assert [n.next_height for n in rig.nodes] == [3] * 4
    assert all(n.view == 1 and n.counters["equivocations_detected"] == 0 for n in rig.nodes)


def test_a_request_stream_does_not_put_off_a_silent_primarys_timeout():
    rig = make_rig(seed=25, fault_kind="drop", byz_index=0)
    rig.nodes[0].fault.prob = 1.0
    replicas = rig.nodes[1:]

    def deliver(tx):
        for node in replicas:
            node.on_message("client", _submit(tx))

    for i, tx in enumerate(_rule_txs(rig, 40)):  # a new request every 50 ms for 2 s
        rig.scheduler.schedule(10 + 50 * i, lambda t=tx: deliver(t))
    # No replica makes progress, so each times out commit_timeout_ms after the first request.
    rig.scheduler.run(until=10 + rig.config.commit_timeout_ms)
    assert [node.counters["view_changes"] for node in replicas] == [1, 1, 1]


def test_a_pooled_tx_is_not_verified_again_in_a_pre_prepare(monkeypatch):
    rig = make_rig(seed=26)
    tx = rule_commit_tx(rig.admin, nonce=1)
    logical, real = [], []
    memo, verify = rig.net.verify, keys_mod.verify_signature
    assert all(node.net.verify is memo for node in rig.nodes)

    def counting_memo(message, sig, pubkey):
        if message == tx.body_bytes():
            logical.append(pubkey)
        return memo(message, sig, pubkey)

    def counting_verify(message, sig, pubkey):
        if message == tx.body_bytes():
            real.append(pubkey)
        return verify(message, sig, pubkey)

    monkeypatch.setattr(rig.net, "verify", counting_memo)
    monkeypatch.setattr(keys_mod, "verify_signature", counting_verify)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=2000)
    assert rig.client.client.resolved[tx.tx_id].accepted
    # Each node checks the submission it pools, once, and the pre-prepare adds none;
    # the replicas share one process, so Ed25519 runs once for all of them.
    assert len(logical) == len(rig.nodes)
    assert len(real) == 1


def test_a_mute_primary_cannot_keep_a_submission_from_committing():
    # Node 0, the view-0 primary, is mute; the other replicas hold the
    # submission themselves, change view, and commit it under node 1.
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


def test_a_client_gives_up_after_two_tries_per_replica():
    # Every replica is mute, so no receipt comes; each try goes to every replica.
    rig = make_rig(seed=28, client_timeout_ms=1000)
    for node in rig.nodes:
        node.fault = FaultSpec("drop", 1.0)
    tx = rule_commit_tx(rig.admin, nonce=1)
    sent = _record_sends(rig)
    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.run(until=8000)
    assert tx.tx_id not in rig.client.client.resolved
    rig.scheduler.run(until=8020)
    receipt = rig.client.client.resolved[tx.tx_id]
    assert (receipt.accepted, receipt.code, receipt.height) == (False, "Timeout", None)
    submits = [dst for src, dst, msg in sent if src == "client" and msg["type"] == "submit"]
    assert submits == rig.config.node_addrs * 8


# ---------------------------------------------------------------------------
# view changes: prepared certificates and new views


def _prepared(rig, wires, voters, tag="p", height=1):
    """A certificate for wires at view 0, height 1 (or height) with the tag votes
    of voters."""
    digest = node_mod.batch_digest(wires)
    body = node_mod._vote_body(tag, 0, height, digest)
    return {"view": 0, "height": height, "digest": digest, "batch": wires,
            "votes": {str(i): rig.keys[i].sign_obj(body) for i in voters}}


def _view_change(rig, sender, new_view, cert=None, key=None):
    """sender's view change to new_view from height 0, signed with key (its own
    by default)."""
    body = node_mod._vc_body(new_view, 0, node_mod.digest_hex(cert) if cert else "")
    return {"type": "view_change", "new_view": new_view, "last_height": 0, "cert": cert,
            "sender": sender, "sig": (key or rig.keys[sender]).sign_obj(body)}


def _new_view(view, vcs, pre_prepare=None):
    return {"type": "new_view", "view": view, "vcs": {str(vc["sender"]): vc for vc in vcs},
            "pre_prepare": pre_prepare}


def _vcs(rig, cert=None):
    """View changes to view 1 from nodes 0, 2 and 3, a quorum; node0's carries cert."""
    return [_view_change(rig, 0, 1, cert), *(_view_change(rig, i, 1) for i in (2, 3))]


@pytest.fixture
def vc_rig():
    """A 4-node rig, nothing committed, and two signed one-tx batches."""
    rig = make_rig(seed=29)
    rig.wires = [[tx.wire()] for tx in _rule_txs(rig, 2)]
    return rig


def test_a_pre_prepare_is_its_senders_prepare_vote(vc_rig):
    # node1 holds the primary's pre-prepare and the prepares of node2 and node3,
    # and not its own: that is a prepared certificate, and node2 accepts it.
    rig, wires = vc_rig, vc_rig.wires[0]
    backup = rig.nodes[1]
    pre_prepare = _pre_prepare(rig, 0, wires)
    backup.on_message("node0", pre_prepare)
    digest = pre_prepare["digest"]
    for i in (2, 3):
        backup.on_message(f"node{i}", rig.nodes[i]._vote("prepare", 0, 1, digest))
    cert = backup._prepared_cert()
    assert set(cert["votes"]) == {"0", "2", "3"} and cert["batch"] == wires
    # The primary's own prepare would carry the same bytes as its pre-prepare.
    assert cert["votes"]["0"] == rig.nodes[0]._vote("prepare", 0, 1, digest)["sig"]
    sent = _record_sends(rig)
    backup._start_view_change(1)
    vc = next(msg for _, _, msg in sent if msg["type"] == "view_change")
    assert vc["cert"] == cert
    rig.nodes[2].on_message("node1", vc)
    assert rig.nodes[2].counters["malformed_dropped"] == 0
    assert set(rig.nodes[2].vc_msgs[1]) == {1}


def _prepared_with_a_vote_for_another_batch(rig):
    cert = _prepared(rig, rig.wires[0], (0, 2))
    cert["votes"]["3"] = _prepared(rig, rig.wires[1], (3,))["votes"]["3"]
    return cert


@pytest.mark.parametrize("cert,accepted", [
    (lambda rig: _prepared(rig, rig.wires[0], (0, 1, 2)), True),
    (lambda rig: dict(_prepared(rig, rig.wires[0], (0, 1, 2)), batch=rig.wires[1]), False),
    (lambda rig: _prepared(rig, rig.wires[0], (0, 2)), False),
    (_prepared_with_a_vote_for_another_batch, False),
    (lambda rig: _prepared(rig, rig.wires[0], (0, 1, 2), tag="c"), False),
], ids=["quorum", "batch_not_its_digest", "two_votes", "a_vote_for_another_batch",
        "commit_votes"])
def test_a_view_change_needs_a_prepared_certificate_that_checks(vc_rig, cert, accepted):
    node = vc_rig.nodes[2]
    node.on_message("node3", _view_change(vc_rig, 3, 1, cert(vc_rig)))
    assert node.counters["malformed_dropped"] == (0 if accepted else 1)
    assert list(node.vc_msgs) == ([1] if accepted else [])


def _prepared_vcs(rig):
    return _vcs(rig, _prepared(rig, rig.wires[0], (0, 1, 2)))


@pytest.mark.parametrize("msg,moves", [
    (lambda rig: _new_view(1, _vcs(rig)), True),
    (lambda rig: _new_view(1, _vcs(rig)[:2]), False),
    (lambda rig: _new_view(1, [_view_change(rig, i, 1 if i else 2) for i in (0, 2, 3)]), False),
    (lambda rig: _new_view(1, [_view_change(rig, i, 1, key=rig.keys[1] if i == 3 else None)
                               for i in (0, 2, 3)]), False),
    (lambda rig: dict(_new_view(1, []), vcs={"0": _view_change(rig, 3, 1),
                                             "2": _view_change(rig, 2, 1),
                                             "3": _view_change(rig, 0, 1)}), False),
    (lambda rig: _new_view(1, _prepared_vcs(rig), _pre_prepare(rig, 1, rig.wires[0])), True),
    (lambda rig: _new_view(1, _prepared_vcs(rig)), False),
    (lambda rig: _new_view(1, _prepared_vcs(rig), _pre_prepare(rig, 1, rig.wires[1])), False),
], ids=["quorum", "two_view_changes", "a_view_change_for_view_2", "a_forged_view_change",
        "a_view_change_under_another_index", "prepared_batch_re_proposed",
        "prepared_batch_not_re_proposed", "another_batch_re_proposed"])
def test_a_new_view_needs_a_quorum_and_the_prepared_batch(vc_rig, msg, moves):
    node = vc_rig.nodes[2]
    msg = msg(vc_rig)
    node.on_message("node1", msg)
    assert node.view == (1 if moves else 0)
    assert node.counters["malformed_dropped"] == (0 if moves else 1)
    if moves and msg["pre_prepare"] is not None:
        assert node.slots[1][1].batch == msg["pre_prepare"]["batch"]


def test_a_new_view_for_a_view_behind_is_ignored(vc_rig):
    rig = vc_rig
    node = rig.nodes[2]
    node._enter_view(2)
    node.on_message("node1", _new_view(1, _vcs(rig)))
    assert node.view == 2 and node.counters["malformed_dropped"] == 0


# ---------------------------------------------------------------------------
# direct refusals: each check consensus safety rests on, one message at a time


def _no_proposal(node, height=1):
    return all(slot.digest is None for slot in node.slots.get(height, {}).values())


def _text_wire(rig, text, kind="rule_commit"):
    """A wire carrying body text as it is, signed by the admin over exactly that text."""
    return {"kind": kind, "body": text, "signer": rig.admin.public_hex,
            "signature": rig.admin.sign(text.encode())}


def _reordered(body):
    return json.dumps(dict(reversed(list(body.items()))), separators=(",", ":"))


# Validly signed texts that are not the canonical body of their wire's kind,
# as (body text, wire kind) from a canonical rule commit.
_NOT_CANONICAL = {
    "a_space": lambda tx: (tx.body_text().replace(",", ", ", 1), tx.kind),
    "reordered_keys": lambda tx: (_reordered(tx.body), tx.kind),
    "a_float": lambda tx: (tx.body_text()[:-1] + ',"x":0.5}', tx.kind),
    "nan": lambda tx: (tx.body_text()[:-1] + ',"x":NaN}', tx.kind),
    "a_duplicate_key": lambda tx: ('{"action":"x",' + tx.body_text()[1:], tx.kind),
    "unparseable": lambda tx: (tx.body_text()[:-1], tx.kind),
    "not_an_object": lambda tx: (json.dumps([tx.body_text()]), tx.kind),
    "a_kind_mismatch": lambda tx: (tx.body_text(), "event"),
    "no_nonce": lambda tx: (SignedTransaction(
        tx.kind, {k: v for k, v in tx.body.items() if k != "nonce"}, tx.signer, "").body_text(),
        tx.kind),
}


@pytest.mark.parametrize("path", ["submit", "pre_prepare"])
@pytest.mark.parametrize("variant", sorted(_NOT_CANONICAL))
def test_a_signed_body_that_is_not_canonical_is_refused(path, variant):
    rig = make_rig(seed=33)
    tx = rule_commit_tx(rig.admin, nonce=1)
    wire = _text_wire(rig, *_NOT_CANONICAL[variant](tx))
    assert wire["body"] != tx.body_text() or wire["kind"] != tx.kind
    node = rig.nodes[1]
    if path == "submit":
        node.on_message("client", {"type": "submit", "tx": wire})
    else:
        node.on_message("node0", _pre_prepare(rig, 0, [wire]))
    assert node.counters["malformed_dropped"] == 1
    assert not node.pool and _no_proposal(node)


def _bad_signature(rig, wires, view=0):
    return _pre_prepare(rig, view, [dict(wires[0][0], signature=rig.admin.sign(b"another body"))])


@pytest.mark.parametrize("msg", [
    _bad_signature,
    lambda rig, wires: _pre_prepare(rig, 0, wires[0], digest=node_mod.batch_digest(wires[1])),
    lambda rig, wires: _pre_prepare(rig, 0, []),
    lambda rig, wires: _pre_prepare(rig, 0, wires[0], sender=1),
    lambda rig, wires: _pre_prepare(rig, 1, wires[0]),
    lambda rig, wires: _new_view(1, _vcs(rig), _bad_signature(rig, wires, view=1)),
], ids=["a_wire_with_a_bad_signature", "a_digest_of_another_batch", "an_empty_batch",
        "signed_by_a_backup", "for_a_later_view", "a_bad_signature_re_proposed_in_a_new_view"])
def test_a_signed_pre_prepare_that_fails_a_check_is_refused(vc_rig, msg):
    # The audit trusts that a replica casts no vote on a batch that fails a check,
    # whichever message brought the batch.
    node = vc_rig.nodes[2]
    sent = _record_sends(vc_rig)
    node.on_message("node1", msg(vc_rig, vc_rig.wires))
    assert node.counters["malformed_dropped"] == 1
    assert _no_proposal(node)
    assert all(not slot.prepares for views in node.slots.values() for slot in views.values())
    assert not [m for src, _, m in sent if src == node.addr and m["type"] in ("prepare", "commit")]


@pytest.mark.parametrize("kind", ["prepare", "commit"])
def test_a_forged_vote_is_refused(vc_rig, kind):
    rig, node = vc_rig, vc_rig.nodes[2]
    node.on_message("node0", _pre_prepare(rig, 0, rig.wires[0]))
    vote = rig.nodes[3]._vote(kind, 0, 1, node.slots[1][0].digest)
    node.on_message("node3", dict(vote, sig=rig.keys[1].sign_obj(
        node_mod._vote_body(node_mod._VOTE_TAGS[kind], 0, 1, vote["digest"]))))
    assert node.counters["malformed_dropped"] == 1
    slot = node.slots[1][0]
    assert 3 not in slot.prepares.get(slot.digest, {}) and not slot.commits


def test_a_bad_signature_in_a_committed_reply_is_refused(vc_rig):
    rig, node = vc_rig, vc_rig.nodes[2]
    wires = [dict(rig.wires[0][0], signature=rig.admin.sign(b"another body"))]
    node.on_message("node0", {"type": "committed", **_prepared(rig, wires, (0, 1, 3), "c")})
    assert node.counters["malformed_dropped"] == 1 and node.next_height == 1


def test_a_tx_in_two_certified_batches_executes_once(vc_rig):
    rig, node = vc_rig, vc_rig.nodes[2]
    first, second = rig.wires[0][0], rig.wires[1][0]
    for height, wires in ((1, [first]), (2, [first, second])):
        node.on_message("node0", {"type": "committed",
                                  **_prepared(rig, wires, (0, 1, 3), "c", height)})
    assert node.next_height == 3 and node.counters["malformed_dropped"] == 0
    assert node.chain[2]["txs"] == [second]
    assert node.counters["txs_committed"] == 2 and node.counters["txs_rejected"] == 0
    assert node.decided[node_mod.text_id(first["body"])].height == 1


# ---------------------------------------------------------------------------
# node boundary fuzz: no peer message may raise out of on_message

_FIELDS = {
    "submit": ("tx",),
    "pre_prepare": ("view", "height", "digest", "batch", "sender", "sig"),
    "prepare": ("view", "height", "digest", "sender", "sig"),
    "commit": ("view", "height", "digest", "sender", "sig"),
    "committed": ("view", "height", "digest", "batch", "votes"),
    "view_change": ("new_view", "last_height", "cert", "sender", "sig"),
    "new_view": ("view", "vcs", "pre_prepare"),
    "sync_req": ("height",),
}

# Strings draw from every category, lone surrogates (Cs) included, which JSON's
# "\ud800" parses to and hypothesis's default text leaves out.
_text = st.text(st.characters(exclude_categories=()), max_size=3)
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(allow_nan=False) | _text,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "2", "kind", "body", "view", "height",
                                       "digest", "batch", "votes"]), kids, max_size=4),
    max_leaves=10,
)
# Mostly small ints, which hit the node's view, height and peer indexes.
_num = st.integers(0, 3) | _json
_FUZZ_SEED = 12
_ADMIN = KeyPair.from_seed(_FUZZ_SEED, "acct/admin")
_wire = st.integers(1, 50).map(lambda nonce: rule_commit_tx(_ADMIN, nonce).wire())
_batch = st.lists(_wire | _json, max_size=3) | _json
_cert = st.fixed_dictionaries({}, optional={
    "view": _num, "height": _num, "digest": _json, "batch": _batch, "votes": _json,
})
_VALUES = {"view": _num, "height": _num, "sender": _num, "new_view": _num,
           "last_height": _num, "batch": _batch, "cert": st.none() | _cert | _json}
# Well-typed values, so that a good share of messages gets past MESSAGES;
# now and then a float hides in a transaction body's text, which is not canonical.
_nodes = st.sampled_from(["0", "1", "2", "3"])
_typed_wire = _wire | _wire.map(lambda w: dict(w, body=w["body"][:-1] + ',"x":0.5}'))
_TYPED = {"view": st.integers(0, 3), "height": st.integers(0, 3), "sender": st.integers(0, 3),
          "new_view": st.integers(0, 3), "last_height": st.integers(0, 3),
          "digest": _text, "sig": _text,
          "tx": _typed_wire, "batch": st.lists(_typed_wire, max_size=3),
          "votes": st.dictionaries(_nodes, _text),
          "vcs": st.just({}), "pre_prepare": st.none(),
          "cert": st.none() | st.fixed_dictionaries({
              "view": st.integers(0, 3), "height": st.integers(0, 3),
              "digest": _text, "batch": st.lists(_typed_wire, max_size=3),
              "votes": st.dictionaries(_nodes, _text)})}


def _sign_votes(cert, tag, keys):
    """Give cert every replica's vote of tag on its view, height and digest."""
    body = node_mod._vote_body(tag, cert["view"], cert["height"], cert["digest"])
    cert["votes"] = {str(i): k.sign_obj(body) for i, k in enumerate(keys)}


def _make_valid(msg, keys, cert_votes=True):
    """Give msg valid digests, signatures and votes where its drawn fields
    allow, so it reaches the handler's paths behind those checks; a view
    change's certificate keeps its drawn votes unless cert_votes."""
    for holder in (msg.get("cert"), msg):
        if isinstance(holder, dict) and "batch" in holder:
            try:
                holder["digest"] = node_mod.batch_digest(holder["batch"])
            except TypeError:
                pass
    try:
        if msg["type"] == "view_change":
            cert = msg.get("cert")
            if cert_votes and isinstance(cert, dict):
                try:
                    _sign_votes(cert, "p", keys)
                except (KeyError, TypeError):
                    pass  # the certificate cannot be signed; its votes stay as drawn
            body = node_mod._vc_body(msg["new_view"], msg["last_height"],
                                     node_mod.digest_hex(cert) if cert else "")
        elif msg["type"] == "committed":
            _sign_votes(msg, "c", keys)
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
                _make_valid(vc, rig.keys, draw(st.booleans()))
                msg["vcs"][str(i)] = vc
    elif draw(st.booleans()):
        _make_valid(msg, rig.keys, draw(st.booleans()))
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
    handler = node.handler_for(msg)
    if handler is None:
        before = node.counters["malformed_dropped"]
        node.on_message(src, msg)
        assert node.counters["malformed_dropped"] == before + 1
    else:
        getattr(node, handler)(src, msg)  # no catch: an admitted message never raises
