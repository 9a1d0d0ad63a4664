"""Consensus layer: three-phase commit, view changes, Byzantine tolerance.

Safety is checked as byte-identical block content digests across the
honest nodes; liveness as honest nodes eventually committing submitted
transactions within the simulated window.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Tap, hr_rule, make_rig, mutated_since, rule_commit_tx
from ruledger import keys as keys_mod
from ruledger.keys import KeyPair
from ruledger.ledger import audit, tables
from ruledger.ledger.faults import FAULT_DELAY_MS, FAULT_KINDS, FaultSpec
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
        wire = node_mod.block_txs(node.chain[1])[0]
        assert SignedTransaction.from_wire(wire).body["rule"]["rule_id"] == 1
        assert node.counters["view_changes"] == 0
    assert _honest_prefix_consistent(rig.nodes)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_too_few_nodes_is_a_config_error(n):
    with pytest.raises(ConfigError):
        LedgerConfig(node_addrs=[f"n{i}" for i in range(n)],
                     node_pubkeys=["k"] * n, ledger_secret=b"s",
                     task_agent_addr="task", exec_agent_addr="exec")


@pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3)])
def test_fault_bound_and_quorum(n, f):
    config = LedgerConfig(node_addrs=[f"n{i}" for i in range(n)],
                          node_pubkeys=["k"] * n, ledger_secret=b"s",
                          task_agent_addr="task", exec_agent_addr="exec")
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
    node.on_message("node0", _pre_prepare(rig, 0, [tx.wire()]))  # a copy is no fork
    assert node.counters["equivocations_detected"] == 0
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
    return {"type": "committed", **node.chain[height]["cert"]}


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


def test_a_primary_cannot_decide_a_tx_by_proposing_a_copy_signed_by_another_key():
    # A tx id covers its signer.  When the id was the hash of the body text alone,
    # node0 (the view-0 primary) could propose the admin's body re-signed by its
    # own account: every replica committed the copy as NoAclEntry under the
    # admin's id, and the admin's own tx resolved as rejected, with no view change.
    rig = make_rig(seed=16)
    tx = rule_commit_tx(rig.admin, nonce=1)
    mallory = KeyPair.from_seed(16, "acct/mallory")
    copy = SignedTransaction(tx.kind, tx.body, mallory.public_hex,
                             mallory.sign(tx.body_bytes()), tx.body_text())
    primary = rig.nodes[0]

    def propose_the_copy():
        primary.pool.clear()
        primary._propose([copy.wire()])

    rig.scheduler.schedule(10, lambda: rig.client.client.submit(tx))
    rig.scheduler.schedule(11, propose_the_copy)
    rig.scheduler.run(until=5000)
    receipt = rig.client.client.resolved[tx.tx_id]
    assert receipt.accepted and receipt.height == 2
    for node in rig.nodes:
        assert node.decided[copy.tx_id].code == "NoAclEntry" and node.decided[copy.tx_id].height == 1
        assert node_mod.block_txs(node.chain[2]) == [tx.wire()]
        assert node.counters["view_changes"] == 0
        assert [row["rule_id"] for row in node.state.table(tables.RULE).rows] == [1]
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
    node.on_message("node0", honest[0])  # commits height 1, then height 2 from its slot
    assert audit.content_digests(node) == audit.content_digests(source.nodes[0])
    assert node.slots == {}
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
    assert lagging.chain[1]["txs"] == [] and lagging.chain[1]["cert"]["batch"] == [outsider.wire()]
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
    sent = Tap(rig.net).sent
    _commit_in_sequence(rig, _rule_txs(rig, node_mod.SYNC_RUN + 2))
    assert all(n.next_height == node_mod.SYNC_RUN + 3 for n in rig.nodes)
    assert not [msg for _, _, msg in sent if msg["type"] == "committed"]

    rig.nodes[0].on_message("node3", {"type": "sync_req", "height": 2})
    replies = [msg for _, _, msg in sent if msg["type"] == "committed"]
    assert [msg["height"] for msg in replies] == list(range(2, 2 + node_mod.SYNC_RUN))
    chain = rig.nodes[0].chain
    assert all(msg == {"type": "committed", **chain[msg["height"]]["cert"]} for msg in replies)


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
    # Peers hold node1's view change for view 2, which replaced the one for view 1.
    assert {view: set(bucket) for view, bucket in rig.nodes[2].vc_msgs.items()} == {2: {1}}
    assert node.view == 0 and node.vc_target == 2


def test_a_client_retry_goes_to_every_replica():
    # The replicas wait out a mute primary longer than the client waits for a receipt.
    rig = make_rig(seed=19, fault_kind="drop", byz_index=0, commit_timeout_ms=2000,
                   client_timeout_ms=1500)
    rig.nodes[0].fault.prob = 1.0  # the view-0 primary is mute
    tx = rule_commit_tx(rig.admin, nonce=1)
    sent = Tap(rig.net).sent
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
    sent = Tap(rig.net).sent
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
    sent = Tap(rig.net).sent
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
    sent = Tap(rig.net).sent
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
    sent = Tap(rig.net).sent
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


def _view_change(rig, sender, new_view, cert=None, key=None, last_height=0):
    """sender's view change to new_view from last_height, signed with key (its
    own by default)."""
    body = node_mod._vc_body(new_view, last_height, node_mod.digest_hex(cert) if cert else "")
    return {"type": "view_change", "new_view": new_view, "last_height": last_height,
            "cert": cert, "sender": sender, "sig": (key or rig.keys[sender]).sign_obj(body)}


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
    # node1 holds the primary's pre-prepare, its own prepare and the prepares of
    # node2 and node3, and no prepare of node0: that is a prepared certificate,
    # and node2 accepts it.
    rig, wires = vc_rig, vc_rig.wires[0]
    backup = rig.nodes[1]
    pre_prepare = _pre_prepare(rig, 0, wires)
    backup.on_message("node0", pre_prepare)
    digest = pre_prepare["digest"]
    for i in (2, 3):
        backup.on_message(f"node{i}", rig.nodes[i]._vote("prepare", 0, 1, digest))
    cert = backup._prepared_cert()
    assert set(cert["votes"]) == {"0", "1", "2", "3"} and cert["batch"] == wires
    # The primary's own prepare would carry the same bytes as its pre-prepare.
    assert cert["votes"]["0"] == rig.nodes[0]._vote("prepare", 0, 1, digest)["sig"]
    sent = Tap(rig.net).sent
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
# safety under an adversarial delivery order


def _deliver(tap, kind, dsts, view=None):
    """Deliver, in the order sent, each message tap holds of kind (and of view,
    if given) bound for one of dsts; what they send in turn stays held."""
    due = [m for m in tap.held
           if m[2]["type"] == kind and m[1] in dsts and (view is None or m[2]["view"] == view)]
    tap.held[:] = [m for m in tap.held if m not in due]
    for *_, deliver in due:
        deliver()


def test_a_replica_stops_voting_in_a_view_it_is_leaving(vc_rig):
    # Four honest replicas; only the delivery order is adversarial.  Replicas
    # that voted on a view-0 batch as they left view 0 used to commit it, so
    # node1 committed batch A at height 1 where node3 had committed batch B.
    rig = vc_rig
    batch_a, batch_b = rig.wires
    node0, node1, node2, node3 = rig.nodes
    tap = Tap(rig.net, hold=True)
    node0.on_message("client", {"type": "submit", "tx": batch_a[0]})  # proposes A
    node1.on_message("client", {"type": "submit", "tx": batch_b[0]})  # pools B
    _deliver(tap, "pre_prepare", rig.config.node_addrs)  # the view-0 prepares stay held
    for node in rig.nodes:  # each times out before any prepare arrives
        node._on_timeout(node._timer_epoch)
    assert all(node.vc_target == 1 and node._prepared_cert() is None for node in rig.nodes)
    _deliver(tap, "view_change", ["node1"])  # node1 leads view 1 and proposes B
    _deliver(tap, "new_view", ["node2", "node3"])
    _deliver(tap, "prepare", ["node1", "node2", "node3"], view=1)
    _deliver(tap, "commit", ["node3"], view=1)
    assert node3.chain[1]["cert"]["batch"] == batch_b
    # The view-0 prepares arrive late: node0 is leaving view 0, nodes 1 and 2 have left it.
    _deliver(tap, "prepare", ["node0", "node1", "node2"], view=0)
    _deliver(tap, "commit", ["node1"], view=0)
    while tap.held:
        tap.held.pop(0)[3]()
    assert [node.chain[1]["cert"]["batch"] for node in rig.nodes] == [batch_b] * 4
    assert _honest_prefix_consistent(rig.nodes)


def test_a_replica_logs_its_own_votes_as_it_casts_them(vc_rig):
    # Each used to reach its own log only through the network, a trip of 1-5 ms
    # that every phase waited on; now no message is addressed to its sender.
    rig = vc_rig
    node1, node2 = rig.nodes[1], rig.nodes[2]
    tap = Tap(rig.net, hold=True)
    pre_prepare = _pre_prepare(rig, 0, rig.wires[0])
    digest = pre_prepare["digest"]
    node1.on_message("node0", pre_prepare)
    slot = node1.slots[1][0]
    assert slot.prepares[digest] == {0: pre_prepare["sig"],
                                     1: node1._vote("prepare", 0, 1, digest)["sig"]}
    assert not slot.commits
    node1.on_message("node2", node2._vote("prepare", 0, 1, digest))  # a prepared quorum
    assert slot.commits[digest] == {1: node1._vote("commit", 0, 1, digest)["sig"]}
    node2._start_view_change(1)
    assert list(node2.vc_msgs) == [1] and node2.vc_msgs[1][2]["sender"] == 2
    # With its own view change, two from its peers make view 1's primary lead it at once.
    for i in (0, 3):
        node1.on_message(f"node{i}", _view_change(rig, i, 1))
    assert node1.view == 0
    node1._start_view_change(1)
    assert node1.view == 1 and node1.vc_target is None
    assert {(src, m["type"]) for src, _, m, _ in tap.held} == {
        ("node1", "prepare"), ("node1", "commit"), ("node1", "view_change"),
        ("node1", "new_view"), ("node2", "view_change")}
    assert all(src != dst for src, dst, *_ in tap.held)


# ---------------------------------------------------------------------------
# the batch is the pool, up to MAX_BATCH wires


def _lead_view_1(rig, txs):
    """Pool txs at node1 alone, then hand it a quorum of view changes, so that it
    proposes from that pool as view 1's primary; the sends from then on."""
    new_primary = rig.nodes[1]
    for tx in txs:
        new_primary.on_message("client", _submit(tx))
    sent = Tap(rig.net).sent
    for i in (0, 2, 3):
        new_primary.on_message(f"node{i}", _view_change(rig, i, 1))
    rig.scheduler.run(until=rig.scheduler.now + 500)
    return sent


def test_a_primary_proposes_its_whole_pool_in_one_batch():
    rig = make_rig(seed=35)
    txs = _rule_txs(rig, 20)
    wires = [tx.wire() for tx in txs]
    sent = _lead_view_1(rig, txs)
    assert [p["batch"] for p in _proposals(sent, "node1")] == [wires] * 3
    assert all(n.next_height == 2 and node_mod.block_txs(n.chain[1]) == wires for n in rig.nodes)


def test_a_pool_above_max_batch_drains_in_batches_of_max_batch(monkeypatch):
    monkeypatch.setattr(node_mod, "MAX_BATCH", 3)
    rig = make_rig(seed=36)
    txs = _rule_txs(rig, 5)
    sent = _lead_view_1(rig, txs)
    assert [(p["height"], len(p["batch"])) for p in _proposals(sent, "node1")] == \
        [(1, 3)] * 3 + [(2, 2)] * 3
    for n in rig.nodes:
        assert n.next_height == 3 and not n.pool
        assert node_mod.block_txs(n.chain[1]) + node_mod.block_txs(n.chain[2]) == \
            [tx.wire() for tx in txs]


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
    lambda rig, wires: dict(_pre_prepare(rig, 0, wires[0]),
                            sig=_pre_prepare(rig, 0, wires[0], sender=1)["sig"]),
], ids=["a_wire_with_a_bad_signature", "a_digest_of_another_batch", "an_empty_batch",
        "signed_by_a_backup", "for_a_later_view", "a_bad_signature_re_proposed_in_a_new_view",
        "the_primarys_signed_by_a_backup"])
def test_a_signed_pre_prepare_that_fails_a_check_is_refused(vc_rig, msg):
    # The audit trusts that a replica casts no vote on a batch that fails a check,
    # whichever message brought the batch.
    node = vc_rig.nodes[2]
    sent = Tap(vc_rig.net).sent
    node.on_message("node1", msg(vc_rig, vc_rig.wires))
    assert node.counters["malformed_dropped"] == 1
    assert _no_proposal(node)
    assert all(not slot.prepares for views in node.slots.values() for slot in views.values())
    assert not [m for src, _, m in sent if src == node.addr and m["type"] in ("prepare", "commit")]


def _with_vote(cert, key):
    cert["votes"][key] = next(iter(cert["votes"].values()))
    return cert


@pytest.mark.parametrize("carrier", [
    lambda rig, key: {"type": "committed", **_with_vote(_prepared(rig, rig.wires[0], (0, 1, 3),
                                                                  "c"), key)},
    lambda rig, key: _view_change(rig, 3, 1, _with_vote(_prepared(rig, rig.wires[0],
                                                                  (0, 1, 2)), key)),
    lambda rig, key: dict(_new_view(1, _vcs(rig)), vcs={
        **{str(vc["sender"]): vc for vc in _vcs(rig)}, key: _view_change(rig, 1, 1)}),
], ids=["committed", "view_change_certificate", "new_view"])
@pytest.mark.parametrize("key", ["9" * 5000, "\u0663"], ids=["huge", "non_ascii"])
def test_a_vote_index_int_cannot_read_is_refused_at_the_boundary(vc_rig, carrier, key):
    # A 5,000-digit index raised ValueError from int() in the handler, past
    # Python's digit limit; only the last-resort catch stopped it.
    rig, node = vc_rig, vc_rig.nodes[2]
    msg = carrier(rig, key)
    assert node.entry_for(msg) is None
    node.on_message("node1", msg)
    assert node.counters["malformed_dropped"] == 1
    assert not node.slots and not node.vc_msgs and (node.view, node.next_height) == (0, 1)


@pytest.mark.parametrize("carrier", [
    lambda rig, batch: _pre_prepare(rig, 0, batch),
    lambda rig, batch: _new_view(1, _vcs(rig), _pre_prepare(rig, 1, batch)),
    lambda rig, batch: {"type": "committed", **_prepared(rig, batch, (0, 1, 3), "c")},
    lambda rig, batch: _view_change(rig, 3, 1, _prepared(rig, batch, (0, 1, 2))),
], ids=["pre_prepare", "new_view_re_proposal", "committed", "view_change_certificate"])
def test_a_batch_above_max_batch_is_refused_at_the_boundary(vc_rig, carrier):
    # Unbounded, one message could make every replica parse and verify a list of any length.
    rig, node = vc_rig, vc_rig.nodes[2]
    wire = rig.wires[0][0]
    assert node.entry_for(carrier(rig, [wire] * node_mod.MAX_BATCH)) is not None
    node.on_message("node1", carrier(rig, [wire] * (node_mod.MAX_BATCH + 1)))
    assert node.counters["malformed_dropped"] == 1
    assert not node.slots and not node.vc_msgs and (node.view, node.next_height) == (0, 1)


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
    assert node_mod.block_txs(node.chain[2]) == [second]
    assert node.counters["txs_committed"] == 2 and node.counters["txs_rejected"] == 0
    assert node.decided[node_mod.text_id(first["signer"], first["body"])].height == 1


# ---------------------------------------------------------------------------
# the height window: consensus state for next_height <= h < next_height + WINDOW


def _prepares_from(sent, node):
    return [(dst, m["view"], m["height"]) for src, dst, m in sent
            if src == node.addr and m["type"] == "prepare"]


@pytest.mark.parametrize("signed", [
    lambda rig, h: ("node1", rig.nodes[1]._vote("prepare", 0, h, "0" * 64)),
    lambda rig, h: ("node0", _pre_prepare(rig, 0, rig.wires[0], height=h)),
], ids=["prepares", "pre_prepares"])
def test_signed_messages_for_far_heights_keep_at_most_a_window_of_heights(vc_rig, signed):
    # Before the window, 1000 such prepares left 1000 heights in slots.
    rig, node = vc_rig, vc_rig.nodes[2]
    for h in range(2, 1002):
        node.on_message(*signed(rig, h))
    assert sorted(node.slots) == list(range(2, node_mod.WINDOW + 1))
    assert node.counters["malformed_dropped"] == 0


def test_a_pre_prepare_for_a_later_height_is_prepared_once_when_its_turn_comes(vc_rig):
    rig, node = vc_rig, vc_rig.nodes[2]
    sent = Tap(rig.net).sent
    node.on_message("node0", _pre_prepare(rig, 0, rig.wires[1], height=2))
    assert node.slots[2][0].batch == rig.wires[1] and not _prepares_from(sent, node)
    node.on_message("node0", {"type": "committed", **_prepared(rig, rig.wires[0], (0, 1, 3), "c")})
    assert node.next_height == 2
    one_prepare = [(dst, 0, 2) for dst in rig.config.node_addrs if dst != node.addr]
    assert _prepares_from(sent, node) == one_prepare
    node.on_message("node3", rig.nodes[3]._vote("prepare", 0, 2, node.slots[2][0].digest))
    assert _prepares_from(sent, node) == one_prepare


def test_a_later_pre_prepare_of_a_view_left_behind_is_not_prepared(vc_rig):
    # With node0's pre-prepare, the prepares of node3 and node1 make a view-0
    # quorum at height 2, but node2 left view 0 before it prepared there, so it
    # sends neither a prepare nor a commit for that view.
    rig, node = vc_rig, vc_rig.nodes[2]
    node.on_message("node0", _pre_prepare(rig, 0, rig.wires[1], height=2))
    node.on_message("node1", _new_view(1, _vcs(rig)))
    sent = Tap(rig.net).sent
    node.on_message("node0", {"type": "committed", **_prepared(rig, rig.wires[0], (0, 1, 3), "c")})
    digest = node.slots[2][0].digest
    for i in (3, 1):
        node.on_message(f"node{i}", rig.nodes[i]._vote("prepare", 0, 2, digest))
    assert len(node.slots[2][0].prepares[digest]) == rig.config.quorum
    assert node.view == 1 and node.next_height == 2
    assert not [m for src, _, m in sent
                if src == node.addr and m["type"] in ("prepare", "commit")]


def test_a_node_cut_off_for_more_than_a_window_catches_up():
    # Its peers' votes lie beyond its window, so it catches up through the sync
    # replies its own view changes draw; no honest peer changes view.
    rig = make_rig(seed=34)
    lagging = rig.nodes[3]
    lagging.on_message = lambda src, msg: None
    *cut_off, last = _rule_txs(rig, node_mod.WINDOW + 17)
    _commit_in_sequence(rig, cut_off)
    assert lagging.next_height == 1
    del lagging.on_message
    _commit_in_sequence(rig, [last])
    rig.scheduler.run(until=rig.scheduler.now + 30_000)
    assert audit.content_digests(lagging) == audit.content_digests(rig.nodes[0])
    assert lagging.next_height == node_mod.WINDOW + 18
    assert all(n.view == 0 and n.counters["view_changes"] == 0 for n in rig.nodes[:3])


def test_sync_replies_keep_at_most_a_window_of_heights(vc_rig, monkeypatch):
    # Certified heights wait in their slots, so those beyond the window are dropped.
    monkeypatch.setattr(node_mod, "WINDOW", 3)
    rig, node = vc_rig, vc_rig.nodes[2]
    certs = [_prepared(rig, [tx.wire()], (0, 1, 3), "c", h)
             for h, tx in enumerate(_rule_txs(rig, 6), 1)]
    for cert in certs[1:]:
        node.on_message("node0", {"type": "committed", **cert})
    assert sorted(node.slots) == [2, 3]
    node.on_message("node0", {"type": "committed", **certs[0]})
    assert node.next_height == 4 and node.slots == {}
    assert [block["cert"]["batch"] for block in node.chain[1:]] == [c["batch"] for c in certs[:3]]
    node.on_message("node0", {"type": "committed", **certs[0]})  # a height already committed
    assert node.slots == {} and node.next_height == 4
    assert node.counters["malformed_dropped"] == 0


def test_a_certified_slot_of_another_view_commits_as_soon_as_its_height_is_next(vc_rig):
    # node2 holds view 0's pre-prepare and commit quorum for height 2 and then
    # moves to view 1; once height 1 commits, so does height 2.
    rig, node = vc_rig, vc_rig.nodes[2]
    node.on_message("node0", _pre_prepare(rig, 0, rig.wires[1], height=2))
    digest = node.slots[2][0].digest
    for i in (0, 1, 3):
        node.on_message(f"node{i}", rig.nodes[i]._vote("commit", 0, 2, digest))
    node.on_message("node1", _new_view(1, _vcs(rig)))
    assert node.view == 1 and node.next_height == 1
    node.on_message("node0", {"type": "committed", **_prepared(rig, rig.wires[0], (0, 1, 3), "c")})
    assert node.next_height == 3 and node.chain[2]["cert"]["batch"] == rig.wires[1]
    assert node.chain[2]["cert"]["view"] == 0


def test_votes_for_far_views_keep_at_most_n_views(vc_rig):
    # Before the bound, 1000 such prepares left 1000 views in one height's slots.
    rig, node = vc_rig, vc_rig.nodes[2]
    for view in range(1, 1001):
        node.on_message("node1", rig.nodes[1]._vote("prepare", view, 1, "0" * 64))
    assert sorted(node.slots[1]) == [1, 2, 3]
    # A lower view stays: its commit quorum still commits.
    node._enter_view(5)
    node.on_message("node1", rig.nodes[1]._vote("prepare", 0, 1, "0" * 64))
    assert sorted(node.slots[1]) == [0, 1, 2, 3]
    assert node.counters["malformed_dropped"] == 0


def test_a_replica_keeps_one_view_change_per_sender(vc_rig):
    # Each of 200 view changes signed by node1 used to open a bucket of its own.
    rig, node = vc_rig, vc_rig.nodes[2]
    node.on_message("node3", _view_change(rig, 3, 3))
    for new_view in range(1, 201):
        node.on_message("node1", _view_change(rig, 1, new_view))
    node.on_message("node1", _view_change(rig, 1, 5))  # lower than the one held
    assert {view: set(bucket) for view, bucket in node.vc_msgs.items()} == {3: {3}, 200: {1}}
    assert node.counters["malformed_dropped"] == 0


def test_a_replayed_view_change_is_answered_once():
    # Each copy used to draw a full sync reply: 100 copies, 800 blocks.
    rig = make_rig(seed=21)
    _commit_in_sequence(rig, _rule_txs(rig, node_mod.SYNC_RUN + 1))
    node0 = rig.nodes[0]
    assert node0.next_height == node_mod.SYNC_RUN + 2
    sent = Tap(rig.net).sent

    def blocks_sent():
        return [m["height"] for src, _, m in sent if src == "node0" and m["type"] == "committed"]

    replayed = _view_change(rig, 3, 1)
    for _ in range(100):
        node0.on_message("node3", replayed)
    assert blocks_sent() == list(range(1, node_mod.SYNC_RUN + 1))
    # A higher (last_height, new_view) from the sender is answered; a lower one is not.
    for new_view, last_height in ((1, node_mod.SYNC_RUN), (2, node_mod.SYNC_RUN), (3, 0)):
        node0.on_message("node3", _view_change(rig, 3, new_view, last_height=last_height))
    assert blocks_sent() == [*range(1, node_mod.SYNC_RUN + 1), node_mod.SYNC_RUN + 1,
                             node_mod.SYNC_RUN + 1]
    # Another sender's view change is answered for itself.
    node0.on_message("node2", _view_change(rig, 2, 1, last_height=node_mod.SYNC_RUN))
    assert len(blocks_sent()) == node_mod.SYNC_RUN + 3
    assert node0.counters["malformed_dropped"] == 0


# ---------------------------------------------------------------------------
# receivers of a multicast share one message, so no handler mutates one


@pytest.mark.parametrize("fault_kind", [None, *FAULT_KINDS])
def test_no_handler_mutates_a_delivered_message(fault_kind):
    # The faulty node, if any, is view 0's primary, so equivocation shows.
    rig = make_rig(seed=22, fault_kind=fault_kind, byz_index=0)
    watched = Tap(rig.net).watched
    _commit_in_sequence(rig, _rule_txs(rig, 3))
    rig.scheduler.run(until=rig.scheduler.now + 10_000)
    assert len(watched) > 100 and not mutated_since(watched)
    assert _honest_prefix_consistent(rig.nodes, 0 if fault_kind else None)


def test_no_handler_mutates_a_view_change_a_new_view_or_a_sync_reply():
    # node3 misses two blocks, then node0, view 0's primary, falls silent.
    rig = make_rig(seed=21)
    watched = Tap(rig.net).watched
    lagging = rig.nodes[3]
    lagging.on_message = lambda src, msg: None
    txs = _rule_txs(rig, 4)
    _commit_in_sequence(rig, txs[:2])
    del lagging.on_message
    rig.nodes[0].fault = FaultSpec("drop", prob=1.0)
    _commit_in_sequence(rig, txs[2:])
    rig.scheduler.run(until=rig.scheduler.now + 10_000)
    assert {"view_change", "new_view", "committed"} <= {m["type"] for _, m, _ in watched}
    assert not mutated_since(watched)
    assert all(n.next_height == 5 and n.view == 1 for n in rig.nodes[1:])


# ---------------------------------------------------------------------------
# direct tests of branches only faulted runs or no run at all reach


def test_a_key_count_mismatch_is_a_config_error():
    with pytest.raises(ConfigError):
        LedgerConfig(node_addrs=[f"n{i}" for i in range(4)],
                     node_pubkeys=["k"] * 3, ledger_secret=b"s",
                     task_agent_addr="task", exec_agent_addr="exec")


def test_a_view_change_for_a_view_not_ahead_opens_no_bucket(vc_rig):
    rig, node = vc_rig, vc_rig.nodes[2]
    node._enter_view(1)
    for new_view in (0, 1):
        node.on_message("node3", _view_change(rig, 3, new_view))
    assert node.vc_msgs == {} and node.counters["malformed_dropped"] == 0
    node.on_message("node3", _view_change(rig, 3, 2))
    assert list(node.vc_msgs) == [2]


def test_the_best_certificate_is_the_one_of_the_highest_view(vc_rig):
    node = vc_rig.nodes[2]
    cert = _prepared(vc_rig, vc_rig.wires[0], (0, 1, 2))
    vcs = {0: {"cert": dict(cert, view=2)}, 1: {"cert": None},
           2: {"cert": dict(cert, view=1)}, 3: {"cert": dict(cert, height=2, view=3)}}
    assert node._best_cert(vcs)["view"] == 2


def test_a_new_primary_with_nothing_to_propose_sends_no_pre_prepare(vc_rig):
    rig, new_primary = vc_rig, vc_rig.nodes[1]
    sent = Tap(rig.net).sent
    for i in (0, 2, 3):
        new_primary.on_message(f"node{i}", _view_change(rig, i, 1))
    new_views = [m for _, _, m in sent if m["type"] == "new_view"]
    assert len(new_views) == 3 and all(m["pre_prepare"] is None for m in new_views)
    assert new_primary.view == 1 and not new_primary.slots
    assert new_primary.counters["malformed_dropped"] == 0


def test_a_submission_again_adds_no_waiter_and_keeps_the_pooled_wire(vc_rig):
    rig, node = vc_rig, vc_rig.nodes[1]
    tx = rule_commit_tx(rig.admin, nonce=1)
    other = KeyPair.from_seed(29, "acct/other")
    # The same body signed by another key: a tx id covers its signer, so this
    # is another tx, pooled on its own with its own waiter.
    resigned = SignedTransaction(tx.kind, tx.body, other.public_hex,
                                 other.sign(tx.body_bytes()), tx.body_text())
    node.on_message("client", _submit(tx))
    node.on_message("client", _submit(tx))
    node.on_message("client2", _submit(resigned))
    assert node.submitters == {tx.tx_id: ["client"], resigned.tx_id: ["client2"]}
    assert node.pool == {tx.tx_id: (tx.wire(), tx), resigned.tx_id: (resigned.wire(), resigned)}


def test_a_sync_request_goes_once_per_quorum_height(vc_rig):
    rig, node = vc_rig, vc_rig.nodes[2]
    sent = Tap(rig.net).sent
    for height in (2, 2, 3):
        for i in (0, 1, 3):
            node.on_message(f"node{i}", rig.nodes[i]._vote("commit", 0, height, "0" * 64))
    assert [(dst, m["height"]) for src, dst, m in sent if m["type"] == "sync_req"] == \
        [("node3", 1)] * 2


def test_an_equivocating_primary_sends_one_variant_to_each_half():
    rig = make_rig(seed=37, fault_kind="equivocate", byz_index=0)
    sent = Tap(rig.net).sent
    tx = rule_commit_tx(rig.admin, nonce=1)
    rig.nodes[0].on_message("client", _submit(tx))
    proposals = {dst: m["batch"] for src, dst, m in sent if m["type"] == "pre_prepare"}
    assert proposals == {"node1": [tx.wire()], "node2": [tx.wire()] * 2,
                         "node3": [tx.wire()] * 2}


@pytest.mark.parametrize("kind,prob,sends", [
    ("drop", 1.0, []),
    ("drop", 0.0, [(0, True)]),
    ("duplicate", 0.6, [(0, True), (0, True)]),
    ("delay", 0.6, [(FAULT_DELAY_MS, True)]),
    ("corrupt", 1.0, [(0, False)]),
    ("corrupt", 0.0, [(0, True)]),
    ("equivocate", 0.6, [(0, True)]),
])
def test_each_fault_kind_acts_on_a_sent_message(kind, prob, sends):
    # sends: (sim time of each send, whether it sends the message unchanged)
    rig = make_rig(seed=38, fault_kind=kind, byz_index=1)
    node = rig.nodes[1]
    node.fault.prob = prob
    msg = {"type": "sync_req", "height": 1}
    sent = []

    class Timed(Tap):
        def offer(self, src, dst, sent_msg, deliver):
            sent.append((rig.scheduler.now, dst, sent_msg == msg))
            return False

    Timed(rig.net)
    node.send("node2", msg)
    rig.scheduler.run(until=FAULT_DELAY_MS + 1)
    assert sent == [(at, "node2", same) for at, same in sends]


def test_an_unknown_fault_kind_is_refused():
    with pytest.raises(ValueError):
        FaultSpec("stall")


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
    entry = node.entry_for(msg)  # no node message names one sender
    if entry is None:
        before = node.counters["malformed_dropped"]
        node.on_message(src, msg)
        assert node.counters["malformed_dropped"] == before + 1
    else:
        getattr(node, entry[1])(src, msg)  # no catch: an admitted message never raises
