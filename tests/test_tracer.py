"""The benchmark's traced pass patches names across the layers and reads
node state; a refactor that drops one of them must fail here, not only
under `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

from conftest import make_rig, rule_commit_tx
from ruledger.ledger import audit, node, tx

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_installs_runs_and_restores():
    originals = [(node.LedgerNode, "on_message"), (node, "digest_hex"), (tx, "digest_hex"),
                 (tx, "verify_signature"), (audit, "digest_hex"), (audit, "canonical_bytes")]
    before = [getattr(owner, attr) for owner, attr in originals]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        rig = make_rig(seed=16)
        submitted = rule_commit_tx(rig.admin, nonce=1)
        rig.scheduler.schedule(10, lambda: rig.client.client.submit(submitted))
        rig.scheduler.run(until=5000)
        assert all(audit.audit_node(n).ok for n in rig.nodes)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in originals] == before
    assert rig.client.client.resolved[submitted.tx_id].accepted
    assert tracer.calls["node.on_message"] > 0 and tracer.pool_depth_max == 1
    assert tracer.calls["canonical.digest"] > 0 and tracer.calls["keys.verify"] > 0
    # perfbench/run.py reports these node fields after the run.
    assert sum(len(n.slots) for n in rig.nodes) == 0
    assert sum(len(n.decided) for n in rig.nodes) == 4
