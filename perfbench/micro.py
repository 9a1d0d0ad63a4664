"""Layer microbenchmarks, one stage at a time.

Each figure is the median, over BATCHES timed batches, of wall
microseconds per call. Contract figures are taken at 10^2, 10^3 and 10^4
event_index rows; the state is grown through `contracts.apply_tx` in the
same shape the workloads leave it (per cycle: a consumable step-0 event
and a step-1 action record).
"""

from __future__ import annotations

import random
import statistics
import time

from ruledger import contracts
from ruledger.canonical import canonical_bytes, digest_hex
from ruledger.keys import KeyPair, verify_signature
from ruledger.ledger import tables
from ruledger.ledger.tx import KIND_ACTION, KIND_EVENT, KIND_RULE_COMMIT, SignedTransaction, build_tx
from ruledger.rules import parse_rule
from ruledger.sim.network import NetConfig, Network, Process
from ruledger.sim.scheduler import Scheduler

from workloads import scenario_dict, WORKLOADS

BATCHES = 7
ROW_LEVELS = (100, 1000, 10_000)
SECRET = b"perfbench-ledger-secret"


def per_call_us(fn, calls: int) -> float:
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


class _Sink(Process):
    def on_message(self, src, msg):
        pass


class _ContractBench:
    """One growing table state plus the txs that exercise it."""

    def __init__(self, seed: int):
        self.key = KeyPair.from_seed(seed, "perfbench/micro")
        self.state = tables.TableStore()
        self.state.insert(tables.ACL, {"signer": self.key.public_hex,
                                       "role": "Administrator", "usr_id": 1})
        rule = parse_rule(scenario_dict(WORKLOADS["steady"], seed)["rules"][0])
        self.binding = {"usr_rule_id": 101, "usr_id": 1, "rule_id": rule.rule_id,
                        "rule_name": rule.title}
        commit = build_tx(KIND_RULE_COMMIT, {"action": "commit_rule", "usr_rule_id": 101,
                                             "usr_id": 1, "rule": rule.to_dict()},
                          self.key, 0)
        contracts.apply_tx(commit, self.state)
        self.seq = 0
        self.log: dict[tuple[str, str], str] = {}

    def rows(self) -> int:
        return len(self.state.table(tables.EVENT_INDEX).rows)

    def event_tx(self, step_id: int, signed: bool) -> SignedTransaction:
        self.seq += 1
        eid, log_key = f"eid-{self.seq}", f"key-{self.seq}"
        log_sum = digest_hex({"seq": self.seq})
        self.log[(eid, log_key)] = log_sum
        body = {"kind": KIND_EVENT, "nonce": self.seq,
                "event_info": {**self.binding, "step_id": step_id, "event_seq": self.seq},
                "event_log": {"eid": eid, "log_key": log_key, "log_sum": log_sum},
                "result_status": contracts.RES_OK, "task_ref": self.seq}
        if signed:
            return build_tx(KIND_EVENT, {k: v for k, v in body.items()
                                         if k not in ("kind", "nonce")}, self.key, self.seq)
        return SignedTransaction(KIND_EVENT, body, self.key.public_hex, "")

    def action_tx(self, event: SignedTransaction) -> SignedTransaction:
        info = event.body["event_info"]
        cid = contracts.gen_randomness(SECRET, info)
        return build_tx(KIND_ACTION, {"event_info": info, "cid": cid}, self.key, -info["event_seq"])

    def grow_to(self, rows: int) -> None:
        while self.rows() + 2 <= rows:
            contracts.apply_tx(self.event_tx(0, signed=False), self.state)
            contracts.apply_tx(self.event_tx(1, signed=False), self.state)

    def measure(self, rows: int, out: dict) -> None:
        self.grow_to(rows)
        query = lambda eid, key: self.log.get((eid, key))
        calls = 5 if rows >= 10_000 else 20
        # verify: repeated calls on an unchanged state
        fresh = self.event_tx(0, signed=True)
        verdict = contracts.verify_tx(fresh, self.state, query, SECRET)
        if not verdict.accepted:
            raise RuntimeError(f"micro event tx rejected: {verdict.code}")
        out[f"contracts.verify_us.event.rows{rows}"] = per_call_us(
            lambda: contracts.verify_tx(fresh, self.state, query, SECRET), calls)
        # apply: distinct fresh events, newest last (as in the workloads)
        events = [self.event_tx(0, signed=True) for _ in range(BATCHES * calls)]
        it = iter(events)
        out[f"contracts.apply_us.event.rows{rows}"] = per_call_us(
            lambda: contracts.apply_tx(next(it), self.state), calls)
        # action for the newest consumable record
        actions = [self.action_tx(ev) for ev in events]
        verdict = contracts.verify_tx(actions[-1], self.state, query, SECRET)
        if not verdict.accepted:
            raise RuntimeError(f"micro action tx rejected: {verdict.code}")
        out[f"contracts.verify_us.action.rows{rows}"] = per_call_us(
            lambda: contracts.verify_tx(actions[-1], self.state, query, SECRET), calls)
        it = iter(actions)
        out[f"contracts.apply_us.action.rows{rows}"] = per_call_us(
            lambda: contracts.apply_tx(next(it), self.state), calls)


def run_micro(seed: int) -> dict:
    out: dict[str, float] = {}
    bench = _ContractBench(seed)
    tx = bench.event_tx(0, signed=True)
    message = canonical_bytes(tx.body)
    sig = bench.key.sign(message)
    out["keys.micro.sign_us"] = per_call_us(lambda: bench.key.sign(message), 100)
    out["keys.micro.verify_us"] = per_call_us(
        lambda: verify_signature(message, sig, bench.key.public_hex), 100)
    wire = tx.wire()
    out["canonical.micro.bytes_us"] = per_call_us(lambda: canonical_bytes(wire), 500)
    out["canonical.micro.digest_us"] = per_call_us(lambda: digest_hex(tx.body), 500)

    scheduler = Scheduler()
    net = Network(scheduler, NetConfig(), random.Random(seed))
    _Sink("a", net)
    _Sink("b", net)
    msg = {"type": "request", "tx": wire, "client": "a"}
    out["sim.micro.send_us"] = per_call_us(lambda: net.send("a", "b", msg), 500)

    for rows in ROW_LEVELS:
        bench.measure(rows, out)
    return out
