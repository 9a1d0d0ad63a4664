"""Assembles a full deployment from a scenario and runs it to quiescence.

One seeded scheduler drives everything: ledger nodes, devices, gateways,
agents, and the platform mock all share it, so a scenario is a closed
deterministic system.  Every component's RNG stream is derived from the
scenario seed under a distinct label.
"""

from __future__ import annotations

import hashlib
import os
import random

from ..agents import ExecutionAgent, TaskAgent, UserAgent
from ..canonical import derive_seed, sha256_hex
from ..devices import Device, Gateway, LogService
from ..keys import KeyPair
from ..ledger import audit
from ..ledger.faults import FaultSpec
from ..ledger.node import LedgerConfig, LedgerNode, block_txs
from ..ledger.tx import KIND_EVENT, SignedTransaction
from ..rules import parse_rule
from ..sim.network import NetConfig, Network
from ..sim.scheduler import Scheduler
from ..tamock import TriggerActionMock
from .report import build_stats, report_bytes, validate_report


class World:
    def __init__(self, config: dict):
        """`config` is a checked scenario (see `scenario.scenario_from_dict`)."""
        self.config = config
        seed = config["seed"]
        self.scheduler = Scheduler()
        self.net = Network(self.scheduler, NetConfig(**config["net"]),
                           random.Random(derive_seed(seed, "net")))
        self.log = LogService()

        self.gateways: dict[str, Gateway] = {}
        self.devices: dict[str, Device] = {}
        device_routes = {}
        for spec in config["devices"]:
            vendor, device_id = spec["vendor"], spec["device_id"]
            gw = self.gateways.get(vendor)
            if gw is None:
                gw = Gateway(f"gw:{vendor}", self.net, vendor)
                self.gateways[vendor] = gw
            dev = Device(f"dev:{device_id}", self.net, device_id, spec["kind"], self.log,
                         initial=spec["initial"])
            token = gw.register_device(dev)
            self.devices[device_id] = dev
            device_routes[device_id] = (gw.addr, token, dev.addr)

        node_addrs = [f"node{i}" for i in range(config["nodes"])]
        node_keys = [KeyPair.from_seed(seed, f"node{i}") for i in range(config["nodes"])]
        secret = hashlib.sha256(f"secret/{seed}".encode()).digest()

        accounts = config["accounts"]
        self.account_keys = {
            a["name"]: KeyPair.from_seed(seed, f"acct/{a['name']}") for a in accounts
        }
        genesis_acl = [
            {"signer": self.account_keys[a["name"]].public_hex, "role": a["role"],
             "usr_id": a["usr_id"]}
            for a in accounts
        ]

        self.ledger_config = LedgerConfig(
            node_addrs=node_addrs,
            node_pubkeys=[k.public_hex for k in node_keys],
            ledger_secret=secret,
            genesis_acl=genesis_acl,
            commit_timeout_ms=config["commit_timeout_ms"],
            task_agent_addr="task",
            exec_agent_addr="exec",
        )
        byz = config["byzantine"]
        self.nodes = []
        for i, (addr, kp) in enumerate(zip(node_addrs, node_keys)):
            fault = None
            if byz is not None and byz["node"] == i:
                fault = FaultSpec(kind=byz["fault"], prob=byz["prob"],
                                  seed=derive_seed(seed, f"node{i}/rng"))
            self.nodes.append(LedgerNode(
                addr, self.net, i, kp, self.ledger_config,
                fault=fault, log_query=self.log.query_checksum,
            ))

        channel_token = f"chan-{sha256_hex(str(seed).encode())[:12]}"
        owner_addr = f"user:{accounts[0]['name']}"  # the rule owner's console, made below
        self.tamock = TriggerActionMock("tamock", self.net, owner_addr, "task", channel_token)
        self.task_agent = TaskAgent(
            "task", self.net, KeyPair.from_seed(seed, "acct/task-agent"),
            node_addrs, tamock_addr="tamock", channel_token=channel_token,
            ledger_enabled=config["with_ledger"], exec_agent_addr="exec",
        )
        self.user_agents: dict[str, UserAgent] = {}
        for acct in accounts:
            self.user_agents[acct["name"]] = UserAgent(
                f"user:{acct['name']}", self.net, self.account_keys[acct["name"]],
                node_addrs, acct["usr_id"], tamock_addr="tamock", exec_agent_addr="exec",
            )
        self.owner = self.user_agents[accounts[0]["name"]]

        self.exec_agent = ExecutionAgent(
            "exec", self.net, KeyPair.from_seed(seed, "acct/exec-agent"),
            node_addrs, rng=random.Random(derive_seed(seed, "exec/rng")),
            owner_addr=owner_addr, record_actions=config["record_action_executions"],
            ledger_enabled=config["with_ledger"], task_agent_addr="task",
        )
        for device_id, route in device_routes.items():
            self.exec_agent.add_device_route(device_id, *route)

        self.rules = [parse_rule(r) for r in config["rules"]]
        self.bindings = {rule.rule_id: rule.binding(101 + i, self.owner.usr_id)
                         for i, rule in enumerate(self.rules)}

    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Schedule the scenario's baseline activity, once per world."""
        mode = self.config["trigger_mode"]
        for i, rule in enumerate(self.rules):
            self.scheduler.schedule(5 + i, lambda r=rule: self.owner.commit_rule(
                r, self.bindings[r.rule_id]["usr_rule_id"]))
        for spec in self.config["devices"]:
            dev = self.devices[spec["device_id"]]
            if mode == "push":
                dev.push_targets.append("exec")
            for at_ms, patch in spec["timeline"]:
                self.scheduler.schedule(at_ms, lambda d=dev, p=patch: d.apply_patch(p))
        if mode == "poll":
            self.exec_agent.start_polling(self.config["duration_ms"])

    def run(self, hook=None) -> dict:
        self.prepare()
        if hook is not None:
            hook(self)
        self.scheduler.run(until=self.config["duration_ms"] + self.config["drain_ms"])
        return self.build_report()

    # ------------------------------------------------------------------

    def honest_nodes(self):
        byz = self.config["byzantine"]
        return [n for i, n in enumerate(self.nodes) if byz is None or i != byz["node"]]

    def consistent(self) -> bool:
        """Byte-level prefix agreement of committed block contents across
        the non-faulty nodes."""
        digest_lists = [audit.content_digests(n) for n in self.honest_nodes()]
        limit = min(len(d) for d in digest_lists)
        return all(d[:limit] == digest_lists[0][:limit] for d in digest_lists)

    def _tx_kind_counts(self) -> dict:
        """Committed txs by kind; an event tx off its rule's trigger steps records an action."""
        trigger_steps = {(r.rule_id, s["step_id"]) for r in self.rules for s in r.steps("trigger")}
        counts = {"rule_commit": 0, "config": 0, "event": 0, "action_record": 0, "action": 0}
        for block in self.nodes[0].chain[1:]:
            for wire in block_txs(block):
                kind = wire["kind"]
                if kind == KIND_EVENT:
                    info = SignedTransaction.from_wire(wire).body["event_info"]
                    if (info["rule_id"], info["step_id"]) not in trigger_steps:
                        kind = "action_record"
                counts[kind] += 1
        return counts

    def _verdicts(self) -> dict:
        accepted = 0
        rejected: dict[str, int] = {}
        for receipt in self.nodes[0].decided.values():
            if receipt.accepted:
                accepted += 1
            else:
                code = receipt.code or "unknown"
                rejected[code] = rejected.get(code, 0) + 1
        return {"accepted": accepted, "rejected": dict(sorted(rejected.items()))}

    def build_report(self) -> dict:
        cfg = self.config
        node_counters = {}
        for key in self.nodes[0].counters:
            node_counters[key] = [n.counters[key] for n in self.nodes]
        report = {
            "schema": 1,
            "name": cfg["name"],
            "seed": cfg["seed"],
            "nodes": cfg["nodes"],
            "duration_ms": cfg["duration_ms"],
            "sim_time_ms": self.scheduler.now,
            "with_ledger": cfg["with_ledger"],
            "ledger": {
                "consistent": self.consistent(),
                "heights": [len(n.chain) - 1 for n in self.nodes],
                "tx_counts": self._tx_kind_counts(),
                "verdicts": self._verdicts(),
            },
            "execution": dict(self.exec_agent.counters),
            "task_agent": dict(self.task_agent.counters),
            "platform": dict(self.tamock.counters),
            "devices": {
                device_id: {
                    "actions_executed": dev.actions_executed,
                    "final_state": dict(sorted(dev.state.items())),
                    "online": dev.online,
                }
                for device_id, dev in sorted(self.devices.items())
            },
            "latency_ms": {
                "rule_commit": build_stats(self.owner.client.latencies_ms),
                "event_commit": build_stats(self.exec_agent.client.latencies_ms),
                "action_commit": build_stats(self.task_agent.client.latencies_ms),
                "end_to_end": build_stats(self.exec_agent.e2e_ms),
            },
            "network": {
                "sent": self.net.sent,
                "dropped": self.net.dropped,
                "delivered": self.net.delivered,
            },
            "node_counters": node_counters,
        }
        validate_report(report)
        return report

    def write_outputs(self, out_dir: str, report: dict) -> dict:
        """Write report, as `run` returned it, and one ledger dump per node;
        returns paths."""
        os.makedirs(out_dir, exist_ok=True)
        report_path = os.path.join(out_dir, "report.json")
        with open(report_path, "wb") as fh:
            fh.write(report_bytes(report))
        dump_paths = []
        for i, node in enumerate(self.nodes):
            path = os.path.join(out_dir, f"ledger-node{i}.dump")
            audit.write_dump(node, path)
            dump_paths.append(path)
        return {"report": report_path, "dumps": dump_paths}


def run_scenario(config: dict, out_dir: str | None = None, hook=None):
    """Build a world, run it, optionally write outputs.  Returns
    (report, world)."""
    world = World(config)
    report = world.run(hook=hook)
    if out_dir is not None:
        world.write_outputs(out_dir, report)
    return report, world
