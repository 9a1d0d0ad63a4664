"""The traced pass: spans and counts at each layer's public boundary.

`Tracer.install` rebinds the public functions and methods of every layer
to timing wrappers, and `uninstall` restores them. Functions imported by
name (`canonical_bytes`, `digest_hex`, `verify_signature`) are rebound in
each importing module, because patching the defining module alone would
miss those bindings. Spans are kept in flat arrays in memory and written
once, at the end; self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

import ruledger.agents
import ruledger.canonical
import ruledger.contracts
import ruledger.devices
import ruledger.keys
import ruledger.rules
import ruledger.tamock
from ruledger.ledger import audit, client, node, tables, tx
from ruledger.sim import network, scheduler

LAYERS = ("scheduler", "sim", "node", "agents", "devices", "tamock", "client",
          "keys", "canonical", "tables", "contracts")

# The defining module first, then every module that imports the name.
_CANONICAL_BYTES = (ruledger.canonical, ruledger.devices, ruledger.rules, ruledger.contracts,
                    network, tx, audit, ruledger.keys)
_DIGEST_HEX = (ruledger.canonical, ruledger.agents, tx, tables, node, audit)
_VERIFY = (ruledger.keys, tx)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("H")
        self.tx_of: dict[int, object] = {}  # span index -> the tx the call carried
        self._stack: list[list[int]] = []
        self.self_ns: Counter = Counter()  # span name -> self time
        self.total_ns: Counter = Counter()  # span name -> summed duration
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.kind_ns: dict[str, list[int]] = defaultdict(list)  # "verify.event" -> durations
        self.pool_depth_max = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, before=None, after=None, tx_arg: int | None = None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        start, end, parent, name_id, stack = self.start, self.end, self.parent, self.name_id, self._stack
        self_ns, total_ns, calls, tx_of = self.self_ns, self.total_ns, self.calls, self.tx_of

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            t0 = perf_counter_ns()
            start.append(t0)
            end.append(t0)
            parent.append(stack[-1][0] if stack else -1)
            name_id.append(nid)
            if tx_arg is not None:
                tx_of[idx] = args[tx_arg]
            frame = [idx, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                end[idx] = t1
                dur = t1 - t0
                self_ns[name] += dur - frame[1]
                total_ns[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result, dur)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, layer: str, **kw) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, layer, **kw))

    def install(self) -> None:
        c = self.counts

        def count_send(args):
            msg = args[3]
            if isinstance(msg, dict) and msg.get("type") == "submit":
                c["client.submit_msgs"] += 1

        def count_node_msg(args):
            msg = args[2]
            c["node.msgs_in." + str(msg.get("type") if isinstance(msg, dict) else "?")] += 1

        def pool_depth(args, _result, _dur):
            depth = len(args[0].pool)
            if depth > self.pool_depth_max:
                self.pool_depth_max = depth

        def count_rows(args):
            c["tables.rows_scanned"] += len(args[0].tables[args[1]].rows)

        def count_bytes(_args, result, _dur):
            c["sim.bytes_sent"] += len(result)

        def per_kind(label):
            def after(args, result, dur):
                self.kind_ns[f"{label}.{args[0].kind}"].append(dur)
                if label == "verify" and not result.accepted:
                    c["contracts.rejects"] += 1
            return after

        self._patch(scheduler.Scheduler, "run", "scheduler.run", "scheduler")
        self._patch(network.Network, "send", "sim.send", "sim", before=count_send)
        self._patch(node.LedgerNode, "on_message", "node.on_message", "node",
                    before=count_node_msg, after=pool_depth)
        self._patch(ruledger.agents.AgentBase, "on_message", "agents.on_message", "agents")
        self._patch(ruledger.devices.Device, "on_message", "devices.device", "devices")
        self._patch(ruledger.devices.Gateway, "on_message", "devices.gateway", "devices")
        self._patch(ruledger.tamock.TriggerActionMock, "on_message", "tamock.on_message", "tamock")
        self._patch(client.LedgerClient, "submit", "client.submit", "client")
        self._patch(client.LedgerClient, "on_receipt", "client.on_receipt", "client")
        self._patch(ruledger.keys.KeyPair, "sign", "keys.sign", "keys")
        for owner in _VERIFY:
            self._patch(owner, "verify_signature", "keys.verify", "keys")
        for owner in _CANONICAL_BYTES:
            self._patch(owner, "canonical_bytes", "canonical.bytes", "canonical",
                        after=count_bytes if owner is network else None)
        for owner in _DIGEST_HEX:
            self._patch(owner, "digest_hex", "canonical.digest", "canonical")
        self._patch(tables.TableStore, "select_entry", "tables.select", "tables", before=count_rows)
        self._patch(tables.LedgerTable, "insert", "tables.insert", "tables")
        self._patch(ruledger.contracts, "verify_tx", "contracts.verify_tx", "contracts",
                    after=per_kind("verify"), tx_arg=0)
        self._patch(ruledger.contracts, "apply_tx", "contracts.apply_tx", "contracts",
                    after=per_kind("apply"), tx_arg=0)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        layer = dict(zip(self.names, self.layer_of))
        for name, ns in self.self_ns.items():
            out[layer[name]] += ns / 1e9
        return out

    def write_spans(self, path: str) -> int:
        """One JSON line per span: name, start/end (ns, relative to the
        first span), parent span index (-1 for roots), tx id or null."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                carried = self.tx_of.get(i)
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i] - t0,
                                     self.end[i] - t0, self.parent[i],
                                     carried.tx_id if carried is not None else None]))
                fh.write("\n")
        return len(self.start)

    def write_selftime(self, path: str) -> None:
        table = {
            "layers_self_s": self.layer_self_s(),
            "spans": {name: {"calls": self.calls[name], "total_s": self.total_ns[name] / 1e9,
                             "self_s": self.self_ns[name] / 1e9}
                      for name in sorted(self.calls)},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
