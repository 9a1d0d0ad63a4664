"""Simulated smart devices, vendor gateways, and the shared execution log.

Every successful device API call writes an entry to the vendor-side log
service under a caller-supplied (eid, log_key) pair before the response
leaves the device.  The logged checksum is what the ledger's event
verification later compares against, so a claimed execution with no
matching log entry is detectable.

What a device API does is stated once, by the catalog operation that calls
it (`rules.CATALOG`): the device kind that answers it, the state field it
touches and a value.  An action API writes its value to the field; a read
returns the field, or the value as its default on a device that never had
it.  `APIS` indexes the catalog by API; a device's kind check and its
gateway's token scopes read the operation from there.
"""

from __future__ import annotations

from .canonical import canonical_bytes, is_int, is_str, message, one_of, sha256_hex, with_fields
from .contracts import event_body
from .rules import CATALOG
from .sim.network import Process, sent_by

APIS = {op.api: op for op in CATALOG.values()}  # api -> the catalog operation that calls it

DEVICE_KINDS = tuple(dict.fromkeys(op.device_kind for op in CATALOG.values()))

# A device's answer, relayed by its gateway: an error or a payload may follow.
RPC_RESULT = with_fields(type=one_of("rpc_result"), corr=is_int, ok=one_of(True, False))


def checksum(payload: dict) -> str:
    """Execution-result checksum as recorded in the log service."""
    return sha256_hex(canonical_bytes(payload))


class LogService:
    """Write-once store of execution log entries, shared per deployment.

    Lives outside the message network: devices call it synchronously so the
    log write is durable before the device response is sent.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], dict] = {}

    def write(self, eid: str, log_key: str, log_sum: str, device_id: str, at_ms: int) -> None:
        pair = (eid, log_key)
        if pair in self._entries:
            raise ValueError(f"log entry already exists for {pair}")
        self._entries[pair] = {"log_sum": log_sum, "device_id": device_id, "at_ms": at_ms}

    def query_checksum(self, eid: str, log_key: str):
        entry = self._entries.get((eid, log_key))
        return None if entry is None else entry["log_sum"]

    def lookup(self, eid: str, log_key: str):
        return self._entries.get((eid, log_key))

    def __len__(self) -> int:
        return len(self._entries)


class Device(Process):
    """One simulated device endpoint behind a vendor gateway.

    It takes calls from that gateway alone, which `Gateway.register_device`
    records; a call from anyone else would skip the gateway's token check.

    State changes come either from a scenario timeline (scheduled patches)
    or from action APIs.
    """

    MESSAGES = {
        "rpc": (message("rpc", api=is_str, eid=is_str, log_key=is_str, corr=is_int), "_on_rpc",
                sent_by("gateway_addr")),
    }

    def __init__(self, addr, net, device_id, kind, log_service, initial=None):
        super().__init__(addr, net)
        if kind not in DEVICE_KINDS:
            raise ValueError(f"unknown device kind {kind!r}")
        self.device_id = device_id
        self.kind = kind
        self.log = log_service
        self.state = dict(initial or {})
        self.online = bool(self.state.pop("online", True))
        self.actions_executed = 0
        self.push_targets: list[str] = []
        self.gateway_addr = None  # set by Gateway.register_device: the one sender of calls

    def apply_patch(self, patch: dict) -> None:
        patch = dict(patch)
        if "online" in patch:
            self.online = bool(patch.pop("online"))
        self.state.update(patch)
        for target in self.push_targets:
            self.send(target, {"type": "device_push", "device_id": self.device_id})

    def _on_rpc(self, src, msg):
        reply = {"type": "rpc_result", "corr": msg["corr"], "device_id": self.device_id}
        op = APIS.get(msg["api"])
        if not self.online:
            reply.update(ok=False, error="DeviceOffline")
        elif op is None or op.device_kind != self.kind:
            reply.update(ok=False, error="UnknownApi")
        elif self.log.lookup(msg["eid"], msg["log_key"]) is not None:
            reply.update(ok=False, error="LogKeyReused")  # the log is write-once
        else:
            if op.kind == "action":
                self.state[op.field] = op.value
                self.actions_executed += 1
            payload = {op.field: self.state.get(op.field, op.value)}
            # Log first, respond second: the entry exists before anyone can
            # cite it in a transaction.
            self.log.write(msg["eid"], msg["log_key"], checksum(payload), self.device_id,
                           self.net.scheduler.now)
            reply.update(ok=True, payload=payload)
        self.send(src, reply)


class Gateway(Process):
    """Vendor API gateway: token checks, then relay to the device."""

    MESSAGES = {
        "rpc_call": (message("rpc_call", token=is_str, device_id=is_str, api=is_str,
                             eid=is_str, log_key=is_str, corr=is_int), "_on_rpc_call"),
        "rpc_result": (RPC_RESULT, "answered"),
    }

    def __init__(self, addr, net, vendor):
        super().__init__(addr, net)
        self.vendor = vendor
        self.tokens: dict[str, dict] = {}
        self.devices: dict[str, str] = {}  # device_id -> addr
        self.counters.update(BadToken=0, UnknownDevice=0)  # calls refused, by error

    def mint_token(self, device_id: str, scopes) -> str:
        token = f"tok-{self.vendor}-{device_id}"
        self.tokens[token] = {"device_id": device_id, "scopes": tuple(scopes)}
        return token

    def register_device(self, device: Device) -> str:
        self.devices[device.device_id] = device.addr
        device.gateway_addr = self.addr
        return self.mint_token(device.device_id,
                               [api for api, op in APIS.items() if op.device_kind == device.kind])

    def _on_rpc_call(self, src, msg):
        grant = self.tokens.get(msg["token"])
        device_id = msg["device_id"]
        if grant is None or grant["device_id"] != device_id or msg["api"] not in grant["scopes"]:
            error = "BadToken"
        elif device_id not in self.devices:
            error = "UnknownDevice"
        else:  # the device's result goes back to the caller under the caller's corr
            self.call(self.devices[device_id],
                      {"type": "rpc", "api": msg["api"], "eid": msg["eid"],
                       "log_key": msg["log_key"]},
                      lambda result: self.send(src, {**result, "corr": msg["corr"]}))
            return
        self.counters[error] += 1
        self.send(src, {"type": "rpc_result", "corr": msg["corr"], "ok": False, "error": error})


def inject_spoofed_event(rng, binding: dict, step_id: int, event_seq: int, fake_payload: dict) -> dict:
    """Craft an event transaction body claiming an execution that never ran.

    No device touched, no log entry written: the (eid, log_key) pair is
    invented and log_sum is a self-consistent checksum of the fake payload.
    `binding` is exactly usr_rule_id, usr_id, rule_id, and rule_name.
    """
    eid = rng.randbytes(16).hex()
    log_key = rng.randbytes(16).hex()
    return event_body({**binding, "step_id": step_id, "event_seq": event_seq},
                      eid, log_key, checksum(fake_payload), event_seq)
