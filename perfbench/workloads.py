"""Workload definitions and the open-loop request generator.

Every workload runs the bundled heart-rate rule (watch event -> action
authorization -> lock action) with action records on, so each completed
trigger cycle commits an event, an action and an action-record tx.
Requests arrive in waves of WAVE_SIZE every WAVE_GAP_MS of simulated time
(400 req/s), whatever the system does: the load is an open loop in sim
time. The only input the seed changes is the scenario seed, which drives
network delays, log keys and key derivation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ruledger.harness.scenario import scenario_from_dict
from ruledger.harness.world import World
from ruledger.ledger.faults import FaultSpec

WAVE_SIZE = 10
WAVE_GAP_MS = 25
START_MS = 300  # the rule commit and trigger registration finish well before
SLICE_MS = 50  # sim time per CPU-timed slice of a run


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    requests: int
    drain_ms: int
    crash_at_ms: int | None = None  # silence node0 (the view-0 primary) from then on

    @property
    def fault_free(self) -> bool:
        return self.crash_at_ms is None

    @property
    def last_due_ms(self) -> int:
        return START_MS + (self.waves - 1) * WAVE_GAP_MS

    @property
    def waves(self) -> int:
        return -(-self.requests // WAVE_SIZE)

    @property
    def horizon_ms(self) -> int:
        return self.last_due_ms + 1 + self.drain_ms


WORKLOADS = {
    # 500 cycles put 1000 rows in every node's event_index (event plus
    # action record per cycle): the contract and table path as state grows.
    "steady": Workload("steady", nodes=4, requests=500, drain_ms=20_000),
    # n = 10 (f = 3, quorum 7) makes vote traffic n^2 while tables stay at
    # a few hundred rows: the signature, serialization and network path.
    "wide": Workload("wide", nodes=10, requests=200, drain_ms=20_000),
    # node0 falls silent after the first third of the schedule and stays
    # silent: view change, client failover and the backlog drain.
    "primary_crash": Workload("primary_crash", nodes=4, requests=300, drain_ms=40_000,
                              crash_at_ms=START_MS + 10 * WAVE_GAP_MS),
}


def scenario_dict(wl: Workload, seed: int, with_ledger: bool = True) -> dict:
    return {
        "schema": 1,
        "name": f"perfbench-{wl.name}",
        "seed": seed,
        "nodes": wl.nodes,
        "duration_ms": wl.last_due_ms + 1,
        "drain_ms": wl.drain_ms,
        "trigger_mode": "push",
        "with_ledger": with_ledger,
        "record_action_executions": True,
        "accounts": [{"name": "alice", "role": "Administrator", "usr_id": 1}],
        "devices": [
            {"device_id": "watch-1", "kind": "heart_rate", "vendor": "fitpulse",
             "initial": {"heart_rate": 30}, "timeline": []},
            {"device_id": "lock-1", "kind": "smart_lock", "vendor": "homesec",
             "initial": {"lock": "locked"}, "timeline": []},
        ],
        "rules": [{
            "schema": 1,
            "title": "unlock on abnormal heart rate",
            "rule_id": 1,
            "trigger_operations": [["alert_on_heart_rate", "watch-1", "OP_AND"]],
            "condition": "IF_TRUE",
            "action_operations": [["open_door_operation", "lock-1", "OP_AND"]],
        }],
    }


def build_world(wl: Workload, seed: int, with_ledger: bool = True) -> World:
    return World(scenario_from_dict(scenario_dict(wl, seed, with_ledger)))


class _StampedList(list):
    """The execution agent's e2e sample list, also noting when each
    sample (one completed cycle) was appended."""

    def __init__(self, scheduler):
        super().__init__()
        self.scheduler = scheduler
        self.done_at: list[int] = []

    def append(self, value) -> None:
        self.done_at.append(self.scheduler.now)
        super().append(value)


@dataclass
class SimRun:
    world: World
    scheduled: int
    late_ms: int  # how far the wave generator ran behind its schedule
    e2e_ms: list[int]  # due time -> action executed, one per completed cycle
    done_at_ms: list[int]
    slice_cpu_s: list[float]  # process CPU s per sim slice


def run_sim(wl: Workload, world: World, after_slice=None) -> SimRun:
    """Drive one workload through a built world until the drain ends.

    The scheduler runs in consecutive SLICE_MS sim-time slices and the
    process CPU time of each is recorded; the events processed, and their
    order, are the same as in one uninterrupted run. `after_slice`, if
    given, is called with each slice's CPU seconds between slices."""
    late = [0]

    def wave(due: int, count: int):
        def fire():
            late[0] = max(late[0], world.scheduler.now - due)
            if not world.exec_agent.triggers:
                late[0] = max(late[0], wl.horizon_ms)  # the rule never registered
                return
            trig = world.exec_agent.triggers[0]
            for _ in range(count):
                world.exec_agent.run_trigger_cycle(trig)
        return fire

    def silence_primary():
        world.nodes[0].fault = FaultSpec(kind="drop", prob=1.0)

    def hook(w: World) -> None:
        remaining = wl.requests
        for k in range(wl.waves):
            due = START_MS + k * WAVE_GAP_MS
            count = min(WAVE_SIZE, remaining)
            w.scheduler.schedule(due, wave(due, count))
            remaining -= count
        if wl.crash_at_ms is not None:
            w.scheduler.schedule(wl.crash_at_ms, silence_primary)

    stamped = _StampedList(world.scheduler)
    world.exec_agent.e2e_ms = stamped
    world.prepare()
    hook(world)
    slices = []
    for until in range(SLICE_MS, wl.horizon_ms + SLICE_MS, SLICE_MS):
        c0 = time.process_time()
        world.scheduler.run(until=min(until, wl.horizon_ms))
        slices.append(time.process_time() - c0)
        if after_slice is not None:
            after_slice(slices[-1])
    return SimRun(world, wl.requests, late[0], list(stamped), list(stamped.done_at), slices)


def fingerprint(run: SimRun) -> tuple:
    """Everything sim-time a run produces; equal seeds must give equal tuples."""
    w = run.world
    return (
        tuple(run.e2e_ms), tuple(run.done_at_ms), run.late_ms, w.scheduler.now,
        w.scheduler.events_processed, w.net.sent, w.net.delivered,
        tuple(tuple(sorted(n.counters.items())) for n in w.nodes),
        tuple(n.chain[-1]["digest"] for n in w.nodes),
        tuple(w.exec_agent.client.latencies_ms), tuple(w.task_agent.client.latencies_ms),
    )
