"""Trace records, synthetic benign workloads, mixes, and the multi-core frontend.

The core model is deliberately small: a 4-wide in-order retire stage fed by
trace records, with a 128-entry instruction window bounding how far the core
runs ahead of outstanding reads. Writes are posted. That is enough to turn
memory latency into per-core IPC without modeling a full out-of-order core.

Synthetic traces replace recorded benchmark traces. Each class mixes
streaming runs (row hits under the interleaving's open page), random jumps
(row misses) and hot-row revisits, calibrated so the measured row-buffer
misses per kilo-instruction land in the class band on the reference
controller: H at 10 and above, M from 2 up, L below 2.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .controller import BLOCK_BYTES, MemoryController
from .dram import Topology
from .timing import ConfigError, TimingParams

CPU_CYCLE_PS = 238          # ~4.2 GHz
RETIRE_WIDTH = 4
WINDOW_INSTRS = 128

CLASS_BANDS = {"H": (10.0, None), "M": (2.0, 10.0), "L": (None, 2.0)}


class TraceRecord(NamedTuple):
    """One memory access after `bubble_count` non-memory instructions."""
    bubble_count: int
    op: str                  # read / write
    address: int


# ---------------------------------------------------------------------------
# synthetic generation


_CLASS_PROFILE = {
    # bubble mean, random-jump probability, write share,
    # conflict-burst probability, burst half-length
    "H": (30, 0.88, 0.25, 0.05, 24),
    "M": (100, 0.48, 0.25, 0.03, 16),
    "L": (400, 0.11, 0.25, 0.01, 8),
}


def gen_synthetic(cls: str, seed: int, length: int, region_base: int, region_blocks: int,
                  topo: Topology, max_instructions: Optional[int] = None) -> list:
    """Deterministic synthetic trace of up to `length` records inside one region.

    Three access phases: random jumps (row misses), sequential runs (row hits
    under the interleaving), and same-bank conflict bursts that ping-pong
    between two rows, the pattern that drives per-row activation counts up
    under benign load.

    With a `max_instructions` budget the trace ends at the record whose
    instructions (bubble_count + 1 each) bring the total to the budget: a
    CoreModel with that budget stops fetching there, so the shorter trace is
    a prefix of the full one that no run can read past.
    """
    if cls not in _CLASS_PROFILE:
        raise ConfigError(f"workload class must be one of H, M, L, got {cls!r}")
    if length < 64:
        raise ConfigError("trace too short to establish a memory-intensity band")
    capacity_blocks = topo.rows_total * topo.row_size_bytes // BLOCK_BYTES
    if region_base + region_blocks > capacity_blocks:
        raise ConfigError("trace region exceeds capacity")
    bubble_mean, p_random, p_write, p_conflict, burst_half = _CLASS_PROFILE[cls]
    rng = random.Random(f"{cls}/{seed}")
    # same-bank row pairs: row index occupies the top block bits, so one row
    # step is a fixed block stride
    row_stride = capacity_blocks // topo.rows_per_bank
    pairs = []
    if region_blocks > 2 * row_stride:
        for _ in range(2):
            a = region_base + rng.randrange(region_blocks - 2 * row_stride)
            pairs.append((a, a + 2 * row_stride))
    records = []
    cur = region_base
    hot = [region_base + rng.randrange(region_blocks) for _ in range(4)]
    burst = []
    instructions = 0
    for _ in range(length):
        if burst:
            cur = burst.pop()
        else:
            r = rng.random()
            if pairs and r < p_conflict:
                a, b = pairs[rng.randrange(len(pairs))]
                burst = [a, b] * burst_half
                cur = burst.pop()
            elif r < p_conflict + p_random:
                cur = region_base + rng.randrange(region_blocks)
            elif r < p_conflict + p_random + 0.04:
                cur = hot[rng.randrange(len(hot))]
            else:
                cur = region_base + (cur - region_base + 1) % region_blocks
        bubbles = rng.randint(bubble_mean // 2, bubble_mean + bubble_mean // 2)
        op = "write" if rng.random() < p_write else "read"
        records.append(TraceRecord(bubbles, op, cur * BLOCK_BYTES))
        instructions += bubbles + 1
        if max_instructions is not None and instructions >= max_instructions:
            break
    return records


@dataclass(frozen=True)
class MixSpec:
    classes: tuple              # four entries from H/M/L
    member_seeds: tuple

    def __post_init__(self):
        if len(self.classes) != 4 or len(self.member_seeds) != 4:
            raise ConfigError("a mix is exactly four traces (quad-core)")
        if any(c not in CLASS_BANDS for c in self.classes):
            raise ConfigError("mix classes must be H, M or L")

    @property
    def name(self) -> str:
        return "".join(self.classes)


MIX_COMBOS = (("H",) * 4, ("M",) * 4, ("L",) * 4,
              ("H", "H", "M", "M"), ("M", "M", "L", "L"), ("L", "L", "H", "H"))


def build_mixes(count: int = 60, seed: int = 0) -> list:
    if count % len(MIX_COMBOS) != 0:
        raise ConfigError(f"mix count must be divisible by {len(MIX_COMBOS)}")
    rng = random.Random(seed)
    per = count // len(MIX_COMBOS)
    mixes = []
    for combo in MIX_COMBOS:
        for _ in range(per):
            mixes.append(MixSpec(combo, tuple(rng.randrange(1 << 30) for _ in range(4))))
    return mixes


def materialize_mix(mix: MixSpec, length: int, topo: Topology,
                    max_instructions: Optional[int] = None) -> list:
    """Four traces, each confined to its own quarter of the address space so
    cores never share rows constructively; each ends where a core with the
    `max_instructions` budget stops fetching (see gen_synthetic)."""
    capacity_blocks = topo.rows_total * topo.row_size_bytes // BLOCK_BYTES
    region = capacity_blocks // 4
    return [gen_synthetic(cls, s, length, i * region, region, topo, max_instructions)
            for i, (cls, s) in enumerate(zip(mix.classes, mix.member_seeds))]


# ---------------------------------------------------------------------------
# desk-scale presets


def desk_timing(base: TimingParams) -> TimingParams:
    """Shrink the refresh window so 64-row banks are fully refreshed in
    tREFW/tREFI = 8 REF commands; everything else is untouched."""
    return replace(base, tREFW=8 * base.tREFI)


# ---------------------------------------------------------------------------
# core model


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class CoreModel:
    def __init__(self, core_id: int, records: list, max_instructions: Optional[int]):
        self.core_id = core_id
        self.records = records
        # per-record tables run_cores polls. A record wider than the window
        # fills it rather than blocking forever, so a footprint fits a byte.
        self.footprints = bytes(min(r.bubble_count + 1, WINDOW_INSTRS) for r in self.records)
        self.writes = [r.op == "write" for r in self.records]
        self.max_instructions = max_instructions
        self.idx = 0
        self.frontend_ready = 0
        self.pending = deque()       # [size, footprint, resp_time or None]
        self.occupancy = 0
        self.retire_clock = 0
        self.retired_instrs = 0
        self.issued_instrs = 0
        self._update_fetched()

    def _update_fetched(self):
        self.fetched = (self.idx >= len(self.records)
                        or (self.max_instructions is not None
                            and self.issued_instrs >= self.max_instructions))

    def done(self) -> bool:
        return self.fetched and not self.pending

    def window_has_room(self) -> bool:
        return (not self.fetched
                and self.occupancy + self.footprints[self.idx] <= WINDOW_INSTRS)

    def issue(self, now: int, resp_time: Optional[int]):
        """Dispatch the head record at `now`, once the window has room for it
        and frontend_ready <= now; resp_time is None for outstanding reads."""
        size = self.records[self.idx].bubble_count + 1
        footprint = self.footprints[self.idx]
        entry = [size, footprint, resp_time]
        self.pending.append(entry)
        self.occupancy += footprint
        self.issued_instrs += size
        self.idx += 1
        self._update_fetched()
        self.frontend_ready = now + _ceil_div(size, RETIRE_WIDTH) * CPU_CYCLE_PS
        self.drain()
        return entry

    def on_response(self, entry, resp_time: int):
        entry[2] = resp_time
        self.drain()

    def drain(self):
        while self.pending and self.pending[0][2] is not None:
            size, footprint, resp = self.pending.popleft()
            self.retire_clock = (max(self.retire_clock, resp)
                                 + _ceil_div(size, RETIRE_WIDTH) * CPU_CYCLE_PS)
            self.retired_instrs += size
            self.occupancy -= footprint

    def ipc(self, end_ps: int) -> float:
        """Retired instructions per cycle, over the core's own completion time
        or the run end when it was still stalled there."""
        end = max(self.retire_clock if self.done() else end_ps, 1)
        return self.retired_instrs / (end / CPU_CYCLE_PS)


# ---------------------------------------------------------------------------
# system run loop


@dataclass
class StopCondition:
    instructions_per_core: Optional[int]   # None: each core replays its whole trace
    max_cycles: int

    @property
    def max_ps(self) -> int:
        return self.max_cycles * CPU_CYCLE_PS


@dataclass
class RunResult:
    ipcs: list
    instructions: list
    end_ps: int
    controller_stat: dict
    device_counts: dict
    read_latencies: list
    min_deadline_slack: Optional[int]
    max_pair_disturbance: int
    first_violation: Optional[tuple]   # the monitor's first (bank, victim, aggressor, count)
    preventive_refreshes: int
    backoffs: int


def run_cores(traces, controller: MemoryController, stop: StopCondition) -> RunResult:
    """Replay one trace per core against a shared controller until every core
    retires its budget or the global cycle cap is hit."""
    cores = [CoreModel(i, tr, stop.instructions_per_core) for i, tr in enumerate(traces)]
    req_entry = {}   # req_id -> its core's window entry, outstanding reads only
    completions = controller.completions
    now = 0
    cap = stop.max_ps
    guard = 0
    while True:
        guard += 1
        if guard > 50_000_000:
            raise RuntimeError("run_cores livelock")
        # deliver read completions due by now; they queue in time order
        while completions and completions[0][0] <= now:
            done_at, req = completions.popleft()
            cores[req.core].on_response(req_entry.pop(req.req_id), done_at)
        # ready cores hand requests to the controller; the same pass finds
        # whether all are done and the next frontend wake-up, at most the
        # cap (cores stalled on a full queue or window wake on those events)
        all_done = True
        wake = cap
        for core in cores:
            # at most one record per core: issuing moves frontend_ready past now
            if not core.fetched and core.frontend_ready <= now and core.window_has_room():
                idx = core.idx
                is_write = core.writes[idx]
                if controller.can_accept(is_write):
                    entry = core.issue(now, now if is_write else None)
                    req = controller.enqueue(core.core_id, core.records[idx].address,
                                             is_write, now)
                    if not is_write:
                        req_entry[req.req_id] = entry
            if not core.fetched:
                all_done = False
                ready = core.frontend_ready
                if now < ready < wake and core.window_has_room():
                    wake = ready
            elif core.pending:
                all_done = False
        # until the horizon no core can act: each is fetched, waits for its
        # wake-up, or needs a completion or a free queue slot, and the
        # controller stops at the first of those itself
        nxt = controller.step(now, 0 if all_done else wake)   # always later than now
        if all_done or now >= cap:
            break
        if completions and completions[0][0] < nxt:
            nxt = completions[0][0]
        now = nxt if nxt < wake else wake

    end = now if now >= cap else max([c.retire_clock for c in cores] + [now])
    dev = controller.dev
    violations = [] if dev.monitor is None else dev.monitor.violations
    return RunResult(
        ipcs=[c.ipc(end) for c in cores],
        instructions=[c.retired_instrs for c in cores],
        end_ps=end,
        controller_stat={"acts": dev.counts["ACT"]},   # perfbench reads it
        device_counts=dict(dev.counts),
        read_latencies=list(controller.read_latencies),
        min_deadline_slack=dev.min_deadline_slack,
        max_pair_disturbance=0 if dev.monitor is None else dev.monitor.max_pair,
        first_violation=violations[0] if violations else None,
        preventive_refreshes=controller.preventive_refreshes,
        backoffs=0 if dev.fsm is None else dev.fsm.asserts,
    )
