"""Memory-controller model: request queues, FR-FCFS with a cap on
column-over-row reordering, open-page policy, strict periodic refresh,
refresh-management issuance from its per-bank RAA counters, and back-off
service: a window's commands while they can issue by its deadline, then the
recovery RFMs. It keeps no timing state and reads no DRAM timing but tREFI
and tCL: each command is scheduled at the DeviceState's ready times.

Address interleaving follows the minimalist open-page idea: a short run of
consecutive cache blocks stays in one row, then the stream stripes across
bank groups, banks and ranks before touching the next column group. Bit
layout, from least significant block bit upward:

    [mop offset] [bankgroup] [bank] [rank] [column high] [row]

The layout is fixed and documented so runs are reproducible. map_address
is its one definition; the controller decodes each request from constants
it derives from map_address once per Topology, and a test pins the two
equal.

Scheduling keeps a candidate index: each bank that holds a candidate (a
request FR-FCFS+Cap would serve next, see _bank_choice) maps to its choice.
A bank whose choice may have changed is marked stale instead, and _select
rebuilds the stale banks before it scans the index. The marking points are
every change a choice reads: an enqueue or a finished request marks its
bank; a PRE (_close_row) or an ACT marks the bank it closes or opens; and a
drain-mode flip, or the read count rising from or falling to 0, marks every
queued bank, since write eligibility flips with them. A bank that holds only
writes waiting for the drain has no candidate, so it leaves the scan until
one of those flips. A choice that is a row hit also names the oldest miss it
bypasses, so issuing it raises that miss's count without a queue scan.

Stepping has a horizon: step(now, until) issues commands back to back past
`now` while the next one (or the next REF) comes before `until`, the first
time the caller may act. It stops early at the first queued read completion
and when a request leaves a full read or write queue, the two controller
events a stalled core waits for. So run_cores visits its cores only when
one of them may act, and every command still issues at the time it would
if the controller were stepped at each time it returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .dram import ACT, BURST_PS, PRE, RD, REF, RFMAB, WR, DeviceState, Topology
from .mitigations import MitigationConfig, NoMitigation, build_mechanism
from .timing import ConfigError, TimingParams

BLOCK_BYTES = 64

READ_QUEUE_DEPTH = 64
WRITE_QUEUE_DEPTH = 64
FRFCFS_CAP = 4           # row hits that may bypass the oldest row miss
MOP_GROUP_BLOCKS = 4     # consecutive cache blocks kept in one row
DRAIN_HIGH = 56          # begin draining writes at 7/8 of the queue
DRAIN_LOW = 16           # stop at 1/4


def map_address(topo: Topology, address: int):
    """Byte address -> (rank, bankgroup, bank, row, column block)."""
    blocks_per_row = topo.row_size_bytes // BLOCK_BYTES
    capacity = topo.rows_total * topo.row_size_bytes
    if not 0 <= address < capacity:
        raise ConfigError(f"address {address:#x} outside capacity {capacity:#x}")
    block = address // BLOCK_BYTES
    off = block % MOP_GROUP_BLOCKS
    block //= MOP_GROUP_BLOCKS
    bg = block % topo.bankgroups_per_rank
    block //= topo.bankgroups_per_rank
    bank = block % topo.banks_per_bankgroup
    block //= topo.banks_per_bankgroup
    rank = block % topo.ranks_per_channel
    block //= topo.ranks_per_channel
    col_groups = blocks_per_row // MOP_GROUP_BLOCKS
    col_high = block % col_groups
    row = block // col_groups
    return rank, bg, bank, row, col_high * MOP_GROUP_BLOCKS + off


def inverse_map_address(topo: Topology, rank: int, bankgroup: int,
                        bank: int, row: int, column: int) -> int:
    blocks_per_row = topo.row_size_bytes // BLOCK_BYTES
    col_groups = blocks_per_row // MOP_GROUP_BLOCKS
    off, col_high = column % MOP_GROUP_BLOCKS, column // MOP_GROUP_BLOCKS
    block = row
    block = block * col_groups + col_high
    block = block * topo.ranks_per_channel + rank
    block = block * topo.banks_per_bankgroup + bank
    block = block * topo.bankgroups_per_rank + bankgroup
    block = block * MOP_GROUP_BLOCKS + off
    return block * BLOCK_BYTES


@dataclass(eq=False, slots=True)   # queues remove requests by identity
class Request:
    req_id: int
    core: int
    arrival: int
    is_write: bool
    bank_idx: int
    row: int
    bypassed: int = 0


class DeadlineOverrun(AssertionError):
    """Never raised: the device holds a back-off window's ACTs to its
    deadline (ProtocolError "tABO_ACT"). perfbench/suite.py imports it."""


class MemoryController:
    """Single-channel controller driving one DeviceState."""

    def __init__(self, topo: Topology, t: TimingParams, device: DeviceState,
                 mitigation: MitigationConfig = NoMitigation(), seed: int = 0):
        self.topo = topo
        self.t = t
        self.dev = device
        self.prfm_th = None if mitigation.prfm is None else mitigation.prfm.rfm_th
        self.mech = build_mechanism(mitigation, topo, t, seed)
        self.bank_q: dict = {}          # bank_idx -> [Request] in arrival order
        self.queued_reads = 0
        self.queued_writes = 0
        self.draining = False
        self.next_ref = t.tREFI
        self.completions: deque = deque()  # (time, Request), reads, in time order
        self.raa = [0] * topo.banks_total   # per-bank ACTs since its last PRFM RFM
        self.preventive_refreshes = 0   # mitigation-triggered refresh_rows calls
        self.read_latencies: list = []
        self._last_done = 0
        self._next_id = 0
        # the candidate index (module docstring): bank_idx -> (local_ready,
        # 0 if column else 1, arrival, req_id, cmd, req, passed), only for
        # banks that hold a candidate, and the banks whose entry awaits a
        # rebuild
        self._choices: dict = {}
        self._stale: set = set()
        # the address decode, from map_address: one group of MOP_GROUP_BLOCKS
        # blocks lies in bank _group_bank[group % banks_total], and its row
        # is group // _groups_per_row
        group_bytes = BLOCK_BYTES * MOP_GROUP_BLOCKS
        self._group_bytes = group_bytes
        self._capacity = topo.rows_total * topo.row_size_bytes
        self._group_bank = [device.bank_index(*map_address(topo, g * group_bytes)[:3])
                            for g in range(topo.banks_total)]
        self._groups_per_row = topo.banks_total * (topo.row_size_bytes // group_bytes)
        self._until = 0                  # the running step's horizon, see step

    # ------------------------------------------------------------- queue side

    def can_accept(self, is_write: bool) -> bool:
        if is_write:
            return self.queued_writes < WRITE_QUEUE_DEPTH
        return self.queued_reads < READ_QUEUE_DEPTH

    def enqueue(self, core: int, address: int, is_write: bool, now: int) -> Request:
        if not self.can_accept(is_write):
            raise ConfigError("enqueue on a full queue; call can_accept first")
        if not 0 <= address < self._capacity:
            raise ConfigError(f"address {address:#x} outside capacity {self._capacity:#x}")
        group = address // self._group_bytes
        bank_idx = self._group_bank[group % len(self._group_bank)]
        req = Request(self._next_id, core, now, is_write, bank_idx,
                      group // self._groups_per_row)
        self._next_id += 1
        self.bank_q.setdefault(bank_idx, []).append(req)
        self._stale.add(bank_idx)
        if is_write:
            self.queued_writes += 1
            self._update_drain_mode()
        else:
            if not self.queued_reads:
                self._stale.update(self.bank_q)   # write eligibility flips everywhere
            self.queued_reads += 1
        return req

    # --------------------------------------------------------- device helpers

    def _close_row(self, bank_idx: int, at: int):
        b = self.dev.banks[bank_idx]   # the PRE may assert a back-off
        self.dev.issue(PRE, (bank_idx, b.open_row), max(at, b.pre_ok, self.dev.blocked_until))
        self._stale.add(bank_idx)

    def _close_all_rows(self, at: int) -> int:
        """Precharge every open bank from `at`; returns when REF/RFM may issue."""
        for bank_idx, b in enumerate(self.dev.banks):
            if b.open_row is not None:
                self._close_row(bank_idx, at)
        return max(at, self.dev.blocked_until, self.dev.idle_at)

    def _issue_ref(self, at: int):
        at = self._close_all_rows(at)
        if self.dev.fsm is not None:
            # an open back-off, or one the closing rows asserted, would see
            # its window lapse within a tRFC, so its recovery goes first
            at = self._serve_recovery(at)
        self.dev.issue(REF, None, at)
        self.next_ref += self.t.tREFI

    def _issue_rfm(self, at: int):
        """One all-bank RFM once every bank is closed; its aggressor report
        needs no action here."""
        self.dev.issue(RFMAB, None, self._close_all_rows(at))

    # ------------------------------------------------------------- scheduling

    def _update_drain_mode(self):
        """Follow the write count, with hysteresis; called wherever it changes."""
        before = self.draining
        if self.queued_writes >= DRAIN_HIGH:
            self.draining = True
        elif self.draining and self.queued_writes <= DRAIN_LOW:
            self.draining = False
        if self.draining != before:
            self._stale.update(self.bank_q)

    def _bank_choice(self, bank_idx: int, writes_ok: bool):
        """FR-FCFS+Cap within one bank: hits first until the oldest waiting
        row-miss has been bypassed FRFCFS_CAP times; writes are candidates
        only if `writes_ok`. Returns the bank-local ready time followed by the
        tail of _select's key (0 for a column command else 1, arrival,
        req_id, cmd, req, passed), ignoring channel-global constraints, or
        None when the bank holds no candidate; _select indexes it until the
        bank is marked stale. `passed` is the oldest eligible request when
        the command is a row hit that bypasses it (a RD/WR while that
        request's row is not open), else None: the miss whose count the
        column command raises. It stays exact while indexed, since every
        change to the queue or to write eligibility marks the bank stale."""
        queue = self.bank_q.get(bank_idx)
        choice = None
        b = self.dev.banks[bank_idx]
        open_row = b.open_row
        oldest = None
        hit = None
        if queue:
            for r in queue:
                if r.is_write and not writes_ok:
                    continue
                if oldest is None:
                    oldest = r
                if open_row is not None and hit is None and r.row == open_row:
                    hit = r
                if hit is not None and oldest is not None:
                    break
        if oldest is not None:
            req = oldest
            if (hit is not None and not (oldest.row != open_row
                                         and oldest.bypassed >= FRFCFS_CAP)):
                req = hit
            if open_row == req.row:
                choice = (b.col_ok, 0, req.arrival, req.req_id, WR if req.is_write else RD,
                          req, None if oldest.row == open_row else oldest)
            elif open_row is None:
                choice = (b.act_ok, 1, req.arrival, req.req_id, ACT, req, None)
            else:
                choice = (b.pre_ok, 1, req.arrival, req.req_id, PRE, req, None)
        return choice

    def _select(self, now: int, deadline: Optional[int]):
        """The next command over all banks, or None: the least
        (at, row-after-column, arrival, req_id, cmd, req, passed), with
        `passed` as _bank_choice gives it. It first rebuilds
        the stale banks of the candidate index (module docstring), with
        write eligibility taken once for all of them, then scans only the
        banks the index holds. req_id is unique, so the order is total and
        one pass finds the minimum; a key is built only for a bank whose `at`
        can still win. While a back-off window is open, `deadline` is its
        deadline and only commands that can issue by it are candidates."""
        choices = self._choices
        stale = self._stale
        if stale:
            writes_ok = self.draining or not self.queued_reads
            for bank_idx in stale:
                choice = self._bank_choice(bank_idx, writes_ok)
                if choice is None:
                    choices.pop(bank_idx, None)
                else:
                    choices[bank_idx] = choice
            stale.clear()
        dev = self.dev
        row_floor = dev.blocked_until if dev.blocked_until > now else now
        col_floor = dev.burst_ok if dev.burst_ok > row_floor else row_floor
        raa = self.raa
        prfm_th = self.prfm_th
        best = held = None
        best_at = held_at = float("inf")
        any_col = False
        for bank_idx, (local, row_cmd, arrival, req_id, cmd, req, passed) in choices.items():
            if row_cmd:
                at = local if local > row_floor else row_floor
            else:
                at = local if local > col_floor else col_floor
            if deadline is not None and at > deadline:
                continue
            if not row_cmd:
                any_col = True
            elif cmd == ACT and prfm_th is not None and raa[bank_idx] >= prfm_th:
                if at <= held_at:
                    key = (at, 1, arrival, req_id, cmd, req, passed)
                    if held is None or key < held:
                        held, held_at = key, at
                continue
            if at <= best_at:
                key = (at, row_cmd, arrival, req_id, cmd, req, passed)
                if best is None or key < best:
                    best, best_at = key, at
        # an activation that would first fire an all-bank RFM (closing every
        # open row) waits while any column access is still pending
        if held is not None and not any_col and (best is None or held < best):
            return held
        return best

    def _serve_recovery(self, now: int) -> int:
        """Issue RFMs back to back while a back-off is open; returns when the
        last ends, or `now` if none is open."""
        dev = self.dev
        while dev.fsm.phase != "delay":
            self._issue_rfm(now)
            now = dev.blocked_until
        return now

    def _finish(self, req: Request, done_at: int):
        self.bank_q[req.bank_idx].remove(req)
        if not self.bank_q[req.bank_idx]:
            del self.bank_q[req.bank_idx]
        self._stale.add(req.bank_idx)
        if not self.can_accept(req.is_write):
            self._until = 0   # a core may be waiting for this free slot
        if req.is_write:
            self.queued_writes -= 1
            self._update_drain_mode()
        else:
            self.queued_reads -= 1
            if not self.queued_reads:
                self._stale.update(self.bank_q)   # writes become eligible everywhere
            self.read_latencies.append(done_at - req.arrival)
            # reads leave in issue order on a strictly advancing command bus,
            # so run_cores may deliver completions from the front
            if done_at < self._last_done:
                raise RuntimeError(f"read completion at {done_at} ps precedes "
                                   f"an earlier one at {self._last_done} ps")
            self._last_done = done_at
            self.completions.append((done_at, req))
            if done_at < self._until:
                self._until = done_at

    # ------------------------------------------------------------- main hooks

    def step(self, now: int, until: int = 0) -> int:
        """Run everything due at `now`, and on past it up to the horizon
        `until`; returns the next time work exists.

        Every decision, the first of a call included, comes from _select
        over the candidate index (module docstring), which carries every
        bank's choice from one step to the next; a command marks stale only
        the banks it changes, or every queued bank when it flips write
        eligibility.

        The horizon: while the next time work exists (the next decision's
        command or REF, whichever comes first; a REF due at the command's
        time goes first) lies before the horizon, step moves `now` there and
        goes on instead of returning, so one call equals stepping at each
        returned time below the horizon. The caller sets `until` to the
        first time it may act (run_cores: the earliest frontend wake-up, at
        most the cycle cap, or 0 once every core is done; 0, the default,
        runs only what is due at `now`). Step itself lowers the horizon to
        the first queued read completion, and to 0 when a request leaves a
        full read or write queue, since a core may then act. The run-ahead
        ends: each pass issues a command or moves `now` forward, and `now`
        stays below the horizon, which is finite."""
        fsm = self.dev.fsm
        if self.completions and self.completions[0][0] < until:
            until = self.completions[0][0]
        self._until = until
        while True:
            phase = None if fsm is None else fsm.phase
            if phase == "recovery":
                now = self._serve_recovery(now)
                continue
            if now >= self.next_ref:
                self._issue_ref(self.next_ref)
                continue
            deadline = self.dev.backoff_deadline if phase == "window" else None
            best = self._select(now, deadline)
            if deadline is not None and best is None:
                # nothing more can be served inside the window: recover early
                now = self._serve_recovery(now)
                continue
            if best is None:
                if self.next_ref >= self._until:
                    return self.next_ref
                now = self.next_ref
                continue
            at, _, _, _, cmd, req, passed = best
            if at > now:
                nxt = at if at < self.next_ref else self.next_ref
                if nxt >= self._until:
                    return nxt
                now = nxt
                if at >= self.next_ref:
                    continue   # the REF is due first, even at the command's time
            self._execute(cmd, req, passed, at)

    def _execute(self, cmd: str, req: Request, passed: Optional[Request], at: int):
        if cmd == PRE:
            self._close_row(req.bank_idx, at)
        elif cmd == ACT:
            if self.prfm_th is not None and self.raa[req.bank_idx] >= self.prfm_th:
                # periodic refresh management fires before the next activation
                self._issue_rfm(at)
                self.raa[req.bank_idx] = 0
                return
            self.dev.issue(ACT, (req.bank_idx, req.row), at)
            self.raa[req.bank_idx] += 1
            self._stale.add(req.bank_idx)
            if self.mech is not None:
                victims = self.mech.on_activation(req.bank_idx, req.row, at)
                if victims:
                    self.dev.refresh_rows(req.bank_idx, victims, at)
                    self.preventive_refreshes += 1
        else:  # RD / WR
            self.dev.issue(cmd, (req.bank_idx, req.row), at)
            if passed is not None:
                passed.bypassed += 1
            self._finish(req, at + self.t.tCL + BURST_PS)
