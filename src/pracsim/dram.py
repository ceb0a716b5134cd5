"""Command-level DDR5 device model.

Banks hold an open-row register and per-row activation counters
(incremented while a row is being closed, i.e. at PRE). The per-bank RAA
counters that trigger periodic refresh management are the host's: whoever
issues the ACTs keeps them. A rank-level refresh pointer walks all rows once
per refresh window. A REF moves that pointer and tells the monitor which
rows it refreshed, and nothing else: it clears no activation counter, as the
analyzer assumes. Only an RFM or a targeted refresh lowers a counter. The
back-off engine, BackOffFsm, is a small FSM with one countdown `left`:

    phase    left counts               at 0
    delay    bo_n_acts row closes      window if a row's counter is at
                                       abo_th or above (an assert), else delay
    window   tABO_ACT/tRC row closes   recovery; an RFM ends it early
    recovery bo_n_refs RFMs            delay

tABO_ACT is read as JESD79-5C's back-off window: once the alert asserts, the
host may go on with normal traffic for tABO_ACT, and the recovery RFMs
follow with no deadline of their own. BackOffFsm names both window rules.

The device's `counters` maps bank -> {row: count} and holds a bank only
while it has a counter: the PRE that creates a bank's first counter adds
the bank, and `_clear`, the one place a counter falls (an RFM or a targeted
refresh), deletes it with its last counter. The monitor's `pair` is keyed
by bank the same way. So the RFM walk, the REF walk and the conservation
check visit only the banks an attack touches, not the 64 of the channel.

An RFM finds each bank's hottest row, the lowest of any tie, in a heap of
(-count, row) entries, an index derived from the bank's counters: built at
the bank's first RFM, fed one entry by every PRE that changes a counter, and
rebuilt once it outgrows twice the counters. An entry whose count no longer
matches the counters is stale and is dropped when it reaches the top. A
bank without counters reports row 0 and does no other work, and the monitor
hears only from banks in its `pair`. So an RFM costs a few heap pops per
bank holding counters, not a scan of every counter of every bank.

DeviceState owns DRAM timing in picoseconds: bank, command-bus and data-bus
ready times, preventive-refresh occupancy, tRP before REF/RFM. A violation,
an ACT during back-off recovery, after the back-off deadline or to a row
outside the bank, or a REF/RFM while a bank holds an open row raises
ProtocolError (constraint, missing slack) before any state changes, fatal to
simulation and fuzz tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import ClassVar, Optional

from .timing import ConfigError, TimingParams

BLAST_RADIUS = 2
BURST_PS = 5000   # BL16 on a 3200 MT/s bus
HEAP_SLACK = 16   # a bank's RFM heap is rebuilt past 2 * len(counters) + this


@lru_cache(maxsize=None)   # one entry per aggressor row a run touches
def victim_rows(row: int, rows_per_bank: int) -> tuple:
    """Rows within BLAST_RADIUS of an aggressor, clipped to the bank."""
    return (*range(max(0, row - BLAST_RADIUS), row),
            *range(row + 1, min(rows_per_bank, row + BLAST_RADIUS + 1)))

ACT, PRE, RD, WR, REF, RFMAB = "ACT", "PRE", "RD", "WR", "REF", "RFMab"


class ProtocolError(Exception):
    def __init__(self, constraint: str, slack_ps: int, message: str = ""):
        self.constraint = constraint
        self.slack_ps = slack_ps
        super().__init__(message or f"{constraint} violated by {slack_ps} ps")


@dataclass(frozen=True)
class Topology:
    """A dual-rank channel of 8 bank groups x 4 banks; only the rows vary."""
    ranks_per_channel: ClassVar[int] = 2
    bankgroups_per_rank: ClassVar[int] = 8
    banks_per_bankgroup: ClassVar[int] = 4
    rows_per_bank: int = 65_536
    row_size_bytes: int = 8192

    @property
    def banks_per_rank(self) -> int:
        return self.bankgroups_per_rank * self.banks_per_bankgroup

    @property
    def banks_total(self) -> int:
        return self.ranks_per_channel * self.banks_per_rank

    @property
    def rows_total(self) -> int:
        return self.banks_total * self.rows_per_bank

    @staticmethod
    def desk() -> "Topology":
        """Small topology for exhaustive checks: 64 rows per bank, 1 KiB rows."""
        return Topology(rows_per_bank=64, row_size_bytes=1024)


@dataclass
class BankState:
    open_row: Optional[int] = None
    heap: Optional[list] = None   # RFM index of the bank's counters, see module doc
    act_ok: int = 0
    pre_ok: int = 0
    col_ok: int = 0
    last_act: int = -1


@dataclass
class BackOffFsm:
    """The back-off protocol of one channel, the only holder of its state
    (module docstring). The device calls `on_close` at each PRE, `on_rfm`
    at each RFM, `on_clear` for each cleared counter, and `admit` before an
    ACT outside the delay phase. A window ends by the first of two rules:

      count     tABO_ACT // tRC row closes (PREs on any bank), or an RFM;
                the analyzer's divisor bo_n_acts + tABO_ACT // tRC
                (`PracParams.divisor`) counts these ACTs;
      deadline  each window ACT issues by `deadline` = assert_ts + tABO_ACT,
                or `admit` raises ProtocolError("tABO_ACT").
    """
    abo_th: int
    bo_n_refs: int
    bo_n_acts: int
    t: TimingParams
    phase: str = "delay"    # idle is represented by an armed delay phase
    left: int = 0           # the phase's countdown, see module doc
    rows_at_th: int = 0     # rows whose counter is at abo_th or above
    assert_ts: int = -1
    asserts: int = 0
    min_deadline_slack: Optional[int] = None   # least deadline - t of a window ACT

    def __post_init__(self):
        self.left = self.bo_n_acts

    @property
    def deadline(self) -> int:
        """Latest issue time of a window ACT: tABO_ACT after the assert."""
        return self.assert_ts + self.t.tABO_ACT

    def _next(self, now: int):
        """The one phase change, at the countdown's end or an RFM in the window;
        it loads the next countdown. A window of no row close ends at once."""
        while True:
            if self.phase == "delay" and self.rows_at_th:
                self.asserts += 1
                self.assert_ts = now + self.t.tBackoffSignal
                self.phase, self.left = "window", self.t.window_acts()
            elif self.phase == "window":
                self.phase, self.left = "recovery", self.bo_n_refs
            else:   # a delay with no row at abo_th re-arms, as the last RFM does
                self.phase, self.left = "delay", self.bo_n_acts
            if self.left:
                return

    def admit(self, now: int):
        """Check an ACT outside the delay phase before any state changes; a
        window ACT lowers `min_deadline_slack` to its slack if that is less."""
        if self.phase == "recovery":
            raise ProtocolError("backoff-recovery", 0, "ACT during recovery")
        slack = self.deadline - now
        if slack < 0:
            raise ProtocolError("tABO_ACT", -slack)
        if self.min_deadline_slack is None or slack < self.min_deadline_slack:
            self.min_deadline_slack = slack

    def on_close(self, old: int, count: int, now: int):
        """A PRE moved a row's counter from `old` to `count`."""
        if old < self.abo_th <= count:
            self.rows_at_th += 1
        if self.phase != "recovery":
            self.left -= 1
            if not self.left:
                self._next(now)

    def on_clear(self, count: int):
        if count >= self.abo_th:
            self.rows_at_th -= 1

    def on_rfm(self, now: int):
        if self.phase == "window":
            self._next(now)   # the RFM ends the window; its unused closes lapse
        if self.phase == "recovery":
            self.left -= 1
            if not self.left:
                self._next(now)


class DisturbanceMonitor:
    """Victim-centric safety monitor.

    Every activation of an aggressor disturbs the rows within the blast
    radius; the per-(victim, aggressor) tally resets when the victim row is
    refreshed. A tally reaching n_rh is a bitflip witness. Rows are
    bank-local: 0 <= row < rows_per_bank.

    `pair` maps bank -> {victim: {aggressor: count}} and holds a bank only
    while it has a tallied victim, so a refresh drops one entry per
    refreshed row, and the device walks only the banks in `pair`.
    """

    def __init__(self, n_rh: int, rows_per_bank: int):
        self.n_rh = n_rh
        self.rows_per_bank = rows_per_bank
        self.pair: dict = {}      # bank -> {victim: {aggressor: count}}
        self.max_pair = 0
        self.violations: list = []

    def on_act(self, bank: int, row: int):
        victims = self.pair.get(bank)
        if victims is None:
            victims = self.pair[bank] = {}
        for victim in victim_rows(row, self.rows_per_bank):
            by_aggressor = victims.get(victim)
            if by_aggressor is None:
                victims[victim] = {row: 1}
                c = 1
            else:
                c = by_aggressor.get(row, 0) + 1
                by_aggressor[row] = c
            if c > self.max_pair:
                self.max_pair = c
            if c >= self.n_rh:
                self.violations.append((bank, victim, row, c))

    def on_row_refreshed(self, bank: int, *rows: int):
        """The victim rows `rows` of `bank` were refreshed: drop their counts,
        and the bank once it has no victim left."""
        victims = self.pair.get(bank)
        if victims is None:
            return
        for row in rows:
            victims.pop(row, None)
        if not victims:
            del self.pair[bank]


class DeviceState:
    """One memory channel's worth of DRAM state, mutated via issue()."""

    def __init__(self, topo: Topology, t: TimingParams, prac: Optional[dict] = None,
                 monitor: Optional[DisturbanceMonitor] = None,
                 counter_bits: Optional[int] = None):
        if counter_bits is not None and counter_bits < 1:
            raise ConfigError("counter_bits must be >= 1")
        self.topo = topo
        self.t = t
        self.banks = [BankState() for _ in range(topo.banks_total)]
        self.counters: dict = {}   # bank -> {row: activation count}, see module doc
        self.fsm = None if prac is None else BackOffFsm(**prac, t=t)
        self.counter_max = None if counter_bits is None else (1 << counter_bits) - 1
        self.monitor = monitor
        self.blocked_until = 0          # no command before this time
        self.burst_ok = 0               # no data burst before this time
        self.idle_at = 0                # every bank precharged: max of act_ok
        self.open_banks = 0             # banks holding an open row
        self.ref_pointer = 0
        self.rows_per_ref = -(-topo.rows_per_bank // (t.tREFW // t.tREFI))
        self.cleared_counts = 0         # counter mass cleared by RFMs and targeted refreshes
        self.saturated_increments = 0   # increments swallowed at saturation
        self.counts = {c: 0 for c in (ACT, PRE, RD, WR, REF, RFMAB)}

    # ------------------------------------------------------------- helpers

    def bank_index(self, rank: int, bankgroup: int, bank: int) -> int:
        topo = self.topo
        return (rank * topo.bankgroups_per_rank + bankgroup) * topo.banks_per_bankgroup + bank

    def _check(self, ok_at: int, now: int, constraint: str):
        if now < ok_at:
            raise ProtocolError(constraint, ok_at - now)

    def _raise_act_ok(self, b: BankState, at: int):
        """act_ok never falls, so idle_at stays the maximum over the banks."""
        if at > b.act_ok:
            b.act_ok = at
            if at > self.idle_at:
                self.idle_at = at

    # ------------------------------------------------------------- commands

    def issue(self, cmd: str, addr, now: int) -> Optional[list]:
        """Apply one command; addr is (bank_index, row) or None for REF/RFMab.

        Returns an RFMab's report, serve_rfm's aggressor row per bank, and
        None for every other command. The back-off, its deadline and its
        slack are `fsm`'s (BackOffFsm).
        """
        aggressors = None
        t = self.t
        busy = t.clock_period
        if now < self.blocked_until:
            raise ProtocolError("command bus/tRFC/tRFM", self.blocked_until - now)
        if cmd == ACT:
            bank_idx, row = addr
            b = self.banks[bank_idx]
            if b.open_row is not None:
                raise ProtocolError("open-row", 0, "ACT with a row already open")
            if now < b.act_ok:
                raise ProtocolError("tRC/tRP", b.act_ok - now)
            if not 0 <= row < self.topo.rows_per_bank:
                raise ProtocolError("row-range", 0, f"ACT to row {row} outside "
                                    f"0..{self.topo.rows_per_bank - 1}")
            fsm = self.fsm
            if fsm is not None and fsm.phase != "delay":
                fsm.admit(now)
            b.open_row = row
            self.open_banks += 1
            b.last_act = now
            # now >= act_ok, so act_ok rises; idle_at stays the maximum
            b.act_ok = act_ok = now + t.tRC
            if act_ok > self.idle_at:
                self.idle_at = act_ok
            b.pre_ok = now + t.tRAS
            b.col_ok = now + t.tRCD
            if self.monitor is not None:
                self.monitor.on_act(bank_idx, row)
        elif cmd == PRE:
            bank_idx, _ = addr
            b = self.banks[bank_idx]
            if b.open_row is None:
                raise ProtocolError("open-row", 0, "PRE with no open row")
            self._check(b.pre_ok, now, "tRAS/tRTP/tWR")
            row = b.open_row
            b.open_row = None
            self.open_banks -= 1
            self._raise_act_ok(b, now + self.t.tRP)
            # per-row tracking is assumed perfect regardless of mitigation
            counters = self.counters.get(bank_idx)
            if counters is None:
                counters = self.counters[bank_idx] = {}
            old = counters.get(row, 0)
            count = old + 1
            if self.counter_max is not None and count > self.counter_max:
                count = self.counter_max   # saturating counter
                self.saturated_increments += 1
            counters[row] = count
            heap = b.heap
            if heap is not None and count != old:
                if len(heap) > 2 * len(counters) + HEAP_SLACK:
                    b.heap = self._heap_of(counters)
                else:
                    heappush(heap, (-count, row))
            if self.fsm is not None:
                self.fsm.on_close(old, count, now)
        elif cmd in (RD, WR):
            bank_idx, row = addr
            b = self.banks[bank_idx]
            if b.open_row != row:
                raise ProtocolError("open-row", 0, f"{cmd} to a row that is not open")
            self._check(b.col_ok, now, "tRCD")
            self._check(self.burst_ok, now, "data bus")
            self.burst_ok = now + BURST_PS
            b.pre_ok = max(b.pre_ok, now + (self.t.tRTP if cmd == RD else self.t.tWR))
        elif cmd in (REF, RFMAB):
            # every bank precharged, tRP ago, before any state changes
            if self.open_banks:
                raise ProtocolError("open-row", 0, f"{cmd} with an open row")
            self._check(self.idle_at, now, f"tRP before {cmd}")
            if cmd == REF:
                self._serve_ref()
                busy = self.t.tRFC
            else:
                aggressors = self.serve_rfm()
                busy = self.t.tRFM
                if self.fsm is not None:
                    self.fsm.on_rfm(now)
        else:
            raise ConfigError(f"unknown command {cmd!r}")
        self.blocked_until = now + busy
        self.counts[cmd] += 1
        return aggressors

    # ------------------------------------------------------------- refresh ops

    def _clear(self, bank_idx: int, row: int):
        """Reset an existing counter: the only way a counter falls. A bank
        whose last counter this clears leaves `counters`."""
        counters = self.counters[bank_idx]
        count = counters.pop(row)
        if not counters:
            del self.counters[bank_idx]
        self.cleared_counts += count
        if self.fsm is not None:
            self.fsm.on_clear(count)

    def _heap_of(self, counters: dict) -> list:
        heap = [(-c, r) for r, c in counters.items()]
        heapify(heap)
        return heap

    def serve_rfm(self) -> list:
        """All-bank RFM: refresh the victims of every bank's hottest row.

        Returns the aggressor row of each bank, in bank order: the attacker
        feedback channel. A bank with no counters reports row 0 and refreshes
        its victims; a bank with counters, the only kind the walk visits,
        reports the row on top of its heap (module docstring; ties go to the
        lowest row). The monitor hears only from the banks in its `pair`.
        """
        aggressors = [0] * len(self.banks)
        # a snapshot: _clear drops a bank whose last counter it clears
        for bi, counters in tuple(self.counters.items()):
            b = self.banks[bi]
            heap = b.heap
            if heap is None:
                heap = b.heap = self._heap_of(counters)
            while heap:
                neg, aggressor = heappop(heap)
                if counters.get(aggressor) == -neg:
                    break
            else:
                raise RuntimeError(f"bank {bi}: RFM heap ran empty while {len(counters)} "
                                   "rows hold counters")
            self._clear(bi, aggressor)
            aggressors[bi] = aggressor
        monitor = self.monitor
        if monitor is not None:
            rows_per_bank = self.topo.rows_per_bank
            # a snapshot: the monitor drops a bank whose last tally it drops
            for bi in tuple(monitor.pair):
                monitor.on_row_refreshed(bi, *victim_rows(aggressors[bi], rows_per_bank))
        return aggressors

    def refresh_rows(self, bank_idx: int, rows, now: int) -> None:
        """Targeted row refreshes (controller-side preventive actions) from
        `now`: they occupy the bank for tRC per row."""
        b = self.banks[bank_idx]
        busy_until = now + len(rows) * self.t.tRC
        b.pre_ok = max(b.pre_ok, busy_until)
        b.col_ok = max(b.col_ok, busy_until)
        self._raise_act_ok(b, busy_until)
        counters = self.counters.get(bank_idx, {})
        for r in rows:
            if r in counters:
                self._clear(bank_idx, r)
        if self.monitor is not None:
            self.monitor.on_row_refreshed(bank_idx, *rows)

    def _serve_ref(self):
        start = self.ref_pointer
        rows = [(start + i) % self.topo.rows_per_bank for i in range(self.rows_per_ref)]
        self.ref_pointer = (start + self.rows_per_ref) % self.topo.rows_per_bank
        if self.monitor is not None:
            # only banks in `pair` can change; a snapshot, as the walk drops banks
            for bi in tuple(self.monitor.pair):
                self.monitor.on_row_refreshed(bi, *rows)

    # ------------------------------------------------------------- accounting

    def conservation_holds(self) -> bool:
        """Each ACT/PRE pair's increment is held, cleared or lost to saturation."""
        held = sum(sum(counters.values()) for counters in self.counters.values())
        return self.counts[PRE] == held + self.cleared_counts + self.saturated_increments
