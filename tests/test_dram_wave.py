from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pracsim.attack import run_wave_attack
from pracsim.dram import (
    ACT,
    BLAST_RADIUS,
    BURST_PS,
    PRE,
    RD,
    REF,
    RFMAB,
    WR,
    DeviceState,
    DisturbanceMonitor,
    ProtocolError,
    Topology,
    victim_rows,
)
from pracsim.security import PracParams, PrfmParams, prac_trajectory, prfm_trajectory
from pracsim.timing import ConfigError, preset
from pracsim.workloads import desk_timing

PRAC_T = preset("ddr5-3200an-prac")
BASE_T = preset("ddr5-3200an-base")
DESK = Topology.desk()


def fresh_device(**kw):
    return DeviceState(DESK, BASE_T, **kw)


class CommandBus:
    """Issues each command to every device in `devs` at the earliest time the
    first one accepts it, and never before the previous command."""

    def __init__(self, *devs, now=1_000_000):
        self.devs, self.now = devs, now

    def ready(self, cmd, addr=None):
        """The time `cmd` would issue at."""
        dev = self.devs[0]
        ready = dev.blocked_until
        if cmd == ACT:
            ready = max(ready, dev.banks[addr[0]].act_ok)
        elif cmd == PRE:
            ready = max(ready, dev.banks[addr[0]].pre_ok)
        elif cmd in (REF, RFMAB):
            ready = max(ready, dev.idle_at)
        return max(self.now, ready)

    def issue(self, cmd, addr=None):
        """Returns every device's result, in order."""
        self.now = self.ready(cmd, addr)
        return [d.issue(cmd, addr, self.now) for d in self.devs]

    def refresh_rows(self, bank, rows):
        return [d.refresh_rows(bank, rows, self.now) for d in self.devs]

    def act_pre(self, bank, row, times=1):
        for _ in range(times):
            self.issue(ACT, (bank, row))
            self.issue(PRE, (bank, row))


def test_topology_defaults_match_dual_rank_64_banks():
    topo = Topology()
    assert topo.banks_total == 64
    assert topo.rows_per_bank == 65_536


def test_act_act_too_soon_is_a_trc_violation():
    dev = fresh_device()
    dev.issue(ACT, (0, 1), 1_000_000)
    dev.issue(PRE, (0, 1), 1_000_000 + BASE_T.tRAS)
    with pytest.raises(ProtocolError) as err:
        dev.issue(ACT, (0, 2), 1_000_000 + BASE_T.tRC - 1)
    assert "tRC" in err.value.constraint
    assert err.value.slack_ps == 1


@pytest.mark.parametrize("row", [-1, DESK.rows_per_bank, DESK.rows_per_bank + 8])
def test_act_outside_the_bank_is_rejected_before_any_change(row):
    dev = fresh_device(monitor=DisturbanceMonitor(8, DESK.rows_per_bank))
    with pytest.raises(ProtocolError) as err:
        dev.issue(ACT, (0, row), 1_000_000)
    assert err.value.constraint == "row-range"
    assert dev.banks[0].open_row is None and dev.counts[ACT] == 0 and not dev.monitor.pair
    dev.issue(ACT, (0, DESK.rows_per_bank - 1), 1_000_000)


def test_one_command_per_clock_on_the_command_bus():
    dev = fresh_device()
    dev.issue(ACT, (0, 1), 1_000_000)
    with pytest.raises(ProtocolError) as err:
        dev.issue(ACT, (1, 1), 1_000_000 + BASE_T.clock_period - 1)
    assert "command bus" in err.value.constraint
    dev.issue(ACT, (1, 1), 1_000_000 + BASE_T.clock_period)


def test_data_bursts_do_not_overlap():
    dev = fresh_device()
    now, cp = 1_000_000, BASE_T.clock_period
    dev.issue(ACT, (0, 1), now)
    dev.issue(ACT, (1, 1), now + cp)
    rd = now + cp + BASE_T.tRCD
    dev.issue(RD, (0, 1), rd)
    with pytest.raises(ProtocolError) as err:
        dev.issue(WR, (1, 1), rd + BURST_PS - 1)
    assert err.value.constraint == "data bus" and err.value.slack_ps == 1
    dev.issue(WR, (1, 1), rd + BURST_PS)


@pytest.mark.parametrize("cmd", [REF, RFMAB])
def test_refresh_waits_trp_after_the_last_pre(cmd):
    dev = fresh_device()
    dev.issue(ACT, (5, 1), 1_000_000)
    pre_at = 1_000_000 + BASE_T.tRAS
    dev.issue(PRE, (5, 1), pre_at)
    with pytest.raises(ProtocolError) as err:
        dev.issue(cmd, None, pre_at + BASE_T.tRP - 1)
    assert "tRP" in err.value.constraint and err.value.slack_ps == 1
    dev.issue(cmd, None, pre_at + BASE_T.tRP)


@pytest.mark.parametrize("cmd", [REF, RFMAB])
def test_refresh_with_an_open_row_is_rejected_before_any_change(cmd):
    # bank 0's row 0 is in the first REF group; bank 5, later, holds row 5 open
    dev = fresh_device()
    now = 1_000_000
    dev.issue(ACT, (0, 0), now)
    dev.issue(PRE, (0, 0), now + BASE_T.tRAS)
    dev.issue(ACT, (5, 5), now + BASE_T.tRC)
    with pytest.raises(ProtocolError) as err:
        dev.issue(cmd, None, 2_000_000)
    assert err.value.constraint == "open-row"
    assert dev.counters == {0: {0: 1}} and dev.banks[5].open_row == 5
    assert dev.ref_pointer == 0 and dev.counts[cmd] == 0
    dev.issue(PRE, (5, 5), 2_000_000)
    dev.issue(cmd, None, 2_000_000 + BASE_T.tRP)
    assert dev.counters == ({0: {0: 1}, 5: {5: 1}} if cmd == REF else {})


@pytest.mark.parametrize("cmd", [ACT, PRE, RD, WR])
def test_command_against_the_open_row_state_is_rejected_before_any_change(cmd):
    # bank 0 holds row 2 open and bank 1 is closed; every timing constraint is met
    addr = {ACT: (0, 3), PRE: (1, 0), RD: (0, 3), WR: (1, 0)}[cmd]
    dev = fresh_device(monitor=DisturbanceMonitor(8, DESK.rows_per_bank))
    dev.issue(ACT, (0, 2), 1_000_000)

    def state():
        return deepcopy(({k: v for k, v in vars(dev).items() if k != "monitor"},
                         dev.monitor.pair))
    before = state()
    with pytest.raises(ProtocolError) as err:
        dev.issue(cmd, addr, 1_000_000 + BASE_T.tRAS)
    assert err.value.constraint == "open-row"
    assert state() == before


@pytest.mark.parametrize("cmd", [ACT, PRE, RD])
def test_commands_wait_out_a_preventive_refresh(cmd):
    # four victim rows occupy the bank for 4 tRC from the refresh
    dev = fresh_device()
    now = 1_000_000
    if cmd != ACT:
        dev.issue(ACT, (0, 10), now)
    dev.refresh_rows(0, victim_rows(10, 64), now)
    end = now + 4 * BASE_T.tRC
    with pytest.raises(ProtocolError) as err:
        dev.issue(cmd, (0, 10), end - 1)
    assert err.value.slack_ps == 1
    dev.issue(cmd, (0, 10), end)


def test_pre_increments_the_closed_rows_counter():
    dev = fresh_device()
    dev.issue(ACT, (0, 7), 1_000_000)
    dev.issue(PRE, (0, 7), 1_000_000 + BASE_T.tRAS)
    assert dev.counters == {0: {7: 1}}


def test_backoff_asserts_within_signal_latency_of_the_crossing():
    dev = DeviceState(DESK, PRAC_T, prac={"abo_th": 1, "bo_n_refs": 4, "bo_n_acts": 1})
    dev.issue(ACT, (0, 3), 1_000_000)
    dev.issue(PRE, (0, 3), 1_000_000 + PRAC_T.tRAS)
    assert dev.fsm.asserts == 1 and dev.fsm.phase == "window"
    assert dev.fsm.assert_ts == 1_000_000 + PRAC_T.tRAS + PRAC_T.tBackoffSignal


@pytest.mark.parametrize("late", [0, 1])
def test_window_act_is_held_to_the_backoff_deadline(late):
    # an ACT at the deadline issues with slack 0; one a picosecond later is
    # rejected before any device or monitor field changes
    dev = DeviceState(DESK, PRAC_T, prac={"abo_th": 1, "bo_n_refs": 2, "bo_n_acts": 1},
                      monitor=DisturbanceMonitor(8, DESK.rows_per_bank))
    dev.issue(ACT, (0, 3), 1_000_000)
    dev.issue(PRE, (0, 3), 1_000_000 + PRAC_T.tRAS)
    at = dev.backoff_deadline + late
    if not late:
        dev.issue(ACT, (1, 5), at)
        assert dev.min_deadline_slack == 0 and dev.banks[1].open_row == 5
        return

    def state():
        return deepcopy(vars(dev) | {"monitor": vars(dev.monitor)})
    before = state()
    with pytest.raises(ProtocolError) as err:
        dev.issue(ACT, (1, 5), at)
    assert (err.value.constraint, err.value.slack_ps) == ("tABO_ACT", 1)
    assert state() == before and dev.min_deadline_slack is None


def test_rows_cleared_by_the_recovery_do_not_assert_again():
    # row 9 crosses abo_th inside the window; the two recovery RFMs clear
    # rows 5 and 9, so the next arming close finds no row at the threshold
    dev = DeviceState(DESK, PRAC_T, prac={"abo_th": 2, "bo_n_refs": 2, "bo_n_acts": 1})
    bus = CommandBus(dev)
    bus.act_pre(0, 5, 2)
    assert dev.fsm.asserts == 1 and dev.fsm.phase == "window"
    bus.act_pre(0, 9, 2)
    assert dev.counters == {0: {5: 2, 9: 2}} and dev.rows_at_th == 2
    for _ in range(2):
        bus.issue(RFMAB)
    assert dev.fsm.phase == "delay" and dev.rows_at_th == 0
    bus.act_pre(0, 20)
    assert dev.fsm.asserts == 1 and dev.fsm.phase == "delay"


def test_act_rejected_during_recovery():
    # a tABO_ACT below tRC leaves no window ACT: the assert opens the recovery
    t = replace(PRAC_T, tABO_ACT=PRAC_T.tRC - 1)
    dev = DeviceState(DESK, t, prac={"abo_th": 1, "bo_n_refs": 2, "bo_n_acts": 1})
    assert dev.fsm.window_acts == 0
    bus = CommandBus(dev)
    bus.act_pre(0, 3)
    assert dev.fsm.phase == "recovery"
    with pytest.raises(ProtocolError, match="ACT during recovery"):
        bus.issue(ACT, (0, 4))


def test_serve_rfm_refreshes_the_hottest_rows_victims():
    mon = DisturbanceMonitor(64, 64)
    dev = fresh_device(monitor=mon)
    bus = CommandBus(dev)
    bus.act_pre(0, 3, 5)
    bus.act_pre(0, 9, 2)
    assert dev.counters == {0: {3: 5, 9: 2}}
    aggressors = dev.serve_rfm()
    assert aggressors[0] == 3
    assert dev.counters == {0: {9: 2}}
    # row 3's victims 1, 2, 4 and 5 were refreshed; row 9's were not
    assert list(mon.pair) == [0] and sorted(mon.pair[0]) == [7, 8, 10, 11]


def test_serve_rfm_fallback_row_when_all_counters_zero():
    dev = fresh_device()
    assert dev.serve_rfm() == [0] * DESK.banks_total


def test_serve_rfm_tie_break_orders():
    # row 9 is counted first, so the tie is not settled by insertion order
    dev = fresh_device()
    bus = CommandBus(dev)
    bus.act_pre(0, 9, 5)
    bus.act_pre(0, 3, 5)
    assert dev.counters == {0: {9: 5, 3: 5}}
    assert dev.serve_rfm()[0] == 3


def test_ref_covers_the_bank_in_one_window():
    t = desk_timing(BASE_T)
    mon = DisturbanceMonitor(64, 64)
    mon.on_act(0, 40)                     # bank 0 holds tallies, so REFs report it
    refreshed = []
    mon.on_row_refreshed = lambda bank, *rows: refreshed.extend(rows)
    dev = DeviceState(DESK, t, monitor=mon)
    assert dev.rows_per_ref == 8  # 64 rows / (tREFW/tREFI = 8)
    bus = CommandBus(dev)
    for _ in range(8):
        assert bus.issue(REF) == [None]
    assert sorted(refreshed) == list(range(64))  # each row exactly once


def test_ref_keeps_prac_counters_that_an_rfm_clears():
    t = desk_timing(BASE_T)
    dev = DeviceState(DESK, t)
    dev.issue(ACT, (0, 2), 1_000_000)
    dev.issue(PRE, (0, 2), 1_000_000 + t.tRAS)
    dev.issue(REF, None, 2_000_000)   # pointer starts at row 0, covers 0..7
    assert dev.counters == {0: {2: 1}}
    dev.issue(RFMAB, None, 2_000_000 + t.tRFC)
    assert dev.counters == {}


def test_wave_replay_acts_once_per_decoy_of_every_round():
    result = run_wave_attack(16, PrfmParams(4), BASE_T)
    assert result.act_count == sum(result.sizes[:-1])


def test_wave_replay_rejects_a_ref_counter_reset():
    with pytest.raises(ConfigError):
        run_wave_attack(16, PrfmParams(4), BASE_T, ref_resets_counters=True)


def test_monitor_counts_neighbors_and_resets_on_refresh():
    mon = DisturbanceMonitor(4, 64)
    for _ in range(3):
        mon.on_act(0, 10)
    assert mon.pair[0][9] == {10: 3}
    assert mon.pair[0][12] == {10: 3}
    assert not mon.violations
    mon.on_row_refreshed(0, 9)
    assert 9 not in mon.pair[0]
    mon.on_act(0, 10)
    assert mon.pair[0][11] == {10: 4}
    assert mon.violations  # reached n_rh on an unrefreshed victim


class _FlatMonitor:
    """Reference monitor, sharing no code with DisturbanceMonitor: one flat
    (bank, victim, aggressor) -> count dict, its own neighbourhood, and a
    refresh that scans every tally for the refreshed victims."""

    def __init__(self, n_rh, rows_per_bank):
        self.n_rh = n_rh
        self.rows_per_bank = rows_per_bank
        self.flat = {}
        self.max_pair = 0
        self.violations = []

    def on_act(self, bank, row):
        for victim in range(self.rows_per_bank):
            if 0 < abs(victim - row) <= BLAST_RADIUS:
                key = (bank, victim, row)
                self.flat[key] = c = self.flat.get(key, 0) + 1
                self.max_pair = max(self.max_pair, c)
                if c >= self.n_rh:
                    self.violations.append((bank, victim, row, c))

    def on_row_refreshed(self, bank, *rows):
        for key in [k for k in self.flat if k[0] == bank and k[1] in rows]:
            del self.flat[key]


class _ScanningDevice(DeviceState):
    """Reference device: every RFM, REF and targeted refresh scans all banks
    and reports every refreshed row of every bank to its own _FlatMonitor,
    `flat`. It reads no RFM heap, and it walks every bank where the device
    walks only the banks of its `counters` and of the monitor's `pair`."""

    def __init__(self, topo, t, flat, **kw):
        super().__init__(topo, t, **kw)
        self.flat = flat

    def issue(self, cmd, addr, now):
        out = super().issue(cmd, addr, now)
        if cmd == ACT:
            self.flat.on_act(*addr)
        return out

    def serve_rfm(self):
        aggressors = []
        for bi in range(len(self.banks)):
            counters = self.counters.get(bi, {})
            aggressor = min(counters, key=lambda r: (-counters[r], r), default=0)
            if counters:
                self._clear(bi, aggressor)
            self.flat.on_row_refreshed(bi, *victim_rows(aggressor, self.topo.rows_per_bank))
            aggressors.append(aggressor)
        return aggressors

    def _serve_ref(self):
        n = self.topo.rows_per_bank
        rows = [(self.ref_pointer + i) % n for i in range(self.rows_per_ref)]
        self.ref_pointer = (self.ref_pointer + self.rows_per_ref) % n
        for bi in range(len(self.banks)):
            self.flat.on_row_refreshed(bi, *rows)

    def refresh_rows(self, bank_idx, rows, now):
        super().refresh_rows(bank_idx, rows, now)
        self.flat.on_row_refreshed(bank_idx, *rows)


def _assert_matches_reference(dev, ref, out):
    """After a command with results `out`, the device's counters, refresh
    accounting, FSM and monitor are the reference's, and its `counters` and
    the monitor's `pair` hold exactly the banks and victims with entries."""
    assert out[0] == out[1]
    assert dev.counters == ref.counters and all(dev.counters.values())
    assert (dev.cleared_counts, dev.saturated_increments, dev.rows_at_th, dev.fsm) == (
        ref.cleared_counts, ref.saturated_increments, ref.rows_at_th, ref.fsm)
    assert dev.conservation_holds()
    mon, flat = dev.monitor, ref.flat
    assert all(victims and all(victims.values()) for victims in mon.pair.values())
    assert {(b, v, a): c for b, victims in mon.pair.items()
            for v, by_aggressor in victims.items()
            for a, c in by_aggressor.items()} == flat.flat
    assert (mon.max_pair, mon.violations) == (flat.max_pair, flat.violations)


def _replay_against_reference(ops, bits, abo_th):
    """Run `ops` on a device and on the scanning reference in lockstep,
    checking them after every command; returns how often a PRE shrank a
    bank's RFM heap (a rebuild).

    "act" opens `rows[0]` on a closed bank (an RFM instead during a back-off
    recovery or once the window's deadline has passed) and closes an open
    one; REF and RFM close every bank first; "victims" refreshes the victims
    of `rows[0]`, "rows" the rows `rows`."""
    t = desk_timing(PRAC_T)
    prac = None if abo_th is None else {"abo_th": abo_th, "bo_n_refs": 2, "bo_n_acts": 1}
    kw = dict(prac=prac, counter_bits=bits)
    dev = DeviceState(DESK, t, monitor=DisturbanceMonitor(3, 64), **kw)
    ref = _ScanningDevice(DESK, t, _FlatMonitor(3, 64), **kw)
    bus = CommandBus(dev, ref)
    rebuilds = 0

    def run(cmd, addr=None):
        nonlocal rebuilds
        heap = dev.banks[addr[0]].heap if cmd == PRE else None
        before = None if heap is None else len(heap)
        _assert_matches_reference(dev, ref, bus.issue(cmd, addr))
        rebuilds += before is not None and len(dev.banks[addr[0]].heap) < before

    for op, bank, rows in ops:
        open_row, fsm = dev.banks[bank].open_row, dev.fsm
        if op == "act" and open_row is not None:
            run(PRE, (bank, open_row))
        elif op == "act" and (fsm is None or fsm.phase == "delay" or fsm.phase == "window"
                              and bus.ready(ACT, (bank, rows[0])) <= dev.backoff_deadline):
            run(ACT, (bank, rows[0]))
        elif op in ("victims", "rows"):
            rows = victim_rows(rows[0], 64) if op == "victims" else rows
            _assert_matches_reference(dev, ref, bus.refresh_rows(bank, rows))
        else:
            for bi, b in enumerate(dev.banks):
                if b.open_row is not None:
                    run(PRE, (bi, b.open_row))
            run(REF if op == "ref" else RFMAB)
    return rebuilds


def _pairs(bank, *rows):
    """Ops for an ACT and its PRE on each of `rows` in turn."""
    return [("act", bank, [row]) for row in rows for _ in range(2)]


_RFM = ("rfm", 0, [0])
# sixty PREs over six rows of one bank between RFMs: 42 of them raise a
# counter before all saturate at 7, so the heap outgrows 2 * 6 + HEAP_SLACK
LONG_OPS = _pairs(0, 0) + [_RFM] + _pairs(0, *(r % 6 for r in range(60))) + [_RFM] * 3
# row 1's entry for count 1 goes stale under its entry for 2 and tops the
# heap, tied with row 2, after the RFM that clears row 1
STALE_OPS = _pairs(0, 0) + [_RFM] + _pairs(0, 1, 1, 2) + [_RFM] * 2
# victim 6 is refreshed between the two triples, so it reaches n_rh twice
TWICE_OPS = _pairs(1, 7, 7, 7) + [("rows", 1, [6])] + _pairs(1, 7, 7, 7)
# bank 1 holds the tallies of victims 1 and 2 but no counter, while row 0 is
# open and once a targeted refresh has cleared row 0's counter; a targeted
# refresh, an RFM (which reports row 0) and a REF must still reach them
UNCOUNTED_OPS = ([("act", 1, [0]), ("victims", 1, [0]), ("act", 1, [0])]
                 + [op for last in (_RFM, ("ref", 0, [0]))
                    for op in _pairs(1, 0) + [("rows", 1, [0]), last]])
# the top rows of a bank: row 63 is a victim of rows 61 and 62 only, and the
# targeted refresh of 62's victims clears it
EDGE_OPS = _pairs(2, 62, 63, 61, 62, 62) + [("victims", 2, [62])] + _pairs(2, 62, 63)


def _drawing(kinds, banks=(0, 1, 9, 33, 63), rows=(*range(8), *range(58, 64)), min_ops=10):
    """Draws `min_ops` to 150 ops of ACTs mixed with `kinds` on `banks` and
    `rows` (by default both ranks of 32 banks and both edges of a 64-row bank,
    where victims are clipped), with every counter width and `abo_th`."""
    ops = st.tuples(st.sampled_from(["act"] * 4 + list(kinds)), st.sampled_from(banks),
                    st.lists(st.sampled_from(rows), min_size=1, max_size=3))
    return given(ops=st.lists(ops, min_size=min_ops, max_size=150),
                 bits=st.sampled_from([2, 3, None]), abo_th=st.sampled_from([None, 2, 3]))


@_drawing(["victims", "rows", "rfm", "ref"])
@example(ops=TWICE_OPS, bits=None, abo_th=None)
@example(ops=UNCOUNTED_OPS, bits=None, abo_th=None)
@example(ops=EDGE_OPS, bits=None, abo_th=None)
@settings(max_examples=200, deadline=None)
def test_monitor_refresh_matches_scanning_reference(ops, bits, abo_th):
    """A targeted refresh walks only the tallied victims of its bank and
    leaves the monitor as the reference's scan of every tally does."""
    _replay_against_reference(ops, bits, abo_th)


@_drawing(["ref", "ref", "rows"])
@example(ops=UNCOUNTED_OPS, bits=None, abo_th=None)
@settings(max_examples=100, deadline=None)
def test_device_refresh_walk_matches_scanning_reference(ops, bits, abo_th):
    """A REF walks only the banks with tallies, keeps every counter, and
    drops tallies as the reference's scan of every bank does."""
    _replay_against_reference(ops, bits, abo_th)


# three banks of six rows, so the heaps fill, go stale and saturate
@_drawing(["rfm", "rfm", "rows"], banks=(0, 1, 33), rows=range(6), min_ops=20)
@example(ops=LONG_OPS, bits=3, abo_th=None)
@example(ops=STALE_OPS, bits=3, abo_th=None)
@settings(max_examples=300, deadline=None)
def test_indexed_rfm_matches_scanning_reference(ops, bits, abo_th):
    """An RFM served from the heaps of the counted banks reports and clears
    the rows the reference's scan of every bank does."""
    _replay_against_reference(ops, bits, abo_th)


def test_long_pre_stretch_rebuilds_the_rfm_heap():
    assert _replay_against_reference(LONG_OPS, 3, None) >= 1


def test_rfm_heap_desync_raises_naming_the_bank():
    dev = fresh_device()
    bus = CommandBus(dev)
    for row in (4, 7, 4):
        bus.act_pre(2, row)
    dev.serve_rfm()                      # builds bank 2's heap, clears row 4
    dev.banks[2].heap[:] = [(-9, 7)]     # poisoned: a stale entry only
    with pytest.raises(RuntimeError, match="bank 2"):
        dev.serve_rfm()


# ------------------------------------------------------- oracle equivalence

def test_wave_replay_realized_max_matches_prediction():
    # most aggressive PRAC-4 configuration: a row can receive 9 activations
    # at the preset's own tABO_ACT, which is not a multiple of tRC
    p = PracParams(abo_th=6, bo_n_refs=4, bo_n_acts=1)
    runs = {b0: run_wave_attack(b0, p, PRAC_T) for b0 in range(1, 65)}
    assert [r.sizes for r in runs.values()] == [prac_trajectory(b0, p, PRAC_T).sizes for b0 in runs]
    assert max(r.realized_max for r in runs.values()) == 9
    # threshold-triggered management: first-zero index of the trajectory
    res = run_wave_attack(8, PrfmParams(4), BASE_T)
    assert res.realized_max == prfm_trajectory(8, PrfmParams(4)).first_zero == 10


def test_wave_replay_rfm_cadence_is_floor_of_acts():
    res = run_wave_attack(13, PrfmParams(5), BASE_T)
    assert res.rfm_count == res.act_count // 5


def test_backoff_liveness_recovery_always_completes():
    p = PracParams(abo_th=6, bo_n_refs=4, bo_n_acts=1)
    res = run_wave_attack(19, p, PRAC_T)
    assert res.rfm_count % p.bo_n_refs == 0


def test_wave_with_periodic_refresh_never_exceeds_prediction():
    t = desk_timing(PRAC_T)
    p = PracParams(abo_th=6, bo_n_refs=4, bo_n_acts=1)
    res = run_wave_attack(32, p, t, with_ref=True)
    assert res.realized_max <= 9


def test_counter_saturation_honored():
    dev = DeviceState(DESK, BASE_T, counter_bits=3)
    CommandBus(dev).act_pre(0, 5, 12)
    assert dev.counters == {0: {5: 7}}   # 2^3 - 1, saturating
    assert dev.conservation_holds()


def test_same_bank_rfm_is_rejected():
    # the controller only issues all-bank RFMs; the device knows no other kind
    dev = fresh_device()
    bus = CommandBus(dev)
    bus.act_pre(1, 4, 3)
    assert dev.counters == {1: {4: 3}}
    with pytest.raises(ConfigError):
        bus.issue("RFMsb", (1, 4))
    assert dev.counters == {1: {4: 3}}


def test_prac_optimistic_event_sequence_matches_prac4(monkeypatch):
    # same recovery policy on different timing parameters: identical access
    # order and surviving-set sequence, timestamps aside
    p = PracParams(abo_th=6, bo_n_refs=4, bo_n_acts=1)
    base = preset("ddr5-3200an-base")
    issue, rows = DeviceState.issue, []

    def recording(dev, cmd, addr, now):   # the row of every ACT, in issue order
        if cmd == ACT:
            rows.append(addr[1])
        return issue(dev, cmd, addr, now)

    monkeypatch.setattr(DeviceState, "issue", recording)
    adjusted = run_wave_attack(17, p, PRAC_T)
    adjusted_rows, rows[:] = rows[:], []
    optimistic = run_wave_attack(17, p, base)
    assert adjusted_rows == rows
    assert len(rows) == optimistic.act_count
    assert adjusted.sizes == optimistic.sizes
    assert adjusted.realized_max == optimistic.realized_max
