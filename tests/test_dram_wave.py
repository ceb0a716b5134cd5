from collections import Counter

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


def act_pre(dev, bank, row, times=1, now=1_000_000):
    """`times` timing-legal ACT/PRE pairs on `row` from `now`, one per tRC;
    returns the time after the last, when every bank is idle again."""
    t = dev.t
    for _ in range(times):
        dev.issue(ACT, (bank, row), now)
        dev.issue(PRE, (bank, row), now + t.tRAS)
        now += t.tRC
    return now


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
    assert dev.banks[0].counters == {0: 1} and dev.banks[5].open_row == 5
    assert dev.ref_pointer == 0 and dev.counts[cmd] == 0
    dev.issue(PRE, (5, 5), 2_000_000)
    dev.issue(cmd, None, 2_000_000 + BASE_T.tRP)
    assert dev.banks[0].counters == {}


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
    assert dev.banks[0].counters[7] == 1


def test_backoff_asserts_within_signal_latency_of_the_crossing():
    dev = DeviceState(DESK, PRAC_T, prac={"abo_th": 1, "bo_n_refs": 4, "bo_n_acts": 1})
    dev.issue(ACT, (0, 3), 1_000_000)
    dev.issue(PRE, (0, 3), 1_000_000 + PRAC_T.tRAS)
    assert dev.fsm.asserts == 1 and dev.fsm.phase == "window"
    assert dev.fsm.assert_ts == 1_000_000 + PRAC_T.tRAS + PRAC_T.tBackoffSignal


def test_rows_cleared_by_the_recovery_do_not_assert_again():
    # row 9 crosses abo_th inside the window; the two recovery RFMs clear
    # rows 5 and 9, so the next arming close finds no row at the threshold
    dev = DeviceState(DESK, PRAC_T, prac={"abo_th": 2, "bo_n_refs": 2, "bo_n_acts": 1})
    now = 1_000_000

    def act_pre(row):
        nonlocal now
        dev.issue(ACT, (0, row), now)
        dev.issue(PRE, (0, row), now + PRAC_T.tRAS)
        now += PRAC_T.tRC

    act_pre(5)
    act_pre(5)
    assert dev.fsm.asserts == 1 and dev.fsm.phase == "window"
    act_pre(9)
    act_pre(9)
    assert dev.banks[0].counters == {5: 2, 9: 2} and dev.rows_at_th == 2
    for _ in range(2):
        dev.issue(RFMAB, None, max(now, dev.blocked_until))
        now = dev.blocked_until
    assert dev.fsm.phase == "delay" and dev.rows_at_th == 0
    act_pre(20)
    assert dev.fsm.asserts == 1 and dev.fsm.phase == "delay"


def test_act_rejected_during_recovery():
    dev = DeviceState(DESK, PRAC_T, prac={"abo_th": 1, "bo_n_refs": 2, "bo_n_acts": 1})
    dev.fsm.window_acts = 0   # assert leads straight to recovery
    now = 1_000_000
    dev.issue(ACT, (0, 3), now)
    dev.issue(PRE, (0, 3), now + PRAC_T.tRAS)
    with pytest.raises(ProtocolError):
        dev.issue(ACT, (0, 4), now + PRAC_T.tRC)


def test_serve_rfm_refreshes_the_hottest_rows_victims():
    mon = DisturbanceMonitor(64, 64)
    dev = fresh_device(monitor=mon)
    act_pre(dev, 0, 9, 2, now=act_pre(dev, 0, 3, 5))
    assert dev.banks[0].counters == {3: 5, 9: 2}
    aggressors = dev.serve_rfm()
    assert aggressors[0] == 3
    assert 3 not in dev.banks[0].counters
    # row 3's victims 1, 2, 4 and 5 were refreshed; row 9's were not
    assert sorted(victim for _, victim in mon.pair) == [7, 8, 10, 11]


def test_serve_rfm_fallback_row_when_all_counters_zero():
    dev = fresh_device()
    assert dev.serve_rfm() == [0] * DESK.banks_total


def test_serve_rfm_tie_break_orders():
    # row 9 is counted first, so the tie is not settled by insertion order
    dev = fresh_device()
    act_pre(dev, 0, 3, 5, now=act_pre(dev, 0, 9, 5))
    assert dev.banks[0].counters == {9: 5, 3: 5}
    assert dev.serve_rfm()[0] == 3


def test_ref_covers_the_bank_in_one_window():
    t = desk_timing(BASE_T)
    mon = DisturbanceMonitor(64, 64)
    mon.on_act(0, 40)                     # bank 0 holds tallies, so REFs report it
    refreshed = []
    mon.on_row_refreshed = lambda bank, *rows: refreshed.extend(rows)
    dev = DeviceState(DESK, t, monitor=mon)
    assert dev.rows_per_ref == 8  # 64 rows / (tREFW/tREFI = 8)
    now = 1_000_000
    for _ in range(8):
        assert dev.issue(REF, None, now) is None
        now += t.tREFI
    assert sorted(refreshed) == list(range(64))  # each row exactly once


def test_ref_resets_prac_counters_of_refreshed_rows():
    t = desk_timing(BASE_T)
    dev = DeviceState(DESK, t)
    dev.issue(ACT, (0, 2), 1_000_000)
    dev.issue(PRE, (0, 2), 1_000_000 + t.tRAS)
    assert dev.banks[0].counters[2] == 1
    dev.issue(REF, None, 2_000_000)   # pointer starts at row 0, covers 0..7
    assert 2 not in dev.banks[0].counters


def test_conservation_of_activation_counts():
    result = run_wave_attack(16, PrfmParams(4), BASE_T)
    # re-run manually to inspect the device is impossible here; use a device
    dev = fresh_device()
    now = 1_000_000
    for row in (1, 2, 3, 1, 2, 1):
        now = act_pre(dev, 0, row, now=now)
    assert dev.conservation_holds()
    dev.serve_rfm()
    assert dev.conservation_holds()
    assert result.act_count == sum(result.sizes[:-1] or [0])


def test_monitor_counts_neighbors_and_resets_on_refresh():
    mon = DisturbanceMonitor(4, 64)
    for _ in range(3):
        mon.on_act(0, 10)
    assert mon.pair[0, 9] == {10: 3}
    assert mon.pair[0, 12] == {10: 3}
    assert not mon.violations
    mon.on_row_refreshed(0, 9)
    assert (0, 9) not in mon.pair
    mon.on_act(0, 10)
    assert mon.pair[0, 11] == {10: 4}
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


def _assert_matches_flat(mon, ref):
    """The monitor's tallies, flattened, are the reference's; each bank's
    `tallies` counts its tallied victims, and no victim entry is empty."""
    assert all(mon.pair.values())
    assert {(b, v, a): c for (b, v), by_aggressor in mon.pair.items()
            for a, c in by_aggressor.items()} == ref.flat
    victims = {(b, v) for b, v, _ in ref.flat}
    assert {b: n for b, n in mon.tallies.items() if n} == Counter(b for b, _ in victims)
    assert mon.max_pair == ref.max_pair
    assert mon.violations == ref.violations


@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 3),
                              st.lists(st.integers(0, 15), min_size=1, max_size=3)),
                    max_size=300))
# victim 6 is refreshed between the two triples, so it reaches n_rh twice
@example(ops=[(True, 1, [7])] * 3 + [(False, 1, [6])] + [(True, 1, [7])] * 3)
@settings(max_examples=200, deadline=None)
def test_monitor_refresh_matches_scanning_reference(ops):
    fast, ref = DisturbanceMonitor(3, 16), _FlatMonitor(3, 16)
    for is_act, bank, rows in ops:
        for mon in (fast, ref):
            if is_act:
                mon.on_act(bank, rows[0])
            else:
                mon.on_row_refreshed(bank, *rows)
        _assert_matches_flat(fast, ref)


@given(ops=st.lists(st.tuples(st.sampled_from(["act", "act", "ref", "rfm", "rows"]),
                              st.integers(0, 3), st.integers(0, 63)), max_size=150),
       ref_resets=st.booleans())
@settings(max_examples=100, deadline=None)
def test_device_refresh_walk_matches_scanning_reference(ops, ref_resets):
    """REF, RFM and targeted refreshes skip banks without tallies; the monitor
    ends up as if every refreshed row of every bank had been reported."""
    t = desk_timing(BASE_T)
    mon, ref = DisturbanceMonitor(5, 64), _FlatMonitor(5, 64)
    dev = DeviceState(DESK, t, monitor=mon, ref_resets_counters=ref_resets)
    now = 1_000_000
    ref_start = 0   # the reference's REF pointer: REFs walk groups of 8 rows
    for op, bank, row in ops:
        now = max(now, dev.blocked_until)
        if op == "act":
            dev.issue(ACT, (bank, row), now)
            dev.issue(PRE, (bank, row), now + t.tRAS)
            ref.on_act(bank, row)
            now += t.tRC
        elif op == "ref":
            assert dev.issue(REF, None, now) is None
            for bi in range(DESK.banks_total):
                ref.on_row_refreshed(bi, *range(ref_start, ref_start + 8))
            ref_start = (ref_start + 8) % 64
        elif op == "rfm":
            aggressors = dev.issue(RFMAB, None, now)
            assert len(aggressors) == DESK.banks_total
            for bi, aggressor in enumerate(aggressors):
                ref.on_row_refreshed(bi, *victim_rows(aggressor, 64))
        else:
            victims = victim_rows(row, 64)
            dev.refresh_rows(bank, victims, now)
            ref.on_row_refreshed(bank, *victims)
            now += len(victims) * t.tRC   # the refreshes occupy the bank
        _assert_matches_flat(mon, ref)
        assert dev.conservation_holds()


COUNTED_OPS = st.tuples(st.sampled_from(["act", "act", "act", "rfm", "ref", "rows"]),
                        st.sampled_from([0, 1, 9, 33, 63]), st.integers(0, 15))


@given(ops=st.lists(COUNTED_OPS, max_size=150), resets=st.booleans())
@settings(max_examples=200, deadline=None)
def test_counted_banks_follow_the_counters(ops, resets):
    """After every command, `counted_banks` is the set of banks holding
    counters, and an RFM's report, the cleared counter mass and the
    conservation balance equal a scan of every bank. "act" opens `row` on a
    closed bank and closes an open one; REF and RFM close every bank first."""
    t = desk_timing(BASE_T)
    dev = DeviceState(DESK, t, ref_resets_counters=resets, counter_bits=3)
    banks = dev.banks
    now = 1_000_000

    def run(cmd, addr):
        nonlocal now
        if cmd == ACT:
            ready = banks[addr[0]].act_ok
        elif cmd == PRE:
            ready = banks[addr[0]].pre_ok
        else:
            ready = dev.idle_at
        now = max(now, dev.blocked_until, ready)
        out = dev.issue(cmd, addr, now)
        assert dev.counted_banks == {i for i, b in enumerate(banks) if b.counters}
        held = sum(sum(b.counters.values()) for b in banks)
        assert dev.counts[PRE] == held + dev.cleared_counts + dev.saturated_increments
        assert dev.conservation_holds()
        return out

    for op, bank, row in ops:
        if op == "act":
            open_row = banks[bank].open_row
            if open_row is None:
                run(ACT, (bank, row))
            else:
                run(PRE, (bank, open_row))
            continue
        for bi, b in enumerate(banks):
            if b.open_row is not None:
                run(PRE, (bi, b.open_row))
        if op == "rows":
            rows = victim_rows(row, 64)
            cleared = dev.cleared_counts + sum(banks[bank].counters.get(r, 0) for r in rows)
            now = max(now, banks[bank].act_ok)
            dev.refresh_rows(bank, rows, now)
            assert dev.counted_banks == {i for i, b in enumerate(banks) if b.counters}
            assert dev.cleared_counts == cleared and dev.conservation_holds()
        elif op == "ref":
            rows = {(dev.ref_pointer + i) % 64 for i in range(dev.rows_per_ref)}
            cleared = dev.cleared_counts + resets * sum(
                c for b in banks for r, c in b.counters.items() if r in rows)
            assert run(REF, None) is None and dev.cleared_counts == cleared
        else:
            hottest = [min(b.counters, key=lambda r: (-b.counters[r], r)) if b.counters else 0
                       for b in banks]
            cleared = dev.cleared_counts + sum(
                b.counters[r] for b, r in zip(banks, hottest) if b.counters)
            assert run(RFMAB, None) == hottest and dev.cleared_counts == cleared


class _ScanningDevice(DeviceState):
    """Reference: each bank's hottest row found by scanning all its counters."""

    def serve_rfm(self):
        aggressors = []
        monitor = self.monitor
        tallies = {} if monitor is None else monitor.tallies
        for bi, b in enumerate(self.banks):
            aggressor = 0
            if b.counters:
                best = max(b.counters.values())
                rows = [r for r, c in b.counters.items() if c == best]
                aggressor = min(rows)
                self._clear(bi, aggressor)
            if tallies.get(bi):
                monitor.on_row_refreshed(bi, *victim_rows(aggressor, self.topo.rows_per_bank))
            aggressors.append(aggressor)
        return aggressors


RFM_OPS = st.tuples(st.sampled_from(["act", "act", "act", "act", "rfm", "rfm", "ref", "rows"]),
                    st.integers(0, 2), st.integers(0, 5), st.booleans())
# sixty PREs over six rows of one bank between RFMs: 42 of them raise a
# counter before all saturate at 7, so the heap outgrows 2 * 6 + HEAP_SLACK
LONG_OPS = ([("act", 0, 0, False), ("rfm", 0, 0, False)]
            + [("act", 0, r % 6, False) for r in range(60)] + [("rfm", 0, 0, False)] * 3)
# row 1's entry for count 1 goes stale under its entry for 2 and tops the
# heap, tied with row 2, after the RFM that clears row 1
STALE_OPS = [("act", 0, 0, False), ("rfm", 0, 0, False), ("act", 0, 1, False),
             ("act", 0, 1, False), ("act", 0, 2, False), ("rfm", 0, 0, False),
             ("rfm", 0, 0, False)]


def _replay_against_scan(ops, bits, resets, abo_th):
    """Run `ops` on an indexed device and on the scanning reference; return
    how often a PRE shrank a bank's heap (a rebuild)."""
    t = desk_timing(PRAC_T)
    prac = None if abo_th is None else {"abo_th": abo_th, "bo_n_refs": 2, "bo_n_acts": 1}
    devs = [cls(DESK, t, prac=prac, ref_resets_counters=resets,
                monitor=DisturbanceMonitor(6, 64), counter_bits=bits)
            for cls in (DeviceState, _ScanningDevice)]
    fast, ref = devs
    rebuilds = 0
    now = 1_000_000
    for op, bank, row, flag in ops:
        now = max(now, fast.blocked_until, fast.idle_at)
        if op == "act" and fast.fsm is not None and fast.fsm.phase == "recovery":
            op = "rfm"   # no ACT during recovery
        heap = fast.banks[bank].heap
        before = None if heap is None else len(heap)
        out = []
        for dev in devs:
            if op == "act":
                dev.issue(ACT, (bank, row), now)
                out.append(dev.issue(PRE, (bank, row), now + t.tRAS))
            elif op == "rfm":
                out.append(dev.issue(RFMAB, None, now))
            elif op == "ref":
                out.append(dev.issue(REF, None, now))
            else:
                out.append(dev.refresh_rows(bank, victim_rows(row, 64) if flag else (row,), now))
        if op == "act" and before is not None and len(fast.banks[bank].heap) < before:
            rebuilds += 1
        assert out[0] == out[1]
        assert [b.counters for b in fast.banks] == [b.counters for b in ref.banks]
        assert fast.cleared_counts == ref.cleared_counts
        assert fast.rows_at_th == ref.rows_at_th
        assert fast.fsm == ref.fsm
        assert fast.monitor.pair == ref.monitor.pair
        assert fast.conservation_holds()
    return rebuilds


@given(ops=st.lists(RFM_OPS, max_size=120), bits=st.sampled_from([2, 3]),
       resets=st.booleans(), abo_th=st.sampled_from([None, 2, 3]))
@example(ops=LONG_OPS, bits=3, resets=False, abo_th=None)
@example(ops=STALE_OPS, bits=3, resets=False, abo_th=None)
@settings(max_examples=300, deadline=None)
def test_indexed_rfm_matches_scanning_reference(ops, bits, resets, abo_th):
    """RFM through the per-bank heap gives the scan's events, counters,
    cleared mass, rows at abo_th and monitor state after every command."""
    _replay_against_scan(ops, bits, resets, abo_th)


def test_long_pre_stretch_rebuilds_the_rfm_heap():
    assert _replay_against_scan(LONG_OPS, 3, False, None) >= 1


def test_rfm_heap_desync_raises_naming_the_bank():
    dev = fresh_device()
    now = 1_000_000
    for row in (4, 7, 4):
        now = act_pre(dev, 2, row, now=now)
    dev.serve_rfm()                      # builds bank 2's heap, clears row 4
    dev.banks[2].heap[:] = [(-9, 7)]     # poisoned: a stale entry only
    with pytest.raises(RuntimeError, match="bank 2"):
        dev.serve_rfm()


# ------------------------------------------------------- oracle equivalence

def test_wave_replay_matches_prfm_closed_form_sample():
    for b0, th in ((8, 4), (1, 1), (5, 4), (17, 3), (64, 5), (33, 7)):
        traj = prfm_trajectory(b0, PrfmParams(th))
        res = run_wave_attack(b0, PrfmParams(th), BASE_T)
        assert res.sizes == traj.sizes, (b0, th)


def test_wave_replay_matches_prac_closed_form_sample():
    for b0 in (1, 2, 5, 9, 16, 21, 33):
        for refs in (1, 2, 4):
            p = PracParams(abo_th=6, bo_n_refs=refs, bo_n_acts=1)
            traj = prac_trajectory(b0, p, PRAC_T)
            res = run_wave_attack(b0, p, PRAC_T)
            assert res.sizes == traj.sizes, (b0, refs)


def test_wave_replay_realized_max_matches_prediction():
    # most aggressive PRAC-4 configuration: a row can receive 9 activations
    p = PracParams(abo_th=6, bo_n_refs=4, bo_n_acts=1)
    worst = max(run_wave_attack(b0, p, PRAC_T).realized_max for b0 in range(1, 65))
    assert worst == 9
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
    act_pre(dev, 0, 5, 12)
    assert dev.banks[0].counters[5] == 7   # 2^3 - 1, saturating
    assert dev.conservation_holds()


def test_same_bank_rfm_is_rejected():
    # the controller only issues all-bank RFMs; the device knows no other kind
    dev = fresh_device()
    now = act_pre(dev, 1, 4, 3)
    assert dev.banks[1].counters == {4: 3}
    with pytest.raises(ConfigError):
        dev.issue("RFMsb", (1, 4), now)
    assert dev.banks[1].counters == {4: 3} and dev.counted_banks == {1}


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
