import random
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import command_log
from pracsim.cli import MECHANISMS, _mechanism
from pracsim.controller import (
    MOP_GROUP_BLOCKS,
    READ_QUEUE_DEPTH,
    WRITE_QUEUE_DEPTH,
    MemoryController,
    inverse_map_address,
    map_address,
)
from pracsim.dram import BURST_PS, DeviceState, Topology
from pracsim.mitigations import NoMitigation, PracN, PracPlusPrfm, Prfm, counter_width
from pracsim.security import PracParams, PrfmParams
from pracsim.timing import ConfigError, preset
from pracsim.workloads import StopCondition, TraceRecord, desk_timing, run_cores

TOPO = Topology()
DESK = Topology.desk()
BASE = preset("ddr5-3200an-base")
T_DESK = desk_timing(BASE)
T_DESK_PRAC = desk_timing(preset("ddr5-3200an-prac"))


def make(mit=NoMitigation(), t=T_DESK, topo=DESK, prac=None):
    dev = DeviceState(topo, t, prac=prac)
    return dev, MemoryController(topo, t, dev, mit)


# ------------------------------------------------------------- address map

def test_address_zero_maps_to_origin():
    assert map_address(TOPO, 0) == (0, 0, 0, 0, 0)


def test_bankgroup_bits_change_bankgroup_only():
    a = map_address(TOPO, 0)
    b = map_address(TOPO, 64 * 4)      # one MOP group further
    assert b[1] == a[1] + 1
    assert (b[0], b[2], b[3]) == (a[0], a[2], a[3])


def test_linear_stream_bursts_per_bank_equal_mop_group():
    # a linear stream stays in one bank for exactly one column group before
    # striping across bank groups; every burst lands in the same row
    group = MOP_GROUP_BLOCKS
    cur_key, run = None, 0
    for block in range(4096):
        rank, bg, bank, row, col = map_address(TOPO, block * 64)
        key = (rank, bg, bank, row)
        if key == cur_key:
            run += 1
        else:
            if cur_key is not None:
                assert run == group
            cur_key, run = key, 1
    assert run == group


def test_map_roundtrip():
    for addr in (0, 64, 8192, 1 << 20, (1 << 28) + 64 * 37):
        rank, bg, bank, row, col = map_address(TOPO, addr)
        assert inverse_map_address(TOPO, rank, bg, bank, row, col) == addr


def test_address_out_of_range():
    with pytest.raises(ConfigError):
        map_address(DESK, DESK.rows_total * DESK.row_size_bytes)


@pytest.mark.parametrize("topo", [DESK, TOPO], ids=["desk", "fullsize"])
def test_enqueue_decodes_as_map_address(topo):
    """The controller's own decode of each request is map_address's layout,
    and it refuses what map_address refuses."""
    capacity = topo.rows_total * topo.row_size_bytes
    rng = random.Random(7)
    addrs = [0, 64, capacity - 1] + [rng.randrange(capacity) for _ in range(2000)]
    dev, ctrl = make(topo=topo)
    for i, addr in enumerate(addrs):
        if not ctrl.can_accept(False):
            dev, ctrl = make(topo=topo)
        req = ctrl.enqueue(0, addr, False, i)
        rank, bg, bank, row, _ = map_address(topo, addr)
        assert (req.bank_idx, req.row) == (dev.bank_index(rank, bg, bank), row)
    for addr in (-64, capacity, capacity + 4096):
        with pytest.raises(ConfigError) as decoded:
            ctrl.enqueue(0, addr, False, 0)
        with pytest.raises(ConfigError) as mapped:
            map_address(topo, addr)
        assert str(decoded.value) == str(mapped.value)


# ------------------------------------------------------------- scheduling

def test_frfcfs_cap_forces_the_old_miss_after_four_hits():
    # one bank, row 0 open: old misses, then five younger hits on row 0.
    # An old read miss (row 9, id 0): the hits are ids 1..5, four bypass it,
    # then the miss. An older write miss (row 9, id 0) ahead of a read miss
    # (row 7, id 1): the write is no candidate while reads wait, so the hits
    # (ids 2..6) bypass only the read miss, and never the write.
    for misses, expect, bypassed in ((((9, False),), [1, 2, 3, 4, 0, 5], [4]),
                                     (((9, True), (7, False)), [2, 3, 4, 5, 1, 6], [0, 4])):
        dev, ctrl = make()
        dev.issue("ACT", (0, 0), 0)
        old = [ctrl.enqueue(0, inverse_map_address(DESK, 0, 0, 0, row, 0), is_write, 10 + i)
               for i, (row, is_write) in enumerate(misses)]
        for i in range(5):
            ctrl.enqueue(0, inverse_map_address(DESK, 0, 0, 0, 0, i), False, 20 + i)
        now = 1_000_000
        for _ in range(60):
            now = max(ctrl.step(now), now + 1)
            if not ctrl.bank_q:
                break
        assert not ctrl.bank_q
        assert dev.counts["RD"] == 6
        order = [req.req_id for _, req in sorted(ctrl.completions, key=lambda c: c[0])]
        assert order == expect
        assert [req.bypassed for req in old] == bypassed


def test_out_of_order_read_completion_raises():
    _, ctrl = make()
    first = ctrl.enqueue(0, 0, False, 0)
    second = ctrl.enqueue(0, 64, False, 0)
    ctrl._finish(first, 2_000_000)
    with pytest.raises(RuntimeError, match="precedes"):
        ctrl._finish(second, 1_000_000)


def test_ref_happens_on_cadence_when_idle():
    dev, ctrl = make()
    now = 0
    for _ in range(30):
        now = max(ctrl.step(now), now + 1)
        if dev.counts["REF"] >= 3:
            break
    assert dev.counts["REF"] >= 3


def test_prfm_rfm_count_matches_bank_act_floor():
    trace = [TraceRecord(2, "read", inverse_map_address(DESK, 0, 0, 0, i % 8, 0))
             for i in range(64)]
    dev, ctrl = make(Prfm(PrfmParams(4)))
    run_cores([trace], ctrl, StopCondition(None, 2_000_000))
    residual = sum(ctrl.raa)
    assert dev.counts["RFMab"] == (dev.counts["ACT"] - residual) // 4


def test_backoff_deadline_never_overrun_and_recovery_complete():
    trace = [TraceRecord(0, "read", inverse_map_address(DESK, 0, 0, 0, i % 2, 0))
             for i in range(400)]
    prac = {"abo_th": 8, "bo_n_refs": 4, "bo_n_acts": 1}
    dev, ctrl = make(PracN(PracParams(8, 4, 1)), t=T_DESK_PRAC, prac=prac)
    run_cores([trace], ctrl, StopCondition(None, 3_000_000))
    assert dev.fsm.asserts > 0
    assert dev.counts["RFMab"] == dev.fsm.asserts * 4
    assert dev.min_deadline_slack is not None and dev.min_deadline_slack >= 0
    assert dev.fsm.phase in ("delay", "window")


def test_prfm_rfm_that_opens_a_recovery_is_held_to_the_deadline():
    # a PRFM RFM whose row closes assert a back-off is the recovery's first
    # RFM and ends the window early; the window's ACTs before it still
    # issue by the deadline
    trace = [TraceRecord(0, "read", inverse_map_address(DESK, 0, i % 3, 0, (i // 3) % 5, 0))
             for i in range(3000)]
    prac = {"abo_th": 4, "bo_n_refs": 2, "bo_n_acts": 1}
    dev, ctrl = make(PracPlusPrfm(PracParams(4, 2, 1), PrfmParams(16)), t=T_DESK_PRAC, prac=prac)
    res = run_cores([trace], ctrl, StopCondition(None, 10 ** 9))
    assert res.instructions[0] == 3000 and dev.fsm.asserts > 0
    assert dev.min_deadline_slack is not None and dev.min_deadline_slack >= 0


def _desk_addr(bankgroup: int, row: int, column: int = 0) -> int:
    """Rank 0, bank 0 of `bankgroup`: bank index 4 * bankgroup on the desk."""
    return inverse_map_address(DESK, 0, bankgroup, 0, row, column)


def test_select_orders_columns_first_then_oldest_act_and_holds_prfm_acts():
    floor = 1_000_000   # every command below is ready before this time

    # a column command beats an older ACT
    dev, ctrl = make()
    dev.issue("ACT", (0, 0), 0)
    ctrl.enqueue(0, _desk_addr(1, 3), False, 10)
    col = ctrl.enqueue(0, _desk_addr(0, 0), False, 20)
    assert ctrl._select(floor, None)[0] == floor
    assert ctrl._select(floor, None)[4:6] == ("RD", col)

    # between two ready ACTs the older arrival wins, not the lower id or bank
    dev, ctrl = make()
    ctrl.enqueue(0, _desk_addr(0, 5), False, 20)
    older = ctrl.enqueue(0, _desk_addr(1, 3), False, 10)
    assert ctrl._select(floor, None)[4:6] == ("ACT", older)

    # an ACT on a bank at the PRFM threshold (its RFM would close every row)
    # waits while a column command is pending, even one ready later
    th = 4
    for raa, with_col, expect in ((th - 1, True, "ACT"), (th, True, "RD"), (th, False, "ACT")):
        dev, ctrl = make(Prfm(PrfmParams(th)))
        dev.issue("ACT", (0, 0), 0)          # bank 0 reads only after tRCD
        ctrl.raa[4] = raa
        ctrl.enqueue(0, _desk_addr(1, 3), False, 10)
        if with_col:
            ctrl.enqueue(0, _desk_addr(0, 0), False, 20)
        now = dev.blocked_until
        assert dev.banks[0].col_ok > now      # the ACT alone is ready at now
        assert ctrl._select(now, None)[4] == expect


def _drive(ctrl, requests, end, probes):
    """Step `ctrl` at each time it returns until `end`, enqueueing up to two
    of `requests` before each step. With `probes`, also step at that many
    times between each step and the time it returned, which must return the
    same time. Returns the returned times."""
    now, i, times = 0, 0, []
    while now < end:
        for _ in range(2):
            if i < len(requests) and ctrl.can_accept(requests[i][1]):
                ctrl.enqueue(0, *requests[i], now)
                i += 1
        nxt = ctrl.step(now)
        for k in range(1, probes + 1):
            mid = now + (nxt - now) * k // (probes + 1)
            if mid > now:
                assert ctrl.step(mid) == nxt
        times.append(nxt)
        now = nxt
    return times


@pytest.mark.parametrize("mit,t,prac", [
    (PracN(PracParams(4, 2, 1)), T_DESK_PRAC, {"abo_th": 4, "bo_n_refs": 2, "bo_n_acts": 1}),
    (Prfm(PrfmParams(8)), T_DESK, None),
], ids=["prac", "prfm"])
def test_step_between_returned_times_changes_nothing(mit, t, prac):
    # the candidate index carries every bank's choice between steps; stepping
    # at intermediate times, when nothing is due, must give the run stepped
    # only when due
    requests = [(_desk_addr(i % 3, (i * 7) % 5), i % 4 == 3) for i in range(500)]
    runs = []
    for probes in (0, 3):
        dev, ctrl = make(mit, t=t, prac=prac)
        times = _drive(ctrl, requests, 3 * t.tREFI, probes)
        runs.append((times, dict(dev.counts), ctrl.read_latencies,
                     [(done, req.req_id) for done, req in ctrl.completions]))
    assert runs[0] == runs[1]
    counts = runs[0][1]
    assert counts["REF"] >= 2 and counts["RFMab"] > 0 and counts["WR"] > 0
    if prac is not None:
        assert dev.fsm.asserts > 0


def test_a_late_step_or_an_enqueue_decides_afresh():
    # a step past the returned time: the read issues then, not at the time
    # the last step returned
    dev, ctrl = make()
    ctrl.enqueue(0, 0, False, 0)
    due = ctrl.step(0)                    # the ACT issued; the read waits for tRCD
    late = due + 10_000
    ctrl.step(late)
    assert [t for t, _ in ctrl.completions] == [late + T_DESK.tCL + BURST_PS]

    # an enqueue before the returned time: its ACT, ready earlier than the
    # queued read's RD, issues at once
    dev, ctrl = make()
    ctrl.enqueue(0, _desk_addr(1, 3), False, 0)
    due = ctrl.step(0)
    mid = due // 2
    ctrl.enqueue(0, _desk_addr(0, 5), False, mid)
    assert ctrl.step(mid) == due
    assert dev.counts["ACT"] == 2 and dev.banks[0].open_row == 5


def _step_to_stop(ctrl, now, until):
    """Step `ctrl` at each time it returns, with no horizon, until a core could
    act: the returned time reaches `until` or the first queued completion, or
    a full queue gained a free slot. Returns the last returned time."""
    while True:
        full = [is_write for is_write in (False, True) if not ctrl.can_accept(is_write)]
        now = ctrl.step(now)
        if (now >= until or any(ctrl.can_accept(is_write) for is_write in full)
                or (ctrl.completions and now >= ctrl.completions[0][0])):
            return now


@pytest.mark.parametrize("stop,requests,writes,until", [
    ("wake", 40, True, T_DESK.tREFI + T_DESK.tRFC + 300_000),
    ("all-done", 40, True, 0),
    ("completion", 40, False, 10 * T_DESK.tREFI),
    ("full read queue", READ_QUEUE_DEPTH, False, 10 * T_DESK.tREFI),
    ("full write queue", WRITE_QUEUE_DEPTH, True, 10 * T_DESK.tREFI),
])
def test_one_step_to_the_horizon_matches_stepping_at_every_returned_time(stop, requests,
                                                                         writes, until):
    # REF falls due just after the start, inside every horizon but the last
    # (0), so the run-ahead passes it; each case ends on its own stop
    start = T_DESK.tREFI - 1
    runs = []
    for horizon in (True, False):
        dev, ctrl = make()
        for i in range(requests):
            ctrl.enqueue(0, _desk_addr(i % 3, (i * 7) % 5), writes, start)
        nxt = ctrl.step(start, until) if horizon else _step_to_stop(ctrl, start, until)
        runs.append((nxt, dict(dev.counts), ctrl.read_latencies,
                     [(done, req.req_id) for done, req in ctrl.completions]))
    assert runs[0] == runs[1]
    nxt, counts, _, completions = runs[0]
    assert counts["REF"] == (stop != "all-done")
    assert ctrl.bank_q   # work remains past the stop
    if stop == "wake":
        assert nxt >= until and not completions
    elif stop == "completion":
        assert nxt >= completions[0][0]
    elif stop.startswith("full"):
        assert ctrl.queued_reads + ctrl.queued_writes == requests - 1
        assert not completions or nxt < completions[0][0]


def test_a_ref_due_at_a_commands_time_goes_first_inside_the_horizon():
    # the read's RD falls due exactly at tREFI; stepped at the time it returns,
    # the controller issues the REF first, so one step to a far horizon must too
    start, until = T_DESK.tREFI - T_DESK.tRCD, 10 * T_DESK.tREFI
    runs = []
    for horizon in (True, False):
        dev, ctrl = make()
        dev.issue("ACT", (0, 0), start)
        ctrl.enqueue(0, _desk_addr(0, 0), False, start)
        nxt = ctrl.step(start, until) if horizon else _step_to_stop(ctrl, start, until)
        runs.append((nxt, dict(dev.counts), ctrl.read_latencies,
                     [(done, req.req_id) for done, req in ctrl.completions]))
    assert runs[0] == runs[1]
    assert runs[0][1]["REF"] == 1 and runs[0][1]["ACT"] == 2   # the REF closed the row


# ------------------------------------------------------- reference controller

class _UncachedController(MemoryController):
    """Reference: every queued bank's choice, and the miss its hit bypasses,
    rebuilt at every _select, and no horizon: run_cores steps it at every
    time it returns."""

    def _select(self, now, deadline):
        self._choices.clear()
        self._stale.update(self.bank_q)
        return super()._select(now, deadline)

    def step(self, now, until=0):
        return super().step(now)


def _logged_run(cls, kind, sec, traces):
    """Run `traces` under `kind` on the desk; returns every device command and
    preventive refresh with its time, the run's IPCs, instructions, end time
    and read latencies, and the back-off FSM."""
    t = desk_timing(preset(MECHANISMS[kind][0]))
    mit = _mechanism(kind, 16, sec, DESK, t)
    dev = DeviceState(DESK, t, prac=None if mit.prac is None else asdict(mit.prac),
                      counter_bits=counter_width(16))
    log = []
    ctrl = cls(DESK, t, dev, mit, seed=3)
    with command_log(log.append):
        res = run_cores(traces, ctrl, StopCondition(None, 400_000))
    return log, res.ipcs, res.instructions, res.end_ps, res.read_latencies, dev.fsm


_RECORD = st.tuples(st.integers(0, 6), st.booleans(), st.integers(0, 3), st.integers(0, 5),
                    st.integers(0, 15))


# three cores of mostly writes fill the write queue past DRAIN_HIGH, which
# the drawn traces seldom do, so drain-mode flips meet the reference too
_WRITE_FLOOD = [[(i % 3, i % 5 != 0, (i * 7 + c) % 4, (i * 3 + c) % 6, i % 16)
                 for i in range(120)] for c in range(3)]
# three cores of back-to-back reads fill the read queue, so the horizon's stop
# at a freed read slot meets the reference on every run, not on a rare draw
_READ_FLOOD = [[(0, False, (i + c) % 4, (i * 5 + c) % 6, i % 16) for i in range(120)]
               for c in range(3)]


@example(kind="prac", attacker=False, cores=_WRITE_FLOOD, abo_th=2, refs=1, rfm_th=3)
@example(kind="none", attacker=False, cores=_READ_FLOOD, abo_th=2, refs=1, rfm_th=3)
@given(kind=st.sampled_from(tuple(MECHANISMS)), attacker=st.booleans(),
       cores=st.lists(st.lists(_RECORD, min_size=1, max_size=60), min_size=1, max_size=3),
       abo_th=st.integers(1, 4), refs=st.sampled_from([1, 2, 4]), rfm_th=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_controller_matches_the_uncached_reference(kind, attacker, cores, abo_th, refs,
                                                   rfm_th):
    """The candidate index, with the bypassed miss each choice carries, and
    the horizon change no command, time or IPC.
    Requests to banks 0, 1, 4 and 8 (bank groups 0-2 of rank 0) and rows 0-5
    keep conflicts, hits and PRAC back-offs frequent; with `attacker`, a
    first core hammers four rows of bank 12 with no bubbles."""
    places = [(0, 0), (0, 1), (1, 0), (2, 0)]   # (bankgroup, bank)
    traces = [[TraceRecord(bubble, "write" if write else "read",
                           inverse_map_address(DESK, 0, *places[p], row, col))
               for bubble, write, p, row, col in records] for records in cores]
    if attacker:
        traces.insert(0, [TraceRecord(0, "read", inverse_map_address(DESK, 0, 3, 0, i % 4, 0))
                          for i in range(80)])
    sec = {"abo_th": abo_th, "bo_n_refs": refs, "bo_n_acts": 1, "rfm_th": rfm_th}
    assert (_logged_run(MemoryController, kind, sec, traces)
            == _logged_run(_UncachedController, kind, sec, traces))
