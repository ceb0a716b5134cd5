from itertools import accumulate

import pytest

from pracsim.cli import resolve_spec, run_mix
from pracsim.controller import BLOCK_BYTES, MemoryController
from pracsim.dram import DeviceState, Topology
from pracsim.mitigations import NoMitigation
from pracsim.timing import ConfigError, preset
from pracsim.workloads import (
    CLASS_BANDS,
    MixSpec,
    StopCondition,
    TraceRecord,
    build_mixes,
    desk_timing,
    gen_synthetic,
    materialize_mix,
    run_cores,
)

DESK = Topology.desk()
T_DESK = desk_timing(preset("ddr5-3200an-base"))
DESK_BLOCKS = DESK.rows_total * DESK.row_size_bytes // BLOCK_BYTES


def desk_trace(cls: str, seed: int, length: int, max_instructions=None) -> list:
    """A synthetic trace over the whole desk address space."""
    return gen_synthetic(cls, seed, length, 0, DESK_BLOCKS, DESK, max_instructions)


def fresh_controller(topo=DESK, t=T_DESK):
    dev = DeviceState(topo, t)
    return MemoryController(topo, t, dev, NoMitigation())


def measure_rbmpki(trace: list, topo: Topology, t) -> float:
    """Row-buffer misses per kilo-instruction on the reference controller,
    measured solo with no mitigation."""
    result = run_cores([trace], fresh_controller(topo, t), StopCondition(None, 30_000_000))
    instrs = result.instructions[0]
    return 0.0 if instrs == 0 else 1000.0 * result.controller_stat["acts"] / instrs


# ------------------------------------------------------------- generation

def test_same_seed_is_bit_identical():
    a = desk_trace("H", 7, 500)
    b = desk_trace("H", 7, 500)
    assert a == b


def test_different_seeds_differ():
    a = desk_trace("H", 7, 500)
    b = desk_trace("H", 8, 500)
    assert a != b


def test_too_short_trace_rejected():
    with pytest.raises(ConfigError):
        desk_trace("H", 1, 10)


@pytest.mark.parametrize("cls", ["H", "M", "L"])
def test_rbmpki_lands_in_class_band(cls):
    tr = desk_trace(cls, 3, 1500)
    got = measure_rbmpki(tr, DESK, T_DESK)
    lo, hi = CLASS_BANDS[cls]
    if lo is not None:
        assert got >= lo, (cls, got)
    if hi is not None:
        assert got < hi, (cls, got)


@pytest.mark.parametrize("seed", [0, 5, 91])
@pytest.mark.parametrize("cls", ["H", "M", "L"])
def test_budget_bounded_trace_is_the_prefix_a_core_reads(cls, seed):
    full = desk_trace(cls, seed, 1500)
    total = list(accumulate(r.bubble_count + 1 for r in full))
    for budget in (1, 64, 2_000, 40_000, total[-1], total[-1] + 1):
        # ends at the first record that brings the instructions to the budget
        end = next((i + 1 for i, n in enumerate(total) if n >= budget), len(full))
        assert desk_trace(cls, seed, 1500, budget) == full[:end], budget
    # a core with the budget stops fetching at that same record
    end = next(i + 1 for i, n in enumerate(total) if n >= 2_000)
    res = run_cores([full], fresh_controller(), StopCondition(2_000, 10 ** 9))
    assert res.instructions == [total[end - 1]]


BOUNDED_MIXES = (0, 3, 5)   # HHHH, HHMM, LLHH


@pytest.mark.parametrize("workload, stopped_by", [
    ({"instructions_per_core": 3_000, "max_cycles": 3_000_000}, "budget"),
    ({"instructions_per_core": 3_000, "max_cycles": 5_000}, "cap"),
    ({"instructions_per_core": 10 ** 8, "max_cycles": 3_000_000}, "trace end"),
], ids=["budget", "cap", "beyond-the-trace"])
def test_run_mix_reads_the_same_from_bounded_traces(workload, stopped_by):
    """run_mix generates traces that end at the instruction budget; passing
    it the full-length traces instead gives the same report row."""
    spec = resolve_spec({"mitigation": {"kind": "prac+prfm", "n_rh": 64, "abo_th": 12,
                                        "rfm_th": 4},
                         "workload": dict(workload, mixes=6, seed=4, records=300)})
    mixes = build_mixes(6, 4)
    solo_full, solo_bounded = {}, {}
    for i in BOUNDED_MIXES:
        full = materialize_mix(mixes[i], spec.records, spec.topo)
        bounded = materialize_mix(mixes[i], spec.records, spec.topo,
                                  spec.stop.instructions_per_core)
        assert (bounded == full) == (stopped_by == "trace end")
        report = run_mix(spec, i, full, solo_full)
        assert (report.result.end_ps == spec.stop.max_ps) == (stopped_by == "cap")
        assert run_mix(spec, i, None, solo_bounded).csv_row() == report.csv_row()


def test_no_budget_replays_the_whole_trace():
    traces = materialize_mix(build_mixes(6, 4)[3], 300, DESK, None)
    assert all(len(tr) == 300 for tr in traces)
    res = run_cores(traces, fresh_controller(), StopCondition(None, 10 ** 9))
    assert res.instructions == [sum(r.bubble_count + 1 for r in tr) for tr in traces]


# ------------------------------------------------------------- mixes

def test_build_mixes_default_composition():
    mixes = build_mixes(60, seed=0)
    assert len(mixes) == 60
    names = [m.name for m in mixes]
    for combo in ("HHHH", "MMMM", "LLLL", "HHMM", "MMLL", "LLHH"):
        assert names.count(combo) == 10


def test_build_mixes_one_of_each():
    assert [m.name for m in build_mixes(6, 1)] == [
        "HHHH", "MMMM", "LLLL", "HHMM", "MMLL", "LLHH"]


def test_build_mixes_seed_changes_members_not_composition():
    a = build_mixes(12, seed=1)
    b = build_mixes(12, seed=2)
    assert [m.name for m in a] == [m.name for m in b]
    assert any(x.member_seeds != y.member_seeds for x, y in zip(a, b))


def test_build_mixes_requires_multiple_of_six():
    with pytest.raises(ConfigError):
        build_mixes(10, 0)


def test_mix_spec_validation():
    with pytest.raises(ConfigError):
        MixSpec(("H", "H"), (1, 2))
    with pytest.raises(ConfigError):
        MixSpec(("H", "H", "X", "L"), (1, 2, 3, 4))


# ------------------------------------------------------------- core model

def test_bubble_bound_trace_retires_near_width_four():
    # ten 4000-instruction records: only one read's latency is not hidden
    # behind the retire stage
    tr = [TraceRecord(3999, "read", 0)] * 10
    ctrl = fresh_controller()
    res = run_cores([tr], ctrl, StopCondition(None, 10 ** 9))
    assert res.instructions[0] == 40_000
    assert 3.9 < res.ipcs[0] < 4.0


def test_identical_solo_runs_are_identical():
    tr = desk_trace("M", 11, 300)
    r1 = run_cores([tr], fresh_controller(), StopCondition(None, 2_000_000))
    r2 = run_cores([tr], fresh_controller(), StopCondition(None, 2_000_000))
    assert r1.ipcs == r2.ipcs
    assert r1.controller_stat == r2.controller_stat


def test_solo_ipc_not_below_shared_ipc():
    mix = build_mixes(6, seed=4)[0]
    traces = materialize_mix(mix, 500, DESK)
    stop = StopCondition(4000, 3_000_000)
    shared = run_cores(traces, fresh_controller(), stop)
    for i, tr in enumerate(traces):
        solo = run_cores([tr], fresh_controller(), stop)
        assert solo.ipcs[0] >= shared.ipcs[i] - 1e-9


def test_stop_condition_cycle_cap_binds():
    tr = desk_trace("H", 2, 2000)
    res = run_cores([tr], fresh_controller(), StopCondition(None, 10_000))
    assert res.end_ps <= 10_000 * 238


def test_trace_replay_is_order_preserving_per_core():
    # read completions come back in arrival order per bank by construction;
    # the per-core retire stream is in program order by the window model
    tr = [TraceRecord(0, "read", i * 64) for i in range(64)]
    ctrl = fresh_controller()
    res = run_cores([tr], ctrl, StopCondition(None, 10 ** 9))
    assert res.instructions[0] == 64


def test_fuzzed_traces_never_overrun_the_backoff_deadline():
    # randomized request streams against an aggressive back-off config; a
    # window ACT after the back-off deadline raises ProtocolError and fails
    # the run; min_deadline_slack is the least slack of the window ACTs
    import random as _random

    from pracsim.mitigations import PracN
    from pracsim.security import PracParams

    t = desk_timing(preset("ddr5-3200an-prac"))
    row_stride = 65536 // 64   # blocks per row step at desk scale
    for seed in range(5):
        rng = _random.Random(seed)
        records = []
        for _ in range(400):
            op = "write" if rng.random() < 0.3 else "read"
            # few rows across few banks: plenty of conflicts and crossings
            block = rng.randrange(8) * row_stride + rng.randrange(4) * 4
            records.append(TraceRecord(rng.randrange(0, 12), op, block * 64))
        prac = {"abo_th": 5, "bo_n_refs": 4, "bo_n_acts": 1}
        dev = DeviceState(DESK, t, prac=prac)
        ctrl = MemoryController(DESK, t, dev, PracN(PracParams(5, 4, 1)))
        res = run_cores([records], ctrl, StopCondition(None, 2_000_000))
        assert res.backoffs > 0
        assert res.min_deadline_slack is None or res.min_deadline_slack >= 0
        assert dev.conservation_holds()


def test_controller_side_mechanism_in_simulation():
    from pracsim.mitigations import Graphene

    t = desk_timing(preset("ddr5-3200an-base"))
    hot = [TraceRecord(0, "read", ((i % 2) * 2048) * 64) for i in range(300)]
    dev = DeviceState(DESK, t)
    ctrl = MemoryController(DESK, t, dev, Graphene(table_entries=32, threshold=6))
    res = run_cores([hot], ctrl, StopCondition(None, 3_000_000))
    assert res.preventive_refreshes > 0
