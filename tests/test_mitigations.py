import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pracsim.dram import Topology
from pracsim.mitigations import (
    Graphene,
    GrapheneState,
    Hydra,
    HydraState,
    NoMitigation,
    Para,
    ParaState,
    PracN,
    PracOptimistic,
    PracPlusPrfm,
    Prfm,
    StorageBreakdown,
    counter_width,
    graphene_defaults,
    hydra_defaults,
    para_probability,
    storage_cost,
)
from pracsim.security import PracParams, PrfmParams
from pracsim.timing import ConfigError, preset

TOPO = Topology()
DESK = Topology.desk()
BASE = preset("ddr5-3200an-base")


# ------------------------------------------------------------- on_activation

def test_graphene_single_row_triggers_floor_n_over_t():
    # enumeration oracle: one row hammered N times -> floor(N/T) refreshes
    for threshold in (3, 7, 16):
        cfg = Graphene(table_entries=64, threshold=threshold)
        for n in range(1, 10 * threshold + 1):
            st = GrapheneState(cfg, DESK, BASE)
            got = sum(bool(st.on_activation(0, 5, i)) for i in range(n))
            assert got == n // threshold, (threshold, n)


def test_graphene_soundness_on_small_traces():
    # with entries >= W/threshold nothing slips past ~2x the threshold
    rng = random.Random(7)
    threshold, length = 8, 2000
    cfg = Graphene(table_entries=length // threshold + 1, threshold=threshold)
    st = GrapheneState(cfg, DESK, BASE)
    since_refresh = {}
    worst = 0
    for i in range(length):
        row = rng.randrange(48)
        since_refresh[row] = since_refresh.get(row, 0) + 1
        if st.on_activation(0, row, i):
            since_refresh[row] = 0
        worst = max(worst, max(since_refresh.values()))
    assert worst <= 2 * threshold


def test_para_probability_one_like_behavior():
    st = ParaState(Para(probability=0.999999), DESK, seed=3)
    refreshes = sum(bool(st.on_activation(0, 9, i)) for i in range(200))
    assert refreshes == 200


def test_para_reproducible_from_seed():
    a = ParaState(Para(0.25), DESK, seed=42)
    b = ParaState(Para(0.25), DESK, seed=42)
    seq_a = [a.on_activation(0, 5, i) for i in range(100)]
    seq_b = [b.on_activation(0, 5, i) for i in range(100)]
    assert seq_a == seq_b


def test_para_derived_probability_bound():
    p = para_probability(64)
    assert 0 < p < 1
    # escape chance over n_rh activations is 2^-40
    assert abs((1 - p) ** 64 - 2.0 ** -40) < 1e-18


def test_hydra_group_filter_absorbs_uniform_sweeps():
    cfg = hydra_defaults(1024, DESK)
    st = HydraState(cfg, DESK)
    for sweep in range(3):
        for row in range(64):
            assert st.on_activation(0, row, sweep) == ()
    assert st.rcc_hits == st.rcc_misses == 0   # row counters never engaged


def test_hydra_hot_row_is_refreshed():
    cfg = Hydra(gct_entries=1024, rcc_entries=64, group_threshold=8, row_threshold=10)
    st = HydraState(cfg, DESK)
    refreshed = 0
    for i in range(64):
        if st.on_activation(0, 5, i):
            refreshed += 1
    assert refreshed >= 1
    # authoritative counters never undercount: engaged count is tracked
    assert st.row_counters.get((0, 5), 0) <= 64


@given(acts=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7),
                               st.sampled_from((0, 0, 0, 0, 0, 0, 0, 1))), max_size=200),
       entries=st.integers(1, 4), threshold=st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_graphene_bounds_each_row_by_threshold_plus_spill(acts, entries, threshold):
    # brute-force per-row counts: a row's activations since its last refresh
    # (or the table reset) stay below threshold + spill[bank]. Each (bank,
    # row, thirds) activation moves time on by 1 ps plus `thirds` thirds of
    # tREFW, so the table reset comes due now and then. entries + 1 fresh
    # rows of bank 2 go first, so bank 2 spills, and a last activation a
    # whole tREFW on resets the tables
    cfg = Graphene(table_entries=entries, threshold=threshold)
    mech = GrapheneState(cfg, DESK, BASE)
    fresh = [(2, row, 0) for row in range(entries + 1)]
    since = {}   # (bank, row) -> activations since its refresh or the reset
    spills = resets = now = 0
    for bank, row, thirds in [*fresh, *acts, (2, 0, 3)]:
        now += 1 + thirds * (BASE.tREFW // 3)
        spill, last_reset = mech.spill[bank], mech.last_reset
        refreshed = mech.on_activation(bank, row, now)
        if mech.last_reset != last_reset:
            resets += 1
            since.clear()
        spills += mech.spill[bank] > spill
        since[bank, row] = 0 if refreshed else since.get((bank, row), 0) + 1
        assert since[bank, row] < threshold + mech.spill[bank]
    assert spills > 0 and resets > 0


@given(acts=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3)), min_size=20,
                     max_size=200),
       gct=st.sampled_from((256, 1024, 4096)), rcc=st.integers(1, 4),
       group=st.integers(1, 5), extra=st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_hydra_keeps_each_row_below_row_threshold(acts, gct, rcc, group, extra):
    # with group_threshold < row_threshold, brute-force per-row counts since
    # the last refresh stay below row_threshold. rcc + 1 fresh rows of bank 2
    # go first, each activated past its group's threshold, so every one of
    # them misses the row-count cache and it evicts; the (bank, row)
    # activations after them revisit few rows, so evicted rows come back
    cfg = Hydra(gct_entries=gct, rcc_entries=rcc, group_threshold=group,
                row_threshold=group + extra)
    mech = HydraState(cfg, DESK)
    fresh = [(2, row) for row in range(rcc + 1) for _ in range(group + 1)]
    since = {}   # (bank, row) -> activations since its refresh
    for bank, row in [*fresh, *acts]:
        refreshed = mech.on_activation(bank, row, 0)
        since[bank, row] = 0 if refreshed else since.get((bank, row), 0) + 1
        assert since[bank, row] < cfg.row_threshold
    assert mech.rcc_misses > rcc


def test_mitigation_config_validation():
    with pytest.raises(ConfigError):
        Para(probability=1.5)
    with pytest.raises(ConfigError):
        Graphene(table_entries=0, threshold=4)
    with pytest.raises(ConfigError):
        Hydra(gct_entries=0, rcc_entries=1, group_threshold=1, row_threshold=1)


# ------------------------------------------------------------- storage model

def test_prfm_has_least_cpu_storage_of_the_counter_mechanisms():
    n_rh = 64
    prfm = storage_cost(Prfm(PrfmParams(5)), n_rh, TOPO)
    assert prfm.cpu_bits == TOPO.banks_total * (math.ceil(math.log2(5)) + 1)
    others = [storage_cost(graphene_defaults(n_rh, TOPO), n_rh, TOPO),
              storage_cost(hydra_defaults(n_rh, TOPO), n_rh, TOPO),
              storage_cost(Para(0.01), n_rh, TOPO)]
    assert all(prfm.cpu_bits < o.cpu_bits for o in others)


def test_storage_monotonicity():
    prac = [storage_cost(PracN(PracParams(abo_th=max(n - 4, 1))), n, TOPO)
            for n in (1024, 256, 64, 16)]
    assert [s.dram_bits for s in prac] == sorted((s.dram_bits for s in prac), reverse=True)
    graphene = [storage_cost(graphene_defaults(n, TOPO), n, TOPO) for n in (1024, 256, 64, 16)]
    assert [s.cpu_bits for s in graphene] == sorted(s.cpu_bits for s in graphene)
    # PRAC's counters sit in the DRAM, Graphene's table in the controller
    assert {s.cpu_bits for s in prac} == {s.dram_bits for s in graphene} == {0}


def test_storage_none_and_combined():
    assert storage_cost(NoMitigation(), 64, TOPO) == StorageBreakdown(0, 0)
    combo = storage_cost(PracPlusPrfm(PracParams(abo_th=60), PrfmParams(5)), 64, TOPO)
    solo = storage_cost(PracN(PracParams(abo_th=60)), 64, TOPO)
    assert combo.dram_bits == solo.dram_bits
    assert combo.cpu_bits == storage_cost(Prfm(PrfmParams(5)), 64, TOPO).cpu_bits > 0
    assert storage_cost(PracOptimistic(PracParams(abo_th=60)), 64, TOPO) == solo


def test_counter_width_values():
    assert counter_width(1024) == 11
    assert counter_width(16) == 5
