import math
import random

import pytest

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


def test_mitigation_config_validation():
    with pytest.raises(ConfigError):
        Para(probability=1.5)
    with pytest.raises(ConfigError):
        Graphene(table_entries=0, threshold=4)
    with pytest.raises(ConfigError):
        Hydra(gct_entries=0, rcc_entries=1, group_threshold=1, row_threshold=1)


# ------------------------------------------------------------- storage model

def test_prac_storage_reduction_exact():
    hi = storage_cost(PracN(PracParams(abo_th=1020)), 1024, TOPO)
    lo = storage_cost(PracN(PracParams(abo_th=12)), 16, TOPO)
    assert hi.dram_bits == TOPO.rows_total * 11
    assert lo.dram_bits == TOPO.rows_total * 5
    assert abs((1 - lo.dram_bits / hi.dram_bits) - 0.545) < 0.001
    assert hi.cpu_bits == lo.cpu_bits == 0


def test_hydra_storage_reduction_around_45_percent():
    hi = storage_cost(hydra_defaults(1024, TOPO), 1024, TOPO)
    lo = storage_cost(hydra_defaults(16, TOPO), 16, TOPO)
    red = 1 - lo.total_bits / hi.total_bits
    assert abs(red - 0.455) < 0.05


def test_graphene_storage_growth_around_50x():
    hi = storage_cost(graphene_defaults(1024, TOPO), 1024, TOPO)
    lo = storage_cost(graphene_defaults(16, TOPO), 16, TOPO)
    growth = lo.cpu_bits / hi.cpu_bits
    assert abs(growth - 50.3) / 50.3 < 0.10
    assert hi.dram_bits == lo.dram_bits == 0


def test_prfm_has_least_cpu_storage_of_the_counter_mechanisms():
    n_rh = 64
    prfm = storage_cost(Prfm(PrfmParams(5)), n_rh, TOPO)
    assert prfm.cpu_bits == TOPO.banks_total * (math.ceil(math.log2(5)) + 1)
    others = [storage_cost(graphene_defaults(n_rh, TOPO), n_rh, TOPO),
              storage_cost(hydra_defaults(n_rh, TOPO), n_rh, TOPO),
              storage_cost(Para(0.01), n_rh, TOPO)]
    assert all(prfm.cpu_bits < o.cpu_bits for o in others)


def test_storage_monotonicity():
    prac_bits = [storage_cost(PracN(PracParams(abo_th=max(n - 4, 1))), n, TOPO).dram_bits
                 for n in (1024, 256, 64, 16)]
    assert prac_bits == sorted(prac_bits, reverse=True)
    graphene_bits = [storage_cost(graphene_defaults(n, TOPO), n, TOPO).cpu_bits
                     for n in (1024, 256, 64, 16)]
    assert graphene_bits == sorted(graphene_bits)


def test_storage_none_and_combined():
    assert storage_cost(NoMitigation(), 64, TOPO).total_bits == 0
    combo = storage_cost(PracPlusPrfm(PracParams(abo_th=60), PrfmParams(5)), 64, TOPO)
    solo = storage_cost(PracN(PracParams(abo_th=60)), 64, TOPO)
    assert combo.dram_bits == solo.dram_bits
    assert combo.cpu_bits == storage_cost(Prfm(PrfmParams(5)), 64, TOPO).cpu_bits > 0
    assert storage_cost(PracOptimistic(PracParams(abo_th=60)), 64, TOPO) == solo


def test_counter_width_values():
    assert counter_width(1024) == 11
    assert counter_width(16) == 5
