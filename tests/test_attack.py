from dataclasses import replace

import pytest

from pracsim.attack import (
    AttackSpec,
    gen_perf_attack_trace,
    run_wave_attack,
    theoretical_consumption,
)
from pracsim.controller import map_address
from pracsim.dram import Topology
from pracsim.security import PracParams, PrfmParams, is_secure, prfm_trajectory, secure_rfm_th
from pracsim.timing import ConfigError, preset

APP = preset("analysis-appendix")
PRAC_T = preset("ddr5-3200an-prac")


# ------------------------------------------------------ theoretical numbers

def test_consumption_limits_and_monotonicity():
    # exact where criterion 3 allows a tolerance: the window left after REF,
    # and a period of abo_th ACTs and bo_n_refs RFMs
    assert theoretical_consumption(APP, PrfmParams(6)).t_available == 29_579_525_000
    rep = theoretical_consumption(PRAC_T, PracParams(abo_th=7, bo_n_refs=4, bo_n_acts=4))
    assert rep.t_attack_period == 7 * 52_000 + 4 * 350_000
    big = theoretical_consumption(PRAC_T, PracParams(abo_th=10_000_000, bo_n_refs=4))
    assert big.fraction < 0.001
    fr = [theoretical_consumption(PRAC_T, PracParams(abo_th=th, bo_n_refs=4)).fraction
          for th in (7, 14, 28, 56)]
    assert fr == sorted(fr, reverse=True)
    fn = [theoretical_consumption(PRAC_T, PracParams(abo_th=20, bo_n_refs=r)).fraction
          for r in (1, 2, 4)]
    assert fn == sorted(fn)
    for f in fr + fn:
        assert 0.0 < f < 1.0


# ------------------------------------------------------------- wave replay

def test_wave_trace_lone_row_against_divisor_one_config():
    # window shorter than tRC: the recovery follows every eligible activation,
    # so the lone decoy is refreshed after exactly abo_th activations
    t = replace(PRAC_T, tABO_ACT=10_000)
    result = run_wave_attack(1, PracParams(abo_th=5, bo_n_refs=4, bo_n_acts=1), t)
    assert result.act_count == result.realized_max == 5


def test_wave_trace_reproduces_prfm_trajectory():
    result = run_wave_attack(8, PrfmParams(4), preset("ddr5-3200an-base"))
    assert result.sizes == prfm_trajectory(8, PrfmParams(4)).sizes


def test_wave_trace_max_activations_most_aggressive():
    result = run_wave_attack(13, PracParams(abo_th=6, bo_n_refs=4, bo_n_acts=1), PRAC_T)
    assert result.realized_max == 9


@pytest.mark.parametrize("n_rh", [32, 64])
def test_fullsize_prfm_witness_replays(n_rh):
    """At 64K rows per bank, REF off: the analyzer's witness b0 for the first
    insecure rfm_th reaches n_rh under the monitor, and the secure rfm_th
    replayed at that b0 stays below it."""
    base, topo = preset("ddr5-3200an-base"), Topology()
    th = secure_rfm_th(n_rh, base, topo.rows_per_bank)
    b0 = is_secure(n_rh, PrfmParams(th + 1), base, topo.rows_per_bank).witness_b0
    witness = run_wave_attack(b0, PrfmParams(th + 1), base, topo=topo, monitor_n_rh=n_rh)
    assert witness.realized_max >= n_rh and witness.monitor.violations, (th + 1, b0)
    secure = run_wave_attack(b0, PrfmParams(th), base, topo=topo, monitor_n_rh=n_rh)
    assert secure.realized_max < n_rh and not secure.monitor.violations, (th, b0)


def test_wave_trace_kind_mismatch():
    # the wave attack has no trace form: only run_wave_attack replays it
    with pytest.raises(ConfigError):
        AttackSpec("wave")


# ----------------------------------------------------- performance attack

def test_perf_trace_rotates_32_targets_bank_first():
    topo = Topology()
    spec = AttackSpec("perf_degradation", rows_per_bank=8, banks=4)
    trace = gen_perf_attack_trace(spec, PRAC_T, duration_ps=4_000_000, topo=topo)
    seen = []
    for rec in trace[:64]:
        rank, bg, bank, row, col = map_address(topo, rec.address)
        seen.append((bg, row))
    # bank groups rotate fastest: each group gets every 4th access
    assert [s[0] for s in seen[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert len(set(seen)) == 32
    assert all(rec.bubble_count == 0 for rec in trace)


def test_perf_trace_degenerate_single_row():
    spec = AttackSpec("perf_degradation", rows_per_bank=1, banks=1)
    trace = gen_perf_attack_trace(spec, PRAC_T, duration_ps=1_000_000)
    addrs = {rec.address for rec in trace}
    assert len(addrs) == 1


def test_perf_trace_duration_too_short():
    spec = AttackSpec("perf_degradation", rows_per_bank=8, banks=4)
    with pytest.raises(ConfigError):
        gen_perf_attack_trace(spec, PRAC_T, duration_ps=32 * PRAC_T.tRC - 1)


def test_attack_spec_validation():
    with pytest.raises(ConfigError):
        AttackSpec("ddos")
    with pytest.raises(ConfigError):
        AttackSpec("perf_degradation", rows_per_bank=0)
    with pytest.raises(ConfigError):
        AttackSpec("perf_degradation", banks=0)
