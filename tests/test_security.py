import random
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pracsim.security import (
    RFM_TH_CAP,
    WITNESS_CHUNK,
    PracParams,
    PrfmParams,
    SweepGrid,
    act_budget,
    is_secure,
    is_secure_prac,
    is_secure_prfm,
    max_activations_prac,
    prac_trajectory,
    prfm_trajectory,
    secure_abo_th,
    secure_rfm_th,
    sweep,
    t_available,
    wave_trajectory,
)
from pracsim.security import _feasible_rounds, _starting_sizes, _witness
from pracsim.timing import ConfigError, preset
from pracsim.workloads import desk_timing

APP = preset("analysis-appendix")
PRAC_T = preset("ddr5-3200an-prac")


# ---------------------------------------------------------------- trajectories

def test_prfm_single_row_threshold_one():
    t = prfm_trajectory(1, PrfmParams(1))
    assert t.sizes == (1, 0)


def test_prfm_eight_rows_threshold_four():
    # frozen from the event-driven oracle (attack module reproduces it)
    t = prfm_trajectory(8, PrfmParams(4))
    assert t.sizes == (8, 6, 5, 4, 3, 2, 1, 1, 1, 1, 0)


def test_prfm_threshold_infinite_is_constant():
    t = prfm_trajectory(5, PrfmParams(10**12), max_steps=20)
    assert set(t.sizes) == {5}
    assert len(t.sizes) == 21


def test_prac_lone_row_refreshed_by_first_recovery():
    # divisor 1: the recovery follows every eligible activation
    p = PracParams(abo_th=50, bo_n_refs=4, bo_n_acts=1)
    t = replace(preset("ddr5-3200an-base"), tABO_ACT=10_000)
    traj = prac_trajectory(1, p, t)
    assert traj.sizes == (1, 0)


def test_prac_divisor_from_paper_values():
    p = PracParams(abo_th=50, bo_n_refs=1, bo_n_acts=1)
    assert p.divisor(PRAC_T) == 1 + 180 // 52  # = 4


def test_prac_sixteen_rows_divisor_four():
    p = PracParams(abo_th=50, bo_n_refs=4, bo_n_acts=1)
    traj = prac_trajectory(16, p, PRAC_T)
    assert traj.sizes == (16, 0)


def test_pracstep_variant_uses_count_divisor():
    p = PracParams(abo_th=50, bo_n_refs=4, bo_n_acts=4)
    step = prac_trajectory(64, p, PRAC_T, model="pracstep")
    ref = wave_trajectory(64, 4, 8)
    assert step.sizes == ref.sizes


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        prac_trajectory(4, PracParams(10), PRAC_T, model="nonsense")


@given(b0=st.integers(1, 300), removed=st.sampled_from([1, 2, 4]),
       divisor=st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_trajectories_monotone_nonincreasing(b0, removed, divisor):
    traj = wave_trajectory(b0, removed, divisor, max_steps=5000)
    assert all(a >= b for a, b in zip(traj.sizes, traj.sizes[1:]))


def test_param_validation():
    with pytest.raises(ConfigError):
        PrfmParams(0)
    with pytest.raises(ConfigError):
        PracParams(abo_th=10, bo_n_refs=0)
    with pytest.raises(ConfigError):
        PracParams(abo_th=10, bo_n_refs=3)
    with pytest.raises(ConfigError):
        PracParams(abo_th=0)


# ---------------------------------------------------------------- budgets

def test_budget_appendix_numbers_exact():
    # 51,264 periods of 577 ns fit the 29.58 ms left after periodic refresh
    assert act_budget(APP, PrfmParams(6)) == 307_584      # ~307,580


def test_budget_other_thresholds():
    assert act_budget(APP, PrfmParams(5)) == (29_579_525_000 // (5 * 47_000 + 295_000)) * 5


def test_prac_budget_period():
    p = PracParams(abo_th=60, bo_n_refs=4, bo_n_acts=1)
    assert act_budget(PRAC_T, p) == (29_579_525_000 // (4 * 52_000 + 4 * 350_000)) * 4


# ---------------------------------------------------------------- verdicts

def test_prfm_insecure_at_64_for_threshold_seven():
    # frozen witness from the vectorized scan
    v = is_secure_prfm(64, PrfmParams(7), APP)
    assert not v.secure
    assert v.witness_b0 == 9520


def test_prfm_insecure_at_32_threshold_four():
    v = is_secure_prfm(32, PrfmParams(4), APP)
    assert not v.secure
    assert v.witness_b0 == 3876


def test_nrh_one_insecure_for_any_config():
    for th in (1, 2, 6, 80):
        v = is_secure_prfm(1, PrfmParams(th), APP)
        assert not v.secure
        assert v.witness_b0 == 1  # one activation precedes any preventive refresh


def test_prac_priming_alone_breaks_low_thresholds():
    v = is_secure_prac(5, PracParams(abo_th=9, bo_n_refs=4), PRAC_T)
    assert not v.secure and v.witness_b0 == 1


def test_anti_monotonicity_of_security():
    configs = [(PrfmParams(th), is_secure_prfm) for th in (2, 5, 7, 13, 80)]
    for p, fn in configs:
        prev = None
        for n in range(1, 140, 7):
            cur = fn(n, p, APP).secure
            if prev is not None and prev:
                assert cur, f"secure at {n - 7} but insecure at {n} for {p}"
            prev = cur


# ------------------------------------------------------- max activation counts

def test_prfm_max_count_minimal_at_threshold_one():
    rows = sweep(SweepGrid("prfm", thresholds=(1,), b0_values=(1, 7, 64, 256)), APP)
    assert [r[3] for r in rows] == [1, 1, 1, 1]


def test_prfm_max_count_matches_first_zero():
    traj = prfm_trajectory(8, PrfmParams(4))
    [row] = sweep(SweepGrid("prfm", thresholds=(4,), b0_values=(8,)), APP)
    assert row[3] == traj.first_zero == 10


def test_secure_threshold_derivations():
    assert secure_rfm_th(64, APP) == 6
    assert secure_rfm_th(32, APP) == 3
    assert secure_rfm_th(16, APP) == 1
    assert secure_abo_th(10, PRAC_T) == 6
    assert secure_abo_th(16, PRAC_T) == 12
    # the sweep's cell for that threshold is secure from the same n_rh
    [cell] = sweep(SweepGrid("prac", thresholds=(6,), bo_n_refs_values=(4,)), PRAC_T)
    assert cell[4] == 10


# ------------------------------------------------ kernel against a scalar loop

KERNEL_TIMINGS = (APP, PRAC_T, desk_timing(preset("ddr5-3200an-base")), desk_timing(PRAC_T),
                  replace(PRAC_T, tABO_ACT=10_000))
WAVE_PARAMS = st.one_of(
    st.builds(PrfmParams, st.integers(1, 32)),
    st.builds(PracParams, st.integers(1, 40), st.sampled_from([1, 2, 4]),
              st.sampled_from([1, 2, 4])))


def _wave(p, t):
    """(removed, divisor, prime, block), written out from the protocol."""
    if isinstance(p, PrfmParams):
        return 1, p.rfm_th, 0, t.tRFM
    return p.bo_n_refs, p.bo_n_acts + t.tABO_ACT // t.tRC, p.abo_th - 1, p.bo_n_refs * t.tRFM


def _scalar_rounds(p, t, b0):
    """Wave rounds a starting set of b0 rows completes, one round at a time:
    round i runs while the set is non-empty and its first activation, after
    the priming and the wave so far (tRC each) and every trigger's block,
    still fits the refresh window."""
    removed, divisor, prime, block = _wave(p, t)
    rounds, b, s = 0, b0, 0
    while b > 0 and (prime * b0 + s + 1) * t.tRC + (s // divisor) * block <= t_available(t):
        rounds += 1
        s += b
        b = max(b0 - removed * (s // divisor), 0)
    return rounds


def _scalar_sizes(p, t, rows_per_bank):
    _, divisor, _, block = _wave(p, t)
    max_act = t_available(t) // (divisor * t.tRC + block) * divisor
    return range(1, max(1, min(rows_per_bank, max_act)) + 1)


@given(p=WAVE_PARAMS, t=st.sampled_from(KERNEL_TIMINGS), n_rh=st.integers(1, 80),
       rows=st.integers(1, 128))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_scalar_loop(p, t, n_rh, rows):
    prime = _wave(p, t)[2]
    reach = {b0: _scalar_rounds(p, t, b0) for b0 in _scalar_sizes(p, t, rows)}
    witnesses = [b0 for b0, r in reach.items() if prime + r >= n_rh]
    v = is_secure(n_rh, p, t, rows_per_bank=rows)
    assert (v.secure, v.witness_b0) == ((False, 1) if n_rh <= prime else
                                        (not witnesses, min(witnesses, default=None)))
    if isinstance(p, PracParams):
        assert max_activations_prac(p, t, rows_per_bank=rows) == prime + max(reach.values())
    else:
        cells = sweep(SweepGrid("prfm", thresholds=(p.rfm_th,), b0_values=tuple(reach)), t)
        assert [r[3] for r in cells] == list(reach.values())


def _scanned_threshold(n_rh, params, top, t, rows=65_536):
    """The largest secure threshold, judging every threshold in 1..top."""
    return max((th for th in range(1, top + 1) if is_secure(n_rh, params(th), t, rows).secure),
               default=None)


@given(mech=st.sampled_from(["prfm", 1, 2, 4]), acts=st.sampled_from([1, 2, 4]),
       t=st.sampled_from(KERNEL_TIMINGS), n_rh=st.integers(1, 80),
       rows=st.sampled_from([64, 1024]))
@example(mech=2, acts=1, t=desk_timing(PRAC_T), n_rh=25, rows=1024)
@settings(max_examples=150, deadline=None)
def test_derived_threshold_matches_a_linear_scan(mech, acts, t, n_rh, rows):
    if mech == "prfm":
        scanned = _scanned_threshold(n_rh, PrfmParams, min(RFM_TH_CAP, max(n_rh - 1, 1)),
                                     t, rows)
        assert secure_rfm_th(n_rh, t, rows_per_bank=rows) == scanned
    else:
        scanned = _scanned_threshold(n_rh, lambda th: PracParams(th, mech, acts), n_rh - 1,
                                     t, rows)
        assert secure_abo_th(n_rh, t, mech, acts, rows_per_bank=rows) == scanned


@pytest.mark.parametrize("t, n_rh, rows", [(APP, 38, 65_536), (desk_timing(PRAC_T), 25, 1024)])
def test_secure_abo_thresholds_need_not_be_a_prefix(t, n_rh, rows):
    # where the window binds, a larger abo_th can spend a round's time on
    # priming: the one below the largest secure threshold is insecure
    th = secure_abo_th(n_rh, t, 2, 1, rows_per_bank=rows)
    assert is_secure(n_rh, PracParams(th, 2, 1), t, rows).secure
    assert not is_secure(n_rh, PracParams(th - 1, 2, 1), t, rows).secure
    assert th == _scanned_threshold(n_rh, lambda x: PracParams(x, 2, 1), n_rh - 1, t, rows)


# ------------------------------------- chunked witness against one full pass

PRESETS = ("analysis-appendix", "ddr5-3200an-base", "ddr5-3200an-prac")
FULL_ROWS = 65_536


def _single_pass_witness(n_rh, p, t, b0s):
    """The witness from one kernel pass over every size in b0s."""
    needed = n_rh - p.wave(t)[2]
    if needed <= 0:
        return int(b0s[0])
    alive = next(islice(_feasible_rounds(p, t, b0s), needed - 1, None), None)
    return None if alive is None else int(alive[0])


@given(p=st.one_of(st.builds(PrfmParams, st.integers(1, RFM_TH_CAP)),
                   st.builds(PracParams, st.integers(1, 300), st.sampled_from([1, 2, 4]),
                             st.sampled_from([1, 2, 4]))),
       name=st.sampled_from(PRESETS), n_rh=st.integers(1, 300))
@example(p=PrfmParams(80), name="analysis-appendix", n_rh=1024)
@settings(max_examples=60, deadline=None)
def test_chunked_witness_matches_a_single_pass(p, name, n_rh):
    t = preset(name)
    sizes = _starting_sizes(p, t, FULL_ROWS)
    assert _witness(n_rh, p, t, sizes) == _single_pass_witness(n_rh, p, t, sizes)


@pytest.mark.parametrize("index", [0, WITNESS_CHUNK - 1, WITNESS_CHUNK, 3 * WITNESS_CHUNK - 1,
                                   3 * WITNESS_CHUNK, 7 * WITNESS_CHUNK])
def test_witness_on_a_chunk_boundary(index):
    # at base timing rfm_th 7 is insecure at n_rh 64 (witness b0 9,520), and
    # many sizes on either side of the witness do not survive
    p, t = PrfmParams(7), preset("ddr5-3200an-base")
    sizes = _starting_sizes(p, t, FULL_ROWS)
    survivors = next(islice(_feasible_rounds(p, t, sizes), 63, None)).tolist()
    others = sorted(set(sizes.tolist()) - set(survivors))
    rng = random.Random(index)
    rng.shuffle(survivors)
    rng.shuffle(others)
    b0s = others[:index] + survivors[:2] + others[index:index + 500]
    assert _witness(64, p, t, b0s) == _single_pass_witness(64, p, t, b0s) == survivors[0]
    assert _witness(64, p, t, others[:index + 500]) is None


# secure_rfm_th and secure_abo_th at (bo_n_refs, bo_n_acts) (4, 1), (2, 1) and
# (1, 2), at full size, as the earlier bisecting search derived them. Every
# preset gives the same values except ddr5-3200an-prac at n_rh 256 and 128.
PINNED_THRESHOLDS = {
    1024: (80, 1020, 1012, 992), 512: (52, 508, 500, 477), 256: (24, 252, 242, 217),
    128: (12, 124, 114, 85), 64: (6, 60, 48, 16), 38: (3, 34, 22, None),
    32: (3, 28, 14, None), 16: (1, 12, None, None), 12: (1, 8, None, None),
    8: (1, 4, None, None), 4: (1, None, None, None), 2: (1, None, None, None)}
PINNED_PRAC_TIMING = {256: (25, 252, 242, 218), 128: (12, 124, 114, 86)}


@pytest.mark.parametrize("name", PRESETS)
def test_derived_thresholds_pinned_at_full_size(name):
    t = preset(name)
    pinned = {**PINNED_THRESHOLDS, **(PINNED_PRAC_TIMING if name == "ddr5-3200an-prac" else {})}
    recoveries = ((4, 1), (2, 1), (1, 2))
    assert {n_rh: (secure_rfm_th(n_rh, t), *(secure_abo_th(n_rh, t, *r) for r in recoveries))
            for n_rh in pinned} == pinned


# ---------------------------------------------------------------- sweep

def test_sweep_prfm_threshold_80_reaches_past_512():
    rows = sweep(SweepGrid("prfm", thresholds=(80,)), APP)
    assert max(r[3] for r in rows) >= 512  # insecure for every n_rh up to at least 512
    # the budget caps the largest decoy sets: huge sets burn the window early
    assert [r for r in rows if r[2] == 65536] == []


def test_sweep_empty_grid_rejected():
    with pytest.raises(ConfigError):
        sweep(SweepGrid("prfm", thresholds=()), APP)


def test_sweep_grid_order_invariance():
    a = sweep(SweepGrid("prfm", thresholds=(4, 2, 8), b0_values=(16, 4)), APP)
    b = sweep(SweepGrid("prfm", thresholds=(8, 4, 2), b0_values=(4, 16)), APP)
    assert a == b
