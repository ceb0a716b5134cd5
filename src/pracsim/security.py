"""Closed-form wave-attack recurrences and secure-configuration analysis.

The wave attack hammers a decoy set in rounds; every preventive refresh
retires one aggressor from the set. The whole family of recurrences used
here has the shape

    sizes[i] = sizes[0] - removed * floor(sum(sizes[:i]) / divisor)

clamped at zero, where `removed` rows leave the set per trigger and one
trigger fires per `divisor` activations. Threshold-triggered refresh
management maps to removed=1, divisor=rfm_th; the back-off protocol maps to
removed=bo_n_refs with a divisor of bo_n_acts + tABO_ACT/tRC activations per
recovery cycle.

Counting convention, used consistently by the verdicts, the sweep and the
event-driven replay in the attack module: a cold row that is still in the
set at step i-1 receives its i-th activation during round i, before the
refresh that may retire it. Primed rows start at abo_th - 1 activations.
Everything in this module is exact integer arithmetic.

All budgets are per bank: the refresh window leaves t_available of command
time, every activation costs tRC, and every trigger additionally blocks the
bank for the management window, which caps the activations any attack can
spend (max_act).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .timing import ConfigError, TimingParams

ROWS_PER_BANK_DEFAULT = 65_536


@dataclass(frozen=True)
class PrfmParams:
    """Periodic refresh management: one RFM per rfm_th bank activations."""
    rfm_th: int

    def __post_init__(self):
        if self.rfm_th < 1:
            raise ConfigError("rfm_th must be >= 1")


@dataclass(frozen=True)
class PracParams:
    """Back-off protocol: assert at abo_th, recover with bo_n_refs RFMs,
    re-arm after bo_n_acts activations."""
    abo_th: int
    bo_n_refs: int = 4
    bo_n_acts: int = 1

    def __post_init__(self):
        if self.abo_th < 1:
            raise ConfigError("abo_th must be >= 1")
        if self.bo_n_refs not in (1, 2, 4):
            raise ConfigError("bo_n_refs must be one of 1, 2, 4")
        if self.bo_n_acts not in (1, 2, 4):
            raise ConfigError("bo_n_acts must be one of 1, 2, 4")

    def divisor(self, t: TimingParams) -> int:
        """Activations per back-off cycle: delay ACTs plus window ACTs."""
        d = self.bo_n_acts + t.tABO_ACT // t.tRC
        if d < 1:
            raise ConfigError("degenerate divisor: no activation fits a back-off cycle")
        return d


@dataclass(frozen=True)
class RowSetTrajectory:
    """Surviving-set sizes per attack round, plus cumulative activation totals."""
    sizes: tuple
    cumulative_acts: tuple

    def __post_init__(self):
        if any(b < 0 for b in self.sizes):
            raise ValueError("set sizes cannot be negative")
        if any(a > b for a, b in zip(self.sizes[1:], self.sizes)):
            raise ValueError("set sizes must be non-increasing")

    @property
    def first_zero(self) -> Optional[int]:
        """Index of the first empty round, None if the bound was hit first."""
        for i, b in enumerate(self.sizes):
            if b == 0:
                return i
        return None


def wave_trajectory(r1: int, removed: int, divisor: int,
                    max_steps: int = 1_000_000) -> RowSetTrajectory:
    """Generalized recurrence: stop at the first zero or at max_steps."""
    if r1 < 1 or max_steps < 1:
        raise ConfigError("r1 and max_steps must be >= 1")
    if removed < 1 or divisor < 1:
        raise ConfigError("removed and divisor must be >= 1")
    sizes = [r1]
    cum = [r1]
    s = r1
    while sizes[-1] > 0 and len(sizes) <= max_steps:
        nxt = r1 - removed * (s // divisor)
        if nxt < 0:
            nxt = 0
        sizes.append(nxt)
        s += nxt
        cum.append(s)
    return RowSetTrajectory(tuple(sizes), tuple(cum))


def prfm_trajectory(r1: int, p: PrfmParams, max_steps: int = 1_000_000) -> RowSetTrajectory:
    """Threshold-triggered trajectory: one row leaves per rfm_th activations."""
    return wave_trajectory(r1, 1, p.rfm_th, max_steps)


def prac_trajectory(r1: int, p: PracParams, t: TimingParams,
                    max_steps: int = 1_000_000, model: str = "pracrec") -> RowSetTrajectory:
    """Back-off trajectory.

    model='pracrec' divides by bo_n_acts + tABO_ACT/tRC (the protocol cycle);
    model='pracstep' is the earlier step-form variant that expresses the
    divisor purely in activation counts, bo_n_refs + bo_n_acts.
    """
    if model == "pracrec":
        divisor = p.divisor(t)
    elif model == "pracstep":
        divisor = p.bo_n_refs + p.bo_n_acts
    else:
        raise ConfigError(f"unknown trajectory model {model!r}")
    return wave_trajectory(r1, p.bo_n_refs, divisor, max_steps)


def recinit_series(b0: int, rfm_th: int, steps: int) -> list:
    """Step form with an explicit bank activation counter carried between rounds."""
    sizes = [b0]
    bank = 0
    for _ in range(steps):
        b = sizes[-1]
        if b == 0:
            sizes.append(0)
            continue
        nxt = b - (bank + b) // rfm_th
        bank = (bank + b) % rfm_th
        sizes.append(max(nxt, 0))
    return sizes


# ---------------------------------------------------------------------------
# activation budgets


@dataclass(frozen=True)
class ActBudget:
    d_allref: int       # time spent in periodic refresh per window (ps)
    t_rfm_period: int   # attack period per trigger (ps)
    max_rfm: int        # triggers that fit in the remaining window
    max_act: int        # activations that fit in the remaining window


def t_available(t: TimingParams) -> int:
    """Command time per refresh window left after periodic refresh (ps)."""
    return t.tREFW - (t.tREFW // t.tREFI) * t.tRFC


def max_act_budget(t: TimingParams, p: PrfmParams) -> ActBudget:
    avail = t_available(t)
    period = p.rfm_th * t.tRC + t.tRFM
    max_rfm = avail // period
    return ActBudget(t.tREFW - avail, period, max_rfm, max_rfm * p.rfm_th)


def prac_act_budget(t: TimingParams, p: PracParams) -> ActBudget:
    """Back-off analog: one recovery of bo_n_refs RFMs per divisor activations."""
    avail = t_available(t)
    divisor = p.divisor(t)
    period = divisor * t.tRC + p.bo_n_refs * t.tRFM
    cycles = avail // period
    return ActBudget(t.tREFW - avail, period, cycles, cycles * divisor)


# ---------------------------------------------------------------------------
# security verdicts


@dataclass(frozen=True)
class Verdict:
    secure: bool
    witness_b0: Optional[int] = None
    max_act: int = 0

    def __bool__(self):
        return self.secure


def _reach_rounds(b0_max: int, removed: int, divisor: int, rounds_needed: int,
                  prime_per_row: int, t_avail: int, trc: int,
                  trigger_block: int) -> Optional[int]:
    """Smallest starting set size whose survivor completes `rounds_needed`
    wave rounds inside the refresh-window time budget, or None.

    Round i is feasible for a starting size b0 when the set is non-empty
    entering the round (B_{i-1} > 0) and the time already spent fits the
    window: priming and wave activations cost tRC each, and every completed
    trigger blocks the bank for `trigger_block` (tRFM, or a whole recovery).
    """
    if rounds_needed < 1:
        rounds_needed = 1
    b0 = np.arange(1, b0_max + 1, dtype=np.int64)
    b_prev = b0.copy()                  # B_{i-1}, starting with B_0
    s_prev = np.zeros_like(b0)          # S_{i-1} = activations in rounds 1..i-1
    alive_mask = np.ones(b0_max, dtype=bool)
    for _ in range(1, rounds_needed):
        s_prev = s_prev + b_prev        # S_i
        b_prev = np.maximum(b0 - removed * (s_prev // divisor), 0)
        alive_mask &= b_prev > 0
        if not alive_mask.any():
            return None
    spent = ((prime_per_row * b0 + s_prev + 1) * trc
             + (s_prev // divisor) * trigger_block)
    feasible = (b_prev > 0) & (spent <= t_avail)
    if not feasible.any():
        return None
    return int(b0[int(np.argmax(feasible))])


def _default_b0_max(max_act: int, rows_per_bank: int) -> int:
    # an attacker cannot touch more distinct rows than it has activations
    return max(1, min(rows_per_bank, max_act))


def is_secure_prfm(n_rh: int, p: PrfmParams, t: TimingParams,
                   b0_max: Optional[int] = None,
                   rows_per_bank: int = ROWS_PER_BANK_DEFAULT) -> Verdict:
    """Secure iff no starting set size lets any row collect n_rh activations
    between refreshes of its victims, within the refresh-window time budget."""
    if n_rh < 1:
        raise ConfigError("n_rh must be >= 1")
    budget = max_act_budget(t, p)
    if b0_max is None:
        b0_max = _default_b0_max(budget.max_act, rows_per_bank)
    witness = _reach_rounds(b0_max, 1, p.rfm_th, n_rh, 0,
                            t_available(t), t.tRC, t.tRFM)
    return Verdict(witness is None, witness, budget.max_act)


def is_secure_prac(n_rh: int, p: PracParams, t: TimingParams,
                   b0_max: Optional[int] = None,
                   rows_per_bank: int = ROWS_PER_BANK_DEFAULT) -> Verdict:
    """Back-off verdict; the attacker primes every decoy row to abo_th - 1
    activations before waving, so abo_th - 1 + i activations land by round i.

    Priming activations cost tRC only (no threshold crossing can fire), so
    the time budget books them separately from the recovery-laden wave."""
    if n_rh < 1:
        raise ConfigError("n_rh must be >= 1")
    budget = prac_act_budget(t, p)
    if b0_max is None:
        b0_max = _default_b0_max(budget.max_act, rows_per_bank)
    if p.abo_th - 1 >= n_rh:
        # priming alone reaches the threshold before any back-off can fire
        return Verdict(False, 1, budget.max_act)
    rounds_needed = n_rh - (p.abo_th - 1)
    witness = _reach_rounds(b0_max, p.bo_n_refs, p.divisor(t), rounds_needed,
                            p.abo_th - 1, t_available(t), t.tRC,
                            p.bo_n_refs * t.tRFM)
    return Verdict(witness is None, witness, budget.max_act)


# ---------------------------------------------------------------------------
# maximum achievable activation counts (sweep cells)


def max_activations_prfm(p: PrfmParams, t: TimingParams, b0: int) -> int:
    """Highest activation count one aggressor reaches before its victims are
    refreshed, starting from a decoy set of exactly b0 rows."""
    t_avail = t_available(t)
    reach = 0
    b_prev, s_prev = b0, 0
    while b_prev > 0:
        spent = (s_prev + 1) * t.tRC + (s_prev // p.rfm_th) * t.tRFM
        if spent > t_avail:
            break
        reach += 1
        s_prev += b_prev
        b_prev = max(b0 - (s_prev // p.rfm_th), 0)
    return reach


def max_activations_prac(p: PracParams, t: TimingParams,
                         b0_max: Optional[int] = None,
                         rows_per_bank: int = ROWS_PER_BANK_DEFAULT) -> int:
    """Highest activation count under the back-off protocol, maximized over
    the starting set size (decoys are primed to abo_th - 1 first)."""
    budget = prac_act_budget(t, p)
    if b0_max is None:
        b0_max = _default_b0_max(budget.max_act, rows_per_bank)
    divisor = p.divisor(t)
    t_avail = t_available(t)
    block = p.bo_n_refs * t.tRFM
    b0 = np.arange(1, b0_max + 1, dtype=np.int64)
    b_prev = b0.copy()
    s_prev = np.zeros_like(b0)
    prime = p.abo_th - 1
    rounds = np.zeros_like(b0)
    live = np.ones(b0_max, dtype=bool)
    while live.any():
        spent = (prime * b0 + s_prev + 1) * t.tRC + (s_prev // divisor) * block
        feasible = live & (b_prev > 0) & (spent <= t_avail)
        rounds = np.where(feasible, rounds + 1, rounds)
        live = feasible
        s_prev = s_prev + b_prev
        b_prev = np.maximum(b0 - p.bo_n_refs * (s_prev // divisor), 0)
    return prime + int(rounds.max())


def secure_rfm_th(n_rh: int, t: TimingParams, cap: int = 80,
                  rows_per_bank: int = ROWS_PER_BANK_DEFAULT) -> Optional[int]:
    """Largest rfm_th (up to the protocol cap) secure at n_rh, None if even 1 fails."""
    for th in range(min(cap, max(n_rh - 1, 1)), 0, -1):
        if is_secure_prfm(n_rh, PrfmParams(th), t, rows_per_bank=rows_per_bank).secure:
            return th
    return None


def secure_abo_th(n_rh: int, t: TimingParams, bo_n_refs: int = 4, bo_n_acts: int = 1,
                  rows_per_bank: int = ROWS_PER_BANK_DEFAULT) -> Optional[int]:
    """Largest abo_th secure at n_rh for the given recovery settings."""
    for th in range(n_rh - 1, 0, -1):
        p = PracParams(th, bo_n_refs, bo_n_acts)
        if is_secure_prac(n_rh, p, t, rows_per_bank=rows_per_bank).secure:
            return th
    return None


# ---------------------------------------------------------------------------
# configuration sweep


DEFAULT_PRFM_THRESHOLDS = (1, 2, 3, 4, 5, 6, 8, 13, 16, 32, 64, 80)
DEFAULT_PRFM_B0 = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)
DEFAULT_PRAC_THRESHOLDS = (6, 7, 13, 27, 57, 120, 250)
DEFAULT_PRAC_REFS = (1, 2, 4)

SWEEP_COLUMNS = ("mechanism", "threshold", "b0_or_refs", "max_activations", "secure_at_nrh")


@dataclass(frozen=True)
class SweepGrid:
    mechanism: str                       # "prfm" or "prac"
    thresholds: Optional[tuple] = None   # None selects the default grid
    b0_values: tuple = DEFAULT_PRFM_B0   # prfm only
    bo_n_refs_values: tuple = DEFAULT_PRAC_REFS  # prac only
    bo_n_acts: int = 1

    def __post_init__(self):
        if self.mechanism not in ("prfm", "prac"):
            raise ConfigError("sweep mechanism must be 'prfm' or 'prac'")


def sweep(grid: SweepGrid, t: TimingParams,
          rows_per_bank: int = ROWS_PER_BANK_DEFAULT) -> list:
    """One row per grid point: the worst-case activation count and the
    smallest RowHammer threshold the point is secure against."""
    if grid.thresholds is not None:
        thresholds = grid.thresholds
    else:
        thresholds = (DEFAULT_PRFM_THRESHOLDS if grid.mechanism == "prfm"
                      else DEFAULT_PRAC_THRESHOLDS)
    rows = []
    if grid.mechanism == "prfm":
        if not thresholds or not grid.b0_values:
            raise ConfigError("empty sweep grid")
        for th in thresholds:
            p = PrfmParams(th)
            for b0 in grid.b0_values:
                m = max_activations_prfm(p, t, b0)
                rows.append(("prfm", th, b0, m, m + 1))
    else:
        if not thresholds or not grid.bo_n_refs_values:
            raise ConfigError("empty sweep grid")
        for th in thresholds:
            for refs in grid.bo_n_refs_values:
                p = PracParams(th, refs, grid.bo_n_acts)
                m = max_activations_prac(p, t, rows_per_bank=rows_per_bank)
                rows.append(("prac", th, refs, m, m + 1))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows
