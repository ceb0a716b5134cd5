"""Closed-form wave-attack recurrences and secure-configuration analysis.

The wave attack hammers a decoy set in rounds; every preventive refresh
retires one aggressor from the set. The whole family of recurrences used
here has the shape

    sizes[i] = sizes[0] - removed * floor(sum(sizes[:i]) / divisor)

clamped at zero, where `removed` rows leave the set per trigger and one
trigger fires per `divisor` activations. Threshold-triggered refresh
management maps to removed=1, divisor=rfm_th; the back-off protocol maps to
removed=bo_n_refs with a divisor of bo_n_acts + tABO_ACT/tRC activations per
recovery cycle. Each mechanism's wave(t) gives these numbers together with
`prime`, the activations every decoy takes before the wave (abo_th - 1 under
back-off, none otherwise), and `block`, the time one trigger blocks the bank
(tRFM, or a whole recovery of bo_n_refs RFMs).

Counting convention, used consistently by the verdicts, the sweep and the
event-driven replay in the attack module: a cold row that is still in the
set at step i-1 receives its i-th activation during round i, before the
refresh that may retire it. Primed rows start at abo_th - 1 activations.
Everything in this module is exact integer arithmetic.

All budgets are per bank: the refresh window leaves t_available of command
time, every activation costs tRC, and every trigger additionally blocks the
bank for `block`, which caps the activations any attack can spend (max_act).

One kernel, _feasible_rounds, computes the wave rounds behind every verdict,
maximum and sweep cell. Round i is feasible for a starting size b0 while S,
the wave activations of rounds 1..i-1, stays at or under a limit fixed by b0
alone: the set must still be non-empty and the time spent must fit the
window. S never decreases, so each size's feasible rounds form a prefix, and
a size that fails a round is dropped for good.

A smaller threshold triggers refresh management sooner, so the secure
thresholds are almost always a prefix 1..th*; but where the window binds,
priming can cost a larger threshold's attack a round (analysis-appendix,
n_rh 38, bo_n_refs 2: abo_th 21 is insecure, 22 secure). secure_rfm_th and
secure_abo_th therefore scan down from the cap and return the first secure
threshold, the largest whether or not the secure ones form a prefix. An
insecure verdict stops at the chunk of its witness, so the scan pays for one
full secure verdict: the answer's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Union

from .dram import Topology
from .timing import ConfigError, TimingParams

RFM_TH_CAP = 80   # largest rfm_th the protocol allows
WITNESS_CHUNK = 1024   # starting sizes in _witness's first chunk


@dataclass(frozen=True)
class PrfmParams:
    """Periodic refresh management: one RFM per rfm_th bank activations."""
    rfm_th: int

    def __post_init__(self):
        if self.rfm_th < 1:
            raise ConfigError("rfm_th must be >= 1")

    def wave(self, t: TimingParams) -> tuple:
        """(removed, divisor, prime, block) of the wave attack against it."""
        return 1, self.rfm_th, 0, t.tRFM


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
        return self.bo_n_acts + t.window_acts()

    def wave(self, t: TimingParams) -> tuple:
        """(removed, divisor, prime, block) of the wave attack against it."""
        return self.bo_n_refs, self.divisor(t), self.abo_th - 1, self.bo_n_refs * t.tRFM


WaveParams = Union[PrfmParams, PracParams]


@dataclass(frozen=True)
class RowSetTrajectory:
    """Surviving-set sizes per attack round."""
    sizes: tuple

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
    s = r1
    while sizes[-1] > 0 and len(sizes) <= max_steps:
        nxt = r1 - removed * (s // divisor)
        if nxt < 0:
            nxt = 0
        sizes.append(nxt)
        s += nxt
    return RowSetTrajectory(tuple(sizes))


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
        nxt = b - (bank + b) // rfm_th
        bank = (bank + b) % rfm_th
        sizes.append(nxt)
    return sizes


# ---------------------------------------------------------------------------
# activation budget


def t_available(t: TimingParams) -> int:
    """Command time per refresh window left after periodic refresh (ps)."""
    return t.tREFW - (t.tREFW // t.tREFI) * t.tRFC


def act_budget(t: TimingParams, p: WaveParams) -> int:
    """Activations that fit in the window (max_act) when each trigger costs
    divisor activations plus the time it blocks the bank."""
    _, divisor, _, block = p.wave(t)
    return t_available(t) // (divisor * t.tRC + block) * divisor


# ---------------------------------------------------------------------------
# wave rounds: the kernel behind verdicts, maxima and sweep cells


def _feasible_rounds(p: WaveParams, t: TimingParams, b0s):
    """Yield, for round 1, 2, ..., the starting sizes among b0s (in their
    order) whose survivors still complete that round inside the window.

    limit(b0) is the largest S for which round i is feasible, the smaller of
      - the set is still non-empty: removed * (S // divisor) < b0;
      - the time fits: priming and wave activations cost tRC each and every
        completed trigger blocks the bank for `block`. With room the window
        left after the priming and the round's first activation, and
        q, r = divmod(room, divisor * tRC + block), the last S that fits is
        q * divisor + min(r // tRC, divisor - 1), negative when room is.
    """
    import numpy as np   # here, not at module level: the CLI starts without it
    removed, divisor, prime, block = p.wave(t)
    b0 = np.asarray(b0s, dtype=np.int64)
    # in place: a full-size bank has 64K sizes, so every temporary array counts
    limit, r = np.divmod(t_available(t) - (prime * b0 + 1) * t.tRC, divisor * t.tRC + block)
    r //= t.tRC
    limit *= divisor
    limit += np.minimum(r, divisor - 1, out=r)
    del r
    np.minimum(limit, divisor * -(-b0 // removed) - 1, out=limit)
    s = np.zeros_like(b0)
    while True:
        keep = s <= limit
        if not keep.all():
            b0 = b0[keep]
            limit = limit[keep]
            s = s[keep]
        if not b0.size:
            return
        yield b0
        s += b0 - removed * (s // divisor)   # > 0: s <= limit keeps the set non-empty


def _starting_sizes(p: WaveParams, t: TimingParams, rows_per_bank: int):
    import numpy as np
    # an attacker cannot touch more distinct rows than it has activations
    return np.arange(1, max(1, min(rows_per_bank, act_budget(t, p))) + 1)


# ---------------------------------------------------------------------------
# security verdicts and maximum activation counts


@dataclass(frozen=True)
class Verdict:
    """A wave-attack verdict. `witness_b0` is the wave's smallest starting
    size that reaches n_rh, not the fewest rows any attack needs: with few
    rows, other access patterns reach more activations than the wave."""
    secure: bool
    witness_b0: Optional[int] = None


def is_secure(n_rh: int, p: WaveParams, t: TimingParams,
              rows_per_bank: int = Topology.rows_per_bank) -> Verdict:
    """Secure iff no starting set size lets any row collect n_rh activations
    between refreshes of its victims, within the refresh-window time budget;
    otherwise the smallest such size is the witness.

    Under back-off the attacker primes every decoy row to abo_th - 1
    activations first, so abo_th - 1 + i activations land by round i.
    Priming costs tRC per activation only (no threshold crossing can fire)."""
    if n_rh < 1:
        raise ConfigError("n_rh must be >= 1")
    witness = _witness(n_rh, p, t, _starting_sizes(p, t, rows_per_bank))
    return Verdict(witness is None, witness)


def _witness(n_rh: int, p: WaveParams, t: TimingParams, b0s) -> Optional[int]:
    """The first starting size in b0s that gives some row n_rh activations.

    The kernel judges each size on its own, so b0s is scanned in chunks of
    WITNESS_CHUNK sizes, doubling after each, and the scan stops at the first
    chunk that holds a survivor: a witness among the first few sizes costs
    no pass over a whole bank."""
    needed = n_rh - p.wave(t)[2]
    if needed <= 0:
        # priming alone reaches the threshold before any back-off can fire
        return int(b0s[0])
    start, chunk = 0, WITNESS_CHUNK
    while start < len(b0s):
        alive = next(islice(_feasible_rounds(p, t, b0s[start:start + chunk]), needed - 1,
                            None), None)
        if alive is not None:
            return int(alive[0])
        start += chunk
        chunk *= 2
    return None


is_secure_prfm = is_secure_prac = is_secure


def max_activations_prac(p: PracParams, t: TimingParams,
                         rows_per_bank: int = Topology.rows_per_bank) -> int:
    """Highest activation count the wave attack reaches under the back-off
    protocol, maximized over the starting set size (decoys are primed to
    abo_th - 1 first). Other access patterns can reach more when rows are
    few, so this bounds the wave, not every attack."""
    rounds = _feasible_rounds(p, t, _starting_sizes(p, t, rows_per_bank))
    return p.abo_th - 1 + sum(1 for _ in rounds)


def _largest_secure(n_rh: int, params, top: int, t: TimingParams,
                    rows_per_bank: int) -> Optional[int]:
    """The first th from top down to 1 with params(th) secure at n_rh, None
    if there is none."""
    candidates = ((th, params(th)) for th in range(top, 0, -1))
    return next((th for th, p in candidates
                 if _witness(n_rh, p, t, _starting_sizes(p, t, rows_per_bank)) is None), None)


def secure_rfm_th(n_rh: int, t: TimingParams,
                  rows_per_bank: int = Topology.rows_per_bank) -> Optional[int]:
    """Largest rfm_th (up to the protocol cap) secure at n_rh, None if even 1 fails."""
    return _largest_secure(n_rh, PrfmParams, min(RFM_TH_CAP, max(n_rh - 1, 1)), t,
                           rows_per_bank)


def secure_abo_th(n_rh: int, t: TimingParams, bo_n_refs: int = PracParams.bo_n_refs,
                  bo_n_acts: int = PracParams.bo_n_acts,
                  rows_per_bank: int = Topology.rows_per_bank) -> Optional[int]:
    """Largest abo_th secure at n_rh for the given recovery settings."""
    return _largest_secure(n_rh, lambda th: PracParams(th, bo_n_refs, bo_n_acts), n_rh - 1,
                           t, rows_per_bank)


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
    bo_n_acts: int = PracParams.bo_n_acts

    def __post_init__(self):
        if self.mechanism not in ("prfm", "prac"):
            raise ConfigError("sweep mechanism must be 'prfm' or 'prac'")
        if any(b0 < 1 for b0 in self.b0_values):
            raise ConfigError("a decoy set size b0 must be >= 1")


def sweep(grid: SweepGrid, t: TimingParams,
          rows_per_bank: int = Topology.rows_per_bank) -> list:
    """One row per grid point: the wave attack's activation count and the
    smallest RowHammer threshold the point is secure against it. A PRFM cell
    counts the rounds its own decoy set size b0 completes. The count is the
    wave's, not a worst case over every access pattern: with few rows,
    other patterns reach more."""
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
            reach = dict.fromkeys(grid.b0_values, 0)
            for i, alive in enumerate(_feasible_rounds(PrfmParams(th), t, tuple(reach)), 1):
                reach.update(dict.fromkeys(alive.tolist(), i))
            rows += [("prfm", th, b0, reach[b0], reach[b0] + 1) for b0 in grid.b0_values]
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
