"""Adversarial access generators and the throughput-consumption math.

Two attacker families:

  wave              security-oriented: hammer a decoy set in balanced rounds
                    so every preventive refresh retires only one aggressor,
                    maximizing the last survivor's activation count
  perf_degradation  availability-oriented: row conflicts across a few banks,
                    paced at tRC, to trigger as many preventive actions as
                    possible

The wave generator runs closed-loop against the device model: after every
refresh-management command the device reports which aggressor's victims were
refreshed and the generator drops that row from the next round. Within a
round, still-live rows are hammered first; a row whose victims were
refreshed before its turn still receives its planned activation at the
round's tail and leaves the rotation at the boundary.

`run_wave_attack` replays it in one command loop with no helper call per
command, since the analyzer's cross-check runs hundreds of these replays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain
from typing import Optional, Union

from .controller import inverse_map_address
from .dram import ACT, PRE, REF, RFMAB, DeviceState, DisturbanceMonitor, Topology
from .security import PracParams, PrfmParams, t_available
from .timing import ConfigError, TimingParams
from .workloads import TraceRecord


@dataclass(frozen=True)
class AttackSpec:
    kind: str                      # "perf_degradation"; wave runs closed-loop instead
    rows_per_bank: int = 8
    banks: int = 4

    def __post_init__(self):
        if self.kind != "perf_degradation":
            raise ConfigError(f"attack kind must be 'perf_degradation', got {self.kind!r}")
        if self.rows_per_bank < 1 or self.banks < 1:
            raise ConfigError("attack spec rows_per_bank and banks must be >= 1")


# ---------------------------------------------------------------------------
# theoretical throughput consumption


@dataclass(frozen=True)
class ConsumptionReport:
    t_available: int        # ps per refresh window left after periodic refresh
    t_attack_period: int    # ps per preventive trigger
    t_prevent: float        # ps consumed by preventive actions per window
    fraction: float         # t_prevent / t_available
    steady_fraction: float  # window-free steady-state form


def theoretical_consumption(t: TimingParams,
                            mech: Union[PrfmParams, PracParams]) -> ConsumptionReport:
    """Worst-case share of DRAM time an attacker can burn in preventive actions."""
    avail = t_available(t)
    if isinstance(mech, PrfmParams):
        period = mech.rfm_th * t.tRC + t.tRFM
        block = t.tRFM
    elif isinstance(mech, PracParams):
        period = mech.abo_th * t.tRC + mech.bo_n_refs * t.tRFM
        block = mech.bo_n_refs * t.tRFM
    else:
        raise ConfigError(f"unsupported mechanism {type(mech).__name__}")
    t_prevent = block * (avail / period)
    return ConsumptionReport(
        t_available=avail,
        t_attack_period=period,
        t_prevent=t_prevent,
        fraction=t_prevent / avail,
        steady_fraction=block / period,
    )


# ---------------------------------------------------------------------------
# wave attack: closed-loop generator + event-driven replay


class WaveAttacker:
    """Feedback-driven row source for the wave pattern on a single bank."""

    def __init__(self, rows: int, priming: int = 0):
        self.live = set(range(rows))
        self.priming = priming
        self.sizes = [rows]

    def on_refresh(self, aggressor: int):
        """An RFM refreshed the victims of `aggressor` on this bank."""
        self.live.discard(aggressor)

    def prime_rows(self):
        for row in sorted(self.live):
            for _ in range(self.priming):
                yield row

    def wave_rows(self):
        """Round-by-round activation targets, reacting to on_refresh() calls."""
        while self.live:
            deferred = []
            for row in sorted(self.live):
                if row in self.live:
                    yield row
                else:
                    deferred.append(row)
            for row in deferred:
                yield row
            self.sizes.append(len(self.live))


@dataclass
class WaveReplayResult:
    sizes: tuple
    realized_max: int
    rfm_count: int
    act_count: int
    monitor: Optional[DisturbanceMonitor]
    min_deadline_slack: Optional[int]   # the device's, see DeviceState


def run_wave_attack(spec_rows: int, sec: Union[PrfmParams, PracParams], t: TimingParams,
                    topo: Optional[Topology] = None, bank: int = 0,
                    monitor_n_rh: Optional[int] = None, with_ref: bool = False,
                    ref_resets_counters: bool = False) -> WaveReplayResult:
    """Event-driven replay of the wave attack against the device model.

    The device enforces command timing; the generator consumes refresh
    feedback. Sizes per round reproduce the closed-form trajectories, and
    realized_max is the highest activation count any aggressor collected
    between refreshes of its victims. A REF clears no counter (see
    pracsim.dram), so `ref_resets_counters` accepts only False.

    One loop issues every command. For each row the priming and then the
    wave yield, it issues a REF if one is due, the row's ACT/PRE pair, and
    then the refresh management the pair makes due: under PRAC every RFM of
    an open recovery, under PRFM one RFM per rfm_th ACTs. A REF that falls
    due during an open back-off waits until its recovery ends, since the
    window's ACTs must issue by the back-off deadline.
    """
    # perfbench's safety_replay (perfbench/suite.py) is the keyword's last caller
    if ref_resets_counters is not False:
        raise ConfigError("a REF never clears activation counters; "
                          "ref_resets_counters must be False")
    topo = topo or Topology.desk()
    if spec_rows > topo.rows_per_bank:
        raise ConfigError("decoy set larger than the bank")
    prac_cfg = None
    prfm_th = None
    if isinstance(sec, PracParams):
        prac_cfg = asdict(sec)
        priming = sec.abo_th - 1
    elif isinstance(sec, PrfmParams):
        prfm_th = sec.rfm_th
        priming = 0
    else:
        raise ConfigError("mechanism/spec mismatch: wave needs PRFM or PRAC params")
    monitor = DisturbanceMonitor(monitor_n_rh, topo.rows_per_bank) if monitor_n_rh else None
    # Built through this module's DeviceState name, looked up at call time,
    # and issue bound from the instance: a caller that patches the name to
    # capture the device, or wraps DeviceState.issue on the class to count
    # or log commands, sees every command of the replay.
    dev = DeviceState(topo, t, prac=prac_cfg, monitor=monitor)
    issue, counters, fsm = dev.issue, dev.counters, dev.fsm
    attacker = WaveAttacker(spec_rows, priming)
    tRC, tRAS, tRFC, tRFM, tREFI = t.tRC, t.tRAS, t.tRFC, t.tRFM, t.tREFI

    now = tRC  # headroom so the first command never lands at time zero
    next_ref = now + tREFI if with_ref else float("inf")
    realized = 0
    raa = 0   # the bank's ACTs since its last PRFM RFM
    # Every command below issues at `now`, which never lies before
    # dev.blocked_until. Priming shares the loop: PRFM primes nothing, and
    # PRAC priming leaves every decoy at abo_th - 1, so no back-off asserts
    # before the wave: no REF is held and no recovery opens.
    for row in chain(attacker.prime_rows(), attacker.wave_rows()):
        if now >= next_ref and (fsm is None or fsm.phase == "delay"):
            issue(REF, None, now)
            now += tRFC
            next_ref += tREFI
        addr = (bank, row)
        issue(ACT, addr, now)
        issue(PRE, addr, now + tRAS)
        raa += 1
        count = counters[bank][row]
        if count > realized:
            realized = count
        now += tRC
        if now < dev.blocked_until:
            now = dev.blocked_until
        while (fsm.phase == "recovery") if fsm is not None else (raa >= prfm_th):
            attacker.on_refresh(issue(RFMAB, None, now)[bank])
            now += tRFM
            raa = 0

    return WaveReplayResult(
        sizes=tuple(attacker.sizes), realized_max=realized,
        rfm_count=dev.counts[RFMAB], act_count=dev.counts[ACT], monitor=monitor,
        min_deadline_slack=dev.min_deadline_slack)


# ---------------------------------------------------------------------------
# performance attack


def gen_perf_attack_trace(spec: AttackSpec, t: TimingParams, duration_ps: int,
                          topo: Optional[Topology] = None) -> list:
    """Single-core row-conflict hammer: banks rotate fastest so every bank
    sees a conflict stream; rows rotate per bank visit."""
    topo = topo or Topology()
    rotation = spec.banks * spec.rows_per_bank
    if duration_ps < rotation * t.tRC:
        raise ConfigError("duration shorter than one full rotation of the attack set")
    if spec.banks > topo.bankgroups_per_rank:
        raise ConfigError("attack banks exceed the available bank groups")
    n_records = -(-duration_ps // t.tRC)
    records = []
    for i in range(n_records):
        bg = i % spec.banks                       # bank-group interleave first
        row = (i // spec.banks) % spec.rows_per_bank
        addr = inverse_map_address(topo, rank=0, bankgroup=bg, bank=0,
                                   row=row, column=0)
        records.append(TraceRecord(bubble_count=0, op="read", address=addr))
    return records
