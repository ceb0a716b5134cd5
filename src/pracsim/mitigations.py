"""Reference mitigations and the storage-cost model.

Controller-side mechanisms (frequent-item counting, DRAM-resident counters
with an on-chip cache, probabilistic neighbor refresh) share one interface:
on_activation() returns the tuple of victim rows to refresh now, empty when
no refresh is due. The in-DRAM mechanisms (per-row counting with back-off,
periodic refresh management) live in the device model and the controller.
Every config derives from MitigationConfig, so any of them tells its runner
the PRAC back-off and PRFM parameters it uses through `prac` and `prfm`,
each None for a mechanism that does not use it.

Storage constants the original proposals left open are pinned here and noted
inline. The config file sets none of them: graphene_defaults sizes graphene
from n_rh and the run's timing, hydra_defaults sizes hydra from n_rh and the
topology.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from .dram import Topology, victim_rows
from .security import PracParams, PrfmParams, t_available
from .timing import ConfigError, TimingParams, preset


class MitigationConfig:
    """Base of every mechanism config. A config that uses PRAC or PRFM
    declares `prac`/`prfm` as a required field; `= field()` keeps the None
    here from becoming that field's default."""
    prac: Optional[PracParams] = None
    prfm: Optional[PrfmParams] = None


@dataclass(frozen=True)
class NoMitigation(MitigationConfig):
    name = "none"


@dataclass(frozen=True)
class Prfm(MitigationConfig):
    prfm: PrfmParams = field()
    name = "prfm"


@dataclass(frozen=True)
class PracN(MitigationConfig):
    prac: PracParams = field()
    name = "prac"


@dataclass(frozen=True)
class PracPlusPrfm(MitigationConfig):
    prac: PracParams = field()
    prfm: PrfmParams = field()
    name = "prac+prfm"


@dataclass(frozen=True)
class PracOptimistic(MitigationConfig):
    """Same policy as PracN but run on unadjusted timing parameters."""
    prac: PracParams = field()
    name = "prac-optimistic"


@dataclass(frozen=True)
class Graphene(MitigationConfig):
    table_entries: int
    threshold: int
    name = "graphene"

    def __post_init__(self):
        if self.table_entries < 1 or self.threshold < 1:
            raise ConfigError("graphene needs positive table_entries and threshold")


@dataclass(frozen=True)
class Hydra(MitigationConfig):
    gct_entries: int
    rcc_entries: int
    group_threshold: int
    row_threshold: int
    name = "hydra"

    def __post_init__(self):
        if min(self.gct_entries, self.rcc_entries,
               self.group_threshold, self.row_threshold) < 1:
            raise ConfigError("hydra parameters must be positive")


@dataclass(frozen=True)
class Para(MitigationConfig):
    probability: float
    name = "para"

    def __post_init__(self):
        if not 0.0 < self.probability < 1.0:
            raise ConfigError("para probability must be inside (0, 1)")


PARA_ESCAPE_EXPONENT = 40


def para_probability(n_rh: int) -> float:
    """p such that an aggressor escaping n_rh samples has probability
    2^-PARA_ESCAPE_EXPONENT."""
    return 1.0 - math.exp(math.log(2.0 ** -PARA_ESCAPE_EXPONENT) / n_rh)


def graphene_defaults(n_rh: int, topo: Topology,
                      t: Optional[TimingParams] = None) -> Graphene:
    """Standard frequent-item sizing: entries >= W / threshold per bank,
    with W the activations that fit in one refresh window of timing t
    (the base preset when t is None)."""
    t = preset("ddr5-3200an-base") if t is None else t
    window_acts = t_available(t) // t.tRC
    threshold = max(n_rh // 4, 1)
    return Graphene(table_entries=-(-window_acts // threshold) + 1, threshold=threshold)


def hydra_defaults(n_rh: int, topo: Topology) -> Hydra:
    gct = min(131_072, max(1024, topo.rows_total // 32))
    rcc = min(4096, max(64, gct // 32))
    # group filter arms at 80% of the per-row tracking threshold
    return Hydra(gct_entries=gct, rcc_entries=rcc,
                 group_threshold=max(2 * n_rh // 5, 1),
                 row_threshold=max(n_rh // 2, 1))


# ---------------------------------------------------------------------------
# runtime state machines


class GrapheneState:
    """Per-bank Misra-Gries tables; a tracked row triggers a victim refresh
    every `threshold` activations. Tables reset once per refresh window."""

    def __init__(self, cfg: Graphene, topo: Topology, t: TimingParams):
        self.cfg = cfg
        self.topo = topo
        self.reset_period = t.tREFW
        self.last_reset = 0
        self.tables = [dict() for _ in range(topo.banks_total)]   # row -> count
        self.spill = [0] * topo.banks_total

    def on_activation(self, bank: int, row: int, now: int) -> tuple:
        if now - self.last_reset >= self.reset_period:
            for tb in self.tables:
                tb.clear()
            self.spill = [0] * self.topo.banks_total
            self.last_reset = now
        table = self.tables[bank]
        if row in table:
            table[row] += 1
        elif len(table) < self.cfg.table_entries:
            table[row] = self.spill[bank] + 1
        else:
            # decrement-all step of the frequent-item sketch
            self.spill[bank] += 1
            dead = [r for r, c in table.items() if c <= self.spill[bank]]
            for r in dead:
                del table[r]
            return ()
        if table[row] - self.spill[bank] >= self.cfg.threshold:
            table[row] = self.spill[bank]
            return victim_rows(row, self.topo.rows_per_bank)
        return ()


class HydraState:
    """Group counters filter traffic; past the group threshold, per-row
    counters (DRAM-resident, cached on chip) take over. The DRAM copy is
    authoritative, so a cache miss can never undercount."""

    def __init__(self, cfg: Hydra, topo: Topology):
        self.cfg = cfg
        self.topo = topo
        self.groups = {}        # group index -> count
        self.row_counters = {}  # (bank, row) -> count, authoritative
        self.rcc = OrderedDict()   # cached keys, least recently used first
        self.rcc_hits = 0
        self.rcc_misses = 0
        span = max(1, topo.rows_total // cfg.gct_entries)
        self._span = span

    def _group(self, bank: int, row: int) -> int:
        return (bank * self.topo.rows_per_bank + row) // self._span

    def _touch_cache(self, key):
        rcc = self.rcc
        if key in rcc:
            rcc.move_to_end(key)
            self.rcc_hits += 1
        else:
            self.rcc_misses += 1
            rcc[key] = None
            if len(rcc) > self.cfg.rcc_entries:
                rcc.popitem(last=False)   # writeback; row_counters stays authoritative

    def on_activation(self, bank: int, row: int, now: int) -> tuple:
        g = self._group(bank, row)
        gcount = self.groups.get(g, 0)
        if gcount < self.cfg.group_threshold:
            self.groups[g] = gcount + 1
            return ()
        key = (bank, row)
        self._touch_cache(key)
        # first engagement inherits the group count pessimistically
        count = self.row_counters.get(key, self.cfg.group_threshold) + 1
        if count >= self.cfg.row_threshold:
            self.row_counters[key] = 0
            return victim_rows(row, self.topo.rows_per_bank)
        self.row_counters[key] = count
        return ()


class ParaState:
    """Probabilistic neighbor refresh, reproducible from the run seed: one
    draw per activation, and a draw below p refreshes every victim of the
    aggressor, as para_probability assumes."""

    def __init__(self, cfg: Para, topo: Topology, seed: int = 0):
        self.cfg = cfg
        self.topo = topo
        self.rng = random.Random(seed)

    def on_activation(self, bank: int, row: int, now: int) -> tuple:
        if self.rng.random() < self.cfg.probability:
            return victim_rows(row, self.topo.rows_per_bank)
        return ()


def build_mechanism(cfg: MitigationConfig, topo: Topology, t: TimingParams,
                    seed: int = 0):
    """Controller-side state for a config; device-backed mechanisms need none."""
    if isinstance(cfg, Graphene):
        return GrapheneState(cfg, topo, t)
    if isinstance(cfg, Hydra):
        return HydraState(cfg, topo)
    if isinstance(cfg, Para):
        return ParaState(cfg, topo, seed)
    return None


# ---------------------------------------------------------------------------
# storage model


@dataclass(frozen=True)
class StorageBreakdown:
    cpu_bits: int
    dram_bits: int


def counter_width(n_rh: int) -> int:
    """Saturating per-row counter: threshold bits plus one guard bit."""
    return math.ceil(math.log2(n_rh)) + 1


HYDRA_MIN_COUNTER_BITS = 6   # smallest row-count-cache entry granularity


def storage_cost(mech: MitigationConfig, n_rh: int, topo: Topology) -> StorageBreakdown:
    row_bits_bank = math.ceil(math.log2(topo.rows_per_bank))
    row_bits_total = math.ceil(math.log2(topo.rows_total))
    width = counter_width(n_rh)
    if isinstance(mech, Graphene):
        entry = row_bits_bank + math.ceil(math.log2(mech.threshold + 1))
        return StorageBreakdown(topo.banks_total * mech.table_entries * entry, 0)
    if isinstance(mech, Hydra):
        row_counter = max(width, HYDRA_MIN_COUNTER_BITS)
        gct_width = math.ceil(math.log2(mech.group_threshold)) + 1
        cpu = (mech.gct_entries * gct_width
               + mech.rcc_entries * (row_bits_total + row_counter))
        return StorageBreakdown(cpu, topo.rows_total * row_counter)
    if isinstance(mech, Para):
        return StorageBreakdown(topo.banks_total * 32, 0)   # per-bank LFSR
    # in-DRAM mechanisms: one RAA counter per bank, one counter per row
    raa_bits = 0 if mech.prfm is None else math.ceil(math.log2(mech.prfm.rfm_th)) + 1
    return StorageBreakdown(topo.banks_total * raa_bits,
                            0 if mech.prac is None else topo.rows_total * width)
