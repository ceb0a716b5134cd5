"""Weighted speedup, per-command energy accounting, latency percentiles
and report assembly.

The energy model is a flat per-command table (ENERGY_PJ) plus background
power (BACKGROUND_MW). It deliberately replaces a current-waveform model; every
energy claim made by the test suite is directional, never absolute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timing import ConfigError
from .workloads import CPU_CYCLE_PS, RunResult

PERCENTILES = (50, 90, 95, 99, 100)


def weighted_speedup(shared_ipcs, alone_ipcs) -> float:
    if len(shared_ipcs) != len(alone_ipcs):
        raise ConfigError("shared and alone IPC lists must match")
    if any(a <= 0 for a in alone_ipcs):
        raise ConfigError("alone IPC must be positive")
    return sum(s / a for s, a in zip(shared_ipcs, alone_ipcs))


# Per-command energy, flat-rate model. Values are datasheet-style DDR5 x8
# estimates (IDD-derived order of magnitude, not a current-waveform model):
# an activate/precharge pair around 2 nJ split across ACT and PRE, column
# accesses dominated by I/O energy, all-bank refresh amortized over the rows
# it covers, and a refresh-management window costed like a short refresh.
# "preventive" is one targeted victim-row refresh performed by a
# controller-side mechanism. Suite assertions about energy are directional
# only.
ENERGY_PJ = {"ACT": 1200.0, "PRE": 800.0, "RD": 1600.0, "WR": 1700.0,
             "REF": 28000.0, "RFMab": 15000.0, "preventive": 2000.0}
BACKGROUND_MW = 150.0   # static + refresh-idle power, dual-rank channel; 1 mW = 1e-3 pJ/ns


def energy(command_counts: dict, runtime_ps: int) -> float:
    """Sum of per-command energies plus background power over the runtime, pJ."""
    dynamic = sum(count * ENERGY_PJ[cmd] for cmd, count in command_counts.items())
    return dynamic + BACKGROUND_MW * 1e-3 * (runtime_ps / 1000.0)   # mW * ns


def latency_percentiles(latencies) -> dict:
    if not latencies:
        return {p: 0 for p in PERCENTILES}
    ordered = sorted(latencies)
    out = {}
    for p in PERCENTILES:
        idx = min(len(ordered) - 1, max(0, -(-p * len(ordered) // 100) - 1))
        out[p] = ordered[idx]
    return out


@dataclass
class SimReport:
    """One shared run as reports.csv shows it: the weighted speedup over the
    benign cores, and the RunResult every other column is read from."""
    label: str
    seed: int
    weighted_speedup: float
    result: RunResult

    CSV_FIELDS = ("label", "seed", "weighted_speedup", "cycles", "energy_pj",
                  "acts", "pres", "reads", "writes", "refs", "rfms",
                  "preventive_refreshes", "backoffs",
                  "lat_p50", "lat_p90", "lat_p95", "lat_p99", "lat_max",
                  "max_row_activation", "min_deadline_slack",
                  "ipc0", "ipc1", "ipc2", "ipc3")

    def csv_row(self) -> str:
        r = self.result
        cc = r.device_counts
        e = energy({**cc, "preventive": r.preventive_refreshes}, r.end_ps)
        latency = latency_percentiles(r.read_latencies)
        ipcs = list(r.ipcs) + [0.0] * (4 - len(r.ipcs))
        vals = [self.label, self.seed, f"{self.weighted_speedup:.6f}",
                r.end_ps // CPU_CYCLE_PS, f"{e:.3f}",
                cc.get("ACT", 0), cc.get("PRE", 0), cc.get("RD", 0), cc.get("WR", 0),
                cc.get("REF", 0), cc.get("RFMab", 0),
                r.preventive_refreshes, r.backoffs,
                *(latency[p] for p in PERCENTILES),
                r.max_pair_disturbance,
                -1 if r.min_deadline_slack is None else r.min_deadline_slack]
        vals += [f"{v:.6f}" for v in ipcs[:4]]
        return ",".join(str(v) for v in vals)

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_FIELDS)


def build_report(label: str, seed: int, result: RunResult, alone_ipcs,
                 first_benign: int = 0) -> SimReport:
    """Report for one shared run; the weighted speedup covers cores
    first_benign.. against their alone IPCs (cores before that are attackers)."""
    return SimReport(label, seed, weighted_speedup(result.ipcs[first_benign:], alone_ipcs),
                     result)
