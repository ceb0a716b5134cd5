"""Shared campaign driver for the ordering-property acceptance runs.

Every run goes through pracsim.cli's resolver and runner, so the campaign
measures exactly what `pracsim simulate` reports. Weighted speedups are
normalized against the unmitigated system: alone IPCs come from solo runs of
the same config with kind = none, so configurations are comparable on one
scale and mechanism overheads show up as WS losses rather than shifting the
baseline.
"""

from __future__ import annotations

from functools import lru_cache

from pracsim.cli import resolve_spec, run_mix
from pracsim.workloads import build_mixes, materialize_mix

N_RH_SWEEP = (1024, 128, 64, 32, 16)
ATTACK_N_RH = (128, 64, 32, 16)

WORKLOAD = {"records": 1600, "instructions_per_core": 8000, "max_cycles": 3_000_000}


@lru_cache(maxsize=None)
def spec_for(kind: str, n_rh: int, attacker: bool, mixes: int, seed: int):
    """Desk-scale run spec; thresholds are derived at full scale."""
    workload = dict(WORKLOAD, mixes=mixes, seed=seed)
    if attacker:
        workload.update(attacker="dos", attacker_rows=2, attacker_banks=4)
    return resolve_spec({"mitigation": {"kind": kind, "n_rh": n_rh}, "workload": workload})


class Campaign:
    """Materializes mixes once and caches unmitigated solo IPCs. Every spec
    here shares one baseline (desk, base timing, the same stop condition),
    so a solo result is keyed by (class, member seed, slot) alone."""

    def __init__(self, n_mixes: int = 12, seed: int = 0):
        self.n_mixes, self.seed = n_mixes, seed
        spec = spec_for("none", 1024, False, n_mixes, seed)
        self.traces = [materialize_mix(m, spec.records, spec.topo,
                                       spec.stop.instructions_per_core)
                       for m in build_mixes(n_mixes, seed)]
        self._solo_cache: dict = {}

    def ws(self, mix_index: int, kind: str, n_rh: int, attacker: bool = False):
        """Weighted speedup vs the unmitigated solos; with an attacker the
        first core is the adversary and the WS covers the other three."""
        spec = spec_for(kind, n_rh, attacker, self.n_mixes, self.seed)
        report = run_mix(spec, mix_index, self.traces[mix_index], self._solo_cache)
        return report.weighted_speedup, report
