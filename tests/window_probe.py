"""Host time and memory of one full-size simulated window.

    python tests/window_probe.py [MS]

Runs MS simulated milliseconds (default 8) of the HHHH mix on the full-size
topology under prac+prfm at n_rh 64 (abo_th 60, rfm_th 6, so no threshold
derivation), with the safety monitor on: 25,000 records per core per
simulated ms, one shared run through `cli._run`, no solo baselines and no
files. It prints one JSON line: host seconds of trace generation and of the
run, the DRAM commands issued, commands per host second of the run, and the
process's peak resident set in MB. The test suite does not collect this
script (its name does not start with `test_`).
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pracsim import cli, workloads  # noqa: E402
from pracsim.dram import DisturbanceMonitor  # noqa: E402

RECORDS_PER_MS = 25_000
N_RH = 64


def probe(ms: int) -> dict:
    records = RECORDS_PER_MS * ms
    spec = cli.resolve_spec({
        "topology": {"desk": False},
        "mitigation": {"kind": "prac+prfm", "n_rh": N_RH, "abo_th": 60, "rfm_th": 6},
        "workload": {"seed": 1, "records": records}})
    cycles = ms * 1_000_000_000 // workloads.CPU_CYCLE_PS
    spec = dataclasses.replace(spec, stop=workloads.StopCondition(None, cycles))
    mix = workloads.build_mixes(spec.mixes, spec.seed)[0]
    assert mix.name == "HHHH"
    t0 = time.perf_counter()
    traces = workloads.materialize_mix(mix, records, spec.topo)
    t1 = time.perf_counter()
    result = cli._run(spec, traces, DisturbanceMonitor(N_RH, spec.topo.rows_per_bank))
    t2 = time.perf_counter()
    cmds = sum(result.device_counts.values())
    return {"ms": ms, "records_per_core": records, "trace_s": round(t1 - t0, 3),
            "run_s": round(t2 - t1, 3), "commands": cmds,
            "commands_per_s": round(cmds / (t2 - t1)),
            "simulated_ps": result.end_ps,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit(__doc__)
    print(json.dumps(probe(int(sys.argv[1]) if len(sys.argv) == 2 else 8)))
