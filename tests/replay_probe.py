"""Full-size wave replays: the analyzer's PRFM witnesses and their secure
neighbours at 64K rows per bank, and two PRAC back-off replays.

    prfm  n_rh 32, 64: rfm_th = secure_rfm_th + 1 at its witness b0 (REF off,
          and for n_rh 64 also REF on), and the secure
          rfm_th at that same b0 (REF off)
    prac  abo_th = secure_abo_th(n_rh, bo_n_refs=4) for n_rh 32, 64 at b0 2,048

Every replay runs on `ddr5-3200an-base` (PRFM) or `ddr5-3200an-prac` (PRAC)
timing at `Topology()` with the monitor on. For each, the script prints one
JSON line: the realized max, the monitor violation count, the RFM and ACT
counts, the least slack in ps of a back-off window's ACTs to its deadline
(PRAC; null without a window ACT), `victim_rows.cache_info()` for that
replay alone, and host
seconds. The monitor's refresh drops each refreshed row's tallies by key,
without `victim_rows`, so the cache columns count the monitor's `on_act`
lookups and one lookup per RFM for the victims of the aggressor it reports.
The replays take a few seconds in all, so the test suite does not collect
this script (its name does not start with `test_`):

    python tests/replay_probe.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pracsim.attack import run_wave_attack  # noqa: E402
from pracsim.dram import Topology, victim_rows  # noqa: E402
from pracsim.security import (  # noqa: E402
    PracParams,
    PrfmParams,
    is_secure,
    secure_abo_th,
    secure_rfm_th,
)
from pracsim.timing import preset  # noqa: E402

BASE = preset("ddr5-3200an-base")
PRAC = preset("ddr5-3200an-prac")
TOPO = Topology()
PRAC_B0 = 2048


def cases():
    """(label, b0, params, timing, n_rh, with_ref) per replay."""
    rows = TOPO.rows_per_bank
    for n_rh in (32, 64):
        th = secure_rfm_th(n_rh, BASE, rows)
        b0 = is_secure(n_rh, PrfmParams(th + 1), BASE, rows).witness_b0
        yield f"prfm-nrh{n_rh}-th{th + 1}-witness", b0, PrfmParams(th + 1), BASE, n_rh, False
        if n_rh == 64:
            yield (f"prfm-nrh{n_rh}-th{th + 1}-witness-ref", b0, PrfmParams(th + 1), BASE,
                   n_rh, True)
        yield f"prfm-nrh{n_rh}-th{th}-secure", b0, PrfmParams(th), BASE, n_rh, False
    for n_rh in (32, 64):
        abo = secure_abo_th(n_rh, PRAC, 4, 1, rows)
        yield f"prac-nrh{n_rh}-abo{abo}", PRAC_B0, PracParams(abo, 4, 1), PRAC, n_rh, False


def probe(label, b0, params, t, n_rh, with_ref) -> dict:
    victim_rows.cache_clear()
    t0 = time.perf_counter()
    res = run_wave_attack(b0, params, t, topo=TOPO, monitor_n_rh=n_rh, with_ref=with_ref)
    host_s = time.perf_counter() - t0
    info = victim_rows.cache_info()
    return {"case": label, "b0": b0, "realized_max": res.realized_max,
            "violations": len(res.monitor.violations), "rfms": res.rfm_count,
            "acts": res.act_count, "min_deadline_slack_ps": res.min_deadline_slack,
            "cache_hits": info.hits, "cache_misses": info.misses,
            "cache_maxsize": info.maxsize, "host_s": round(host_s, 3)}


if __name__ == "__main__":
    for case in cases():
        print(json.dumps(probe(*case)), flush=True)
