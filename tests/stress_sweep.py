"""Stress sweep of the back-off and refresh-management paths through
`pracsim simulate`: 108 desk campaigns with the dos attacker beside three
benign cores, under analyzer-derived thresholds.

    kinds           prac, prac+prfm, prac-optimistic
    n_rh            6, 8, 12
    attacker_banks  4, 8
    attacker_rows   2, 8
    seeds           0, 1, 2

Each run has 6 mixes of 300 records, 2,000 instructions per core and a cap
of 600,000 cycles. A run fails when `simulate` exits non-zero: a
ProtocolError (a back-off window ACT after its deadline among them), broken
counter conservation, or a monitor violation under the derived thresholds. The script prints each failing run
with its error and exits 1 if any failed. It takes about 90 s on a 2-vCPU
machine, so the test suite does not collect it (its name does not start
with `test_`):

    python tests/stress_sweep.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pracsim.cli import main  # noqa: E402

KINDS = ("prac", "prac+prfm", "prac-optimistic")
N_RH = (6, 8, 12)
ATTACKER_BANKS = (4, 8)
ATTACKER_ROWS = (2, 8)
SEEDS = (0, 1, 2)
WORKLOAD = {"records": 300, "instructions_per_core": 2000, "max_cycles": 600_000,
            "attacker": "dos"}


def run(kind: str, n_rh: int, banks: int, rows: int, seed: int, tmp: Path):
    """One `simulate` run; returns its exit code and what it wrote to stderr."""
    workload = {**WORKLOAD, "attacker_banks": banks, "attacker_rows": rows, "seed": seed}
    ini = tmp / "sweep.ini"
    ini.write_text(f"[mitigation]\nkind = {kind}\nn_rh = {n_rh}\n[workload]\n"
                   + "".join(f"{k} = {v}\n" for k, v in workload.items()))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(ini), "--out-dir", str(tmp / "out")])
    return code, err.getvalue().strip()


def sweep() -> int:
    failures = 0
    runs = list(itertools.product(KINDS, N_RH, ATTACKER_BANKS, ATTACKER_ROWS, SEEDS))
    with tempfile.TemporaryDirectory() as tmp:
        for kind, n_rh, banks, rows, seed in runs:
            code, err = run(kind, n_rh, banks, rows, seed, Path(tmp))
            if code != 0:
                failures += 1
                print(f"FAIL kind={kind} n_rh={n_rh} attacker_banks={banks} "
                      f"attacker_rows={rows} seed={seed} exit={code}: {err}", flush=True)
    print(f"{len(runs) - failures} of {len(runs)} runs passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(sweep())
