"""Where the host time of a `pracsim simulate` run goes, without a tracer.

    python tests/simulate_probe.py CONFIG

Resolves CONFIG as `simulate` does and runs every mix through `cli.run_mix`,
one worker, writing no files. It prints one JSON line: host seconds spent in
`resolve_spec` (threshold derivation included), in trace generation, in the
solo runs behind the weighted-speedup baselines and in the shared runs, and,
per mix, the records generated and the records each core of the shared run
consumed. The test suite does not collect this script (its name does not
start with `test_`).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pracsim import cli, workloads  # noqa: E402
from pracsim.configfile import parse_config  # noqa: E402


def probe(path: str) -> dict:
    seconds = dict.fromkeys(("resolve_s", "trace_s", "solo_s", "shared_s"), 0.0)
    generated, consumed, cores = [], [], []

    class RecordedCore(workloads.CoreModel):
        def __init__(self, *args):
            super().__init__(*args)
            cores.append(self)

    materialize_mix, run_cores = cli.materialize_mix, cli.run_cores

    def timed_materialize(*args):
        t0 = time.perf_counter()
        traces = materialize_mix(*args)
        seconds["trace_s"] += time.perf_counter() - t0
        generated.append([len(tr) for tr in traces])
        return traces

    def timed_run(traces, *args):
        cores.clear()
        t0 = time.perf_counter()
        result = run_cores(traces, *args)
        seconds["solo_s" if len(traces) == 1 else "shared_s"] += time.perf_counter() - t0
        if len(traces) > 1:
            consumed.append([core.idx for core in cores])
        return result

    workloads.CoreModel, cli.materialize_mix, cli.run_cores = (
        RecordedCore, timed_materialize, timed_run)
    start = time.perf_counter()
    spec = cli.resolve_spec(parse_config(path))
    seconds["resolve_s"] = time.perf_counter() - start
    for i in range(spec.mixes):
        cli.run_mix(spec, i)
    total = time.perf_counter() - start
    return {"config": path, "mixes": spec.mixes, "total_s": round(total, 4),
            **{k: round(v, 4) for k, v in seconds.items()},
            "records_generated": generated, "records_consumed": consumed}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print(json.dumps(probe(sys.argv[1])))
