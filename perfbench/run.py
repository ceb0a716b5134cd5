"""pracsim benchmark: one workload, one process, host-time metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workload's batch runs again and again until `--seconds` have passed and
at least two batches are done. Every batch does the same work, so each
must give the same output digest. Set-up (interpreter start, imports, trace
and mix materialisation, the attacker trace, the config) is timed in a fresh
interpreter after each batch, at least five times, and its median reported.

With `--trace 0` the last line carries the end-to-end metrics (BENCHMARK.json
`end_to_end`). With `--trace 1` the run first repeats the untraced batches
for half the time, then wraps each layer's entry points (see spans.py) and
replays the same number of batches; the last line carries the per-layer
metrics, and `trace.overhead_frac` compares the two halves. Layer numbers
are per batch. Unit spans go to .perfbench/spans-<workload>-seed<n>.json.

Times are host time (time.perf_counter) scaled to a reference machine speed:
a small calibration kernel timed every 50 ms by a sampler thread shows how
fast the shared machine ran meanwhile (see Speed), and every reported time is
divided by that factor. The raw host time per batch is printed beside it. Simulated time is
the modelled DRAM time; the timing model is unvalidated against hardware, and
its only reference is the closed-form analyzer that safety_replay checks.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import suite  # imports pracsim from the checkout's src/
from spans import Tracer

SETUP_REPEATS = 5
MIN_BATCHES = 2
# Calibration kernel's median host time when the machine the benchmark was
# defined on (2 vCPUs, Python 3.11) ran at full speed. It only sets the scale.
CALIBRATION_REF_S = 0.0007
CALIBRATION_INTERVAL_S = 0.05


class Batch:
    def __init__(self, prologue_s, unit_s, outcomes, problems):
        self.prologue_s = prologue_s
        self.unit_s = unit_s              # unit key -> host seconds
        self.outcomes = outcomes
        self.problems = problems
        blob = json.dumps({k: o.digest for k, o in outcomes.items()}, sort_keys=True)
        self.digest = hashlib.sha256(blob.encode()).hexdigest()
        self.failed = sum(1 for o in outcomes.values() if o.problem is not None)
        self.cmds = sum(o.cmds for o in outcomes.values())
        self.sim_ps = sum(o.sim_ps for o in outcomes.values())


def calibration_kernel() -> int:
    """Fixed pure-Python work: dict updates and integer arithmetic, the
    interpreter staples the simulator's own loops are made of."""
    counts = {}
    get = counts.get
    for i in range(6000):
        k = i * 7919 % 1021
        counts[k] = get(k, 0) + 1
    return len(counts)


class Speed:
    """How slow the machine ran while a phase of the run was measured.

    A shared machine's speed drifts by tens of percent over seconds to
    minutes, for every process alike. A sampler thread times the calibration
    kernel every CALIBRATION_INTERVAL_S while the phase runs; host times
    divided by `factor()` read as if the machine had run at the reference
    speed throughout, which keeps runs of the same code comparable. The
    kernel holds the interpreter lock for well under a millisecond per sample.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(CALIBRATION_INTERVAL_S):
            t0 = time.perf_counter()
            calibration_kernel()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return statistics.median(self.samples) / CALIBRATION_REF_S


def run_batch(work, tracer=None) -> Batch:
    gc.collect()
    t0 = time.perf_counter()
    ctx = {}
    work.prologue(ctx)
    prologue_s = time.perf_counter() - t0
    outcomes, unit_s = {}, {}
    for key, fn in work.units:
        u0 = time.perf_counter()
        try:
            out = fn(ctx) if tracer is None else tracer.unit(key, fn, ctx)
        except suite.FAILURES as exc:
            out = suite.Outcome(digest=f"raised {type(exc).__name__}",
                                problem=f"{type(exc).__name__}: {exc}")
        unit_s[key] = time.perf_counter() - u0
        outcomes[key] = out
    return Batch(prologue_s, unit_s, outcomes, work.check(outcomes, ctx))


def run_for(work, seconds, min_batches=1, tracer=None, after_batch=lambda: None) -> list:
    """Run whole batches until `seconds` have passed and at least
    `min_batches` are done."""
    out = []
    t0 = time.perf_counter()
    while len(out) < min_batches or time.perf_counter() - t0 < seconds:
        out.append(run_batch(work, tracer))
        after_batch()
    return out


def unit_medians(batches) -> list:
    """Each unit's median host time over the batches. The machine's speed
    varies in bursts; a per-unit median drops the units a burst hit."""
    return [statistics.median(b.unit_s[key] for b in batches) for key in batches[0].unit_s]


def batch_s(batches) -> float:
    """Host time of one batch, built from per-unit medians."""
    return statistics.median(b.prologue_s for b in batches) + sum(unit_medians(batches))


def probe_setup_s(workload: str, seed: int) -> float:
    """Host time from starting a fresh interpreter to the end of the
    workload's set-up: interpreter start, imports, input materialisation."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import suite; "
            f"work = suite.SETUPS[{workload!r}]({seed}); print(flush=True); work.cleanup()")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
        proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if proc.wait() != 0:
            raise SystemExit(f"perfbench: set-up of {workload} failed")
    return elapsed


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def git_sha(root) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import numpy
    return {"git_sha": git_sha(suite.ROOT), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "loadavg_start": [round(x, 2) for x in os.getloadavg()],
            "seed": args.seed, "PRACSIM_WORKERS": os.environ["PRACSIM_WORKERS"],
            "workload": args.workload, "trace": args.trace}


def model_metrics(batch: Batch) -> dict:
    """Simulated statistics of one batch; identical on every batch."""
    outs = batch.outcomes.values()
    total = {}
    for o in outs:
        for cmd, n in o.counts.items():
            total[cmd] = total.get(cmd, 0) + n
    col = total.get("RD", 0) + total.get("WR", 0)
    ctrl_acts = sum(o.ctrl_acts for o in outs)
    slacks = [o.slack_ps for o in outs if o.slack_ps is not None]
    ws = [w for o in outs for w in o.ws]
    return {
        "model.acts": (total.get("ACT", 0), "count"),
        "model.reads": (total.get("RD", 0), "count"),
        "model.writes": (total.get("WR", 0), "count"),
        "model.refs": (total.get("REF", 0), "count"),
        "model.rfms": (total.get("RFMab", 0) + total.get("RFMsb", 0), "count"),
        "model.backoffs": (sum(o.backoffs for o in outs), "count"),
        "model.preventive_refreshes": (sum(o.preventive for o in outs), "count"),
        "model.row_hit_rate": (max(0.0, 1 - ctrl_acts / col) if col else 0.0, "ratio"),
        "model.read_lat_p99_ns": (max(o.lat_p99_ps for o in outs) / 1000, "ns"),
        "model.min_deadline_slack_ns": (min(slacks) / 1000 if slacks else -1, "ns"),
        "model.ws_mean": (statistics.fmean(ws) if ws else 0.0, "ratio"),
    }


def layer_metrics(tracer: Tracer, plain: list, plain_factor: float,
                  traced: list, traced_factor: float) -> dict:
    n = len(traced)

    def cell(key):
        return tracer.cells.get(key, [0, 0.0])

    def calls(*keys):
        return sum(cell(k)[0] for k in keys) / n

    def self_s(*keys):
        return sum(cell(k)[1] for k in keys) / n / traced_factor

    sec = [k for k in tracer.cells if k.startswith("security.")]
    mon = ("monitor.on_act", "monitor.on_row_refreshed")
    ctl = ("controller.step", "controller.enqueue", "controller.can_accept")
    hits = sum(o.rcc[0] for b in traced for o in b.outcomes.values())
    misses = sum(o.rcc[1] for b in traced for o in b.outcomes.values())
    steps = cell("controller.step")[0]
    accepts = cell("controller.can_accept")[0]
    enqueued = cell("controller.enqueue")[0]
    return {
        "security.calls": (calls(*sec), "count"),
        "security.self_s": (self_s(*sec), "s"),
        "attack.replays": (calls("attack.run_wave_attack"), "count"),
        "attack.self_s": (self_s("attack.run_wave_attack"), "s"),
        "dram.issue_calls": (calls("dram.issue"), "count"),
        "dram.issue_self_s": (self_s("dram.issue"), "s"),
        "dram.serve_rfm_calls": (calls("dram.serve_rfm"), "count"),
        "dram.serve_rfm_self_s": (self_s("dram.serve_rfm"), "s"),
        "monitor.on_act_calls": (calls("monitor.on_act"), "count"),
        "monitor.refreshed_calls": (calls("monitor.on_row_refreshed"), "count"),
        "monitor.self_s": (self_s(*mon), "s"),
        "monitor.tallies_max": (tracer.counts.get("monitor.tallies_max", 0), "count"),
        "controller.step_calls": (calls("controller.step"), "count"),
        "controller.self_s": (self_s(*ctl), "s"),
        "controller.cmds_per_step": (cell("dram.issue")[0] / steps if steps else 0.0, "ratio"),
        "controller.queue_full_frac": (
            tracer.counts.get("controller.queue_full", 0) / accepts if accepts else 0.0, "ratio"),
        "workloads.frontend_self_s": (
            self_s("workloads.run_cores", "workloads.window_has_room"), "s"),
        "workloads.polls_per_record": (
            cell("workloads.window_has_room")[0] / enqueued if enqueued else 0.0, "ratio"),
        "mitigations.on_activation_calls": (calls("mitigations.on_activation"), "count"),
        "mitigations.self_s": (self_s("mitigations.on_activation"), "s"),
        "mitigations.hydra_rcc_hit_rate": (hits / (hits + misses) if hits + misses else 0.0,
                                           "ratio"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "metrics.build_report_s": (self_s("metrics.build_report"), "s"),
        **model_metrics(traced[0]),
        "trace.overhead_frac": (
            (batch_s(traced) / traced_factor) / (batch_s(plain) / plain_factor) - 1, "ratio"),
    }


def end_to_end_metrics(batches: list, setup_s: float, factor: float) -> dict:
    wall = batch_s(batches) / factor
    units = [u / factor for u in unit_medians(batches)]
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s / factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_cmds_per_s": (batches[0].cmds / wall, "1/s"),
        "sim_us_per_s": (batches[0].sim_ps / 1e6 / wall, "us/s"),
        "unit_p50_s": (statistics.median(units), "s"),
        "unit_p90_s": (percentile(units, 90), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(suite.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ["PRACSIM_WORKERS"] = "1"
    meta = metadata(args)
    print("meta " + json.dumps(meta, sort_keys=True))

    work = suite.SETUPS[args.workload](args.seed)

    try:
        if args.trace:
            with Speed() as speed:
                plain = run_for(work, args.seconds / 2)
            tracer = Tracer()
            suite.install_tracer(tracer)
            try:
                with Speed() as traced_speed:
                    traced = run_for(work, 0, len(plain), tracer)
            finally:
                tracer.restore()
            batches = plain + traced
            metrics = layer_metrics(tracer, plain, speed.factor(), traced, traced_speed.factor())
            raw_s = batch_s(plain)
            spans_path = suite.ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write(spans_path)
            total = sum(b.prologue_s + sum(b.unit_s.values()) for b in traced)
            for layer, (calls, self_s) in sorted(tracer.layer_totals().items()):
                print(f"layer {layer}: {calls / len(traced):.0f} calls/batch, "
                      f"self {self_s / len(traced):.4f} s/batch, share {self_s / total:.3f}")
        else:
            # set-up probes run between batches, so a slow spell of the
            # machine hits few of them
            probes = []
            with Speed() as speed:
                batches = run_for(work, args.seconds, MIN_BATCHES, after_batch=lambda: probes.append(
                    probe_setup_s(args.workload, args.seed)))
                while len(probes) < SETUP_REPEATS:
                    probes.append(probe_setup_s(args.workload, args.seed))
            metrics = end_to_end_metrics(batches, statistics.median(probes), speed.factor())
            raw_s = batch_s(batches)
    finally:
        work.cleanup()

    attempted = sum(len(b.unit_s) for b in batches)
    failed = sum(b.failed for b in batches)
    digests = sorted({b.digest for b in batches})
    problems = sorted({p for b in batches for p in b.problems}
                      | {o.problem for b in batches for o in b.outcomes.values()
                         if o.problem is not None})
    correct = failed == 0 and not problems and len(digests) == 1

    print(f"batches {len(batches)}, units per batch {len(work.units)}, "
          f"unit samples {attempted}; host s per batch: "
          + " ".join(f"{b.prologue_s + sum(b.unit_s.values()):.3f}" for b in batches))
    for digest in digests:
        print(f"digest sha256 {digest}")
    for problem in problems[:20]:
        print(f"problem {problem}")
    print(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted} units)")
    print(f"speed factor {speed.factor():.4f}: calibration kernel median "
          f"{statistics.median(speed.samples) * 1e3:.4f} ms over {len(speed.samples)} samples, "
          f"reference {CALIBRATION_REF_S * 1e3:.4f} ms; untraced raw host s per batch {raw_s:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
