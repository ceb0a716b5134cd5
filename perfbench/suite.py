"""The benchmark's four workloads, built on pracsim's public API.

Each workload turns a seed into inputs once (`setup`), then describes one
batch: an optional prologue and a fixed list of units, each one simulated
run or one wave replay. A batch is deterministic, so every batch of a run
must produce the same output digest. A unit fails when it raises one of the
simulator's error types or breaks an invariant; the failure is recorded and
the batch goes on.

DRAM state starts cold in every unit: a fresh DeviceState has every row
closed and every counter at zero, and there are no modelled caches to warm.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "pracsim" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no pracsim sources under {SRC}")
sys.path.insert(0, str(SRC))

import pracsim  # noqa: E402
from pracsim import attack, cli, metrics, security  # noqa: E402
from pracsim import workloads as wl  # noqa: E402
from pracsim.controller import DeadlineOverrun, MemoryController  # noqa: E402
from pracsim.dram import DeviceState, DisturbanceMonitor, ProtocolError, Topology  # noqa: E402
from pracsim.mitigations import (  # noqa: E402
    GrapheneState,
    HydraState,
    NoMitigation,
    Para,
    ParaState,
    PracN,
    PracOptimistic,
    PracPlusPrfm,
    Prfm,
    graphene_defaults,
    hydra_defaults,
    para_probability,
)
from pracsim.security import PracParams, PrfmParams  # noqa: E402
from pracsim.timing import ConfigError, preset  # noqa: E402

if Path(pracsim.__file__).resolve().parent != SRC / "pracsim":
    raise SystemExit(f"perfbench: pracsim imported from {pracsim.__file__}, not {SRC}")

FAILURES = (ProtocolError, DeadlineOverrun, ConfigError)

DESK = Topology.desk()
DESK_BASE = wl.desk_timing(preset("ddr5-3200an-base"))
DESK_PRAC = wl.desk_timing(preset("ddr5-3200an-prac"))

# n_rh -> (abo_th, rfm_th): secure_abo_th on ddr5-3200an-prac and
# secure_rfm_th on analysis-appendix, both at full size. Fixed here so the
# campaign workloads do no analyzer work; test_perfbench checks the table.
THRESHOLDS = {1024: (1020, 80), 128: (124, 12), 64: (60, 6), 32: (28, 3), 16: (12, 1)}

CAMPAIGN_KINDS = ("none", "prac", "prac-optimistic", "prfm", "prac+prfm",
                  "graphene", "hydra", "para")
BENIGN_N_RH = 32
# every core replays its whole trace, so a unit's work hardly depends on the seed
BENIGN_RECORDS = 200
BENIGN_STOP = wl.StopCondition(instructions_per_core=None, max_cycles=3_000_000)

DOS_KINDS = ("prac", "prfm", "prac+prfm")
DOS_N_RH = (128, 64, 32, 16)
DOS_MIXES = (3, 5)               # HHMM and LLHH; the attacker takes slot 0
DOS_RECORDS = 1600
DOS_STOP = wl.StopCondition(instructions_per_core=None, max_cycles=200_000)

# (mechanism, threshold, bo_n_refs, n_rh): analyzer-secure and insecure
# desk configs from the criterion-5 grid, PRFM and PRAC each
SAFETY_CONFIGS = (("prfm", 2, None, 10), ("prfm", 3, None, 10),
                  ("prac", 4, 4, 8), ("prac", 6, 4, 8))

FULLSIZE_WORKLOAD = {"mixes": 6, "records": 3000, "instructions_per_core": 40_000,
                     "max_cycles": 500_000}


# ---------------------------------------------------------------- outcomes


@dataclass
class Outcome:
    """What one unit simulated: its digest entry plus model counters."""
    digest: object
    counts: dict = field(default_factory=dict)   # DRAM command -> count
    sim_ps: int = 0
    ctrl_acts: int = 0
    backoffs: int = 0
    preventive: int = 0
    lat_p99_ps: int = 0
    slack_ps: Optional[int] = None
    ws: list = field(default_factory=list)
    rcc: tuple = (0, 0)                           # hydra row-count-cache hits, misses
    problem: Optional[str] = None

    @property
    def cmds(self) -> int:
        return sum(self.counts.values())

    def absorb(self, result: wl.RunResult):
        for cmd, n in result.device_counts.items():
            self.counts[cmd] = self.counts.get(cmd, 0) + n
        self.sim_ps += result.end_ps
        self.ctrl_acts += result.controller_stat["acts"]
        self.backoffs += result.backoffs
        self.preventive += result.preventive_refreshes
        self.lat_p99_ps = max(self.lat_p99_ps,
                              metrics.latency_percentiles(result.read_latencies)[99])
        if result.min_deadline_slack is not None:
            self.slack_ps = (result.min_deadline_slack if self.slack_ps is None
                             else min(self.slack_ps, result.min_deadline_slack))


@dataclass
class Workload:
    units: list                                   # [(key, fn(ctx) -> Outcome)]
    prologue: Callable = lambda ctx: None         # batch-level work before the units
    check: Callable = lambda outcomes, ctx: []    # batch-level problems
    cleanup: Callable = lambda: None


@contextlib.contextmanager
def capturing(module, name: str, sink: list):
    """Record every object module.name returns while the block runs."""
    orig = getattr(module, name)

    def capture(*args, **kwargs):
        obj = orig(*args, **kwargs)
        sink.append(obj)
        return obj

    setattr(module, name, capture)
    try:
        yield sink
    finally:
        setattr(module, name, orig)


# ---------------------------------------------------------------- safety_replay


def setup_safety_replay(seed: int) -> Workload:
    timing = {"prfm": DESK_BASE, "prac": DESK_PRAC}
    rng = random.Random(seed)
    bank = rng.randrange(DESK.banks_total)
    configs = {}
    for kind, th, refs, n_rh in SAFETY_CONFIGS:
        params = PrfmParams(th) if kind == "prfm" else PracParams(th, refs, 1)
        configs[f"{kind}-{th}-{refs}-nrh{n_rh}"] = (kind, params, n_rh)
    order = [(label, b0) for label in configs for b0 in range(1, DESK.rows_per_bank + 1)]
    rng.shuffle(order)

    def prologue(ctx):
        ctx["verdicts"] = {}
        for label, (kind, params, n_rh) in configs.items():
            judge = security.is_secure_prfm if kind == "prfm" else security.is_secure_prac
            ctx["verdicts"][label] = judge(n_rh, params, timing[kind],
                                           rows_per_bank=DESK.rows_per_bank).secure

    def replay_unit(label, b0):
        kind, params, n_rh = configs[label]
        t = timing[kind]

        def run(ctx):
            devices = []
            with capturing(attack, "DeviceState", devices):
                res = attack.run_wave_attack(b0, params, t, topo=DESK, bank=bank,
                                             monitor_n_rh=n_rh, with_ref=True,
                                             ref_resets_counters=False)
            dev = devices[0]
            last_act = max(b.last_act for b in dev.banks)
            out = Outcome(digest=[res.realized_max, len(res.monitor.violations),
                                  list(res.sizes)],
                          counts=dict(dev.counts),
                          sim_ps=max(dev.blocked_until, last_act + t.tRC),
                          backoffs=dev.fsm.asserts if dev.fsm is not None else 0)
            if not dev.conservation_holds():
                out.problem = "counter conservation broken"
            elif ctx["verdicts"][label] and (res.monitor.violations
                                             or res.realized_max >= n_rh):
                out.problem = f"analyzer-secure {label} reached {res.realized_max} at b0={b0}"
            return out
        return run

    def check(outcomes, ctx):
        worst = {}
        for key, out in outcomes.items():
            label = key.rsplit("/", 1)[0]
            if isinstance(out.digest, list):
                worst[label] = max(worst.get(label, 0), out.digest[0])
        secure = [lb for lb, ok in ctx["verdicts"].items() if ok]
        witnessed = [lb for lb, ok in ctx["verdicts"].items()
                     if not ok and worst.get(lb, 0) >= configs[lb][2]]
        problems = []
        if not secure:
            problems.append("no analyzer-secure config in the batch")
        if not witnessed:
            problems.append("no insecure config produced a violation witness")
        return problems

    units = [(f"{label}/b0={b0}", replay_unit(label, b0)) for label, b0 in order]
    return Workload(units, prologue, check)


# ---------------------------------------------------------------- campaigns


def mechanism(kind: str, n_rh: int):
    """(mitigation config, device prac dict, desk timing) for one mechanism."""
    abo_th, rfm_th = THRESHOLDS[n_rh]
    p = PracParams(abo_th, 4, 1)
    prac = {"abo_th": p.abo_th, "bo_n_refs": p.bo_n_refs, "bo_n_acts": p.bo_n_acts}
    table = {
        "none": (NoMitigation(), None, DESK_BASE),
        "prac": (PracN(p), prac, DESK_PRAC),
        "prac-optimistic": (PracOptimistic(p), prac, DESK_BASE),
        "prfm": (Prfm(PrfmParams(rfm_th)), None, DESK_BASE),
        "prac+prfm": (PracPlusPrfm(p, PrfmParams(rfm_th)), prac, DESK_PRAC),
        "graphene": (graphene_defaults(n_rh, DESK), None, DESK_BASE),
        "hydra": (hydra_defaults(n_rh, DESK), None, DESK_BASE),
        "para": (Para(para_probability(n_rh)), None, DESK_BASE),
    }
    return table[kind]


def _simulate(cfg, traces, stop, seed):
    mit, prac, t = cfg
    dev = DeviceState(DESK, t, prac=prac)
    ctrl = MemoryController(DESK, t, dev, mit, seed=seed)
    result = wl.run_cores(traces, ctrl, stop)
    out = Outcome(digest=None)
    out.absorb(result)
    if isinstance(ctrl.mech, HydraState):
        out.rcc = (ctrl.mech.rcc_hits, ctrl.mech.rcc_misses)
    if not dev.conservation_holds():
        out.problem = "counter conservation broken"
    return result, out


def _campaign(seed, mix_traces, shared_configs, stop, first_benign):
    """Solo units (unmitigated, one per benign core) first, then one unit per
    shared run; weighted speedups cover cores first_benign..3."""
    solo_cfg = mechanism("none", BENIGN_N_RH)
    units = []

    def solo_unit(mi, slot, trace):
        def run(ctx):
            result, out = _simulate(solo_cfg, [trace], stop, seed)
            ctx["solo"][mi, slot] = max(result.ipcs[0], 1e-12)
            out.digest = result.ipcs[0]
            return out
        return run

    def shared_unit(mi, traces, cfg):
        def run(ctx):
            alone = [ctx["solo"].get((mi, s)) for s in range(first_benign, 4)]
            if None in alone:
                return Outcome(digest=None, problem="solo baseline failed")
            result, out = _simulate(cfg, traces, stop, seed)
            ws = metrics.weighted_speedup(result.ipcs[first_benign:], alone)
            out.ws = [ws]
            out.digest = [ws, result.end_ps, sorted(result.device_counts.items())]
            if out.problem is None and not ws > 0:
                out.problem = f"weighted speedup {ws} is not positive"
            return out
        return run

    for mi, traces in mix_traces.items():
        for slot in range(first_benign, 4):
            units.append((f"{mi}/solo{slot}", solo_unit(mi, slot, traces[slot])))
    for mi, traces in mix_traces.items():
        for label, cfg in shared_configs.items():
            units.append((f"{mi}/{label}", shared_unit(mi, traces, cfg)))

    def prologue(ctx):
        ctx["solo"] = {}

    return Workload(units, prologue)


def setup_campaign_benign(seed: int) -> Workload:
    mixes = wl.build_mixes(len(wl.MIX_COMBOS), seed)
    mix_traces = {f"{m.name}-{i}": wl.materialize_mix(m, BENIGN_RECORDS, DESK)
                  for i, m in enumerate(mixes)}
    configs = {kind: mechanism(kind, BENIGN_N_RH) for kind in CAMPAIGN_KINDS}
    return _campaign(seed, mix_traces, configs, BENIGN_STOP, 0)


def setup_campaign_dos(seed: int) -> Workload:
    mixes = wl.build_mixes(len(wl.MIX_COMBOS), seed)
    spec = attack.AttackSpec("perf_degradation", rows_per_bank=2, banks=4)
    attacker = attack.gen_perf_attack_trace(
        spec, DESK_PRAC, DOS_STOP.max_ps + 10_000_000, topo=DESK)
    mix_traces = {}
    for i in DOS_MIXES:
        traces = wl.materialize_mix(mixes[i], DOS_RECORDS, DESK)
        mix_traces[f"{mixes[i].name}-{i}"] = [attacker] + traces[1:]
    configs = {f"{kind}-nrh{n_rh}": mechanism(kind, n_rh)
               for kind in DOS_KINDS for n_rh in DOS_N_RH}
    return _campaign(seed, mix_traces, configs, DOS_STOP, 1)


# ---------------------------------------------------------------- simulate_fullsize


def setup_simulate_fullsize(seed: int) -> Workload:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"simulate_fullsize-seed{seed}-",
                                     dir=ROOT / ".perfbench"))
    config = work_dir / "sim.ini"
    out_dir = work_dir / "out"
    lines = ["[topology]", "desk = false", "[mitigation]", "kind = prac+prfm",
             "n_rh = 64", "[workload]", f"seed = {seed}"]
    lines += [f"{k} = {v}" for k, v in FULLSIZE_WORKLOAD.items()]
    config.write_text("\n".join(lines) + "\n")
    argv = ["simulate", "--config", str(config), "--out-dir", str(out_dir)]

    def run(ctx):
        devices, runs = [], []
        with capturing(cli, "DeviceState", devices), capturing(cli, "run_cores", runs), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            return Outcome(digest=f"exit {rc}", problem=f"pracsim simulate exited {rc}")
        csv_text = (out_dir / "reports.csv").read_text()
        out = Outcome(digest=csv_text)
        for result in runs:
            out.absorb(result)
        rows = csv_text.splitlines()[1:]
        col = metrics.SimReport.CSV_FIELDS.index("weighted_speedup")
        out.ws = [float(r.split(",")[col]) for r in rows]
        if len(rows) != FULLSIZE_WORKLOAD["mixes"]:
            out.problem = f"reports.csv has {len(rows)} rows"
        elif not all(dev.conservation_holds() for dev in devices):
            out.problem = "counter conservation broken"
        elif not all(ws > 0 for ws in out.ws):
            out.problem = "a weighted speedup is not positive"
        return out

    return Workload([("simulate", run)],
                    cleanup=lambda: shutil.rmtree(work_dir, ignore_errors=True))


SETUPS = {
    "safety_replay": setup_safety_replay,
    "campaign_benign": setup_campaign_benign,
    "campaign_dos": setup_campaign_dos,
    "simulate_fullsize": setup_simulate_fullsize,
}


# ---------------------------------------------------------------- tracing


def install_tracer(tracer) -> None:
    """Wrap every layer's public entry points where its callers look them up."""
    from pracsim import controller, dram
    for name in ("is_secure_prfm", "is_secure_prac", "secure_rfm_th", "secure_abo_th"):
        tracer.wrap(security, name, f"security.{name}")
    for name in ("secure_rfm_th", "secure_abo_th"):
        tracer.wrap(cli, name, f"security.{name}")
    tracer.wrap(attack, "run_wave_attack", "attack.run_wave_attack")
    tracer.wrap(dram.DeviceState, "issue", "dram.issue")
    tracer.wrap(dram.DeviceState, "serve_rfm", "dram.serve_rfm")
    tracer.wrap(dram.DeviceState, "refresh_rows", "dram.refresh_rows")
    tracer.wrap(DisturbanceMonitor, "on_act", "monitor.on_act",
                lambda args, _: tracer.peak("monitor.tallies_max", len(args[0].pair)))
    tracer.wrap(DisturbanceMonitor, "on_row_refreshed", "monitor.on_row_refreshed")
    tracer.wrap(controller.MemoryController, "step", "controller.step")
    tracer.wrap(controller.MemoryController, "enqueue", "controller.enqueue")
    tracer.wrap(controller.MemoryController, "can_accept", "controller.can_accept",
                lambda _, ok: ok or tracer.bump("controller.queue_full"))
    tracer.wrap(wl, "run_cores", "workloads.run_cores")
    tracer.wrap(cli, "run_cores", "workloads.run_cores")
    tracer.wrap(wl.CoreModel, "window_has_room", "workloads.window_has_room")
    for cls in (GrapheneState, HydraState, ParaState):
        tracer.wrap(cls, "on_activation", "mitigations.on_activation")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "build_report", "metrics.build_report")
