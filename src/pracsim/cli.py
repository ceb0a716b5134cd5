"""Command-line frontend: security sweeps, theoretical attack math,
simulation campaigns, storage tables, and CSV emission.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error,
3 security requirement violated under --require-secure. The PRACSIM_WORKERS
environment variable sets the campaign worker count, an integer >= 1
(default 1); output rows are sorted by key, so the worker count never
changes the bytes written.

`simulate`, `replay` and the acceptance campaign share one path: a config
dict is resolved once into a RunSpec (resolve_spec), and run_mix runs each
mix of it beside its weighted-speedup baseline (alone_ipcs).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import repeat
from typing import Optional

from . import __version__
from .attack import AttackSpec, gen_perf_attack_trace, theoretical_consumption
from .configfile import RunManifest, check_schema, parse_config, timing_from_config
from .controller import MemoryController
from .dram import DeviceState, DisturbanceMonitor, Topology
from .metrics import SimReport, build_report
from .mitigations import (
    MitigationConfig,
    NoMitigation,
    Para,
    PracN,
    PracOptimistic,
    PracPlusPrfm,
    Prfm,
    counter_width,
    graphene_defaults,
    hydra_defaults,
    para_probability,
    storage_cost,
)
from .security import (
    SWEEP_COLUMNS,
    PracParams,
    PrfmParams,
    SweepGrid,
    is_secure,
    secure_abo_th,
    secure_rfm_th,
    sweep,
)
from .timing import ConfigError, TimingParams, preset
from .workloads import (
    MixSpec,
    StopCondition,
    build_mixes,
    desk_timing,
    materialize_mix,
    run_cores,
)


def _write_lines(path, lines):
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    if args.nrh is not None and args.nrh < 1:
        raise ConfigError("[analyze] --nrh must be >= 1")
    t = preset(args.preset)
    # an option the mechanism never reads is rejected, like a config key
    unread = {"prac": ("b0",), "prfm": ("bo_n_refs", "bo_n_acts")}[args.mech]
    _reject("analyze", [f"--{k.replace('_', '-')}" for k in unread
                        if getattr(args, k) is not None], f"with --mech {args.mech}")
    _reject("analyze", ["--require-secure"] if args.require_secure and not args.nrh else [],
            "without --nrh")
    given = {"thresholds": args.thresholds, "b0_values": args.b0,
             "bo_n_refs_values": args.bo_n_refs}
    acts = PracParams.bo_n_acts if args.bo_n_acts is None else args.bo_n_acts
    grid = SweepGrid(args.mech, bo_n_acts=acts,
                     **{k: tuple(v) for k, v in given.items() if v is not None})
    rows = sweep(grid, t)
    prfm_secure = {}   # rfm_th -> verdict, shared by the PRFM rows of a threshold
    any_secure = False
    lines = [",".join(SWEEP_COLUMNS + ("verdict_at_nrh",))]
    for mech, th, b0r, mx, sec_at in rows:
        verdict = ""
        if args.nrh:
            # a PRAC row's maximum is its verdict; a PRFM verdict maximizes
            # over every b0, while a PRFM cell counts only its own
            if mech == "prac":
                secure = mx < args.nrh
            else:
                if th not in prfm_secure:
                    prfm_secure[th] = is_secure(args.nrh, PrfmParams(th), t).secure
                secure = prfm_secure[th]
            verdict = "secure" if secure else "insecure"
            any_secure |= secure
        lines.append(f"{mech},{th},{b0r},{mx},{sec_at},{verdict}")
    out = args.out or f"analyze_{args.mech}.csv"
    _write_lines(out, lines)
    print(f"wrote {out} ({len(rows)} grid points)")
    if args.require_secure and not any_secure:
        print("no grid point is secure at the requested threshold", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------- attack theory


def cmd_attack_theory(args) -> int:
    if not args.rfm_th and not args.abo_th:
        raise ConfigError("[attack-theory] --rfm-th and --abo-th are both empty")
    t = preset(args.preset)
    rows = []
    for th in args.rfm_th:
        rep = theoretical_consumption(t, PrfmParams(th))
        rows.append(("prfm", args.preset, th, rep))
    for th in args.abo_th:
        rep = theoretical_consumption(t, PracParams(th, args.bo_n_refs))
        rows.append(("prac", args.preset, th, rep))
    lines = ["mechanism,preset,threshold,t_available_ms,period_ns,t_prevent_ms,"
             "fraction,steady_fraction"]
    for mech, pname, th, rep in rows:
        lines.append(
            f"{mech},{pname},{th},{rep.t_available / 1e9:.6f},"
            f"{rep.t_attack_period / 1e3:.3f},{rep.t_prevent / 1e9:.6f},"
            f"{rep.fraction:.6f},{rep.steady_fraction:.6f}")
    out = args.out or "attack_theory.csv"
    _write_lines(out, lines)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------- storage


def cmd_storage(args) -> int:
    if any(n < 2 for n in args.nrh):   # the storage model's least n_rh
        raise ConfigError("[storage] --nrh must be >= 2")
    topo = Topology()
    lines = ["mechanism,n_rh,cpu_bits,dram_bits"]
    for n in args.nrh:
        for kind in ("prac", "prfm", "graphene", "hydra", "para"):
            t = preset(MECHANISMS[kind][0])
            sb = storage_cost(_mechanism(kind, n, {}, topo, t), n, topo)
            lines.append(f"{kind},{n},{sb.cpu_bits},{sb.dram_bits}")
    out = args.out or "storage.csv"
    _write_lines(out, lines)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------- simulate


_PRAC_KEYS = ("abo_th", "bo_n_refs", "bo_n_acts")

# kind -> (default timing preset, [mitigation] keys it reads besides kind and n_rh)
MECHANISMS = {
    "none": ("ddr5-3200an-base", ()),
    "prfm": ("ddr5-3200an-base", ("rfm_th",)),
    "prac": ("ddr5-3200an-prac", _PRAC_KEYS),
    "prac-optimistic": ("ddr5-3200an-base", _PRAC_KEYS),
    "prac+prfm": ("ddr5-3200an-prac", _PRAC_KEYS + ("rfm_th",)),
    "graphene": ("ddr5-3200an-base", ()),
    "hydra": ("ddr5-3200an-base", ()),
    "para": ("ddr5-3200an-base", ("probability",)),
}

# [timing] keys a run reads only if its kind reads one of these [mitigation]
# keys: tRFM needs RFMs (PRAC or PRFM), tABO_ACT/tBackoffSignal a PRAC back-off
_TIMING_READ_BY = {"trfm": ("abo_th", "rfm_th"), "tabo_act": ("abo_th",),
                   "tbackoffsignal": ("abo_th",)}


@dataclass(frozen=True)
class RunSpec:
    """A simulate config resolved once: everything a run of one mix reads."""
    n_rh: int
    topo: Topology
    timing: TimingParams
    mitigation: MitigationConfig
    stop: StopCondition
    mixes: int
    seed: int
    records: int
    attacker: Optional[AttackSpec]  # core 0's row-conflict hammer (attacker = dos)
    baseline: Optional["RunSpec"]   # the same config with kind = none; None if it is
    derived_secure: bool            # analyzer-derived thresholds: no violation allowed

    @property
    def first_benign(self) -> int:
        """1 with the attacker on core 0, else 0."""
        return int(self.attacker is not None)


# [workload] keys that size a run, with their defaults; each must be >= 1
_WORKLOAD_SIZES = {"instructions_per_core": 4000, "max_cycles": 3_000_000, "mixes": 6,
                   "records": 600}


def _reject(section: str, keys, why: str):
    if keys:
        raise ConfigError(f"[{section}] {', '.join(sorted(keys))}: no effect {why}")


def _setting(sec: dict, key: str, derive, n_rh: int, *args):
    """sec[key] when the config sets it, else derive(n_rh, *args)."""
    value = sec[key] if key in sec else derive(n_rh, *args)
    if value is None:
        raise ConfigError(f"no secure {key} exists for n_rh={n_rh}")
    return value


def _mechanism(kind: str, n_rh: int, sec: dict, topo: Topology,
               t: TimingParams) -> MitigationConfig:
    """The mechanism's config; thresholds not set in the config are derived
    from the security analysis at timing t and full size, and graphene's
    table is sized for t's refresh window."""
    refs = sec.get("bo_n_refs", PracParams.bo_n_refs)
    acts = sec.get("bo_n_acts", PracParams.bo_n_acts)
    prfm = prac = None
    if "rfm_th" in MECHANISMS[kind][1]:
        prfm = PrfmParams(_setting(sec, "rfm_th", secure_rfm_th, n_rh, t))
    if "abo_th" in MECHANISMS[kind][1]:
        prac = PracParams(_setting(sec, "abo_th", secure_abo_th, n_rh, t, refs, acts),
                          refs, acts)
    return {
        "none": NoMitigation,
        "prfm": lambda: Prfm(prfm),
        "prac": lambda: PracN(prac),
        "prac-optimistic": lambda: PracOptimistic(prac),
        "prac+prfm": lambda: PracPlusPrfm(prac, prfm),
        "graphene": lambda: graphene_defaults(n_rh, topo, t),
        "hydra": lambda: hydra_defaults(n_rh, topo),
        "para": lambda: Para(_setting(sec, "probability", para_probability, n_rh)),
    }[kind]()


def resolve_spec(cfg: dict) -> RunSpec:
    """Resolve a parsed config, or a manifest's, into the run it describes.
    Every key it accepts changes the spec ([output] dir changes where the
    files are written instead); a key with no effect is rejected."""
    check_schema(cfg)
    sec, wl = cfg.get("mitigation", {}), cfg.get("workload", {})
    kind, n_rh = sec.get("kind", "none"), sec.get("n_rh", 1024)
    attacker = wl.get("attacker", "none")
    desk = cfg.get("topology", {}).get("desk", True)
    if kind not in MECHANISMS:
        raise ConfigError(f"unknown mitigation kind {kind!r}; valid: {', '.join(MECHANISMS)}")
    if attacker not in ("none", "dos"):
        raise ConfigError(f"unknown attacker {attacker!r}; valid: none, dos")
    if n_rh < 1:
        raise ConfigError("n_rh must be >= 1")
    preset_name, reads = MECHANISMS[kind]
    timing = cfg.get("timing", {})
    _reject("mitigation", set(sec) - {"kind", "n_rh", *reads}, f"with kind = {kind}")
    _reject("timing", {"trefw"} & set(timing) if desk else (),
            "on the desk topology, whose tREFW is 8 tREFI")
    _reject("timing", {k for k, by in _TIMING_READ_BY.items()
                       if k in timing and not set(by) & set(reads)}, f"with kind = {kind}")
    _reject("workload", {"attacker_rows", "attacker_banks"} & set(wl) if attacker == "none"
            else (), "without attacker = dos")
    size = {key: wl.get(key, default) for key, default in _WORKLOAD_SIZES.items()}
    small = [key for key, value in size.items() if value < 1]
    if small:
        raise ConfigError(f"[workload] {', '.join(small)} must be >= 1")
    topo = Topology.desk() if desk else Topology()
    for key, top in (("attacker_rows", topo.rows_per_bank),
                     ("attacker_banks", topo.bankgroups_per_rank)):
        if not 1 <= wl.get(key, 1) <= top:
            raise ConfigError(f"[workload] {key} must be in 1..{top}, got {wl[key]}")
    t = timing_from_config(cfg, preset_name)
    # thresholds and table sizes are derived at the run's own timing,
    # before desk scaling
    mit = _mechanism(kind, n_rh, sec, topo, t)
    if desk:
        t = desk_timing(t)
    return RunSpec(
        n_rh=n_rh, topo=topo, timing=t, mitigation=mit,
        stop=StopCondition(size["instructions_per_core"], size["max_cycles"]),
        mixes=size["mixes"], seed=wl.get("seed", 0), records=size["records"],
        attacker=None if attacker == "none" else AttackSpec(
            "perf_degradation", rows_per_bank=wl.get("attacker_rows", 8),
            banks=wl.get("attacker_banks", 4)),
        baseline=None if kind == "none" else resolve_spec(
            {**cfg, "mitigation": {"kind": "none", "n_rh": n_rh},
             "timing": {k: v for k, v in timing.items() if k not in _TIMING_READ_BY}}),
        derived_secure=(mit.prac is not None or mit.prfm is not None)
        and not {"rfm_th", "abo_th"} & set(sec))


@lru_cache(maxsize=2)
def _attacker_trace(attacker: AttackSpec, t: TimingParams, duration_ps: int, topo: Topology):
    return gen_perf_attack_trace(attacker, t, duration_ps, topo=topo)


def _run(spec: RunSpec, traces, monitor: Optional[DisturbanceMonitor] = None):
    prac = spec.mitigation.prac
    dev = DeviceState(spec.topo, spec.timing, prac=None if prac is None else asdict(prac),
                      monitor=monitor, counter_bits=counter_width(max(spec.n_rh, 2)))
    ctrl = MemoryController(spec.topo, spec.timing, dev, spec.mitigation, seed=spec.seed)
    result = run_cores(traces, ctrl, spec.stop)
    if not dev.conservation_holds():
        raise RuntimeError(f"counter conservation broken after {dev.counts['PRE']} closes")
    return result


def alone_ipcs(spec: RunSpec, mix: MixSpec, traces, cache: Optional[dict] = None) -> list:
    """The weighted-speedup baseline: each benign core's IPC running alone
    under the same config with kind = none, cached per (class, member seed,
    slot) in `cache`."""
    cache = {} if cache is None else cache
    alone = []
    for slot in range(spec.first_benign, len(traces)):
        key = (mix.classes[slot], mix.member_seeds[slot], slot)
        if key not in cache:
            cache[key] = max(_run(spec.baseline or spec, [traces[slot]]).ipcs[0], 1e-12)
        alone.append(cache[key])
    return alone


def run_mix(spec: RunSpec, mix_index: int, traces=None,
            solo_cache: Optional[dict] = None) -> SimReport:
    """Run one mix under spec with the safety monitor on; core 0 becomes the
    attacker under attacker = dos. `traces` may carry the mix's materialized
    traces. The report's weighted speedup covers the benign cores only.
    Raises RuntimeError if counter conservation breaks, or if the monitor
    sees n_rh activations under analyzer-derived thresholds."""
    mix = build_mixes(spec.mixes, spec.seed)[mix_index]
    traces = list(traces or materialize_mix(mix, spec.records, spec.topo,
                                            spec.stop.instructions_per_core))
    if spec.attacker is not None:
        duration = spec.stop.max_ps + 10_000_000
        traces[0] = _attacker_trace(spec.attacker, spec.timing, duration, spec.topo)
    alone = alone_ipcs(spec, mix, traces, solo_cache)
    result = _run(spec, traces, DisturbanceMonitor(spec.n_rh, spec.topo.rows_per_bank))
    label = f"{mix.name}-{mix_index}-{spec.mitigation.name}-{spec.n_rh}"
    if spec.derived_secure and result.first_violation is not None:
        raise RuntimeError(f"{label}: (bank, victim, aggressor, count) "
                           f"{result.first_violation} reached n_rh under "
                           "analyzer-derived thresholds")
    return build_report(label, spec.seed, result, alone, first_benign=spec.first_benign)


def _simulate(cfg: dict, out_dir: Optional[str]) -> int:
    text = os.environ.get("PRACSIM_WORKERS", "1")
    if not text.isdecimal() or int(text) < 1:
        raise ConfigError(f"PRACSIM_WORKERS must be an integer >= 1, got {text!r}")
    workers = int(text)
    spec = resolve_spec(cfg)
    if workers > 1:
        # imported here: multiprocessing costs every single-worker run ~2.5 MB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_mix, repeat(spec), range(spec.mixes)))
    else:
        reports = [run_mix(spec, i) for i in range(spec.mixes)]
    reports.sort(key=lambda r: r.label)
    out_dir = out_dir or cfg.get("output", {}).get("dir") or "out"
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "reports.csv")
    _write_lines(csv_path, [SimReport.csv_header()] + [r.csv_row() for r in reports])
    manifest = RunManifest(command="simulate", config=cfg, seed=spec.seed,
                           preset_name=cfg.get("timing", {}).get("preset") or "per-mechanism",
                           outputs=[csv_path])
    man_path = os.path.join(out_dir, "manifest.json")
    manifest.save(man_path)
    print(f"wrote {csv_path} and {man_path}")
    return 0


def cmd_simulate(args) -> int:
    return _simulate(parse_config(args.config), args.out_dir)


def cmd_replay(args) -> int:
    manifest = RunManifest.load(args.manifest)
    if manifest.command != "simulate":
        raise ConfigError(f"cannot replay a {manifest.command!r} manifest")
    return _simulate(manifest.config, args.out_dir)


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pracsim",
                                description="DDR5 activation-counting mitigation "
                                            "simulator and analysis toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="security sweep over mechanism configurations")
    a.add_argument("--mech", choices=["prfm", "prac"], required=True)
    a.add_argument("--preset", default="analysis-appendix")
    a.add_argument("--thresholds", type=int, nargs="*", default=None)
    a.add_argument("--b0", type=int, nargs="*", default=None)
    a.add_argument("--bo-n-refs", type=int, nargs="*", default=None)
    a.add_argument("--bo-n-acts", type=int, default=None)
    a.add_argument("--nrh", type=int)
    a.add_argument("--require-secure", action="store_true")
    a.add_argument("--out")
    a.set_defaults(func=cmd_analyze)

    at = sub.add_parser("attack-theory", help="theoretical throughput consumption")
    at.add_argument("--preset", default="analysis-appendix")
    at.add_argument("--rfm-th", type=int, nargs="*", default=[6])
    at.add_argument("--abo-th", type=int, nargs="*", default=[57])
    at.add_argument("--bo-n-refs", type=int, default=PracParams.bo_n_refs)
    at.add_argument("--out")
    at.set_defaults(func=cmd_attack_theory)

    st = sub.add_parser("storage", help="storage-cost table")
    st.add_argument("--nrh", type=int, nargs="+", default=[1024, 256, 64, 16])
    st.add_argument("--out")
    st.set_defaults(func=cmd_storage)

    s = sub.add_parser("simulate", help="run a simulation campaign from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out-dir", default=None)
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("replay", help="re-run a campaign from its manifest")
    r.add_argument("manifest")
    r.add_argument("--out-dir", default=None)
    r.set_defaults(func=cmd_replay)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
