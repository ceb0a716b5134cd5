import hashlib
import subprocess
import sys
import tempfile
from dataclasses import asdict, astuple, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import command_log
from pracsim import cli
from pracsim.attack import run_wave_attack
from pracsim.cli import MECHANISMS, main, resolve_spec
from pracsim.configfile import SCHEMA, RunManifest, parse_config, timing_from_config
from pracsim.dram import ACT, REF, DeviceState, Topology
from pracsim.security import PracParams, PrfmParams, is_secure
from pracsim.timing import PRESET_NAMES, ConfigError, preset
from pracsim.workloads import desk_timing

DESK = Topology.desk()
DESK_BASE = desk_timing(preset("ddr5-3200an-base"))
DESK_PRAC = desk_timing(preset("ddr5-3200an-prac"))

TINY_WORKLOAD = {"mixes": "6", "records": "64", "instructions_per_core": "100",
                 "max_cycles": "20000"}


def test_analyze_prac_minimum_cell_is_nine(tmp_path):
    out = tmp_path / "prac.csv"
    assert main(["analyze", "--mech", "prac", "--bo-n-refs", "4",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    cells = [int(r.split(",")[3]) for r in rows if r.split(",")[2] == "4"]
    assert min(cells) == 9


def test_analyze_prfm_verdicts_at_64(tmp_path):
    out = tmp_path / "prfm.csv"
    assert main(["analyze", "--mech", "prfm", "--nrh", "64",
                 "--thresholds", "1", "2", "3", "4", "5", "7",
                 "--b0", "8", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    verdicts = {int(r[1]): r[5] for r in rows}
    for th in (1, 2, 3, 4, 5):
        assert verdicts[th] == "secure"
    assert verdicts[7] == "insecure"


@pytest.mark.parametrize("argv", [["analyze", "--mech", "prfm", "--thresholds"],
                                  ["attack-theory", "--rfm-th", "--abo-th"],
                                  ["storage", "--nrh"]], ids=lambda argv: argv[0])
def test_analyze_empty_grid_usage_error(tmp_path, argv):
    # an empty list of thresholds or n_rh values once wrote a header-only table
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("b0", [["0"], ["4", "-5"]])
def test_analyze_rejects_a_decoy_set_below_one(tmp_path, b0):
    out = tmp_path / "a.csv"
    assert main(["analyze", "--mech", "prfm", "--thresholds", "4", "--b0", *b0,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_analyze_require_secure_exit_code(tmp_path):
    # nothing is secure at n_rh = 1
    rc = main(["analyze", "--mech", "prfm", "--nrh", "1", "--require-secure",
               "--thresholds", "2", "4", "--b0", "4",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 3


def test_analyze_prac_verdict_is_per_row(tmp_path):
    # each row is judged with its own bo_n_refs: insecure exactly when its
    # maximum reaches n_rh
    out = tmp_path / "prac.csv"
    assert main(["analyze", "--mech", "prac", "--nrh", "64", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    assert {(r[1], r[2]): r[5] for r in rows}[("57", "1")] == "insecure"
    for r in rows:
        assert r[5] == ("secure" if int(r[3]) < 64 else "insecure"), r


@pytest.mark.parametrize("mech, unread", [
    ("prac", ["--b0", "8"]), ("prfm", ["--bo-n-refs", "2"]), ("prfm", ["--bo-n-acts", "2"]),
    ("prfm", ["--require-secure"])])
def test_analyze_rejects_options_the_mechanism_never_reads(tmp_path, mech, unread):
    out = tmp_path / "a.csv"
    assert main(["analyze", "--mech", mech, "--thresholds", "4", *unread,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_storage_without_secure_threshold_is_config_error(tmp_path):
    # no rfm_th or abo_th is secure at n_rh = 4, as simulate reports for it
    assert main(["storage", "--nrh", "4", "--out", str(tmp_path / "s.csv")]) == 2


# sha256 of the analyzer CSVs, so analyzer refactors and speedups can show
# they keep every byte
ANALYZER_GOLDEN = {
    "analyze-prfm-nrh64": (["analyze", "--mech", "prfm", "--nrh", "64"],
                           "a8a4878dc51d16742e95988e4e94e9879be93b76f91c5e07494af8efa5b6ab10"),
    "analyze-prac": (["analyze", "--mech", "prac"],
                     "e41206ec6a4dc3f5a5bc563e49054e5e7b597b6114498154bdf7d68d00a0c137"),
    "attack-theory": (["attack-theory"],
                      "6ba76685d124c2a978b90f0156a9a2ec300b0c23f0a95ad07b1aadfadebad8bb"),
    "storage-64-16": (["storage", "--nrh", "64", "16"],
                      "cf607fc60e15e5906e961279ee91ad4d4c2e0d78302f5924e4c8b528759d40c2"),
}


@pytest.mark.parametrize("name", ANALYZER_GOLDEN)
def test_analyzer_csv_golden(tmp_path, name):
    argv, digest = ANALYZER_GOLDEN[name]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_attack_theory_defaults(tmp_path):
    out = tmp_path / "at.csv"
    assert main(["attack-theory", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    by_mech = {r[0]: r for r in rows}
    assert abs(float(by_mech["prfm"][6]) - 0.51) < 0.01
    assert abs(float(by_mech["prac"][6]) - 0.31) < 0.01


def test_attack_theory_sec7_parameters(tmp_path):
    out = tmp_path / "at7.csv"
    assert main(["attack-theory", "--preset", "ddr5-3200an-prac",
                 "--rfm-th", "--abo-th", "7", "--bo-n-refs", "4",
                 "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert abs(float(row[7]) - 0.794) < 0.001


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[mitigation]\nkind = prac\nrowhammer = 7\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(str(bad))


def test_unknown_config_section_rejected(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[chaos]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config(str(bad))


def _write_ini(path, cfg: dict) -> str:
    path.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                            for section, kv in cfg.items()))
    return str(path)


def _with(cfg: dict, section: str, key: str, value: str) -> dict:
    return {**cfg, section: {**cfg.get(section, {}), key: value}}


_PRAC = {"mitigation": {"kind": "prac", "abo_th": "60"}}
_PRFM = {"mitigation": {"kind": "prfm", "rfm_th": "4"}}
_DOS = {"workload": {"attacker": "dos"}}

# "section.key" -> (config in which the key takes effect, its value,
#                   (config, value) that must be rejected, or None)
KEY_CASES = {f"{section}.{key}": ({}, value, None) for section, key, value in (
    ("timing", "tras", "40ns"), ("timing", "trp", "20ns"), ("timing", "trcd", "15ns"),
    ("timing", "tcl", "15ns"), ("timing", "trtp", "10ns"), ("timing", "twr", "40ns"),
    ("timing", "trefi", "7.8us"), ("timing", "trfc", "350ns"),
    ("timing", "clock_period", "500ps"), ("topology", "desk", "false"),
    ("workload", "mixes", "12"), ("workload", "seed", "3"), ("workload", "records", "100"),
    ("workload", "instructions_per_core", "100"), ("workload", "max_cycles", "1000"),
    ("output", "dir", None))}
KEY_CASES.update({
    "timing.preset": ({}, "ddr5-3200an-prac", ({}, "ddr5-1600")),
    "timing.trefw": ({"topology": {"desk": "false"}}, "64ms", ({}, "64ms")),
    # only RFMs read tRFM, only a back-off tABO_ACT and tBackoffSignal
    "timing.trfm": (_PRFM, "295ns", ({"mitigation": {"kind": "hydra"}}, "295ns")),
    "timing.tabo_act": (_PRAC, "200ns", (_PRFM, "200ns")),
    "timing.tbackoffsignal": (_PRAC, "10ns", (_PRFM, "10ns")),
    "mitigation.kind": ({}, "graphene", ({}, "trr")),
    "mitigation.n_rh": ({}, "64", ({}, "0")),
    "mitigation.rfm_th": ({"mitigation": {"kind": "prfm"}}, "4", (_PRAC, "4")),
    "mitigation.abo_th": ({"mitigation": {"kind": "prac", "n_rh": "64"}}, "50", (_PRFM, "50")),
    "mitigation.bo_n_refs": (_PRAC, "2", ({"mitigation": {"kind": "graphene"}}, "2")),
    "mitigation.bo_n_acts": (_PRAC, "2", (_PRFM, "2")),
    "mitigation.probability": ({"mitigation": {"kind": "para"}}, "0.01", ({}, "0.01")),
    "workload.attacker": ({}, "dos", ({}, "hammer")),
    "workload.attacker_rows": (_DOS, "2", ({}, "2")),
    "workload.attacker_banks": (_DOS, "2", ({}, "2")),
})


@pytest.mark.parametrize("name", [f"{s}.{k}" for s in SCHEMA for k in SCHEMA[s]])
def test_every_schema_key_changes_the_run(tmp_path, name):
    """An accepted key changes the resolved spec (or, under [output], the
    files written); the same key where it has no effect, or with a value no
    run can use, is rejected."""
    (section, key), (cfg, value, rejected) = name.split("."), KEY_CASES[name]
    if section == "output":
        out = tmp_path / "o"
        ini = _write_ini(tmp_path / "c.ini", _with({"workload": TINY_WORKLOAD},
                                                   section, key, out))
        assert main(["simulate", "--config", ini]) == 0
        assert (out / "reports.csv").exists()
        return
    def spec(c, path):
        return resolve_spec(parse_config(_write_ini(tmp_path / path, c)))
    assert spec(_with(cfg, section, key, value), "b.ini") != spec(cfg, "a.ini")
    if rejected is not None:
        with pytest.raises(ConfigError):
            spec(_with(rejected[0], section, key, rejected[1]), "c.ini")


@pytest.mark.parametrize("key, value", [("instructions_per_core", "0"),
                                        ("instructions_per_core", "-5"),
                                        ("max_cycles", "0"), ("mixes", "0"),
                                        ("records", "0")])
def test_nonpositive_workload_size_is_rejected(tmp_path, capsys, key, value):
    # each of these once ran to exit 0: a header-only reports.csv, or rows
    # with a weighted speedup of 0.000000
    ini = _write_ini(tmp_path / "n.ini", {"workload": {**TINY_WORKLOAD, key: value}})
    assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("attacker_rows", "70"), ("attacker_rows", "0"),
                                        ("attacker_banks", "9"), ("attacker_banks", "0")])
def test_attacker_outside_the_topology_is_rejected_before_derivation(tmp_path, capsys,
                                                                     monkeypatch, key, value):
    # a desk bank has 64 rows and a rank 8 bank groups; these once failed
    # only at the first enqueue, or without naming the key
    monkeypatch.setattr(cli, "secure_abo_th", lambda *a: pytest.fail("derived"))
    ini = _write_ini(tmp_path / "a.ini", {"mitigation": {"kind": "prac", "n_rh": "64"},
                                          "workload": {**TINY_WORKLOAD, "attacker": "dos",
                                                       key: value}})
    assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze", "--mech", "prfm", "--nrh", "0"],
                                  ["analyze", "--mech", "prfm", "--require-secure", "--nrh", "0"],
                                  ["analyze", "--mech", "prac", "--nrh", "-5"],
                                  ["storage", "--nrh", "64", "1"]])
def test_out_of_range_nrh_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # these once wrote a CSV with an empty or all-insecure verdict column,
    # blamed --require-secure, or reported no secure abo_th for n_rh = 1
    monkeypatch.setattr(cli, "secure_abo_th", lambda *a: pytest.fail("derived"))
    out = tmp_path / "o.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "--nrh must be >= " in capsys.readouterr().err
    assert not out.exists()


def test_trc_is_rejected(tmp_path):
    ini = _write_ini(tmp_path / "t.ini", {"timing": {"tras": "40ns", "trc": "200ns"},
                                          "workload": TINY_WORKLOAD})
    assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "o")]) == 2


def test_replay_with_timing_overrides_byte_identical(tmp_path):
    ini = _write_ini(tmp_path / "t.ini", {"timing": {"trfm": "295ns", "tras": "40ns"},
                                          "mitigation": {"kind": "prfm", "n_rh": "32"},
                                          "workload": dict(TINY_WORKLOAD, max_cycles="400000")})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", ini, "--out-dir", str(out1)]) == 0
    assert main(["replay", str(out1 / "manifest.json"), "--out-dir", str(out2)]) == 0
    assert (out1 / "reports.csv").read_bytes() == (out2 / "reports.csv").read_bytes()


GOLDEN_WORKLOAD = {"mixes": "6", "seed": "3", "records": "200",
                   "instructions_per_core": "1500", "max_cycles": "1000000"}
# (kind, n_rh, extra [workload] keys, sha256 of reports.csv,
#  sha256 of the command schedule, see test_reports_csv_golden)
GOLDEN = [
    ("prac+prfm", 32, {}, "2e1d07fb7f700889ce28e0e79881f4e8d0bce15991a9126d516f0dfd746fe9fd",
     "fd32260a61dd768031b4afe3b3719faf883a60a325abaf81bfbecab56ac5865d"),
    ("hydra", 32, {}, "7e747051e574b045b03672724b8e9ef426a293b44555e4324404f70c73b5bb1e",
     "4faf61b85e56d38ba27bf717a2476b1b6bff6eb6242edb16e1ac90f75d750758"),
    ("para", 32, {}, "4b5ddb4c3b17a1b8ab12c5895fd8a9896daf25fdeb4f3282645a5355765c0c0f",
     "3c0acb07e2b2bbde7a5e8f705792c0f12d4e8296b85c8a5509a161969568d1e0"),
    ("graphene", 32, {}, "27bc4da8b4a3ef8526fb41852ed3f23eb60b9d733e495b17b957c00db8354c4f",
     "cde9f99fb045366631fd86ea0ffa4521468379ebfd42c71fa043ca10d4bc69b7"),
    ("prfm", 32, {"attacker": "dos"},
     "e31be469843020aec664398e7918ae21219cf82d65dc6d133fdc52d8474e1fb2",
     "de616aa5f0882d3136eb43d01e99ce4bbd1887729971f71c8b9bb0f6c3ef2303"),
    # 6-8 back-offs per mix: window ACTs issue by the back-off deadline
    ("prac", 8, {"attacker": "dos"},
     "08eae32dd0438ba4a8ae22001abdca202d414029732becd1d5109e3b2e1e20ab",
     "041e487f03d1e6dfa2c39ab0730ac87a526ec7f6b719a5f187a6a999fb343211"),
]


@pytest.mark.parametrize("kind, n_rh, extra, digest, schedule", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_reports_csv_golden(tmp_path, monkeypatch, kind, n_rh, extra, digest, schedule):
    """Pins reports.csv byte for byte on small desk campaigns, so changes
    meant to keep behaviour (refactors, speedups) can show they do. It also
    pins the command schedule behind it: every DeviceState.issue and
    refresh_rows call of the run, in order and with its time, since a
    reordering can leave every reported number equal."""
    log = hashlib.sha256()
    monkeypatch.setenv("PRACSIM_WORKERS", "1")   # every run in this process, in order
    ini = _write_ini(tmp_path / "g.ini", {"mitigation": {"kind": kind, "n_rh": str(n_rh)},
                                          "workload": {**GOLDEN_WORKLOAD, **extra}})
    with command_log(lambda line: log.update(line.encode())):
        assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "o")]) == 0
    assert hashlib.sha256((tmp_path / "o" / "reports.csv").read_bytes()).hexdigest() == digest
    assert log.hexdigest() == schedule


# perfbench's safety_replay configs: (params, timing, monitor n_rh with REF on)
WAVE_CONFIGS = [(PrfmParams(2), DESK_BASE, 10), (PrfmParams(3), DESK_BASE, 10),
                (PracParams(4, 4, 1), DESK_PRAC, 8), (PracParams(6, 4, 1), DESK_PRAC, 8)]
WAVE_SCHEDULE = "05ae60e5e49fe7a78228f78b739155d7681116943ce9b114e9ade0062e9ee466"


def test_wave_replay_schedule_golden():
    """Pins the wave replay's command schedule, as the golden above pins the
    controller's: every command of the desk replays of every decoy count,
    with REF on (monitor on) and off, in order and with its time. The log
    must hold both ways a REF issues: during priming, and held behind a
    back-off, after window ACTs that issued once it was due."""
    log = hashlib.sha256()
    primed = held = 0
    for params, t, n_rh in WAVE_CONFIGS:
        priming_acts = params.abo_th - 1 if isinstance(params, PracParams) else 0
        for with_ref in (True, False):
            for b0 in range(1, DESK.rows_per_bank + 1):
                lines = []
                with command_log(lines.append):
                    run_wave_attack(b0, params, t, topo=DESK, bank=5, with_ref=with_ref,
                                    monitor_n_rh=n_rh if with_ref else None)
                log.update("".join(lines).encode())
                acts, last_act, refs = 0, None, 0
                for line in lines:
                    cmd, at = line.split(" ", 1)[0], int(line.rsplit(" ", 1)[1])
                    if cmd == ACT:
                        acts, last_act = acts + 1, at
                    elif cmd == REF:
                        refs += 1
                        primed += acts < b0 * priming_acts
                        held += last_act >= t.tRC + refs * t.tREFI   # when it fell due
    assert primed and held
    assert log.hexdigest() == WAVE_SCHEDULE


@pytest.mark.parametrize("kind, tabo_act", [("prac", "30ns"), ("prac-optimistic", "30ns"),
                                             ("prac-optimistic", "45ns")])
def test_a_short_tabo_act_window_runs_clean(tmp_path, kind, tabo_act):
    """A config fuzzer's find: a tABO_ACT below about tRC leaves too little
    time for every bank's tRP before an RFM, so the deadline bounds the
    window's ACTs, and the recovery RFMs follow them."""
    ini = _write_ini(tmp_path / "a.ini", {
        "mitigation": {"kind": kind, "n_rh": "4"}, "timing": {"tabo_act": tabo_act},
        "workload": {"seed": "1", "mixes": "6", "records": "120",
                     "instructions_per_core": "600"}})
    assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "reports.csv").exists()


def test_ref_keeps_the_counters_the_derived_abo_th_relies_on(tmp_path):
    """A config fuzzer's find: a REF that cleared counters cleared aggressor
    row 6 (REF group 0-7) but not the tally of its victim row 8 (group 8-15),
    which then reached n_rh under the analyzer-derived abo_th."""
    ini = _write_ini(tmp_path / "f.ini", {
        "mitigation": {"kind": "prac", "n_rh": "12"}, "timing": {"trp": "30ns"},
        "workload": {"attacker": "dos", "attacker_rows": "8", "attacker_banks": "1",
                     "seed": "1", "mixes": "6", "records": "120",
                     "instructions_per_core": "600"}})
    assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "reports.csv").exists()


BASE_PS = {key.lower(): value for key, value in asdict(preset("ddr5-3200an-base")).items()}
FUZZ_MITIGATION = {"bo_n_refs": st.integers(1, 4), "bo_n_acts": st.integers(1, 4),
                   "abo_th": st.integers(1, 128), "rfm_th": st.integers(1, 32),
                   "probability": st.floats(0, 1)}


@st.composite
def simulate_configs(draw):
    """A config drawn from SCHEMA: any kind and n_rh, up to two recovery or
    threshold keys, up to two [timing] overrides at 0.25-4x the base bin,
    and half the time a dos attacker; the workload is tiny."""
    mitigation = {"kind": draw(st.sampled_from(sorted(MECHANISMS))),
                  "n_rh": draw(st.integers(4, 1024))}
    for key in draw(st.lists(st.sampled_from(sorted(FUZZ_MITIGATION)), max_size=2,
                             unique=True)):
        mitigation[key] = draw(FUZZ_MITIGATION[key])
    timing = {}
    for key in draw(st.lists(st.sampled_from(sorted(SCHEMA["timing"])), max_size=2,
                             unique=True)):
        timing[key] = (draw(st.sampled_from(PRESET_NAMES)) if key == "preset" else
                       f"{round(BASE_PS[key] * draw(st.floats(0.25, 4)))}ps")
    workload = {"seed": draw(st.integers(0, 9)), "mixes": 6, "records": 120,
                "instructions_per_core": 600}
    if draw(st.booleans()):
        workload.update(attacker="dos", attacker_rows=draw(st.integers(1, 80)),
                        attacker_banks=draw(st.integers(1, 10)))
    return {"mitigation": mitigation, "timing": timing, "workload": workload}


@settings(max_examples=100, deadline=None)
@given(simulate_configs())
def test_every_drawn_config_runs_clean_or_is_rejected(cfg):
    """An accepted config runs to exit 0 and writes reports.csv; any other
    config exits 2 and writes no file. No draw may exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        rc = main(["simulate", "--config", _write_ini(Path(tmp) / "f.ini", cfg),
                   "--out-dir", str(out)])
        assert rc in (0, 2)
        assert (out / "reports.csv").exists() if rc == 0 else not out.exists()


def test_manifest_round_trip(tmp_path):
    m = RunManifest("simulate", {"workload": {"seed": 1}}, 1, "x", ["a.csv"])
    p = tmp_path / "m.json"
    m.save(str(p))
    back = RunManifest.load(str(p))
    assert back == m


_MANIFEST = '{"command": "simulate", "config": {}, "seed": 0, "preset_name": "x", "outputs": []'


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(["replay", "missing.json"], None, "cannot read manifest", id="no-manifest"),
    pytest.param(["replay", "m.json"], "{", "malformed manifest", id="not-json"),
    pytest.param(["replay", "m.json"], '{"command": "simulate", "config": {}}',
                 "malformed manifest", id="missing-fields"),
    pytest.param(["replay", "m.json"], _MANIFEST + ', "extra": 1}', "malformed manifest",
                 id="unknown-field"),
    pytest.param(["replay", "m.json"], _MANIFEST.replace("simulate", "analyze") + "}",
                 "cannot replay", id="analyze-manifest"),
    pytest.param(["replay", "m.json"], _MANIFEST.replace("{}", '"x"') + "}",
                 "config must map sections", id="config-not-a-table"),
    pytest.param(["replay", "m.json"], _MANIFEST.replace("{}", '{"workload": 6}') + "}",
                 "[workload] must map keys", id="section-not-a-table"),
    pytest.param(["replay", "m.json"], _MANIFEST.replace("{}", '{"workload": {"mixes": "x"}}')
                 + "}", "workload.mixes must be of type int", id="str-mixes"),
    pytest.param(["replay", "m.json"], _MANIFEST.replace("{}", '{"mitigation": {"n_rh": "64"}}')
                 + "}", "mitigation.n_rh must be of type int", id="str-n_rh"),
    pytest.param(["simulate", "--config", "missing.ini"], None, "config file not found",
                 id="no-config"),
])
def test_unreadable_manifest_or_config_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                        argv, text, message):
    # a missing or malformed manifest, or one whose config holds a value of the
    # wrong type, once exited 1 with a raw OSError, AttributeError or TypeError
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "m.json").write_text(text)
    assert main([*argv, "--out-dir", "o"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["abc", "0", "-1"])
def test_worker_count_must_be_a_positive_integer(tmp_path, capsys, monkeypatch, workers):
    # "abc" once exited 1 with a raw ValueError, and 0 or -1 ran serially
    monkeypatch.setenv("PRACSIM_WORKERS", workers)
    ini = _write_ini(tmp_path / "w.ini", {"workload": TINY_WORKLOAD})
    assert main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "o")]) == 2
    assert "PRACSIM_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_subcommand_usage_exit():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [["gen-traces", "--out-dir"],
                                  ["attack-theory", "--bo-n-acts", "1", "--out"],
                                  ["analyze", "--mech", "prfm", "--gnuplot-stub", "--out"]])
def test_removed_command_and_option_are_usage_errors(tmp_path, argv):
    # nothing read the trace files or the plot script beside the sweep CSV;
    # theoretical_consumption never read bo_n_acts
    assert main(argv + [str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


# a value for every [timing] duration key, each far enough from the preset
# to move the secure thresholds of some mechanism
TIMING_OVERRIDES = {
    "tras": "40ns", "trp": "20ns", "trcd": "15ns", "tcl": "15ns", "trtp": "10ns",
    "twr": "40ns", "trefw": "128ms", "trefi": "7.8us", "trfc": "410ns", "trfm": "295ns",
    "tabo_act": "720ns", "tbackoffsignal": "10ns", "clock_period": "500ps"}


@pytest.mark.parametrize("key", sorted(set(SCHEMA["timing"]) - {"preset"}))
def test_derived_thresholds_are_secure_at_the_run_timing(tmp_path, key):
    """rfm_th and abo_th are derived at the preset plus the [timing]
    overrides: secure there, and the largest secure values."""
    cfg = parse_config(_write_ini(tmp_path / "t.ini", {
        "topology": {"desk": "false"}, "mitigation": {"kind": "prac+prfm", "n_rh": "64"},
        "timing": {key: TIMING_OVERRIDES[key]}}))
    mit = resolve_spec(cfg).mitigation
    t = timing_from_config(cfg, "ddr5-3200an-prac")
    assert is_secure(64, mit.prfm, t).secure and is_secure(64, mit.prac, t).secure
    assert not is_secure(64, replace(mit.prfm, rfm_th=mit.prfm.rfm_th + 1), t).secure
    assert not is_secure(64, replace(mit.prac, abo_th=mit.prac.abo_th + 1), t).secure


def test_derivation_sees_the_timing_overrides():
    # both thresholds derived at the fixed presets were insecure here
    spec = resolve_spec({"topology": {"desk": False}, "timing": {"tabo_act": 720_000},
                         "mitigation": {"kind": "prac", "n_rh": 64}})
    assert spec.mitigation.prac.abo_th == 26
    spec = resolve_spec({"topology": {"desk": False}, "timing": {"trefw": 128_000_000_000},
                         "mitigation": {"kind": "prfm", "n_rh": 64}})
    assert spec.mitigation.prfm.rfm_th == 5


@pytest.mark.parametrize("kind", sorted(cli.MECHANISMS))
def test_resolved_prac_and_prfm_follow_the_keys_the_kind_reads(monkeypatch, kind):
    """A resolved mechanism carries PRAC/PRFM parameters exactly when its
    kind reads abo_th/rfm_th, and the device of a run gets a back-off FSM
    exactly when PRAC is set, with those parameters."""
    spec = resolve_spec({"mitigation": {"kind": kind, "n_rh": 64}})
    prac, prfm, reads = spec.mitigation.prac, spec.mitigation.prfm, cli.MECHANISMS[kind][1]
    assert (prac is not None) == ("abo_th" in reads)
    assert (prfm is not None) == ("rfm_th" in reads)
    devices = []

    def capture(*args, **kwargs):
        devices.append(DeviceState(*args, **kwargs))
        return devices[-1]
    monkeypatch.setattr(cli, "DeviceState", capture)
    cli._run(spec, [[]])
    fsm = devices[0].fsm
    assert (fsm is not None) == (prac is not None)
    if fsm is not None:
        assert (fsm.abo_th, fsm.bo_n_refs, fsm.bo_n_acts) == astuple(prac)


def _simulate_tiny(tmp_path, mitigation, **workload):
    ini = _write_ini(tmp_path / "s.ini", {"mitigation": mitigation,
                                          "workload": {**TINY_WORKLOAD, "max_cycles": "200000",
                                                       "instructions_per_core": "1500",
                                                       **workload}})
    return main(["simulate", "--config", ini, "--out-dir", str(tmp_path / "o")])


def test_simulate_exits_1_when_counter_conservation_breaks(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(DeviceState, "conservation_holds", lambda self: False)
    assert _simulate_tiny(tmp_path, {"kind": "none"}) == 1
    assert "conservation" in capsys.readouterr().err


def test_simulate_exits_1_on_a_violation_under_derived_thresholds(tmp_path, monkeypatch,
                                                                  capsys):
    # an analyzer that derived a threshold too weak to ever fire: the monitor
    # sees the attacker reach n_rh, a soundness failure
    monkeypatch.setattr(cli, "secure_rfm_th", lambda *args: 10 ** 6)
    assert _simulate_tiny(tmp_path, {"kind": "prfm", "n_rh": "8"}, attacker="dos") == 1
    assert "analyzer-derived" in capsys.readouterr().err
    # every kind that resolves PRAC is checked, the optimistic timing included
    monkeypatch.setattr(cli, "secure_abo_th", lambda *args: 10 ** 6)
    assert _simulate_tiny(tmp_path, {"kind": "prac-optimistic", "n_rh": "8"},
                          attacker="dos") == 1
    assert "analyzer-derived" in capsys.readouterr().err


def test_explicit_thresholds_are_exempt_from_the_violation_check(tmp_path):
    assert _simulate_tiny(tmp_path, {"kind": "prfm", "n_rh": "8", "rfm_th": str(10 ** 6)},
                          attacker="dos") == 0
    rows = (tmp_path / "o" / "reports.csv").read_text().splitlines()
    col = rows[0].split(",").index("max_row_activation")
    assert max(int(r.split(",")[col]) for r in rows[1:]) >= 8


def test_para_stays_below_n_rh_under_the_monitor(tmp_path):
    # a PARA sample refreshes every victim of the aggressor, so a tally
    # reaches n_rh only after n_rh unsampled activations in a row (2^-40)
    assert _simulate_tiny(tmp_path, {"kind": "para", "n_rh": "16"}, attacker="dos",
                          attacker_rows="2", instructions_per_core="4000",
                          max_cycles="400000") == 0
    rows = (tmp_path / "o" / "reports.csv").read_text().splitlines()
    col = rows[0].split(",").index("max_row_activation")
    assert max(int(r.split(",")[col]) for r in rows[1:]) < 16


def test_graphene_is_sized_at_the_run_refresh_window():
    full = {"topology": {"desk": False}, "mitigation": {"kind": "graphene", "n_rh": 64}}
    base = resolve_spec(full).mitigation
    longer = resolve_spec({**full, "timing": {"trefw": 64_000_000_000}}).mitigation
    assert longer.threshold == base.threshold
    assert longer.table_entries > base.table_entries


def test_importing_the_cli_leaves_numpy_unloaded():
    # the analyzer's kernels import numpy on first use, so a run that
    # derives no threshold never loads it
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import pracsim.cli; "
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
