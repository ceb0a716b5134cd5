import pytest

from pracsim.metrics import (
    BACKGROUND_MW,
    ENERGY_PJ,
    SimReport,
    energy,
    latency_percentiles,
    weighted_speedup,
)
from pracsim.timing import ConfigError
from pracsim.workloads import RunResult


def test_weighted_speedup_identity_quad_core():
    assert weighted_speedup([1.0, 2.0, 0.5, 3.0], [1.0, 2.0, 0.5, 3.0]) == pytest.approx(4.0)


def test_weighted_speedup_single_core_identity():
    assert weighted_speedup([2.5], [2.5]) == pytest.approx(1.0)


def test_weighted_speedup_halved_ipcs():
    assert weighted_speedup([0.5, 1.0, 1.5, 2.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.0)


def test_weighted_speedup_rejects_zero_alone():
    with pytest.raises(ConfigError):
        weighted_speedup([1.0], [0.0])
    with pytest.raises(ConfigError):
        weighted_speedup([1.0, 1.0], [1.0])


def test_energy_zero_everything():
    assert energy({cmd: 0 for cmd in ENERGY_PJ}, 0) == 0.0


def test_energy_dynamic_part_is_linear_in_counts():
    e1 = energy({"ACT": 5, "RD": 7}, 1_000_000)
    e2 = energy({"ACT": 10, "RD": 14}, 1_000_000)
    bg = BACKGROUND_MW * 1e-3 * 1000.0
    assert (e2 - bg) == pytest.approx(2 * (e1 - bg))
    assert e1 - bg == pytest.approx(5 * ENERGY_PJ["ACT"] + 7 * ENERGY_PJ["RD"])


def test_energy_unknown_command_rejected():
    with pytest.raises(KeyError):
        energy({"NOP": 3}, 10)


def test_packaged_energy_model_loads():
    # every value feeds reports.csv's energy_pj column
    assert ENERGY_PJ == {
        "ACT": 1200.0, "PRE": 800.0, "RD": 1600.0, "WR": 1700.0,
        "REF": 28000.0, "RFMab": 15000.0, "preventive": 2000.0}
    assert BACKGROUND_MW == 150.0


def test_latency_percentiles_monotone():
    lat = [5, 1, 9, 3, 7, 2, 8, 11, 4, 6]
    table = latency_percentiles(lat)
    keys = sorted(table)
    vals = [table[k] for k in keys]
    assert vals == sorted(vals)
    assert table[100] == 11


def test_latency_percentiles_empty():
    assert set(latency_percentiles([]).values()) == {0}


def _report(label, ws, ipcs):
    result = RunResult(ipcs=ipcs, instructions=[1000] * len(ipcs), end_ps=238_000,
                       controller_stat={}, device_counts={"ACT": 3, "PRE": 3},
                       read_latencies=[5, 1, 4, 2, 3], min_deadline_slack=None,
                       max_pair_disturbance=0, first_violation=None,
                       preventive_refreshes=0, backoffs=0)
    return SimReport(label=label, seed=0, weighted_speedup=ws, result=result)


def test_report_csv_round_trip_stability():
    rep = _report("mix0", 3.5, [1.0, 0.9, 0.8, 0.7])
    row1 = rep.csv_row()
    row2 = rep.csv_row()
    assert row1 == row2
    assert len(row1.split(",")) == len(SimReport.csv_header().split(","))
