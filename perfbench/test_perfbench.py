"""Benchmark-side checks (run with `python -m pytest perfbench`).

The campaign workloads take their thresholds from a fixed table, so the
table must still match the analyzer. And the traffic each workload is said
to send through the layers (layers.json) is checked from a short traced run
rather than assumed.
"""

import json
from pathlib import Path

import pytest

import run
import suite
from pracsim.security import secure_abo_th, secure_rfm_th
from pracsim.timing import preset
from spans import Tracer

LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())["workloads"]
NEAR_ZERO = 0.01


@pytest.mark.parametrize("n_rh", sorted(suite.THRESHOLDS))
def test_threshold_table_matches_analyzer(n_rh):
    abo_th, rfm_th = suite.THRESHOLDS[n_rh]
    assert secure_abo_th(n_rh, preset("ddr5-3200an-prac")) == abo_th
    assert secure_rfm_th(n_rh, preset("analysis-appendix")) == rfm_th


@pytest.mark.parametrize("name", sorted(suite.SETUPS))
def test_dominant_layer_matches_record(name):
    record = LAYERS[name]
    work = suite.SETUPS[name](0)
    tracer = Tracer()
    suite.install_tracer(tracer)
    try:
        batch = run.run_batch(work, tracer)
    finally:
        tracer.restore()
        work.cleanup()
    assert batch.failed == 0 and not batch.problems
    share = {layer: self_s / run.batch_s([batch])
             for layer, (_, self_s) in tracer.layer_totals().items()}
    dominant = record["dominant"]
    others = [share[layer] for layer in share if layer not in dominant]
    assert sum(share[layer] for layer in dominant) >= 0.5, share
    assert all(share[layer] > max(others) for layer in dominant), share
    for layer in record["bypasses"]:
        assert share[layer] < NEAR_ZERO, (layer, share)
