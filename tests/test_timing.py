from dataclasses import fields, replace

import pytest

from pracsim.timing import (
    ConfigError,
    TimingParams,
    apply_prac_adjustments,
    parse_duration,
    preset,
)

NS = 1000


def test_preset_prac_key_values():
    t = preset("ddr5-3200an-prac")
    assert t.tRC == 52 * NS
    assert t.tRFM == 350 * NS


def test_preset_appendix_window_arithmetic():
    t = preset("analysis-appendix")
    assert t.tREFW == 32_000_000_000
    assert t.tREFI == 3_900_000
    assert t.tRFC == 295_000
    assert t.tRFM == 295_000
    assert t.tRC == 47_000
    refreshed = (t.tREFW // t.tREFI) * t.tRFC
    assert t.tREFW - refreshed == 29_579_525_000  # 29.58 ms of usable time


def test_unknown_preset_names_valid_ones():
    with pytest.raises(ConfigError, match="ddr5-3200an-base"):
        preset("ddr4-anything")


def test_prac_adjustments_touch_only_the_five_fields():
    base = preset("ddr5-3200an-base")
    adj = apply_prac_adjustments(base)
    changed = {f for f in ("tRC", "tRAS", "tRP", "tRCD", "tCL", "tRTP", "tWR",
                           "tREFW", "tREFI", "tRFC", "tRFM", "tABO_ACT",
                           "tBackoffSignal", "clock_period")
               if getattr(base, f) != getattr(adj, f)}
    assert changed == {"tRC", "tRAS", "tRP", "tRTP", "tWR"}


def test_prac_adjustments_idempotence_guard():
    t = preset("ddr5-3200an-prac")
    with pytest.raises(ConfigError):
        apply_prac_adjustments(t)


def test_adjustment_rejects_nonpositive_result():
    base = preset("ddr5-3200an-base")
    with pytest.raises(ConfigError):
        apply_prac_adjustments(replace(base, tRTP=2_000))


def test_trc_consistency_enforced():
    # tRC has one definition, tRAS + tRP: it follows them through replace,
    # and no caller can give it
    base = preset("ddr5-3200an-base")
    assert replace(base, tRAS=40 * NS, tRP=20 * NS).tRC == 60 * NS
    with pytest.raises(ValueError, match="init=False"):
        replace(base, tRC=50 * NS)
    with pytest.raises(TypeError, match="tRC"):
        TimingParams(**{f.name: getattr(base, f.name) for f in fields(base) if f.init},
                     tRC=50 * NS)


def test_window_acts_from_preset():
    assert preset("ddr5-3200an-prac").window_acts() == 3  # 180 ns / 52 ns


@pytest.mark.parametrize("text,ps", [
    ("350ns", 350_000),
    ("3.9us", 3_900_000),
    ("32ms", 32_000_000_000),
    ("7.5ns", 7_500),
    ("625ps", 625),
])
def test_parse_duration(text, ps):
    assert parse_duration(text) == ps


def test_parse_duration_rejects_bad_input():
    with pytest.raises(ConfigError):
        parse_duration("12")
    with pytest.raises(ConfigError):
        parse_duration("fastns")
