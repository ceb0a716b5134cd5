"""DRAM timing parameters.

All durations are integer picoseconds. Presets cover the DDR5-3200AN speed
bin in its baseline form, the variant with the per-row-counter update folded
into precharge, and the parameter set used by the throughput-budget
arithmetic (which assumes a 295 ns refresh-management window instead of the
350 ns one).

tRCD and tCL are not part of any security computation; they only shape
read/write latency in simulation. Both default to 13.75 ns, the common
DDR5-3200 value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

NS = 1000
US = 1000 * NS
MS = 1000 * US


class ConfigError(ValueError):
    """Bad configuration value or unknown preset/option name."""


@dataclass(frozen=True)
class TimingParams:
    tRC: int = field(init=False)   # always tRAS + tRP, set in __post_init__
    tRAS: int
    tRP: int
    tRCD: int
    tCL: int
    tRTP: int
    tWR: int
    tREFW: int
    tREFI: int
    tRFC: int
    tRFM: int
    tABO_ACT: int
    tBackoffSignal: int
    clock_period: int = 625  # DDR5-3200: 1600 MHz command clock

    def __post_init__(self):
        for name in ("tRAS", "tRP", "tRCD", "tCL", "tRTP", "tWR",
                     "tREFW", "tREFI", "tRFC", "tRFM", "tABO_ACT",
                     "tBackoffSignal", "clock_period"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer (ps), got {value!r}")
        object.__setattr__(self, "tRC", self.tRAS + self.tRP)   # frozen
        if self.tREFI >= self.tREFW:
            raise ConfigError("tREFI must be smaller than tREFW")
        if self.tRFC >= self.tREFI:
            raise ConfigError("tRFC must be smaller than tREFI")

    def window_acts(self) -> int:
        """Activations that fit in the back-off service window."""
        return self.tABO_ACT // self.tRC


_BASE = TimingParams(
    tRAS=32 * NS, tRP=15 * NS,
    tRCD=13750, tCL=13750,
    tRTP=7500, tWR=30 * NS,
    tREFW=32 * MS, tREFI=3900 * NS, tRFC=295 * NS,
    tRFM=350 * NS,
    tABO_ACT=180 * NS, tBackoffSignal=5 * NS,
)

PRAC_TRP_INCREASE = 21 * NS
PRAC_TRAS_DECREASE = 16 * NS
PRAC_TRTP_DECREASE = 2500
PRAC_TWR_DECREASE = 20 * NS


def apply_prac_adjustments(base: TimingParams) -> TimingParams:
    """Fold the counter-update-at-precharge cost into the timing parameters.

    tRP grows by 21 ns while tRAS, tRTP and tWR shrink by 16, 2.5 and 20 ns;
    tRC, always tRAS + tRP, follows them. Applied again to the
    ddr5-3200an-prac preset, it drives tRAS to zero and raises ConfigError.
    """
    tras = base.tRAS - PRAC_TRAS_DECREASE
    trp = base.tRP + PRAC_TRP_INCREASE
    trtp = base.tRTP - PRAC_TRTP_DECREASE
    twr = base.tWR - PRAC_TWR_DECREASE
    if min(tras, trtp, twr) <= 0:
        raise ConfigError("adjustment would drive a timing parameter to zero or below")
    return replace(base, tRAS=tras, tRP=trp, tRTP=trtp, tWR=twr)


_PRESETS = {
    "ddr5-3200an-base": lambda: _BASE,
    "ddr5-3200an-prac": lambda: apply_prac_adjustments(_BASE),
    # Parameter set that reproduces the published throughput-budget arithmetic
    # (29.58 ms available time, 577 ns period at threshold 6, 15.12 ms blocked):
    # identical to the base bin except tRFM = tRFC = 295 ns.
    "analysis-appendix": lambda: replace(_BASE, tRFM=295 * NS),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> TimingParams:
    """Return a named timing preset."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown timing preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        ) from None
    return factory()


_UNIT_PS = {"ps": 1, "ns": NS, "us": US, "ms": MS, "s": 1000 * MS}


def parse_duration(text: str) -> int:
    """Parse '350ns' / '3.9us' / '32ms' style strings to integer picoseconds."""
    s = text.strip().lower().replace("µs", "us")
    for unit in ("ps", "ns", "us", "ms", "s"):
        if s.endswith(unit):
            num = s[: -len(unit)].strip()
            try:
                value = float(num)
            except ValueError:
                raise ConfigError(f"invalid duration {text!r}") from None
            ps = value * _UNIT_PS[unit]
            rounded = round(ps)
            if abs(ps - rounded) > 1e-6:
                raise ConfigError(f"duration {text!r} is not a whole picosecond count")
            return int(rounded)
    raise ConfigError(f"duration {text!r} needs a unit suffix (ps/ns/us/ms/s)")
