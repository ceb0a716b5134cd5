"""Structured config file (INI sections) and the run manifest.

Unknown sections or keys are hard errors so a typo cannot silently fall back
to a default; keys the chosen mechanism does not read are rejected when the
run is resolved (pracsim.cli.resolve_spec). Timing overrides accept
ns/us/ms suffixes. The manifest records everything needed to reproduce a run
byte-identically: the parsed configuration, which replay resolves again,
seeds, preset names, artifact version and output paths.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import asdict, dataclass, fields, replace

from . import __version__
from .timing import ConfigError, TimingParams, parse_duration, preset


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


# every duration a caller may set: not tRC, which is always tRAS + tRP
_TIMING_FIELDS = tuple(f.name for f in fields(TimingParams) if f.init)

SCHEMA = {
    "timing": {"preset": str, **{f.lower(): parse_duration for f in _TIMING_FIELDS}},
    "topology": {"desk": _bool},
    "mitigation": {"kind": str, "n_rh": int, "rfm_th": int, "abo_th": int,
                   "bo_n_refs": int, "bo_n_acts": int, "probability": float},
    "workload": {"mixes": int, "seed": int, "records": int,
                 "instructions_per_core": int, "max_cycles": int,
                 "attacker": str, "attacker_rows": int, "attacker_banks": int},
    "output": {"dir": str},
}


# the type of value each SCHEMA coercer yields; durations are int ps
_YIELDS = {str: str, int: int, float: float, parse_duration: int, _bool: bool}


def check_schema(cfg: dict, values: bool = True) -> None:
    """Reject any section or key the schema does not list and, unless
    `values` is false, any value whose type is not the one its coercer
    yields (a bool is no int): a manifest's config is JSON, which nothing
    coerces."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must map sections to keys, got {cfg!r}")
    for section, keys in cfg.items():
        if section not in SCHEMA:
            raise ConfigError(
                f"unknown config section [{section}]; valid: {', '.join(SCHEMA)}")
        if not isinstance(keys, dict):
            raise ConfigError(f"[{section}] must map keys to values, got {keys!r}")
        for key, value in keys.items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]; "
                                  f"valid: {', '.join(SCHEMA[section])}")
            want = _YIELDS[SCHEMA[section][key]]
            if values and type(value) is not want:
                raise ConfigError(f"{section}.{key} must be of type {want.__name__}, "
                                  f"got {value!r}")


def _coerce(section: str, key: str, text: str):
    try:
        return SCHEMA[section][key](text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {text!r} ({exc})") from None


def parse_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    raw = {section: dict(parser[section]) for section in parser.sections()}
    check_schema(raw, values=False)
    return {section: {key: _coerce(section, key, text) for key, text in kv.items()}
            for section, kv in raw.items()}


def timing_from_config(cfg: dict, default_preset: str = "ddr5-3200an-base") -> TimingParams:
    """The [timing] preset (default_preset when unset) with the section's
    duration overrides applied."""
    sec = cfg.get("timing", {})
    t = preset(sec.get("preset", default_preset))
    overrides = {f: sec[f.lower()] for f in _TIMING_FIELDS if f.lower() in sec}
    return replace(t, **overrides)


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    preset_name: str
    outputs: list
    artifact_version: str = __version__

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Raises ConfigError for a file that cannot be read, is not JSON, or
        misses or adds a field."""
        try:
            with open(path) as fh:
                return cls(**json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read manifest {path}: {exc.strerror}") from None
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"malformed manifest {path}: {exc}") from None
