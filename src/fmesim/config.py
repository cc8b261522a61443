"""Configuration schema, presets, validation, and parameter assembly.

Configuration files are flat JSON objects (key -> number, string, or
[re, im] pair for complex drive amplitudes).  All frequencies and rates are
quoted in plain Hz and all times in seconds; the single Hz -> rad/s
conversion by 2*pi happens in build_setup and nowhere else.  Dark
counts are an event rate and the read half-splitting only labels the qubit's
two rails (-/+ delta_omega_read), so neither is ever multiplied by 2*pi.

This module imports only the standard library, so resolving and rejecting
a configuration never loads numpy; build_setup imports the physics types
when it is called, and no physics module imports this one.  SCHEMA checks
every configured value once and build_setup rejects the one combination
that only the built engine shows; nothing below them checks a configured
value again.  cli checks --seed and the sweep grid size against SEED_LIMIT
and ROW_LIMIT.

Every resolved value carries a provenance tag:

    paper    a number taken directly from the published level scheme
    default  a declared package default (the DEFAULTS table below)
    user     supplied via a config file or a --set override

so that no numeric default can appear untagged in any output.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .protocol import ProtocolEngine

TWO_PI = 2.0 * math.pi

ENGINES = ("perturbative", "exact")

# The seed is the 64-bit key of the random streams.  Sweep row, run index
# and word pack one-to-one into a 64-bit stream index (31 + 32 + 1 bits).
COUNTER_LIMIT = 1 << 32
ROW_LIMIT = 1 << 31
SEED_LIMIT = 1 << 64


class ConfigError(Exception):
    """Invalid, missing, or unknown configuration input (exit code 2)."""


def _positive(key, value):
    if value <= 0:
        raise ConfigError(f"{key} must be > 0, got {value}")


def _nonnegative(key, value):
    if value < 0:
        raise ConfigError(f"{key} must be >= 0, got {value}")


def _nonzero(key, value):
    if value == 0:
        raise ConfigError(f"{key} must be nonzero")


def _probability(key, value):
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} must be in [0, 1], got {value}")


def _at_least_one(key, value):
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")


def _counter(key, value):
    # Run indices take 32 bits of the random stream index; max_trials
    # shares the bound, which keeps every trial count exact in the float64
    # geometric draw.
    if not 1 <= value <= COUNTER_LIMIT:
        raise ConfigError(f"{key} must be in [1, 2**32], got {value}")


def _cutoff(key, value):
    # The cutoff sets how much of the chain is listed, and so the degree of the
    # perturbative engine's Taylor polynomial (1 at cutoff 1, else 2); the exact
    # engine's numbers do not depend on it.  The bound caps the listed chain
    # and the 2 cutoff + 3 branch table.
    if not 1 <= value <= 32:
        raise ConfigError(f"{key} must be in [1, 32], got {value}")


class KeySpec(NamedTuple):
    kind: str  # "float" | "complex" | "int" | "choice"
    unit: str
    description: str
    validator: object = None
    choices: tuple = ()


# Complete key schema.  Keys without an entry in DEFAULTS are required.
SCHEMA: dict[str, KeySpec] = {
    "g_I": KeySpec("float", "Hz", "atom-photon coupling, species I", _positive),
    "g_II": KeySpec("float", "Hz", "atom-photon coupling, species II", _positive),
    "N_I": KeySpec("float", "atoms", "atom number, species I", _at_least_one),
    "N_II": KeySpec("float", "atoms", "atom number, species II", _at_least_one),
    "omega_rabi_write_I": KeySpec(
        "complex", "Hz", "write Rabi frequency, species I (number or [re, im])"
    ),
    "omega_rabi_write_II": KeySpec(
        "complex", "Hz", "write Rabi frequency, species II (number or [re, im])"
    ),
    "delta": KeySpec("float", "Hz", "one-photon detuning", _nonzero),
    "tau_write": KeySpec("float", "s", "write pulse duration", _positive),
    "delta_omega_write": KeySpec("float", "Hz", "write sideband half-splitting", _positive),
    "delta_omega_read": KeySpec("float", "Hz", "read sideband half-splitting", _positive),
    "eta": KeySpec("float", "probability", "detector efficiency", _probability),
    "dark_rate_hz": KeySpec("float", "counts/s", "detector dark-count rate", _nonnegative),
    "gate_s": KeySpec("float", "s", "detection gate duration", _positive),
    "max_trials": KeySpec("int", "trials", "retry budget per run", _counter),
    "cutoff": KeySpec(
        "int", "quanta", "largest listed photon number (exact: the rest in tail branches)", _cutoff
    ),
    "engine": KeySpec("choice", "", "write-stage engine", choices=ENGINES),
    "runs": KeySpec("int", "runs", "Monte Carlo run count", _counter),
    "retrieval_efficiency_I": KeySpec(
        "float", "probability", "read-out efficiency, species I", _probability
    ),
    "retrieval_efficiency_II": KeySpec(
        "float", "probability", "read-out efficiency, species II", _probability
    ),
    "read_phase": KeySpec("float", "rad", "read-field phase on the species-II amplitude"),
}

# Declared non-paper defaults; anything not listed here is required (from a
# preset, a config file, or --set).
DEFAULTS: dict[str, object] = {
    "eta": 0.6,
    "dark_rate_hz": 400.0,
    "gate_s": 1.0e-6,
    "max_trials": 10000,
    "cutoff": 2,
    "engine": "perturbative",
    "runs": 1000,
    "delta_omega_read": 1.0e9,
    "retrieval_efficiency_I": 1.0,
    "retrieval_efficiency_II": 1.0,
    "read_phase": 0.0,
}

REQUIRED_KEYS = tuple(k for k in SCHEMA if k not in DEFAULTS and k != "delta_omega_write")


class Preset(NamedTuple):
    """A named parameter set; the keys in paper_keys are tagged "paper",
    every other value "default"."""

    name: str
    description: str
    level_labels: tuple[str, ...]
    values: dict[str, object]
    paper_keys: tuple[str, ...]

    def provenance(self, key: str) -> str:
        return "paper" if key in self.paper_keys else "default"


RB85_87 = Preset(
    name="rb85-87",
    description=(
        "Rb-85 / Rb-87 isotope mixture on the D1 lines.  The three "
        "frequencies marked [paper] are the published level-scheme values; "
        "every other number is a package default.  Output photon frequency "
        "offsets are -/+ the read half-splitting."
    ),
    level_labels=(
        "species I  (Rb-85): s, g from 5S1/2 F=3, F=2; e from 5P1/2 F=3",
        "species II (Rb-87): s', g' from 5S1/2 F=2, F=1; e' from 5P1/2 F=1",
    ),
    values={
        "delta": 1.368e9,
        "delta_omega_write": 1.8995e9,
        "delta_omega_read": 1.368e9,
        "g_I": 50.0,
        "g_II": 50.0,
        "N_I": 1.0e8,
        "N_II": 1.0e8,
        "omega_rabi_write_I": 1.0e7,
        "omega_rabi_write_II": 1.0e7,
        "tau_write": 4.0e-6,
    },
    paper_keys=("delta", "delta_omega_write", "delta_omega_read"),
)

PRESETS: dict[str, Preset] = {RB85_87.name: RB85_87}


class ResolvedConfig(NamedTuple):
    """Validated configuration with one provenance tag per key."""

    values: dict[str, object]
    provenance: dict[str, str]
    preset: str | None = None

    def serializable_values(self) -> dict:
        out = {}
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, complex):
                out[key] = [value.real, value.imag]
            else:
                out[key] = value
        return out


def _finite(key: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def _abridged(raw) -> str:
    """The repr of a rejected value, cut as reprlib cuts it: long strings and
    numbers lose their middle, long lists their tail and deep nesting its
    inner levels, so the error stays one short line."""
    import reprlib

    return reprlib.repr(raw)


def _coerce(key: str, raw) -> object:
    spec = SCHEMA[key]
    try:
        if spec.kind == "float":
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise TypeError
            return _finite(key, float(raw))
        if spec.kind == "int":
            if isinstance(raw, bool) or not isinstance(raw, int):
                if isinstance(raw, float) and raw.is_integer():
                    return int(raw)
                raise TypeError
            return int(raw)
        if spec.kind == "complex":
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                return complex(_finite(key, float(raw)), 0.0)
            if (
                isinstance(raw, (list, tuple))
                and len(raw) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
            ):
                return complex(_finite(key, float(raw[0])), _finite(key, float(raw[1])))
            raise TypeError
        if spec.kind == "choice":
            if raw not in spec.choices:
                raise ConfigError(
                    f"{key} must be one of {spec.choices}, got {_abridged(raw)}"
                )
            return raw
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        raise ConfigError(
            f"{key}: cannot interpret value {_abridged(raw)} as {spec.kind}"
        ) from None


def _check(values: dict[str, object]) -> None:
    """Every per-key validator."""
    for key, value in values.items():
        spec = SCHEMA[key]
        if spec.validator is not None:
            spec.validator(key, value)


def _assign(values: dict, provenance: dict, key: str, raw) -> None:
    """Set one user-supplied key; unknown keys are rejected."""
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    values[key] = _coerce(key, raw)
    provenance[key] = "user"


def parse_value(text: str) -> object:
    """A command-line value: text as JSON when it parses, else text itself."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # not JSON, past the int digit limit, or too deep
        return text


def parse_set_override(text: str) -> tuple[str, object]:
    """Parse one --set KEY=VALUE override; VALUE as parse_value reads it."""
    if "=" not in text:
        raise ConfigError(f"--set expects KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    return key.strip(), parse_value(raw.strip())


def load_config(
    path: str | None = None,
    preset: str | None = None,
    overrides: list[str] | None = None,
) -> ResolvedConfig:
    """Merge defaults, preset, config file, and --set overrides, then validate.

    Precedence (lowest to highest): DEFAULTS, preset, file, overrides.
    Unknown keys, missing required keys, and out-of-range values raise
    ConfigError naming the key.
    """
    values: dict[str, object] = {}
    provenance: dict[str, str] = {}

    for key, value in DEFAULTS.items():
        values[key] = _coerce(key, value)
        provenance[key] = "default"

    preset_obj = None
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        preset_obj = PRESETS[preset]
        for key, value in preset_obj.values.items():
            values[key] = _coerce(key, value)
            provenance[key] = preset_obj.provenance(key)

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, raw in data.items():
            _assign(values, provenance, key, raw)

    for text in overrides or []:
        _assign(values, provenance, *parse_set_override(text))

    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(
            "missing required configuration keys: " + ", ".join(sorted(missing))
        )

    _check(values)
    return ResolvedConfig(values=values, provenance=provenance, preset=preset)


# ---------------------------------------------------------------------------
# Parameter assembly and the engine build
# ---------------------------------------------------------------------------


def build_setup(cfg: ResolvedConfig) -> ProtocolEngine:
    """The engine of cfg, from its SystemParams (in rad/s), DetectorModel and
    ReadParams; raises ConfigError where a true herald retrieves no photon,
    a combination of values that no one key's check can see."""
    from .herald import DetectorModel
    from .protocol import ProtocolEngine
    from .retrieval import ReadParams
    from .write_dynamics import SystemParams

    v = cfg.values
    system = SystemParams(
        g_I=TWO_PI * v["g_I"],
        g_II=TWO_PI * v["g_II"],
        N_I=v["N_I"],
        N_II=v["N_II"],
        omega_W_I=TWO_PI * v["omega_rabi_write_I"],
        omega_W_II=TWO_PI * v["omega_rabi_write_II"],
        delta=TWO_PI * v["delta"],
        tau_write=v["tau_write"],
    )
    detector = DetectorModel(eta=v["eta"], dark_rate=v["dark_rate_hz"], gate=v["gate_s"])
    read = ReadParams(
        efficiency_I=v["retrieval_efficiency_I"],
        efficiency_II=v["retrieval_efficiency_II"],
        phase_II=v["read_phase"],
    )
    engine = ProtocolEngine(system, detector, read, v["max_trials"], v["engine"], v["cutoff"])
    if engine.true_herald and not engine.qubit.has_photon:
        raise ConfigError(
            "a true herald retrieves no photon: retrieval_efficiency_I and "
            "retrieval_efficiency_II are 0 on every species the write drive excites"
        )
    return engine


def with_overrides(cfg: ResolvedConfig, updates: dict[str, object]) -> ResolvedConfig:
    """A copy of cfg with the given key -> raw value updates applied.  cfg
    was checked when it was loaded, so only the updated keys are checked."""
    values = dict(cfg.values)
    provenance = dict(cfg.provenance)
    for key, raw in updates.items():
        _assign(values, provenance, key, raw)
    _check({key: values[key] for key in updates})
    return ResolvedConfig(values=values, provenance=provenance, preset=cfg.preset)
