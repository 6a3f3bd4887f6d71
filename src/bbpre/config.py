"""Structured config for models and experiments (JSON file + flag overrides).

Schema (all sections optional, no other top-level keys; command-line
flags override file values):

    {
      "env":       {"kind": "normal", "mean": 0.0, "std": 0.5},
      "offspring": {"kind": "poisson",
                    "mean_f": {"scale": 1.0, "shift": 0.0},
                    "mean_m": {"scale": 1.0, "shift": 0.0},
                    "beta": 3.0},
      "rule":      {"kind": "monogamous", "alpha": 0.5, "d": 1}
    }

Mean maps are ``scale * exp(eta + shift)`` (give ``{"constant": v}``
for an environment-independent mean), ``scale`` and ``constant`` at
least 0.  The monogamous capacity ``d`` is a positive integer or a step
table ``{"breakpoints": [...], "values": [...]}`` of integer values; the
other rules refuse a ``d``.
``alpha`` must satisfy ``1/alpha < beta`` so the derived moment order
``1 + delta`` stays below ``beta``; ``beta`` also sets the hitting
threshold of coupled runs.  Every number, a config value or a flag's
text, is read by ``read_real`` or ``read_int``: finite as a float64,
in its range and not ``true``/``false``; text is read exactly, so
``1e32`` is ``10**32``.  Any other value is a configuration error
naming its flag or key.
"""

from __future__ import annotations

import json
import math
import numbers
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Optional

from .errors import ConfigurationError
from .model import (
    ConstantMap,
    EnvironmentModel,
    ExpMeanMap,
    MatingRule,
    OffspringModel,
    TableMap,
    asexual,
    monogamous,
    polygamous,
)

__all__ = [
    "load_config_file",
    "build_env",
    "build_offspring",
    "build_rule",
    "build_model_triple",
    "MODEL_PRESETS",
]

# Named offspring presets: mean-map shift applied to both components.
MODEL_PRESETS = {
    "canonical": 0.0,
    "shifted": 0.1,
}


def _exact(value) -> Optional[Decimal]:
    """``value``, a number that is not a bool or its text, as an exact decimal; None unless finite as a float64."""
    if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
        return None
    if not isinstance(value, str):
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
    try:
        exact = Decimal(value)
    except InvalidOperation:
        return None
    return exact if exact.is_finite() and math.isfinite(float(exact)) else None


def read_real(value, where: str, low: float = -math.inf, high: float = math.inf, *, low_closed: bool = False) -> float:
    """``value`` as a float in ``(low, high)``, or ``[low, high)`` when ``low_closed``.

    ``value`` is a number that is not a bool, or its text; anything else is
    a ``ConfigurationError`` naming ``where``, its flag or config key.
    """
    exact = _exact(value)
    v = None if exact is None else float(exact)
    if v is None or not ((v >= low if low_closed else v > low) and v < high):
        interval = "" if (low, high) == (-math.inf, math.inf) else f" in {'[' if low_closed else '('}{low}, {high})"
        raise ConfigurationError(f"{where} expects a finite real{interval}, got {value!r}")
    return v


def read_int(value, where: str, minimum: int) -> int:
    """``value`` as an integer ``>= minimum``, read like ``read_real``; a fraction such as ``1.5`` is refused."""
    exact = _exact(value)
    if exact is None or exact != exact.to_integral_value() or exact < minimum:
        raise ConfigurationError(f"{where} expects an integer >= {minimum}, got {value!r}")
    return int(exact)


def load_config_file(path: Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or an integer too long to read
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return data


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)} (allowed: {sorted(allowed)})")


def build_env(section: Optional[dict]) -> EnvironmentModel:
    section = dict(section or {})
    _require_keys(section, {"kind", "mean", "std"}, "env")
    return EnvironmentModel(
        kind=section.get("kind", "normal"),
        mean=read_real(section.get("mean", 0.0), "env.mean"),
        std=read_real(section.get("std", 0.5), "env.std"),
    )


# The lower bound of each mean-map key; a key's value is read whether or not the map uses it.
_MEAN_MAP_LOW = {"scale": 0.0, "shift": -math.inf, "constant": 0.0}


def _build_mean_map(spec, where: str, default_shift: float):
    if spec is None:
        return ExpMeanMap(scale=1.0, shift=default_shift)
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{where} must be an object, got {spec!r}")
    _require_keys(spec, set(_MEAN_MAP_LOW), where)
    values = {key: read_real(v, f"{where}.{key}", _MEAN_MAP_LOW[key], low_closed=True) for key, v in spec.items()}
    if "constant" in values:
        return ConstantMap(values["constant"])
    return ExpMeanMap(scale=values.get("scale", 1.0), shift=values.get("shift", default_shift))


def build_offspring(section: Optional[dict], preset: Optional[str] = None) -> OffspringModel:
    section = dict(section or {})
    _require_keys(section, {"kind", "mean_f", "mean_m", "beta"}, "offspring")
    shift = 0.0
    if preset is not None:
        if preset not in MODEL_PRESETS:
            raise ConfigurationError(f"unknown model preset {preset!r} (choose from {sorted(MODEL_PRESETS)})")
        shift = MODEL_PRESETS[preset]
    return OffspringModel(
        kind=section.get("kind", "poisson"),
        mean_f=_build_mean_map(section.get("mean_f"), "offspring.mean_f", shift),
        mean_m=_build_mean_map(section.get("mean_m"), "offspring.mean_m", shift),
        beta=read_real(section.get("beta", 3.0), "offspring.beta"),
    )


def _build_d(spec):
    if spec is None:
        return 1
    if isinstance(spec, dict):
        _require_keys(spec, {"breakpoints", "values"}, "rule.d")
        return TableMap(
            tuple(read_real(b, "rule.d.breakpoints") for b in spec["breakpoints"]),
            tuple(read_int(v, "rule.d.values", 1) for v in spec["values"]),
        )
    return read_int(spec, "rule.d", 1)


def build_rule(section: Optional[dict]) -> MatingRule:
    section = dict(section or {})
    _require_keys(section, {"kind", "alpha", "d"}, "rule")
    kind = section.get("kind", "monogamous")
    alpha = read_real(section.get("alpha", 0.5), "rule.alpha")
    if kind == "monogamous":
        return monogamous(_build_d(section.get("d")), alpha=alpha)
    if kind not in ("polygamous", "asexual"):
        raise ConfigurationError(f"unknown rule kind {kind!r} (choose from monogamous, polygamous, asexual)")
    if section.get("d") is not None:
        raise ConfigurationError(f"rule.d (--d) is the monogamous pairing capacity; the {kind} rule has none")
    return (polygamous if kind == "polygamous" else asexual)(alpha=alpha)


def build_model_triple(
    file_config: Optional[dict] = None,
    preset: Optional[str] = None,
    sigma_env: Optional[float] = None,
    rule_kind: Optional[str] = None,
    alpha: Optional[float] = None,
    beta: Optional[float] = None,
    d=None,
) -> tuple[EnvironmentModel, OffspringModel, MatingRule]:
    """Assemble (env, offspring, rule) from a config dict plus flag overrides.

    The overrides that are not None replace their keys (``env.std``,
    ``rule.kind``, ``rule.alpha``, ``offspring.beta``, ``rule.d``) in the
    file's sections, which are then built as one config.  A value of
    the wrong type or shape is a ``ConfigurationError``, like every
    other refused value.
    """
    cfg = file_config or {}
    _require_keys(cfg, {"env", "offspring", "rule"}, "config")
    overrides = {
        "env": {"std": sigma_env},
        "rule": {"kind": rule_kind, "alpha": alpha, "d": d},
        "offspring": {"beta": beta},
    }
    try:
        sections = {}
        for name, keys in overrides.items():
            sections[name] = dict(cfg.get(name) or {})
            sections[name].update((key, v) for key, v in keys.items() if v is not None)
        env = build_env(sections["env"])
        rule = build_rule(sections["rule"])
        offspring = build_offspring(sections["offspring"], preset=preset)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigurationError(f"malformed config value: {type(exc).__name__}: {exc}") from exc
    if not 1.0 / rule.alpha < offspring.beta:
        raise ConfigurationError(
            f"need 1/alpha < beta so the moment order stays below beta; got alpha={rule.alpha}, beta={offspring.beta}"
        )
    return env, offspring, rule
