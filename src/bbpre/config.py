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
for an environment-independent mean), with finite values.  The
monogamous capacity ``d`` is a positive integer or a step table
``{"breakpoints": [...], "values": [...]}``.  ``alpha`` must satisfy
``1/alpha < beta`` so the derived moment order ``1 + delta`` stays
below ``beta``; ``beta`` also sets the hitting threshold of coupled
runs.  Any value of the wrong type or shape is a configuration error.
"""

from __future__ import annotations

import json
import math
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


def load_config_file(path: Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return data


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)} (allowed: {sorted(allowed)})")


def build_env(section: Optional[dict], sigma_env: Optional[float] = None) -> EnvironmentModel:
    section = dict(section or {})
    _require_keys(section, {"kind", "mean", "std"}, "env")
    if sigma_env is not None:
        section["std"] = sigma_env
    return EnvironmentModel(
        kind=section.get("kind", "normal"),
        mean=float(section.get("mean", 0.0)),
        std=float(section.get("std", 0.5)),
    )


def _build_mean_map(spec, default_shift: float):
    if spec is None:
        return ExpMeanMap(scale=1.0, shift=default_shift)
    if not isinstance(spec, dict):
        raise ConfigurationError(f"mean map must be an object, got {spec!r}")
    _require_keys(spec, {"scale", "shift", "constant"}, "mean map")
    values = {key: float(v) for key, v in spec.items()}
    if not all(map(math.isfinite, values.values())):
        raise ConfigurationError(f"mean map values must be finite, got {spec!r}")
    if "constant" in values:
        if values["constant"] < 0:
            raise ConfigurationError(f"constant mean must be >= 0, got {values['constant']}")
        return ConstantMap(values["constant"])
    scale = values.get("scale", 1.0)
    if scale < 0:
        raise ConfigurationError(f"mean map scale must be >= 0, got {scale}")
    return ExpMeanMap(scale=scale, shift=values.get("shift", default_shift))


def build_offspring(section: Optional[dict], preset: Optional[str] = None, alpha: float = 0.5) -> OffspringModel:
    section = dict(section or {})
    _require_keys(section, {"kind", "mean_f", "mean_m", "beta"}, "offspring")
    shift = 0.0
    if preset is not None:
        if preset not in MODEL_PRESETS:
            raise ConfigurationError(f"unknown model preset {preset!r} (choose from {sorted(MODEL_PRESETS)})")
        shift = MODEL_PRESETS[preset]
    beta = float(section.get("beta", 3.0))
    if not 1.0 / alpha < beta:
        raise ConfigurationError(f"need 1/alpha < beta so the moment order stays below beta; got alpha={alpha}, beta={beta}")
    return OffspringModel(
        kind=section.get("kind", "poisson"),
        mean_f=_build_mean_map(section.get("mean_f"), shift),
        mean_m=_build_mean_map(section.get("mean_m"), shift),
        beta=beta,
    )


def _build_d(spec):
    if spec is None:
        return 1
    if isinstance(spec, (int, float)):
        d = int(spec)
        if d != spec or d < 1:
            raise ConfigurationError(f"monogamous capacity d must be a positive integer, got {spec!r}")
        return d
    if isinstance(spec, dict):
        _require_keys(spec, {"breakpoints", "values"}, "rule.d")
        values = [int(v) for v in spec["values"]]
        if any(v < 1 for v in values):
            raise ConfigurationError("table capacities must be positive integers")
        return TableMap(tuple(float(b) for b in spec["breakpoints"]), tuple(values))
    raise ConfigurationError(f"rule.d must be an integer or a breakpoint table, got {spec!r}")


def build_rule(section: Optional[dict], kind: Optional[str] = None, alpha: Optional[float] = None, d=None) -> MatingRule:
    section = dict(section or {})
    _require_keys(section, {"kind", "alpha", "d"}, "rule")
    kind = kind or section.get("kind", "monogamous")
    alpha = float(alpha if alpha is not None else section.get("alpha", 0.5))
    if not (0.0 < alpha < 1.0 and math.isfinite(alpha)):
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    if kind == "monogamous":
        return monogamous(_build_d(d if d is not None else section.get("d")), alpha=alpha)
    if kind == "polygamous":
        return polygamous(alpha=alpha)
    if kind == "asexual":
        return asexual(alpha=alpha)
    raise ConfigurationError(f"unknown rule kind {kind!r} (choose from monogamous, polygamous, asexual)")


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

    A value of the wrong type or shape is a ``ConfigurationError``, like every other refused value.
    """
    cfg = file_config or {}
    _require_keys(cfg, {"env", "offspring", "rule"}, "config")
    try:
        env = build_env(cfg.get("env"), sigma_env=sigma_env)
        rule = build_rule(cfg.get("rule"), kind=rule_kind, alpha=alpha, d=d)
        off_section = dict(cfg.get("offspring") or {})
        if beta is not None:
            off_section["beta"] = beta
        offspring = build_offspring(off_section, preset=preset, alpha=rule.alpha)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigurationError(f"malformed config value: {type(exc).__name__}: {exc}") from exc
    return env, offspring, rule
