import json
import math
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bbpre import ConfigurationError, ConstantMap, ExpMeanMap, TableMap, monogamous
from bbpre.cli import main
from bbpre.config import build_model_triple, build_offspring, build_rule, load_config_file

# JSON values for a config leaf: small in-range numbers and every kind the readers must refuse
_LEAF = st.one_of(
    st.integers(-3, 5),
    st.floats(-3.0, 3.0),
    st.sampled_from([True, False, None, math.nan, math.inf, -math.inf, 10**400, -(10**400), "x", "0.5", "1e400"]),
)
_JSON = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _section(**keys):
    return _JSON | st.fixed_dictionaries({}, optional=keys)


_MEAN_MAP = _section(scale=_JSON, shift=_JSON, constant=_JSON)
# configs built from the known sections and keys, with arbitrary JSON at the leaves
CONFIGS = st.fixed_dictionaries({}, optional={
    "env": _section(kind=st.just("normal") | _JSON, mean=_JSON, std=_JSON),
    "offspring": _section(kind=st.sampled_from(["poisson", "deterministic"]) | _JSON, mean_f=_MEAN_MAP,
                          mean_m=_MEAN_MAP, beta=_JSON),
    "rule": _section(kind=st.sampled_from(["monogamous", "polygamous", "asexual"]) | _JSON, alpha=_JSON,
                     d=_section(breakpoints=st.lists(_JSON, max_size=3), values=st.lists(_JSON, max_size=4))),
})


def test_defaults_are_the_canonical_model():
    env, offspring, rule = build_model_triple()
    assert env.std == 0.5 and env.mean == 0.0
    assert offspring.kind == "poisson"
    assert offspring.mean_f == ExpMeanMap(1.0, 0.0)
    assert rule == monogamous(1)
    assert rule.delta == 1.0


def test_shifted_preset_moves_both_means():
    _, offspring, _ = build_model_triple(preset="shifted")
    assert offspring.mean_f == ExpMeanMap(1.0, 0.1)
    assert offspring.mean_m == ExpMeanMap(1.0, 0.1)


def test_constant_mean_map():
    model = build_offspring({"kind": "deterministic", "mean_f": {"constant": 1}, "mean_m": {"constant": 1}})
    assert model.mean_f == ConstantMap(1.0)


def test_capacity_table():
    rule = build_rule({"kind": "monogamous", "d": {"breakpoints": [0.0], "values": [1, 3]}})
    assert rule == monogamous(TableMap((0.0,), (1, 3)))
    assert rule.L(10, 2, -1.0) == 2
    assert rule.L(10, 2, 0.5) == 6


def test_alpha_beta_consistency_enforced():
    # the derived moment order 1/alpha must stay below beta
    with pytest.raises(ConfigurationError):
        build_model_triple(alpha=0.2, beta=3.0)
    _, _, rule = build_model_triple(alpha=0.4, beta=3.0)
    assert 1.0 + rule.delta == pytest.approx(2.5)


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigurationError):
        build_model_triple(file_config={"env": {"stdv": 0.5}})
    with pytest.raises(ConfigurationError):
        build_rule({"kind": "monogamous", "dd": 2})
    with pytest.raises(ConfigurationError):
        build_rule({"kind": "matriarchal"})


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config_file(tmp_path / "missing.json")
    p = tmp_path / "arr.json"
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigurationError):
        load_config_file(p)
    with pytest.raises(ConfigurationError):
        load_config_file(tmp_path)
    p = tmp_path / "utf16.json"
    p.write_bytes(bytes([0xFF, 0xFE, 0x7B, 0x7D]))
    with pytest.raises(ConfigurationError):
        load_config_file(p)


def _numbers(obj):
    """Every number a model object holds, through its dataclass fields and tuples."""
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _numbers(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _numbers(getattr(obj, f.name))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(CONFIGS)
def test_config_builds_finite_models_or_refuses(config):
    try:
        triple = build_model_triple(file_config=config)
    except ConfigurationError:
        return
    values = list(_numbers(triple))
    assert values and all(type(v) in (int, float) and math.isfinite(v) for v in values), (config, triple)


@settings(max_examples=10, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(CONFIGS)
@example({"rule": {"d": 1e400}})
def test_generated_configs_run_or_exit_with_a_configuration_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(path), "--n0", "50", "--replicates", "2", "--max-steps", "20"])
    stdout, stderr = capsys.readouterr()
    assert code in (0, 1), (config, stderr)
    if code == 1:
        assert stdout == "" and json.loads(stderr.strip().splitlines()[-1])["error"] == "configuration"
