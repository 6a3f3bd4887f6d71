import json

import pytest

from bbpre import ConfigurationError, ConstantMap, ExpMeanMap, TableMap
from bbpre.config import build_model_triple, build_offspring, build_rule, load_config_file


def test_defaults_are_the_canonical_model():
    env, offspring, rule = build_model_triple()
    assert env.std == 0.5 and env.mean == 0.0
    assert offspring.kind == "poisson"
    assert offspring.mean_f == ExpMeanMap(1.0, 0.0)
    assert rule.kind == "monogamous"
    assert rule.alpha == 0.5
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
    assert isinstance(rule.d, TableMap)
    assert rule.d(-1.0) == 1.0
    assert rule.d(0.5) == 3.0
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
        build_rule(None, kind="matriarchal")


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config_file(tmp_path / "missing.json")
    p = tmp_path / "arr.json"
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigurationError):
        load_config_file(p)
