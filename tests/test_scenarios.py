"""Named desk-scale scenarios and the randomized harness."""

import pytest

from fpsq.laws import OverlapLaw, SphereLaw
from fpsq.scenarios import SCENARIOS, random_assumption_model, run_scenario
from helpers import builtin_models


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    result = run_scenario(name)
    failing = [c for c in result.checks if not c.passed]
    assert result.passed, failing


def test_unknown_scenario_lists_names():
    with pytest.raises(ValueError) as err:
        run_scenario("nope")
    assert "available" in str(err.value)


def test_builtin_registry_builds():
    models = builtin_models()
    assert len(models) >= 12
    for name, model in models.items():
        assert isinstance(model.law, (OverlapLaw, SphereLaw)), name


def test_harness_models_satisfy_their_premises():
    from fpsq.criteria import sq_value

    for seed in range(10):
        model, q, m = random_assumption_model(seed)
        assert m % 2 == 0
        assert sq_value(model, q).value <= 1.0 / m
        thr = model.atom_table.rho.threshold(q**-2)
        assert thr.exact
