import numpy as np
import pytest

import gadengine.engine as engine
import gadengine.validation as validation
from gadengine.engine import (
    QubitEngineConfig,
    cold_stroke_heat,
    cycle_work,
    hot_stroke_heat,
    noncyclic_deviation,
    noncyclic_populations,
    redistribution_work,
)
from gadengine.states import DensityMatrix
from gadengine.validation import validate_all
from gadengine.variants import noncyclic_pe_uncorrected

CHECK_NAMES = (
    "qubit_channel_completeness",
    "qutrit_channel_completeness",
    "apply_preserves_trace_and_psd",
    "evolved_populations_closed_form",
    "population_inversion_condition",
    "damping_composition_semigroup",
    "heat_work_closed_forms",
    "noncyclic_populations_composition",
    "work_deficit_equals_redistribution",
    "positive_work_sign_theorem",
    "ergotropy_permutation_oracle",
    "channel_fixed_points",
    "qutrit_cold_heat_trace_based",
)

LITERAL_FAILURES = {
    "qutrit_channel_completeness_uncorrected_f3",
    "noncyclic_populations_composition_uncorrected_pe",
    "qutrit_cold_heat_literal_form",
}


def failed(summary) -> set:
    return {c.name for c in summary.checks if not c.passed}


def test_all_checks_pass_in_order():
    summary = validate_all()
    assert tuple(c.name for c in summary.checks) == CHECK_NAMES
    assert summary.ok
    assert failed(summary) == set()


def test_paper_literal_fails_exactly_the_literal_checks():
    summary = validate_all(paper_literal=True)
    assert len(summary.checks) == len(CHECK_NAMES)
    assert not summary.ok
    assert failed(summary) == LITERAL_FAILURES


@pytest.mark.parametrize("paper_literal", [False, True])
def test_two_runs_print_identical_lines(paper_literal):
    first = list(validate_all(paper_literal).lines())
    second = list(validate_all(paper_literal).lines())
    assert first == second


# Each mutation is wrong only where f (f' for the qutrit) is 1, one value of
# each grid's f axis; `cfg.f == 1.0` reads the same on a config and on columns.
def _shift(name, wrong):
    original = getattr(validation, name)
    return lambda cfg: original(cfg) + 1e-6 * wrong(cfg)


def _at_f_one(cfg):
    return cfg.f == 1.0


@pytest.mark.parametrize("name, wrong, checks", [
    ("hot_stroke_heat", _at_f_one, {"heat_work_closed_forms"}),
    ("cold_stroke_heat", _at_f_one, {"heat_work_closed_forms"}),
    ("cycle_work", _at_f_one, {"heat_work_closed_forms", "positive_work_sign_theorem"}),
    ("noncyclic_deviation", _at_f_one, {"heat_work_closed_forms"}),
    ("redistribution_work", _at_f_one,
     {"heat_work_closed_forms", "work_deficit_equals_redistribution"}),
    ("qutrit_hot_heat", lambda cfg: cfg.f_prime == 1.0, {"heat_work_closed_forms"}),
])
def test_closed_form_wrong_on_one_row_fails_its_checks(monkeypatch, name, wrong, checks):
    monkeypatch.setattr(validation, name, _shift(name, wrong))
    assert checks <= failed(validate_all())


def test_noncyclic_populations_wrong_on_one_row_fails(monkeypatch):
    original = validation.noncyclic_populations

    def shifted(cfg):
        pg2, pe2 = original(cfg)
        return pg2 + 1e-6 * _at_f_one(cfg), pe2

    monkeypatch.setattr(validation, "noncyclic_populations", shifted)
    assert "noncyclic_populations_composition" in failed(validate_all())


def _apply_operators_shifted(original):
    # the first Kraus operator's ground entry is sqrt(f), so the shift lands where f is 1
    def shifted(ops, states):
        out = np.array(original(ops, states))
        out[..., 1, 1] += 1e-6 * (np.real(ops[..., 0, 0, 0]) == 1.0)
        return out
    return shifted


def test_kraus_application_wrong_at_f_one_fails_its_checks(monkeypatch):
    wrong = _apply_operators_shifted(validation.apply_operators)
    monkeypatch.setattr(validation, "apply_operators", wrong)
    # apply is the same map at one state; fixed_point keeps the true one
    monkeypatch.setattr(validation, "apply", lambda ch, state: DensityMatrix(
        wrong(np.asarray(ch.operators), state.matrix)))
    assert {
        "apply_preserves_trace_and_psd",
        "evolved_populations_closed_form",
        "population_inversion_condition",
        "damping_composition_semigroup",
        "noncyclic_populations_composition",
    } <= failed(validate_all())


def test_closed_forms_on_columns_match_each_config():
    # the grid checks hand the closed forms columns in place of configs
    f, g, pg = validation._grid(*[np.linspace(0.0, 1.0, 5)] * 3)
    columns = validation._qubit_columns(pg, f, g, k=0.35, hot_gap=1.3, cold_gap=0.4)
    configs = [QubitEngineConfig(initial_pg=pg[i], f=f[i], gamma=g[i], k=0.35,
                                 hot_gap=1.3, cold_gap=0.4) for i in range(f.size)]
    for form in (hot_stroke_heat, cold_stroke_heat, cycle_work, noncyclic_deviation,
                 redistribution_work, noncyclic_pe_uncorrected):
        assert np.array_equal(form(columns), [form(cfg) for cfg in configs])
    assert np.array_equal(np.stack(noncyclic_populations(columns), axis=-1),
                          [noncyclic_populations(cfg) for cfg in configs])


def _cold_stroke(mutate):
    """engine.gad_operators with the cold stroke's arguments changed by mutate.

    The qutrit engine builds its cold stroke as gad_operators(1.0, (k1, k2));
    the check's hot strokes pass f' = 0.4 or a column, never the float 1.0.
    """
    original = engine.gad_operators

    def patched(f, lambdas):
        if isinstance(f, float) and f == 1.0:
            f, lambdas = mutate(f, lambdas)
        return original(f, lambdas)
    return patched


@pytest.mark.parametrize("mutate", [
    lambda f, lambdas: (f, lambdas[::-1]),
    lambda f, lambdas: (0.999, lambdas),
], ids=["k1_k2_swapped", "f_prime_0.999"])
def test_wrong_cold_stroke_fails_the_cold_heat_check(monkeypatch, mutate):
    assert validation._check_qutrit_cold_heat(False).passed
    monkeypatch.setattr(engine, "gad_operators", _cold_stroke(mutate))
    check = validation._check_qutrit_cold_heat(False)
    assert check.name == "qutrit_cold_heat_trace_based"
    assert not check.passed
