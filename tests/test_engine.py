import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gadengine import (
    Hamiltonian,
    InfeasibleDampingError,
    NoHeatAbsorbedError,
    OutOfRangeError,
    QubitEngineConfig,
    QutritEngineConfig,
    ad_qubit,
    apply,
    cold_stroke_heat,
    cycle_work,
    efficiency,
    energy,
    gad_qubit,
    gad_qutrit,
    hot_stroke_heat,
    make_diagonal_state,
    max_cycle_work,
    noncyclic_deviation,
    noncyclic_populations,
    positive_work_threshold,
    qutrit_hot_heat,
    redistribution_work,
    reservoir_baseline,
    run_cyclic_qubit,
    run_noncyclic_qubit,
    run_qutrit,
)


def qubit_trace_heats(cfg, offset=0.0):
    """Independent oracle: run the strokes by hand on shifted spectra."""
    h_hot = Hamiltonian((offset, offset + cfg.hot_gap))
    h_cold = Hamiltonian((offset, offset + cfg.cold_gap))
    rho = make_diagonal_state([cfg.initial_pg, cfg.initial_pe])
    rho2 = apply(gad_qubit(cfg.f, cfg.gamma), rho)
    q1 = energy(rho2, h_hot) - energy(rho, h_hot)
    q2 = energy(rho, h_cold) - energy(rho2, h_cold)
    return q1, q2


class TestReservoirBaseline:
    def test_ideal_limit(self):
        base = reservoir_baseline(0.0, math.inf, cold_gap=1.0, hot_gap=3.0)
        assert base.p_cold == 0.5
        assert base.p_hot == 1.0
        assert base.work == pytest.approx(0.5 * (3.0 - 1.0), abs=1e-12)

    def test_equal_gaps_no_work(self):
        base = reservoir_baseline(1.3, 1.3, cold_gap=2.0, hot_gap=2.0)
        assert base.work == 0.0

    def test_finite_temperatures(self):
        # oracle: direct evaluation of the logistic occupations
        base = reservoir_baseline(1.0, 1.0, cold_gap=1.0, hot_gap=2.0)
        p_c = 1.0 / (1.0 + math.exp(-1.0))
        p_h = 1.0 / (1.0 + math.exp(-2.0))
        assert base.p_cold == pytest.approx(p_c, abs=1e-12)
        assert base.p_hot == pytest.approx(p_h, abs=1e-12)
        assert base.work == pytest.approx((p_c - p_h) * (1.0 - 2.0), abs=1e-12)
        assert base.work == pytest.approx(0.149738, abs=1e-6)

    def test_negative_beta_rejected(self):
        with pytest.raises(OutOfRangeError):
            reservoir_baseline(-1.0, 1.0, 1.0, 2.0)
        with pytest.raises(OutOfRangeError):
            reservoir_baseline(1.0, 1.0, 0.0, 2.0)

    def test_nan_beta_rejected(self):
        with pytest.raises(OutOfRangeError, match="beta_c"):
            reservoir_baseline(math.nan, 1.0, 0.5, 1.0)
        with pytest.raises(OutOfRangeError, match="beta_h"):
            reservoir_baseline(1.0, math.nan, 0.5, 1.0)
        base = reservoir_baseline(math.inf, math.inf, 0.5, 1.0)  # zero temperature stays
        assert (base.p_cold, base.p_hot) == (1.0, 1.0)


class TestClosedFormHeats:
    def test_hot_stroke_example(self):
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.5, hot_gap=1.0, cold_gap=0.5)
        assert hot_stroke_heat(cfg) == pytest.approx(0.35, abs=1e-12)
        assert hot_stroke_heat(cfg) == pytest.approx(qubit_trace_heats(cfg)[0], abs=1e-12)

    def test_no_interaction(self):
        cfg = QubitEngineConfig(initial_pg=0.3, f=0.4, gamma=0.0)
        assert hot_stroke_heat(cfg) == 0.0
        assert cold_stroke_heat(cfg) == 0.0
        assert cycle_work(cfg) == 0.0

    def test_balanced_point(self):
        cfg = QubitEngineConfig(initial_pg=0.5, f=0.5, gamma=0.8)
        assert hot_stroke_heat(cfg) == pytest.approx(0.0, abs=1e-15)

    def test_cold_stroke_example(self):
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.5, hot_gap=1.0, cold_gap=0.5)
        assert cold_stroke_heat(cfg) == pytest.approx(-0.175, abs=1e-12)
        assert cold_stroke_heat(cfg) == pytest.approx(qubit_trace_heats(cfg)[1], abs=1e-12)

    def test_cold_heat_negative_for_low_emission(self):
        for f in (0.0, 0.1, 0.3, 0.49):
            cfg = QubitEngineConfig(initial_pg=0.8, f=f, gamma=0.6)
            assert cold_stroke_heat(cfg) < 0.0

    def test_work_is_heat_sum(self):
        grid = np.linspace(0.0, 1.0, 9)
        for f in grid:
            for g in grid:
                for pg in grid:
                    cfg = QubitEngineConfig(initial_pg=pg, f=f, gamma=g,
                                            hot_gap=1.7, cold_gap=0.3)
                    assert cycle_work(cfg) == pytest.approx(
                        hot_stroke_heat(cfg) + cold_stroke_heat(cfg), abs=1e-12
                    )

    def test_work_example(self):
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.5, hot_gap=1.0, cold_gap=0.5)
        assert cycle_work(cfg) == pytest.approx(0.175, abs=1e-12)

    def test_max_work_limit(self):
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.0, gamma=1.0, hot_gap=1.0, cold_gap=0.5)
        assert cycle_work(cfg) == pytest.approx(max_cycle_work(cfg), abs=1e-12)

    def test_degenerate_gaps(self):
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.5, hot_gap=1.0, cold_gap=1.0)
        assert cycle_work(cfg) == 0.0

    def test_trace_oracle_shift_invariance(self):
        # heats depend on gaps only: shifting both spectra changes nothing
        cfg = QubitEngineConfig(initial_pg=0.35, f=0.6, gamma=0.7, hot_gap=2.0, cold_gap=0.9)
        for offset in (-5.0, 0.0, 3.25):
            q1, q2 = qubit_trace_heats(cfg, offset=offset)
            assert q1 == pytest.approx(hot_stroke_heat(cfg), abs=1e-12)
            assert q2 == pytest.approx(cold_stroke_heat(cfg), abs=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.001, 1.0), st.floats(0.0, 1.0))
    def test_work_never_exceeds_envelope(self, f, g, pg):
        cfg = QubitEngineConfig(initial_pg=pg, f=f, gamma=g, hot_gap=1.0, cold_gap=0.5)
        assert cycle_work(cfg) <= max_cycle_work(cfg) + 1e-12


class TestPositiveWorkThreshold:
    def test_ninety_percent_boundary(self):
        for f, expect in ((0.89, True), (0.9, True), (0.91, False)):
            cfg = QubitEngineConfig(initial_pg=0.9, f=f, gamma=0.5)
            assert positive_work_threshold(cfg).is_positive is expect

    def test_balanced_bound(self):
        cfg = QubitEngineConfig(initial_pg=0.6, f=0.5, gamma=0.5)
        res = positive_work_threshold(cfg)
        assert res.ratio_bound == 1.0
        assert res.is_positive

    def test_inverted_population_negative_work(self):
        cfg = QubitEngineConfig(initial_pg=0.4, f=0.5, gamma=0.5)
        res = positive_work_threshold(cfg)
        assert not res.is_positive
        assert cycle_work(cfg) < 0.0

    def test_degenerate_flags(self):
        res = positive_work_threshold(QubitEngineConfig(initial_pg=0.5, f=0.0, gamma=0.5))
        assert res.degenerate and res.ratio_bound == math.inf
        res = positive_work_threshold(QubitEngineConfig(initial_pg=0.0, f=0.5, gamma=0.5))
        assert res.degenerate

    def test_consistent_with_work_sign(self):
        grid = np.linspace(0.0, 1.0, 21)
        for f in grid:
            for pg in grid:
                cfg = QubitEngineConfig(initial_pg=pg, f=f, gamma=0.7)
                w = cycle_work(cfg)
                if abs(w) > 1e-15:
                    assert positive_work_threshold(cfg).is_positive == (w > 0.0)


class TestCyclicRun:
    def test_otto_efficiency(self):
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.5, hot_gap=1.0, cold_gap=0.5)
        rep = run_cyclic_qubit(cfg)
        assert rep.efficiency == pytest.approx(0.5, abs=1e-12)
        assert rep.work == rep.q_hot + rep.q_cold
        assert rep.deviation == 0.0
        assert rep.cyclic

    def test_frozen_dynamics_flagged(self):
        rep = run_cyclic_qubit(QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.0))
        assert abs(rep.q_hot) < 1e-12
        assert abs(rep.q_cold) < 1e-12
        assert abs(rep.work) < 1e-12
        assert not rep.heat_absorbed
        assert math.isnan(rep.efficiency)
        with pytest.raises(NoHeatAbsorbedError):
            efficiency(rep)

    def test_population_inversion_max_work(self):
        cfg = QubitEngineConfig(initial_pg=1.0, f=0.0, gamma=1.0, hot_gap=10.0, cold_gap=1.0)
        rep = run_cyclic_qubit(cfg)
        assert rep.work == pytest.approx(9.0, abs=1e-12)

    def test_closed_forms_match_run(self):
        grid = np.linspace(0.0, 1.0, 11)
        for f in grid:
            for g in grid:
                cfg = QubitEngineConfig(initial_pg=0.75, f=f, gamma=g,
                                        hot_gap=1.4, cold_gap=0.6)
                rep = run_cyclic_qubit(cfg)
                assert rep.q_hot == pytest.approx(hot_stroke_heat(cfg), abs=1e-12)
                assert rep.q_cold == pytest.approx(cold_stroke_heat(cfg), abs=1e-12)
                assert rep.work == pytest.approx(cycle_work(cfg), abs=1e-12)

    def test_efficiency_gap_ratio_identity(self):
        for dh, dc in ((2.0, 1.0), (1.0, 0.5), (5.0, 0.25)):
            cfg = QubitEngineConfig(initial_pg=0.9, f=0.1, gamma=0.6, hot_gap=dh, cold_gap=dc)
            rep = run_cyclic_qubit(cfg)
            assert rep.efficiency == pytest.approx(1.0 - dc / dh, abs=1e-12)

    def test_zero_work_positive_heat(self):
        # equal gaps: q_hot > 0 but no work; efficiency is exactly zero
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.1, gamma=0.5, hot_gap=1.0, cold_gap=1.0)
        rep = run_cyclic_qubit(cfg)
        assert rep.q_hot > 0.0
        assert efficiency(rep) == pytest.approx(0.0, abs=1e-12)


class TestNoncyclicRun:
    def test_full_decay_cold_stroke(self):
        cfg = QubitEngineConfig(initial_pg=0.6, f=0.3, gamma=0.5, k=1.0)
        rep = run_noncyclic_qubit(cfg)
        assert np.allclose(rep.states[-1].populations, [1.0, 0.0], atol=1e-12)
        assert rep.deviation == pytest.approx(math.sqrt(2.0) * 0.4, abs=1e-12)

    def test_closure_reproduces_cyclic_run(self):
        cfg0 = QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.5)
        q_e = apply(gad_qubit(0.2, 0.5), make_diagonal_state([0.9, 0.1])).populations[1]
        k_close = 1.0 - cfg0.initial_pe / q_e
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.5, k=k_close)
        rep = run_noncyclic_qubit(cfg)
        cyc = run_cyclic_qubit(cfg)
        assert rep.deviation < 1e-12
        assert rep.work == pytest.approx(cyc.work, abs=1e-12)
        assert rep.q_cold == pytest.approx(cyc.q_cold, abs=1e-12)
        assert rep.redistribution_work == pytest.approx(0.0, abs=1e-12)

    def test_composition_example(self):
        cfg = QubitEngineConfig(initial_pg=0.9, f=0.2, gamma=0.5, k=0.3)
        rep = run_noncyclic_qubit(cfg)
        # oracle: compose the two channels directly
        composed = apply(ad_qubit(0.3), apply(gad_qubit(0.2, 0.5), make_diagonal_state([0.9, 0.1])))
        assert np.allclose(composed.populations, [0.685, 0.315], atol=1e-12)
        assert np.allclose(rep.states[-1].populations, composed.populations, atol=1e-12)

    def test_closed_form_populations(self):
        grid = np.linspace(0.0, 1.0, 7)
        for f in grid:
            for g in grid:
                for k in grid:
                    cfg = QubitEngineConfig(initial_pg=0.65, f=f, gamma=g, k=k)
                    pg2, pe2 = noncyclic_populations(cfg)
                    composed = apply(
                        ad_qubit(k), apply(gad_qubit(f, g), make_diagonal_state([0.65, 0.35]))
                    ).populations
                    assert pg2 == pytest.approx(composed[0], abs=1e-12)
                    assert pe2 == pytest.approx(composed[1], abs=1e-12)
                    assert pg2 + pe2 == pytest.approx(1.0, abs=1e-12)

    def test_deviation_closed_form(self):
        grid = np.linspace(0.0, 1.0, 9)
        for f in grid:
            for k in grid:
                cfg = QubitEngineConfig(initial_pg=0.9, f=f, gamma=0.5, k=k)
                rep = run_noncyclic_qubit(cfg)
                assert rep.deviation == pytest.approx(noncyclic_deviation(cfg), abs=1e-12)

    def test_work_deficit_is_redistribution_cost(self):
        grid = np.linspace(0.0, 1.0, 9)
        for f in grid:
            for k in grid:
                cfg = QubitEngineConfig(initial_pg=0.9, f=f, gamma=0.5, k=k,
                                        hot_gap=1.0, cold_gap=0.5)
                deficit = run_cyclic_qubit(cfg).work - run_noncyclic_qubit(cfg).work
                assert deficit == pytest.approx(redistribution_work(cfg), abs=1e-12)
                assert deficit == pytest.approx(
                    run_noncyclic_qubit(cfg).redistribution_work, abs=1e-12
                )

    def test_report_balance_invariant(self):
        cfg = QubitEngineConfig(initial_pg=0.8, f=0.4, gamma=0.9, k=0.2)
        rep = run_noncyclic_qubit(cfg)
        assert rep.work == rep.q_hot + rep.q_cold
        assert not rep.cyclic


class TestSignTheorem:
    @given(st.floats(0.0, 1.0), st.floats(0.01, 1.0), st.floats(0.0, 1.0))
    def test_sign_matches_population_margin(self, f, g, pg):
        cfg = QubitEngineConfig(initial_pg=pg, f=f, gamma=g)
        w = cycle_work(cfg)
        margin = (1.0 - f) * pg - f * (1.0 - pg)
        if abs(margin) < 1e-15:
            assert abs(w) < 1e-12
        elif w != 0.0:
            assert (w > 0.0) == (margin > 0.0)


class TestQutritRun:
    def _config(self, **overrides):
        base = dict(
            initial_p=(1.0, 0.0, 0.0),
            f_prime=0.0,
            lambda1=0.3,
            lambda2=0.5,
            k1=0.0,
            k2=0.0,
            hot_levels=Hamiltonian((0.0, 1.0, 2.0)),
            cold_levels=Hamiltonian((0.0, 0.5, 1.0)),
        )
        base.update(overrides)
        return QutritEngineConfig(**base)

    def test_pumping_heat_example(self):
        rep = run_qutrit(self._config())
        assert rep.q_hot == pytest.approx(1.3, abs=1e-12)
        assert np.allclose(rep.states[1].populations, [0.2, 0.3, 0.5], atol=1e-12)

    def test_no_damping_means_no_heat(self):
        rep = run_qutrit(self._config(lambda1=0.0, lambda2=0.0))
        assert rep.q_hot == 0.0 and rep.q_cold == 0.0 and rep.work == 0.0

    def test_no_cold_interaction(self):
        rep = run_qutrit(self._config(k1=0.0, k2=0.0))
        assert rep.q_cold == 0.0
        assert rep.work == rep.q_hot

    def test_closed_form_hot_heat(self):
        grid = np.linspace(0.0, 1.0, 6)
        for fp in grid:
            for l1 in grid:
                for l2 in grid:
                    if l1 + l2 > 1.0:
                        continue
                    cfg = self._config(initial_p=(0.5, 0.3, 0.2), f_prime=fp,
                                       lambda1=l1, lambda2=l2, k1=0.25, k2=0.3)
                    assert run_qutrit(cfg).q_hot == pytest.approx(
                        qutrit_hot_heat(cfg), abs=1e-12
                    )

    def test_level_shift_leaves_report_unchanged(self):
        cfg = self._config(initial_p=(0.6, 0.3, 0.1), f_prime=0.4,
                           lambda1=0.3, lambda2=0.2, k1=0.2, k2=0.4)
        shifted = self._config(
            initial_p=(0.6, 0.3, 0.1), f_prime=0.4, lambda1=0.3, lambda2=0.2,
            k1=0.2, k2=0.4,
            hot_levels=cfg.hot_levels.shifted(7.5),
            cold_levels=cfg.cold_levels.shifted(-2.25),
        )
        a, b = run_qutrit(cfg), run_qutrit(shifted)
        for name in ("q_hot", "q_cold", "work", "deviation", "redistribution_work"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-12)

    def test_infeasible_damping_rejected(self):
        with pytest.raises(InfeasibleDampingError):
            self._config(lambda1=0.7, lambda2=0.6)
        with pytest.raises(InfeasibleDampingError):
            self._config(k1=0.7, k2=0.6)

    def test_degenerate_gaps_closing_cold_stroke_zeroes_efficiency(self):
        # choose k_i so the cold stroke exactly undoes the hot-stroke
        # population transfer; with equal hot/cold spectra the cycle then
        # produces zero net work and zero efficiency
        levels = Hamiltonian((0.0, 1.0, 2.0))
        p = (0.7, 0.2, 0.1)
        fp, l1, l2 = 0.3, 0.25, 0.3
        hot = apply(gad_qutrit(fp, l1, l2), make_diagonal_state(p)).populations
        k1 = 1.0 - p[1] / hot[1]
        k2 = 1.0 - p[2] / hot[2]
        cfg = QutritEngineConfig(
            initial_p=p, f_prime=fp, lambda1=l1, lambda2=l2, k1=k1, k2=k2,
            hot_levels=levels, cold_levels=levels,
        )
        rep = run_qutrit(cfg)
        assert rep.deviation < 1e-12
        assert rep.q_hot > 0.0
        assert rep.work == pytest.approx(0.0, abs=1e-12)
        assert efficiency(rep) == pytest.approx(0.0, abs=1e-12)

    def test_work_balance(self):
        cfg = self._config(initial_p=(0.5, 0.3, 0.2), f_prime=0.2,
                           lambda1=0.4, lambda2=0.3, k1=0.3, k2=0.2)
        rep = run_qutrit(cfg)
        assert rep.work == rep.q_hot + rep.q_cold
        assert rep.deviation > 0.0
        assert not rep.cyclic


class TestEfficiencyHelper:
    def test_qutrit_efficiency_defined(self):
        cfg = QutritEngineConfig(
            initial_p=(0.9, 0.1, 0.0), f_prime=0.2, lambda1=0.3, lambda2=0.3,
            k1=0.3, k2=0.3,
            hot_levels=Hamiltonian((0.0, 1.0, 2.0)),
            cold_levels=Hamiltonian((0.0, 0.5, 1.0)),
        )
        rep = run_qutrit(cfg)
        assert efficiency(rep) == pytest.approx(rep.work / rep.q_hot, abs=1e-15)

    def test_raises_without_heat(self):
        rep = run_cyclic_qubit(QubitEngineConfig(initial_pg=0.1, f=1.0, gamma=0.5))
        with pytest.raises(NoHeatAbsorbedError):
            efficiency(rep)
