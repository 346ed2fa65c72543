import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gadengine import (
    DampingSchedule,
    DensityMatrix,
    DimensionMismatchError,
    GadEngineError,
    InfeasibleDampingError,
    KrausSet,
    NoUniqueFixedPointError,
    OutOfRangeError,
    ad_qubit,
    apply,
    channels,
    fixed_point,
    gad_qubit,
    gad_qubit_populations,
    gad_qutrit,
    gad_qutrit_populations,
    hs_distance,
    make_diagonal_state,
    validate,
)
from gadengine.states import ATOL
from gadengine.variants import gad_qutrit_uncorrected

UNIT_GRID = np.linspace(0.0, 1.0, 11)


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


class TestQubitGad:
    def test_operator_entries(self):
        f, g = 0.36, 0.52
        ch = gad_qubit(f, g)
        a0, a1, a2, a3 = ch.operators
        sf, sg = math.sqrt(f), math.sqrt(1 - f)
        assert np.allclose(a0, sf * np.diag([1.0, math.sqrt(1 - g)]))
        assert np.allclose(a1, sf * np.array([[0, math.sqrt(g)], [0, 0]]))
        assert np.allclose(a2, sg * np.diag([math.sqrt(1 - g), 1.0]))
        assert np.allclose(a3, sg * np.array([[0, 0], [math.sqrt(g), 0]]))

    def test_f_one_is_pure_amplitude_damping(self):
        ch = gad_qubit(1.0, 0.7)
        assert np.all(ch.operators[2] == 0)
        assert np.all(ch.operators[3] == 0)

    def test_gamma_zero_is_identity(self):
        ch = gad_qubit(0.5, 0.0)
        rng = np.random.default_rng(7)
        for _ in range(5):
            state = random_state(rng, 2)
            assert np.allclose(apply(ch, state).matrix, state.matrix, atol=1e-12)

    def test_completeness_grid(self):
        worst = max(
            gad_qubit(f, g).completeness_defect() for f in UNIT_GRID for g in UNIT_GRID
        )
        assert worst < 1e-12

    def test_operators_are_contractions(self):
        def max_singular_value(kset):
            return max(np.linalg.norm(op, 2) for op in kset.operators)

        for f in UNIT_GRID:
            for g in UNIT_GRID:
                assert max_singular_value(gad_qubit(f, g)) <= 1.0 + 1e-12
        assert max_singular_value(gad_qutrit(0.3, 0.4, 0.5)) <= 1.0 + 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            gad_qubit(-0.1, 0.5)
        with pytest.raises(OutOfRangeError):
            gad_qubit(0.5, 1.2)


class TestQubitAd:
    def test_equals_gad_at_f_one(self):
        for k in UNIT_GRID:
            ad = ad_qubit(k)
            gad = gad_qubit(1.0, k)
            for a, b in zip(ad.operators, gad.operators):
                assert np.array_equal(a, b)

    def test_k_zero_identity(self):
        state = make_diagonal_state([0.3, 0.7])
        assert np.allclose(apply(ad_qubit(0.0), state).matrix, state.matrix)

    def test_full_decay(self):
        out = apply(ad_qubit(1.0), make_diagonal_state([0.0, 1.0]))
        assert np.allclose(out.populations, [1.0, 0.0], atol=1e-12)

    def test_partial_decay(self):
        # pg' = pg + k*pe = 0.2 + 0.3*0.8 = 0.44
        out = apply(ad_qubit(0.3), make_diagonal_state([0.2, 0.8]))
        assert np.allclose(out.populations, [0.44, 0.56], atol=1e-12)


class TestQutritGad:
    def test_zero_damping_identity(self):
        ch = gad_qutrit(0.77, 0.0, 0.0)
        state = make_diagonal_state([0.2, 0.3, 0.5])
        assert np.allclose(apply(ch, state).matrix, state.matrix, atol=1e-12)

    def test_pumping_from_ground(self):
        out = apply(gad_qutrit(0.0, 0.3, 0.5), make_diagonal_state([1.0, 0.0, 0.0]))
        assert np.allclose(out.populations, [0.2, 0.3, 0.5], atol=1e-12)

    def test_completeness_feasible_grid(self):
        grid = np.linspace(0.0, 1.0, 6)
        worst = 0.0
        count = 0
        for f, l1, l2 in itertools.product(grid, repeat=3):
            if l1 + l2 > 1.0:
                continue
            count += 1
            worst = max(worst, gad_qutrit(f, l1, l2).completeness_defect())
        assert count > 100
        assert worst < 1e-12

    def test_infeasible_damping(self):
        with pytest.raises(InfeasibleDampingError):
            gad_qutrit(0.5, 0.6, 0.7)

    def test_boundary_sum_is_allowed(self):
        ch = gad_qutrit(0.4, 0.5, 0.5)
        assert ch.completeness_defect() < 1e-12

    def test_completeness_check_bounds_every_singular_value(self):
        # A = sqrtm(I + a J), J the all-ones 3x3 matrix: A^dag A - I = a J has every
        # entry within ATOL, but A's largest singular value is sqrt(1 + 3a) > 1 + ATOL;
        # the Frobenius norm of A^dag A - I, 3a, is what rejects it
        a = 0.9e-12
        op = np.eye(3) + (math.sqrt(1.0 + 3.0 * a) - 1.0) / 3.0 * np.ones((3, 3))
        assert KrausSet(dim=3, operators=(op.astype(complex),)).completeness_defect() <= ATOL
        assert np.linalg.norm(op, 2) > 1.0 + ATOL
        with pytest.raises(GadEngineError, match="completeness violated"):
            channels._build(3, [op], check=True)


class TestApply:
    def test_evolved_populations_match_printed_form(self):
        # dense grid: closed form against the Kraus map, entrywise
        worst = 0.0
        for f in UNIT_GRID:
            for g in UNIT_GRID:
                ch = gad_qubit(f, g)
                for pg in UNIT_GRID:
                    out = apply(ch, make_diagonal_state([pg, 1.0 - pg])).populations
                    closed = gad_qubit_populations(pg, 1.0 - pg, f, g)
                    worst = max(worst, abs(out[0] - closed[0]), abs(out[1] - closed[1]))
        assert worst < 1e-12

    def test_example_point(self):
        # pg' = 0.2*0.5*0.1 + (1 - 0.4)*0.9 = 0.55
        out = apply(gad_qubit(0.2, 0.5), make_diagonal_state([0.9, 0.1]))
        assert np.allclose(out.populations, [0.55, 0.45], atol=1e-12)

    def test_qutrit_closed_form_matches(self):
        grid = np.linspace(0.0, 1.0, 5)
        for f, l1, l2 in itertools.product(grid, repeat=3):
            if l1 + l2 > 1.0:
                continue
            ch = gad_qutrit(f, l1, l2)
            out = apply(ch, make_diagonal_state([0.5, 0.2, 0.3])).populations
            closed = gad_qutrit_populations(0.5, 0.2, 0.3, f, l1, l2)
            assert np.allclose(out, closed, atol=1e-12)

    def test_trace_and_psd_preserved_on_random_states(self):
        rng = np.random.default_rng(42)
        channels = [gad_qubit(0.25, 0.8), ad_qubit(0.6), gad_qutrit(0.55, 0.3, 0.45)]
        for ch in channels:
            for _ in range(100):
                out = apply(ch, random_state(rng, ch.dim))
                report = validate(out)
                assert report.trace_residual < 1e-12
                assert report.min_eigenvalue >= -1e-12

    def test_diagonal_in_diagonal_out(self):
        for ch in (gad_qubit(0.3, 0.7), gad_qutrit(0.3, 0.4, 0.2)):
            dim = ch.dim
            state = make_diagonal_state([1.0 / dim] * dim)
            assert apply(ch, state).is_diagonal()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(gad_qubit(0.5, 0.5), make_diagonal_state([1.0, 0.0, 0.0]))

    def test_composition_semigroup_in_damping(self):
        grid = np.linspace(0.0, 1.0, 6)
        state = make_diagonal_state([0.8, 0.2])
        for f in grid:
            for g1 in grid:
                for g2 in grid:
                    merged = g1 + g2 - g1 * g2
                    two = apply(gad_qubit(f, g2), apply(gad_qubit(f, g1), state))
                    one = apply(gad_qubit(f, merged), state)
                    assert np.max(np.abs(two.matrix - one.matrix)) < 1e-12

    def test_inversion_threshold_scan(self):
        # brute force: output inversion iff the printed ratio condition holds
        # (denominator-positive branch; exact-threshold lattice points are
        # rounding-ambiguous and must be boundary on both sides)
        axis = np.linspace(0.0, 1.0, 21)
        band = 1e-9
        for f in axis:
            for g in axis:
                denom = 1.0 - 2.0 * g * f
                if denom <= 0.0:
                    continue
                ch = gad_qubit(f, g)
                for pe in axis:
                    pg = 1.0 - pe
                    out = apply(ch, make_diagonal_state([pg, pe])).populations
                    lhs = out[1] - out[0]
                    rhs = pe * denom - pg * (1.0 + 2.0 * g * (f - 1.0))
                    if abs(lhs) < band or abs(rhs) < band:
                        assert abs(lhs) < band and abs(rhs) < band
                    else:
                        assert (lhs > 0.0) == (rhs > 0.0)


class TestDampingSchedule:
    def test_zero_time(self):
        assert DampingSchedule(rate=3.7, time=0.0).damping == 0.0

    def test_half_life(self):
        lam = DampingSchedule(rate=1.0, time=math.log(2.0)).damping
        assert lam == pytest.approx(0.5, abs=1e-12)

    def test_zero_rate(self):
        assert DampingSchedule(rate=0.0, time=123.0).damping == 0.0

    def test_negative_inputs(self):
        with pytest.raises(OutOfRangeError):
            DampingSchedule(rate=-1.0, time=1.0)
        with pytest.raises(OutOfRangeError):
            DampingSchedule(rate=1.0, time=-1.0)
        for rate, time, name in ((math.nan, 1.0, "rate"), (math.inf, 0.0, "rate"),
                                 (-math.inf, 1.0, "rate"), (1.0, math.nan, "time"),
                                 (0.0, math.inf, "time")):
            with pytest.raises(OutOfRangeError, match=name):
                DampingSchedule(rate=rate, time=time)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_monotone_in_time(self, rate, t1, t2):
        lo, hi = sorted((t1, t2))
        assert (
            DampingSchedule(rate, lo).damping <= DampingSchedule(rate, hi).damping
        )


class TestFixedPoint:
    def test_pure_decay(self):
        fp = fixed_point(gad_qubit(1.0, 0.6))
        assert np.allclose(fp.populations, [1.0, 0.0], atol=1e-11)

    def test_gad_stationary_occupancy(self):
        # oracle: iterate the map by hand until stationary
        ch = gad_qubit(0.7, 0.4)
        state = make_diagonal_state([0.5, 0.5])
        for _ in range(2000):
            state = apply(ch, state)
        fp = fixed_point(ch)
        assert hs_distance(fp, state) < 1e-11
        assert np.allclose(fp.populations, [0.7, 0.3], atol=1e-11)

    def test_qutrit_full_decay(self):
        fp = fixed_point(gad_qutrit(1.0, 0.3, 0.3))
        assert np.allclose(fp.populations, [1.0, 0.0, 0.0], atol=1e-11)

    def test_full_damping_projects_in_one_step(self):
        fp = fixed_point(gad_qubit(0.35, 0.8))
        out = apply(gad_qubit(0.35, 1.0), make_diagonal_state([0.1, 0.9]))
        assert hs_distance(out, fp) < 1e-11

    def test_identity_channel_rejected(self):
        with pytest.raises(NoUniqueFixedPointError):
            fixed_point(gad_qubit(0.5, 0.0))
        with pytest.raises(NoUniqueFixedPointError):
            fixed_point(ad_qubit(0.0))
        with pytest.raises(NoUniqueFixedPointError):
            fixed_point(gad_qutrit(0.5, 0.0, 0.3))
        with pytest.raises(NoUniqueFixedPointError):
            fixed_point(gad_qutrit(0.0, 0.3, 0.3))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def max_gap(state, expected):
    return float(np.max(np.abs(state.matrix - np.asarray(expected))))


class TestFixedPointFromOperators:
    def test_not_trace_preserving_rejected(self):
        with pytest.raises(GadEngineError, match="completeness"):
            fixed_point(gad_qutrit_uncorrected(0.3, 0.3, 0.3))

    def test_near_identity_rejected(self):
        with pytest.raises(NoUniqueFixedPointError):
            fixed_point(gad_qubit(0.7, 1e-14))

    def test_slow_channel(self):
        assert max_gap(fixed_point(gad_qubit(0.7, 1e-3)), np.diag([0.7, 0.3])) < 1e-12

    @settings(deadline=None)
    @given(st.integers(0, 20), st.floats(1e-3, 1.0))
    def test_qubit_closed_form(self, i, gamma):
        f = i / 20
        assert max_gap(fixed_point(gad_qubit(f, gamma)), np.diag([f, 1.0 - f])) < 1e-12

    @settings(deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_qutrit_closed_form(self, fp, l1, l2):
        assume(l1 + l2 <= 1.0)
        expected = np.diag([fp, 1.0 - fp, 1.0 - fp]) / (2.0 - fp)
        assert max_gap(fixed_point(gad_qutrit(fp, l1, l2)), expected) < 1e-12

    @pytest.mark.parametrize("ch", [gad_qubit(0.7, 0.4), gad_qutrit(0.6, 0.3, 0.5)],
                             ids=["qubit", "qutrit"])
    def test_unitary_covariance(self, ch):
        v = random_unitary(np.random.default_rng(971), ch.dim)
        rotated = replace(ch, operators=tuple(v @ op @ v.conj().T for op in ch.operators))
        expected = v @ fixed_point(ch).matrix @ v.conj().T
        assert max_gap(fixed_point(rotated), expected) < 1e-12

    @pytest.mark.parametrize("ch", [gad_qubit(0.7, 0.4), gad_qutrit(0.6, 0.3, 0.5)],
                             ids=["qubit", "qutrit"])
    def test_operator_phases_leave_it_unchanged(self, ch):
        phases = np.exp(1j * np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, len(ch.operators)))
        rephased = replace(ch, operators=tuple(z * op for z, op in zip(phases, ch.operators)))
        assert max_gap(fixed_point(rephased), fixed_point(ch).matrix) < 1e-12
