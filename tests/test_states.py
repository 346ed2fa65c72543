import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gadengine import (
    BadDimensionError,
    DensityMatrix,
    DimensionMismatchError,
    Hamiltonian,
    NonNormalizedError,
    OutOfRangeError,
    energy,
    hs_distance,
    make_diagonal_state,
    validate,
)
from gadengine.engine import reservoir_baseline
from gadengine.states import (
    energies,
    hs_distances,
    is_positive,
    is_spectrum,
    is_unit,
    require_positive,
    require_unit,
)


def direct_energy(pops, levels):
    # independent oracle: plain elementwise dot product
    return sum(float(l) * float(p) for l, p in zip(levels, pops))


def direct_hs(a, b):
    # independent oracle: explicit elementwise norm
    return float(np.sqrt(np.sum(np.abs(np.asarray(a) - np.asarray(b)) ** 2)))


class TestMakeDiagonalState:
    def test_maximally_mixed_qubit(self):
        s = make_diagonal_state([0.5, 0.5])
        assert np.allclose(s.matrix, np.eye(2) / 2)

    def test_ground_dominated(self):
        s = make_diagonal_state([0.9, 0.1])
        assert s.populations.tolist() == [0.9, 0.1]
        assert np.all(s.matrix[~np.eye(2, dtype=bool)] == 0)

    def test_invalid_inputs(self):
        with pytest.raises((NonNormalizedError, OutOfRangeError)):
            make_diagonal_state([1.1, -0.1])
        with pytest.raises(NonNormalizedError):
            make_diagonal_state([0.6, 0.6])
        with pytest.raises(OutOfRangeError):
            make_diagonal_state([1.2, -0.2, 0.0])
        with pytest.raises(BadDimensionError):
            make_diagonal_state([1.0])
        with pytest.raises(BadDimensionError):
            make_diagonal_state([0.25, 0.25, 0.25, 0.25])

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=3))
    def test_valid_populations_pass_validation(self, raw):
        pops = [x / sum(raw) for x in raw]
        report = validate(make_diagonal_state(pops))
        assert report.ok


class TestEnergy:
    def test_symmetric_mixture(self):
        assert energy(make_diagonal_state([0.5, 0.5]), Hamiltonian((-0.5, 0.5))) == 0.0

    def test_qubit_dot_product(self):
        # oracle: 0.5*(pe - pg) = 0.5*(0.8 - 0.2) = 0.3
        val = energy(make_diagonal_state([0.2, 0.8]), Hamiltonian((-0.5, 0.5)))
        assert val == pytest.approx(direct_energy([0.2, 0.8], [-0.5, 0.5]), abs=1e-15)
        assert val == pytest.approx(0.3, abs=1e-12)

    def test_qutrit_dot_product(self):
        val = energy(make_diagonal_state([0.1, 0.3, 0.6]), Hamiltonian((0.0, 1.0, 2.0)))
        assert val == pytest.approx(1.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            energy(make_diagonal_state([0.5, 0.5]), Hamiltonian((0.0, 1.0, 2.0)))

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_linearity(self, pa, pb, lam):
        a = make_diagonal_state([pa, 1.0 - pa])
        b = make_diagonal_state([pb, 1.0 - pb])
        h = Hamiltonian((-0.3, 1.7))
        mix = DensityMatrix(lam * a.matrix + (1.0 - lam) * b.matrix)
        assert energy(mix, h) == pytest.approx(
            lam * energy(a, h) + (1.0 - lam) * energy(b, h), abs=1e-12
        )


class TestHsDistance:
    def test_identity(self):
        s = make_diagonal_state([0.3, 0.7])
        assert hs_distance(s, s) == 0.0

    def test_orthogonal_pure_states(self):
        d = hs_distance(make_diagonal_state([1.0, 0.0]), make_diagonal_state([0.0, 1.0]))
        assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_diagonal_states(self):
        a = make_diagonal_state([0.9, 0.1])
        b = make_diagonal_state([0.7, 0.3])
        assert hs_distance(a, b) == pytest.approx(direct_hs(a.matrix, b.matrix), abs=1e-15)
        assert hs_distance(a, b) == pytest.approx(np.sqrt(2.0) * 0.2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_distance(make_diagonal_state([1, 0]), make_diagonal_state([1, 0, 0]))

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_triangle_inequality(self, pa, pb, pc):
        a = make_diagonal_state([pa, 1.0 - pa])
        b = make_diagonal_state([pb, 1.0 - pb])
        c = make_diagonal_state([pc, 1.0 - pc])
        assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_qubit_diagonal_closed_form(self, p, q):
        # for diagonal qubits the distance collapses to sqrt(2)|pg - qg|
        a = make_diagonal_state([p, 1.0 - p])
        b = make_diagonal_state([q, 1.0 - q])
        assert hs_distance(a, b) == pytest.approx(np.sqrt(2.0) * abs(p - q), abs=1e-12)


class TestValidate:
    def test_valid_state(self):
        assert validate(make_diagonal_state([0.5, 0.5])).ok

    def test_trace_failure(self):
        report = validate(DensityMatrix(np.diag([0.6, 0.6]).astype(complex)))
        assert not report.trace_ok
        assert report.trace_residual == pytest.approx(0.2, abs=1e-12)
        assert report.hermitian_ok and report.psd_ok

    def test_psd_failure(self):
        # eigenvalues of [[0.5, 0.9], [0.9, 0.5]] are -0.4 and 1.4
        m = np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex)
        report = validate(DensityMatrix(m))
        assert report.trace_ok and report.hermitian_ok
        assert not report.psd_ok
        assert report.min_eigenvalue == pytest.approx(-0.4, abs=1e-12)

    def test_hermiticity_failure(self):
        m = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
        report = validate(DensityMatrix(m))
        assert not report.hermitian_ok

    def test_never_raises(self):
        validate(DensityMatrix(np.full((3, 3), 9.0, dtype=complex)))


class TestHamiltonian:
    def test_gaps(self):
        h = Hamiltonian((0.0, 1.0, 2.5))
        assert h.gap(0, 1) == 1.0
        assert h.gap(0, 2) == 2.5
        assert h.gap(1, 2) == 1.5

    def test_strictly_increasing_required(self):
        with pytest.raises(OutOfRangeError):
            Hamiltonian((1.0, 1.0))
        with pytest.raises(OutOfRangeError):
            Hamiltonian((2.0, 1.0, 3.0))

    def test_shift_preserves_gaps(self):
        h = Hamiltonian((-0.5, 0.5))
        assert h.shifted(10.0).gap(0, 1) == h.gap(0, 1)

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            Hamiltonian((1.0,))

    @pytest.mark.parametrize("levels", [(0.0, float("nan")), (0.0, 1.0, float("inf")),
                                        (float("-inf"), 0.0)])
    def test_non_finite_levels_rejected(self, levels):
        with pytest.raises(OutOfRangeError, match="finite"):
            Hamiltonian(levels)


class TestStacks:
    def test_stacked_forms_match_single_states(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        b = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        levels = np.sort(rng.normal(size=(6, 3)), axis=-1)
        dist = hs_distances(a, b)
        en = energies(a, levels)
        for i in range(6):
            assert dist[i] == np.linalg.norm(a[i] - b[i])
            assert en[i] == np.sum(np.real(np.diagonal(a[i])) * levels[i])


class TestParameterPredicates:
    CELLS = [-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, float("nan"), float("inf"), float("-inf")]

    def test_column_predicates_agree_with_scalars(self):
        col = np.array(self.CELLS)
        for pred in (is_unit, is_positive):
            assert list(pred(col)) == [bool(pred(x)) for x in self.CELLS]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_require_positive_rejects(self, value):
        with pytest.raises(OutOfRangeError, match="gap"):
            require_positive("gap", value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, 1.5])
    def test_require_unit_rejects(self, value):
        with pytest.raises(OutOfRangeError, match="f must lie"):
            require_unit("f", value)

    def test_spectrum_along_last_axis(self):
        levels = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 1.0], [0.0, np.nan, 2.0]])
        assert list(is_spectrum(levels)) == [True, False, False]

    def test_reservoir_baseline_keeps_zero_temperature(self):
        assert reservoir_baseline(np.inf, np.inf, 0.5, 1.0).p_cold == 1.0
        with pytest.raises(OutOfRangeError):
            reservoir_baseline(1.0, 1.0, 0.5, float("nan"))
