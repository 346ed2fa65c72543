import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gadengine import (
    AxisMismatchError,
    BadDimensionError,
    DampingSchedule,
    DensityMatrix,
    Hamiltonian,
    InfeasibleDampingError,
    apply,
    ergotropy,
    ergotropy_landscape,
    fixed_point,
    gad_qubit,
    gad_qutrit,
    landscape_difference,
    make_diagonal_state,
    passive_state,
    populations_at_time,
)
from gadengine.errors import OutOfRangeError


def brute_force_min_energy(pops, levels):
    """Oracle: smallest energy over population permutations."""
    return min(
        sum(l * pops[i] for l, i in zip(levels, perm))
        for perm in itertools.permutations(range(len(pops)))
    )


class TestPassiveState:
    def test_already_passive(self):
        dec = passive_state(make_diagonal_state([0.6, 0.4]), Hamiltonian((0.0, 1.0)))
        assert dec.permutation == (0, 1)
        assert dec.extractable == 0.0
        assert np.array_equal(dec.passive.populations, dec.original.populations)

    def test_qutrit_rearrangement(self):
        state = make_diagonal_state([0.1, 0.3, 0.6])
        dec = passive_state(state, Hamiltonian((0.0, 1.0, 2.0)))
        assert np.allclose(dec.passive.populations, [0.6, 0.3, 0.1])
        assert dec.energy_passive == pytest.approx(0.5, abs=1e-12)
        assert dec.energy_active == pytest.approx(1.5, abs=1e-12)

    def test_symmetric_mixture(self):
        dec = passive_state(make_diagonal_state([0.5, 0.5]), Hamiltonian((-0.5, 0.5)))
        assert dec.extractable == 0.0

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pops = rng.dirichlet(np.ones(3))
            dec = passive_state(make_diagonal_state(pops), Hamiltonian((0.0, 0.7, 1.1)))
            assert np.allclose(
                np.sort(dec.passive.populations), np.sort(pops), atol=0.0
            )

    def test_general_state_uses_spectrum(self):
        # a rotated pure state has eigenvalues (1, 0) regardless of basis
        theta = 0.6
        v = np.array([math.cos(theta), math.sin(theta)])
        state = DensityMatrix(np.outer(v, v).astype(complex))
        dec = passive_state(state, Hamiltonian((-0.5, 0.5)))
        assert np.allclose(np.sort(dec.passive.populations), [0.0, 1.0], atol=1e-12)
        assert dec.energy_passive == pytest.approx(-0.5, abs=1e-12)


class TestErgotropy:
    def test_qubit_piecewise_zero_branch(self):
        for pg in (0.5, 0.65, 1.0):
            assert ergotropy(make_diagonal_state([pg, 1 - pg]), Hamiltonian((-0.5, 0.5))) == 0.0

    def test_qubit_piecewise_inverted_branch(self):
        val = ergotropy(make_diagonal_state([0.2, 0.8]), Hamiltonian((-0.5, 0.5)))
        assert val == pytest.approx(0.6, abs=1e-12)

    def test_qutrit_example(self):
        val = ergotropy(make_diagonal_state([0.1, 0.3, 0.6]), Hamiltonian((0.0, 1.0, 2.0)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            dim = int(rng.integers(2, 4))
            pops = rng.dirichlet(np.ones(dim))
            levels = np.sort(rng.uniform(-1.0, 2.0, size=dim))
            if np.any(np.diff(levels) <= 1e-9):
                continue
            state = make_diagonal_state(pops)
            h = Hamiltonian(tuple(levels))
            expected = sum(l * p for l, p in zip(levels, pops)) - brute_force_min_energy(
                pops, levels
            )
            assert ergotropy(state, h) == pytest.approx(expected, abs=1e-12)
            assert ergotropy(state, h) >= 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_nonnegative_and_zero_iff_passive(self, a, b):
        total = a + b
        if total == 0.0:
            return
        pops = sorted([a / total, b / total])  # ascending -> inverted qubit
        state = make_diagonal_state([pops[0], pops[1]])
        w = ergotropy(state, Hamiltonian((0.0, 1.0)))
        assert w >= 0.0
        if pops[1] > pops[0]:
            assert w > 0.0


class TestPopulationsAtTime:
    def test_time_zero_is_identity(self):
        out = populations_at_time([0.7, 0.3], 0.4, [DampingSchedule(1.0, 0.0)])
        assert np.allclose(out, [0.7, 0.3], atol=0.0)

    def test_full_pumping_limit(self):
        # f = 0 drives everything to the excited level as lambda -> 1
        out = populations_at_time([1.0, 0.0], 0.0, [DampingSchedule(1.0, 40.0)])
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        fp = fixed_point(gad_qubit(0.0, 0.5))
        assert np.allclose(fp.populations, [0.0, 1.0], atol=1e-11)

    def test_printed_form_point(self):
        out = populations_at_time([1.0, 0.0], 0.3, [DampingSchedule(1.0, math.log(2.0))])
        assert out[1] == pytest.approx(0.35, abs=1e-12)

    def test_matches_channel_application(self):
        for f in np.linspace(0.0, 1.0, 7):
            for t in (0.0, 0.2, 1.0, 3.0):
                sched = DampingSchedule(0.8, t)
                out = populations_at_time([0.6, 0.4], f, [sched])
                direct = apply(
                    gad_qubit(f, sched.damping), make_diagonal_state([0.6, 0.4])
                ).populations
                assert np.allclose(out, direct, atol=1e-12)

    def test_qutrit_matches_channel_application(self):
        scheds = [DampingSchedule(1.0, 0.4), DampingSchedule(0.5, 0.4)]
        out = populations_at_time([0.5, 0.3, 0.2], 0.35, scheds)
        direct = apply(
            gad_qutrit(0.35, scheds[0].damping, scheds[1].damping),
            make_diagonal_state([0.5, 0.3, 0.2]),
        ).populations
        assert np.allclose(out, direct, atol=1e-12)

    def test_infeasible_time_rejected(self):
        scheds = [DampingSchedule(1.0, 5.0), DampingSchedule(1.0, 5.0)]
        with pytest.raises(InfeasibleDampingError):
            populations_at_time([1.0, 0.0, 0.0], 0.5, scheds)

    def test_schedule_count_enforced(self):
        with pytest.raises(BadDimensionError):
            populations_at_time([1.0, 0.0], 0.5, [DampingSchedule(1, 1), DampingSchedule(1, 1)])
        with pytest.raises(BadDimensionError):
            populations_at_time([1.0, 0.0, 0.0], 0.5, [DampingSchedule(1, 1)])

    @pytest.mark.parametrize("f", [2.0, -0.1, math.nan])
    def test_weight_outside_unit_rejected(self, f):
        with pytest.raises(OutOfRangeError, match="f must lie in"):
            populations_at_time([0.7, 0.3], f, [DampingSchedule(1, 1)])

    @pytest.mark.parametrize("initial", [[1.5, -0.5], [0.5, 0.6], [math.nan, 1.0],
                                         [0.5, 0.3, 0.3]])
    def test_bad_initial_populations_rejected(self, initial):
        scheds = [DampingSchedule(1.0, 0.1)] * (len(initial) - 1)
        with pytest.raises(OutOfRangeError,
                           match=r"initial populations must lie in \[0, 1\] and sum to 1"):
            populations_at_time(initial, 0.5, scheds)


class TestLandscape:
    def qubit_grid(self, f_points=21, t_points=21, tmax=3.0, initial=(1.0, 0.0), rate=1.0):
        return ergotropy_landscape(
            initial,
            Hamiltonian((-0.5, 0.5)),
            np.linspace(0.0, 1.0, f_points),
            np.linspace(0.0, tmax, t_points),
            (rate,),
        )

    def test_t_zero_column_is_zero_for_passive_start(self):
        grid = self.qubit_grid()
        assert np.all(grid.values[:, 0] == 0.0)

    def test_t_zero_column_equals_initial_ergotropy(self):
        grid = self.qubit_grid(initial=(0.2, 0.8))
        w0 = ergotropy(make_diagonal_state([0.2, 0.8]), Hamiltonian((-0.5, 0.5)))
        assert np.allclose(grid.values[:, 0], w0, atol=1e-12)

    def test_f_zero_row_approaches_full_inversion(self):
        grid = self.qubit_grid(tmax=40.0)
        # fixed point of the f = 0 channel is full inversion: ergotropy -> gap
        assert grid.values[0, -1] == pytest.approx(1.0, abs=1e-12)

    def test_high_emission_region_is_zero(self):
        # f >= 1/2 with ground-dominated start can never invert
        grid = self.qubit_grid(f_points=41, tmax=60.0, initial=(0.7, 0.3))
        f_axis = grid.f_axis
        assert np.all(grid.values[f_axis >= 0.5, :] == 0.0)

    def test_cells_match_pointwise_evaluation(self):
        grid = self.qubit_grid(f_points=7, t_points=6, tmax=2.0, initial=(0.8, 0.2))
        h = Hamiltonian((-0.5, 0.5))
        for i, f in enumerate(grid.f_axis):
            for j, t in enumerate(grid.t_axis):
                pops = populations_at_time((0.8, 0.2), f, [DampingSchedule(1.0, t)])
                assert grid.values[i, j] == pytest.approx(
                    ergotropy(make_diagonal_state(pops), h), abs=1e-12
                )

    def test_qutrit_cells_match_pointwise_evaluation(self):
        h = Hamiltonian((0.0, 1.0, 2.0))
        grid = ergotropy_landscape(
            (1.0, 0.0, 0.0), h,
            np.linspace(0.0, 1.0, 7),
            np.linspace(0.0, 1.0, 6),
            (1.0, 0.25),
        )
        for i, f in enumerate(grid.f_axis):
            for j, t in enumerate(grid.t_axis):
                scheds = [DampingSchedule(1.0, t), DampingSchedule(0.25, t)]
                pops = populations_at_time((1.0, 0.0, 0.0), f, scheds)
                assert grid.values[i, j] == pytest.approx(
                    ergotropy(make_diagonal_state(pops), h), abs=1e-12
                )

    def test_monotone_in_time_for_absorption_dominated_qubit(self):
        grid = self.qubit_grid(f_points=11, t_points=50, tmax=5.0, initial=(0.9, 0.1))
        low_f = grid.values[grid.f_axis < 0.5, :]
        assert np.all(np.diff(low_f, axis=1) >= -1e-12)

    def test_infeasible_cells_reported_not_clamped(self):
        with pytest.raises(InfeasibleDampingError) as err:
            ergotropy_landscape(
                (1.0, 0.0, 0.0),
                Hamiltonian((0.0, 1.0, 2.0)),
                np.linspace(0.0, 1.0, 5),
                np.linspace(0.0, 5.0, 11),
                (1.0, 1.0),
            )
        assert "grid times" in str(err.value)

    def test_axis_validation(self):
        h = Hamiltonian((-0.5, 0.5))
        with pytest.raises(Exception):
            ergotropy_landscape((1, 0), h, [0.5, 0.2], [0.0, 1.0], (1.0,))
        with pytest.raises(Exception):
            ergotropy_landscape((1, 0), h, [], [0.0, 1.0], (1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("axis", ["f_axis", "t_axis"])
    def test_non_finite_axis_rejected(self, axis, bad):
        # NaN slips past an ascending check, since nan <= 0 is false
        axes = {"f_axis": [0.0, 0.5], "t_axis": [0.0, 1.0]}
        axes[axis] = [0.0, bad]
        with pytest.raises(OutOfRangeError, match=f"{axis} must be finite"):
            ergotropy_landscape((1, 0), Hamiltonian((-0.5, 0.5)),
                                axes["f_axis"], axes["t_axis"], (1.0,))

    @pytest.mark.parametrize("initial", [
        (1.7, -0.7), (math.nan, math.nan), (math.inf, -math.inf), (0.5, 0.4),
        (0.5, 0.0, 0.0), (1.2, -0.1, -0.1), (math.nan, 0.5, 0.5), (0.6, 0.6, -0.2),
    ])
    def test_invalid_initial_populations_rejected(self, initial):
        h = Hamiltonian((-0.5, 0.5) if len(initial) == 2 else (0.0, 1.0, 2.0))
        rates = (1.0,) * (len(initial) - 1)
        with pytest.raises(OutOfRangeError, match="initial populations"):
            ergotropy_landscape(initial, h, [0.0, 1.0], [0.0, 1.0], rates)

    def test_boundary_initial_populations_accepted(self):
        grid = ergotropy_landscape((0.0, 0.0, 1.0), Hamiltonian((0.0, 1.0, 2.0)),
                                   [0.0, 1.0], [0.0, 1.0], (1.0, 0.25))
        assert grid.initial == (0.0, 0.0, 1.0)
        assert grid.values[0, 0] == pytest.approx(2.0, abs=1e-12)


class TestLandscapeDifference:
    def make_pair(self, tmax=1.28):
        f_axis = np.linspace(0.0, 1.0, 31)
        t_axis = np.linspace(0.0, tmax, 31)
        qt = ergotropy_landscape(
            (1.0, 0.0, 0.0), Hamiltonian((0.0, 1.0, 2.0)), f_axis, t_axis, (1.0, 0.25)
        )
        qb = ergotropy_landscape(
            (1.0, 0.0), Hamiltonian((-0.5, 0.5)), f_axis, t_axis, (1.0,)
        )
        return qt, qb

    def test_difference_is_pointwise(self):
        qt, qb = self.make_pair()
        diff = landscape_difference(qt, qb)
        assert np.array_equal(diff.values, qt.values - qb.values)

    def test_t_zero_column_zero(self):
        qt, qb = self.make_pair()
        diff = landscape_difference(qt, qb)
        assert np.all(diff.values[:, 0] == 0.0)

    def test_counts_qutrit_only_cells(self):
        qt, qb = self.make_pair()
        diff = landscape_difference(qt, qb)
        mask = (qb.values == 0.0) & (qt.values > 0.0)
        assert diff.qutrit_only_cells == int(np.count_nonzero(mask))
        assert diff.qutrit_only_cells > 0
        assert np.all(diff.values[mask] > 0.0)

    def test_axis_mismatch_rejected(self):
        qt, _ = self.make_pair()
        other = ergotropy_landscape(
            (1.0, 0.0), Hamiltonian((-0.5, 0.5)),
            np.linspace(0.0, 1.0, 31), np.linspace(0.0, 2.0, 31), (1.0,),
        )
        with pytest.raises(AxisMismatchError):
            landscape_difference(qt, other)
        with pytest.raises(AxisMismatchError):
            landscape_difference(other, other)
