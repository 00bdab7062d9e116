import math
import tracemalloc

import numpy as np
import pytest

import torusma as tm
from torusma.forms import increasing_indices, merge_sign


class TestIndexAlgebra:
    def test_increasing_indices(self):
        assert increasing_indices(2, 0) == [()]
        assert increasing_indices(2, 1) == [(0,), (1,)]
        assert increasing_indices(2, 2) == [(0, 1)]

    def test_merge_sign_parity(self):
        assert merge_sign((0,), (1,)) == ((0, 1), 1)
        assert merge_sign((1,), (0,)) == ((0, 1), -1)
        assert merge_sign((0,), (0,)) is None


def _random_form(grid, p, q, rng):
    comps = {
        (J, K): tm.random_band_limited(grid, rng, kmax=2, real=False).values
        for J in increasing_indices(grid.n, p)
        for K in increasing_indices(grid.n, q)
    }
    return tm.PqForm(grid, p, q, comps)


class TestDifferentials:
    @pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_del_squares_to_zero(self, grid, rng, p, q):
        alpha = _random_form(grid, p, q, rng)
        assert tm.del_(tm.del_(alpha)).sup_norm() <= 1e-12
        assert tm.delbar(tm.delbar(alpha)).sup_norm() <= 1e-12

    def test_anticommutator(self, grid, rng):
        alpha = _random_form(grid, 0, 0, rng)
        anti = tm.del_(tm.delbar(alpha)) + tm.delbar(tm.del_(alpha))
        assert anti.sup_norm() <= 1e-12

    def test_d_is_del_plus_delbar(self, grid, rng):
        alpha = _random_form(grid, 0, 1, rng)
        d = tm.exterior_d(alpha)
        assert d.part(1, 1).sup_norm() == tm.del_(alpha).sup_norm()
        assert d.part(0, 2).sup_norm() == tm.delbar(alpha).sup_norm()

    def test_d_of_flat_kahler_form_vanishes(self, grid):
        omega = tm.kahler_form(tm.flat_metric(grid))
        assert tm.d_sum(tm.form_sum([omega])).sup_norm() == 0.0


class TestDc:
    def test_constant_maps_to_zero(self, grid):
        out = tm.d_c(tm.make_field(grid, np.full(grid.shape, 1.5)))
        assert out.sup_norm() == 0.0

    def test_rejects_complex_input(self, grid):
        u = tm.make_field(grid, 1j * np.ones(grid.shape))
        with pytest.raises(ValueError):
            tm.d_c(u)

    def test_ddc_is_2i_deldelbar(self, grid, random_real_field):
        u = random_real_field
        ddc = tm.d_sum(tm.d_c(u)).part(1, 1)
        target = 2j * tm.del_(tm.delbar(tm.scalar_form(u)))
        assert (ddc - target).sup_norm() <= 1e-12

    def test_sine_closed_form(self):
        # u = sin(2 pi x1): d^c u = i(delbar - del)u has components
        # -i pi cos(2 pi x1) dz and +i pi cos(2 pi x1) dzbar
        grid = tm.Grid(n=1, N=32)
        u = tm.make_field(grid, np.sin(2 * np.pi * grid.coordinate(0)))
        out = tm.d_c(u)
        c = np.pi * np.cos(2 * np.pi * grid.coordinate(0))
        assert np.max(np.abs(out.part(1, 0).component((0,), ()) + 1j * c)) < 1e-12
        assert np.max(np.abs(out.part(0, 1).component((), (0,)) - 1j * c)) < 1e-12


class TestWedge:
    def test_graded_commutativity(self, grid, rng):
        a = _random_form(grid, 1, 0, rng)
        b = _random_form(grid, 0, 1, rng)
        ab = tm.wedge(a, b)
        ba = tm.wedge(b, a)
        sign = (-1) ** ((a.p + a.q) * (b.p + b.q))
        assert (ab - sign * ba).sup_norm() <= 1e-13

    def test_wedge_overflow_rejected(self):
        grid = tm.Grid(n=1, N=16)
        rng = np.random.default_rng(0)
        a = _random_form(grid, 1, 0, rng)
        with pytest.raises(ValueError):
            tm.wedge(a, a)

    def test_form_power_of_flat(self, grid):
        omega = tm.kahler_form(tm.flat_metric(grid))
        top = tm.form_power(omega, grid.n)
        assert tm.integrate_top(top) == pytest.approx(math.factorial(grid.n))


class TestIntegration:
    def test_top_integral_matches_volume(self, grid, small_potential):
        g = tm.metric_from_potential(tm.flat_metric(grid), small_potential)
        omega = tm.kahler_form(g)
        val = tm.integrate_top(tm.form_power(omega, grid.n))
        expected = math.factorial(grid.n) * tm.volume(g)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_kahler_form_is_real_11(self, grid, small_potential):
        # omega = i h with h Hermitian: h_jk = conj(h_kj) for every pair
        g = tm.metric_from_potential(tm.flat_metric(grid), small_potential)
        omega = tm.kahler_form(g)
        h = np.array([[omega.component((j,), (k,)) / 1j for k in range(grid.n)]
                      for j in range(grid.n)])
        assert np.max(np.abs(h - np.conj(np.swapaxes(h, 0, 1)))) <= 1e-13


class TestUniquenessFunctional:
    def test_zero_for_equal_potentials(self, grid, small_potential):
        g = tm.flat_metric(grid)
        val = tm.uniqueness_functional(small_potential, small_potential, g)
        assert abs(val) < 1e-14

    def test_positive_for_distinct_potentials(self, grid, rng):
        g = tm.flat_metric(grid)
        phi1 = tm.verification._admissible_potential(grid, seed=21, perturbation=0.3)
        phi2 = tm.verification._admissible_potential(grid, seed=22, perturbation=0.3)
        val = tm.uniqueness_functional(phi1, phi2, g)
        assert val > 0


def _reference_del(alpha, anti):
    """del (anti=False) or delbar (anti=True), each taking both partials of every component.

    The partials come from grid.derivative, so the pins below compare the
    kernel's signs, factors and accumulation order bit for bit; the partials
    themselves are checked against the transform formula in test_grid.py.
    """
    grid, n = alpha.grid, alpha.grid.n
    out = tm.zero_form(grid, *((alpha.p, alpha.q + 1) if anti else (alpha.p + 1, alpha.q)))
    front = (-1) ** alpha.p if anti else 1
    for (J, K), arr in alpha.components.items():
        for j in range(n):
            if j in (K if anti else J):
                continue
            fx = grid.derivative(arr, 2 * j)
            fy = grid.derivative(arr, 2 * j + 1)
            if anti:
                merged, sign = merge_sign((j,), K)
                key = (J, merged)
                val = 0.5 * (fx + 1j * fy)
            else:
                merged, sign = merge_sign((j,), J)
                key = (merged, K)
                val = 0.5 * (fx - 1j * fy)
            out.components[key] = out.components[key] + front * sign * val
    return out


def _reference_d(alpha):
    return tm.form_sum([_reference_del(alpha, False), _reference_del(alpha, True)])


def _assert_bitwise(new, ref):
    if isinstance(ref, tm.FormSum):
        assert new.parts.keys() == ref.parts.keys()
        for key in ref.parts:
            _assert_bitwise(new.parts[key], ref.parts[key])
        return
    assert (new.p, new.q) == (ref.p, ref.q)
    assert new.components.keys() == ref.components.keys()
    for key, arr in ref.components.items():
        assert new.components[key].dtype == arr.dtype
        assert new.components[key].tobytes() == arr.tobytes(), key


_BIDEGREES = [(n, N, p, q) for n, N in ((1, 32), (2, 16))
              for p in range(n + 1) for q in range(n + 1)]


def test_d_sum_peak_memory():
    # d(d alpha) of an n=2 (0,0)-form: a six-component result from a
    # four-component input.  Building every del and delbar piece in full and
    # then summing them peaked at 3.0 times the result.
    grid = tm.Grid(n=2, N=16)
    alpha = _random_form(grid, 0, 0, np.random.default_rng(3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = tm.d_sum(tm.exterior_d(alpha))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    result = sum(a.nbytes for f in out.parts.values() for a in f.components.values())
    assert result == 6 * grid.num_points * 16
    assert peak <= 2.8 * result, peak / result


class TestDolbeaultKernel:
    """del_, delbar, exterior_d, d_sum and d_c against the per-component formula."""

    @pytest.mark.parametrize("n,N,p,q", _BIDEGREES,
                             ids=[f"n{n}-({p},{q})" for n, _, p, q in _BIDEGREES])
    def test_matches_per_component_formula(self, n, N, p, q):
        alpha = _random_form(tm.Grid(n=n, N=N), p, q, np.random.default_rng(10 * p + q))
        _assert_bitwise(tm.del_(alpha), _reference_del(alpha, False))
        _assert_bitwise(tm.delbar(alpha), _reference_del(alpha, True))
        d = tm.exterior_d(alpha)
        _assert_bitwise(d, _reference_d(alpha))
        _assert_bitwise(tm.d_sum(d), tm.form_sum(
            [piece for f in d.parts.values() for piece in _reference_d(f).parts.values()]))

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 16)], ids=["n1", "n2"])
    def test_d_c_matches_per_component_formula(self, n, N, rng):
        u = tm.random_band_limited(tm.Grid(n=n, N=N), rng, kmax=3, real=True)
        alpha = tm.scalar_form(u)
        ref = tm.form_sum([_reference_del(alpha, False) * (-1j), _reference_del(alpha, True) * 1j])
        _assert_bitwise(tm.d_c(u), ref)

    @pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2)])
    def test_two_partials_per_contributing_index(self, p, q, monkeypatch):
        calls = []
        original = tm.Grid.derivative

        def counting(self, values, axis):
            calls.append(axis)
            return original(self, values, axis)

        monkeypatch.setattr(tm.Grid, "derivative", counting)
        grid = tm.Grid(n=2, N=8)
        alpha = _random_form(grid, p, q, np.random.default_rng(0))
        tm.exterior_d(alpha)
        contributing = sum(1 for J, K in alpha.components for j in range(grid.n)
                           if j not in J or j not in K)
        assert len(calls) == 2 * contributing
        if (p, q) == (0, 0):
            assert len(calls) == 4
