import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import torusma as tm
from torusma import forms
from torusma.forms import increasing_indices, merge_sign
from conftest import count_calls, raises_exactly


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

    def test_part_returns_the_stored_form(self, grid, rng):
        d = tm.exterior_d(_random_form(grid, 0, 0, rng))
        assert d.part(1, 0) is d.parts[1, 0]
        assert d.part(1, 1).sup_norm() == 0.0  # an absent bidegree reads as zero

    def test_rejects_real_components(self):
        # a float64 component used to fail inside the kernel with numpy's UFuncTypeError
        grid = tm.Grid(n=1, N=8)
        with pytest.raises(ValueError, match="float64"):
            tm.del_(tm.PqForm(grid, 0, 0, {((), ()): np.ones((8, 8))}))

    def test_d_of_flat_kahler_form_vanishes(self, grid):
        omega = tm.kahler_form(tm.flat_metric(grid))
        assert tm.d_sum(tm.FormSum(grid, {(1, 1): omega})).sup_norm() == 0.0


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


def _reference_del(alpha, anti, out=None):
    """del (anti=False) or delbar (anti=True), each taking both partials of every component.

    Every term is added, in the order component, then j, into ``out`` or a
    zero form.  The partials come from grid.derivative, so the pins below
    compare the kernel's signs, factors and accumulation order bit for bit;
    the partials themselves are checked against the transform formula in
    test_grid.py.
    """
    grid, n = alpha.grid, alpha.grid.n
    if out is None:
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
    p, q = alpha.p, alpha.q
    return tm.FormSum(alpha.grid, {(p + 1, q): _reference_del(alpha, False),
                                   (p, q + 1): _reference_del(alpha, True)})


def _reference_d_sum(alpha):
    """d of a mixed-degree form, every term added into one sum per bidegree in
    the order part, then component, then j."""
    acc = {}
    for f in alpha.parts.values():
        for key, anti in (((f.p + 1, f.q), False), ((f.p, f.q + 1), True)):
            acc[key] = _reference_del(f, anti, acc.get(key))
    return tm.FormSum(alpha.grid, acc)


def _assert_bitwise(new, ref):
    if isinstance(ref, tm.FormSum):
        assert new.parts.keys() == ref.parts.keys()
        for key in ref.parts:
            _assert_bitwise(new.parts[key], ref.parts[key])
        return
    assert (new.p, new.q) == (ref.p, ref.q)
    assert new.components.keys() == ref.components.keys()
    for key, arr in ref.components.items():
        got = new.components[key]
        assert (got.dtype, got.shape) == (arr.dtype, arr.shape)
        # the samples' bits, compared in place: no 16 MiB bytes copy per N=32 field
        assert np.array_equal(got.view(np.uint64), arr.view(np.uint64)), key


_BIDEGREES = [(n, N, p, q) for n, N in ((1, 32), (2, 16))
              for p in range(n + 1) for q in range(n + 1)]


def _mock_cpus(monkeypatch, cpus):
    """Report ``cpus`` CPUs in the affinity mask: the kernel runs min(cpus, N // 8) workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


_PEAK = [(0, 0, 10), (0, 1, 9), (0, 2, 3), (1, 0, 9), (1, 1, 5)]


@pytest.mark.parametrize("p,q,fields,cpus", [c + (cpus,) for cpus in (None, 64) for c in _PEAK],
                         ids=[f"({p},{q}){suffix}" for suffix in ("", "-64cpus") for p, q, _ in _PEAK])
def test_d_sum_peak_memory(p, q, fields, cpus, monkeypatch):
    # d(d alpha) on every n=2 bidegree the identities suite draws, in grid
    # fields above alpha: d alpha and the result; the kernel's transients are
    # slabs of 1/N field each.  Measured at 10.45, 9.33, 3.32, 9.33 and 5.32
    # fields; with grid-sized transients (two work partials and one difference
    # or Grid.derivative's lines) 13.1, 12.1, 6.1, 12.1 and 8.1.  At 64 CPUs
    # N // 8 caps the workers at 2; 16 workers, about four slab-sized
    # transients each, would hold some 4 fields of transients, past the bound
    if cpus is not None:
        _mock_cpus(monkeypatch, cpus)
    grid = tm.Grid(n=2, N=16)
    alpha = _random_form(grid, p, q, np.random.default_rng(3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = tm.d_sum(tm.exterior_d(alpha))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    field = grid.num_points * 16
    d_alpha = sum(len(f.components) for f in tm.exterior_d(alpha).parts.values())
    result = sum(len(f.components) for f in out.parts.values())
    assert d_alpha + result == fields
    assert peak <= (fields + 1) * field, peak / field


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
        _assert_bitwise(tm.d_sum(d), _reference_d_sum(d))

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 16)], ids=["n1", "n2"])
    def test_d_c_matches_per_component_formula(self, n, N, rng):
        u = tm.random_band_limited(tm.Grid(n=n, N=N), rng, kmax=3, real=True)
        alpha = tm.scalar_form(u)
        ref = tm.FormSum(u.grid, {(1, 0): _reference_del(alpha, False) * (-1j),
                                  (0, 1): _reference_del(alpha, True) * 1j})
        _assert_bitwise(tm.d_c(u), ref)

    @pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2)])
    def test_two_partials_per_contributing_index(self, p, q, monkeypatch):
        # the kernel takes its partials one slab at a time: over all calls,
        # every sample of a contributing (component, j) is differentiated once
        # along each of its two axes, and every block keeps whole lines
        calls = count_calls(monkeypatch, tm.Grid, "derivative")
        grid = tm.Grid(n=2, N=8)
        alpha = _random_form(grid, p, q, np.random.default_rng(0))
        tm.exterior_d(alpha)
        contributing = [sum(1 for J, K in alpha.components if j not in J or j not in K)
                        for j in range(grid.n)]
        per_axis = [sum(values.size for _, values, a in calls if a == axis)
                    for axis in range(grid.num_axes)]
        assert per_axis == [contributing[axis // 2] * grid.num_points
                            for axis in range(grid.num_axes)]
        sizes = sum(per_axis)
        assert sizes == 2 * sum(contributing) * grid.num_points
        if (p, q) == (0, 0):
            assert sizes == 4 * grid.num_points
        assert all(values.shape[axis] == grid.N for _, values, axis in calls)


def _threads_per_kernel_call(monkeypatch):
    """Record (threads started, whether any (component, j) contributes) per kernel call."""
    starts, calls = count_calls(monkeypatch, threading.Thread, "start"), []
    kernel = forms._add_dolbeault

    def counting(alpha, acc):
        before = len(starts)
        kernel(alpha, acc)
        contributes = any(j not in J or j not in K
                          for J, K in alpha.components for j in range(alpha.grid.n))
        calls.append((len(starts) - before, contributes))

    monkeypatch.setattr(forms, "_add_dolbeault", counting)
    return calls


class TestDolbeaultWorkers:
    """The kernel's slabs split across a thread pool: same bytes, errors raised in the caller."""

    @pytest.mark.parametrize("p,q", [(0, 0), (1, 1), (2, 1)])
    def test_bytes_do_not_depend_on_worker_count(self, p, q, monkeypatch):
        # at N=32 the cap N // 8 allows 4 workers; 3 CPUs give unequal chunks.
        # The three bidegrees meet every (J, K, j) case: j in neither, in J
        # only, in K only and in both, on both slab axes
        grid = tm.Grid(n=2, N=32)
        alpha = _random_form(grid, p, q, np.random.default_rng(10 * p + q))
        _mock_cpus(monkeypatch, 1)
        d = tm.exterior_d(alpha)
        dd = tm.d_sum(d)
        calls = _threads_per_kernel_call(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' Python steps as finely as possible
        try:
            for cpus in (2, 3, 64):
                _mock_cpus(monkeypatch, cpus)
                calls.clear()
                _assert_bitwise(tm.exterior_d(alpha), d)
                _assert_bitwise(tm.d_sum(d), dd)
                # a call's pool starts a thread for its first chunk handed over,
                # and at most min(cpus, 4) - 1, reused by every (component, j)
                assert len(calls) == 1 + len(d.parts)
                assert all((0 < threads <= min(cpus, 4) - 1) == contributes
                           for threads, contributes in calls), calls
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus,workers", [(64, 2), (None, 1)], ids=["cpu_count", "unknown"])
    def test_without_an_affinity_mask(self, cpus, workers, monkeypatch):
        # where os has no sched_getaffinity the kernel counts os.cpu_count(),
        # and one worker when that is unknown
        grid = tm.Grid(n=2, N=16)
        alpha = _random_form(grid, 0, 0, np.random.default_rng(5))
        _mock_cpus(monkeypatch, 1)
        dd = tm.d_sum(tm.exterior_d(alpha))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        calls = _threads_per_kernel_call(monkeypatch)
        _assert_bitwise(tm.d_sum(tm.exterior_d(alpha)), dd)
        assert calls == [(workers - 1, True)] * 3

    def test_slab_products_stay_small(self, monkeypatch):
        # every BLAS product of a slab is at most N x N by N x 2N, under the
        # size at which OpenBLAS wakes its thread pool; one product per slab
        # would be N x N by N x 2N^2 along axis 0 and N^2 x N by N x N along
        # the last axis
        grid = tm.Grid(n=2, N=32)
        alpha = _random_form(grid, 0, 0, np.random.default_rng(6))
        products = count_calls(monkeypatch, np, "matmul")
        tm.exterior_d(alpha)
        assert {a.shape[-1] for a, _ in products} == {grid.N}
        assert max(a.shape[-2] * a.shape[-1] * b.shape[-1] for a, b in products) <= 2 * grid.N ** 3

    @pytest.mark.parametrize("error", [ZeroDivisionError("in a worker"),
                                       RuntimeWarning("in a worker")],
                             ids=["exception", "warning-as-error"])
    def test_worker_error_reaches_the_caller(self, error, monkeypatch):
        # at N=16 with 2 CPUs the caller runs slabs 0-7 and one thread 8-15;
        # only the thread's derivatives fail
        caller, original = threading.current_thread(), tm.Grid.derivative

        def failing(self, values, axis):
            if threading.current_thread() is not caller:
                if isinstance(error, Warning):
                    warnings.warn(error)
                else:
                    raise error
            return original(self, values, axis)

        monkeypatch.setattr(tm.Grid, "derivative", failing)
        _mock_cpus(monkeypatch, 2)
        alpha = _random_form(tm.Grid(n=2, N=16), 0, 0, np.random.default_rng(0))
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(type(error)) as info:
                tm.d_sum(tm.FormSum(alpha.grid, {(0, 0): alpha}))
        assert info.value is error
        assert threading.active_count() == before

    def test_failed_thread_start_joins_the_started(self, monkeypatch):
        # 3 workers at N=32: the first thread starts and is slowed, the second
        # fails to start; the error reaches the caller only after the first ends
        caller, derivative = threading.current_thread(), tm.Grid.derivative
        start, started = threading.Thread.start, []

        def slow(self, values, axis):
            if threading.current_thread() is not caller:
                time.sleep(0.001)
            return derivative(self, values, axis)

        def start_once(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            start(self)

        monkeypatch.setattr(tm.Grid, "derivative", slow)
        monkeypatch.setattr(threading.Thread, "start", start_once)
        _mock_cpus(monkeypatch, 3)
        alpha = _random_form(tm.Grid(n=2, N=32), 0, 0, np.random.default_rng(0))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            tm.exterior_d(alpha)
        assert not started[0].is_alive()
        assert threading.active_count() == before


_G8, _G16 = tm.Grid(n=1, N=8), tm.Grid(n=1, N=16)


def _inadmissible_uniqueness():
    # 1 + ddbar cos(2 pi x1) = 1 - pi^2 cos(2 pi x1) is negative at x1 = 0
    phi = tm.make_field(_G8, np.cos(2 * np.pi * _G8.coordinate(0)))
    return tm.uniqueness_functional(phi, tm.make_field(_G8, np.zeros(_G8.shape)),
                                    tm.flat_metric(_G8))


@pytest.mark.parametrize("call,error", [
    (lambda: tm.PqForm(_G8, -1, 0, {}), ValueError),
    (lambda: tm.PqForm(_G8, 1, 0, {}), ValueError),
    (lambda: tm.PqForm(_G8, 0, 0, {((), ()): np.zeros(8, dtype=complex)}), ValueError),
    (lambda: tm.zero_form(_G8, 0, 0) + tm.zero_form(_G8, 1, 0), ValueError),
    (lambda: tm.wedge(tm.zero_form(_G8, 1, 0), tm.zero_form(_G16, 0, 1)), tm.GridMismatchError),
    (lambda: tm.integrate_top(tm.zero_form(_G8, 1, 0)), ValueError),
    (_inadmissible_uniqueness, ValueError),
], ids=["negative-bidegree", "wrong-components", "wrong-component-shape", "add-unequal-bidegrees",
        "wedge-across-grids", "integrate-non-top", "uniqueness-inadmissible"])
def test_rejects_malformed_input(call, error):
    raises_exactly(error, call)
