"""Continuity-method Newton solver for det(g + ddbar phi) = C e^{tF} det(g).

The outer loop walks t from 0 to 1 with adaptive steps.  At each t a damped
Newton iteration drives the normalized residual

    r = det(g~)/det(g) - C e^{tF},   C = integral(det g~) / integral(e^{tF} dV_g)

to the sup-norm tolerance.  C is taken from the iterate's discrete volume, so
r integrates to zero in dV_g exactly, even where the discrete identity
integral(det g~) = Vol_g fails by rounding or Nyquist content of phi.  The
Newton correction solves the linearization

    L[psi] = (det g~/det g) lap_{g~} psi = -r

by preconditioned conjugate gradients on mean-zero physical samples, with
the inner product mean(u v) and the flat operator -(1/4) Laplacian as
preconditioner (Grid.hessian, Grid.inverse_flat), only as accurately as the
Newton step needs (inexact Newton, Eisenstat-Walker choice 2): the relative
Krylov target is eta_0 = 0.1, then

    eta_k = min(0.1, 0.9 (|r_k| / |r_{k-1}|)^2),

floored at KRYLOV_TOL and at 0.1 newton_tol / |r_k| so the last step can still
reach newton_tol (sup norms throughout).  After a step that needed more than
one Newton iteration, the next t-step starts from the secant predictor
phi_t + s (phi_t - phi_prev), s = (t_next - t) / (t - t_prev), unless its
metric falls below the eigenvalue floor.  Dyadic damping keeps the metric
eigenvalues above the configured floor along the path; a rejected full step
screens the shorter ones on g~ + lambda ddbar psi from one Hessian of the
correction psi.  Each iterate's metric g~ = g + ddbar phi is formed once, by
metric_iterate (at phi = 0 it is a copy of g, with no Hessian); the residual, the
linear solve and the damping all read that one iterate.  At n = 1 it also keeps
phi's half spectrum, of which g~ and the monitor's derivatives are symbol
products.  A metric keeps its determinant once formed, so det g~ is formed once
per iterate and det g once per solve.  Every field here is real (float64).

Grid sequencing (Briggs, Henson & McCormick, A Multigrid Tutorial, 2000, ch. 3):
N is halved while N/2 is even and N/2 >= SEQUENCE_MIN_N[n] (64 at n = 1, 16 at
n = 2).  One driver runs the path on the coarsest grid, F and g sampled there,
then one Newton solve at t = 1 and one monitor on each finer grid, from the half
spectrum Grid.prolong pads: at n = 1 an rfftn of rounded samples would scale
their noise eps |phi| by the Hessian symbol's (pi N)^2 / 2.  The direct solve is
the same driver on the requested grid alone, and so is the fallback after a
failed sequenced solve (SolveResult.fell_back, whose message names the failure).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    HermitianMetricField,
    eigenvalue_fields,
    hermitian_hessian,
    metric_from_potential,
    positivity_check,
)
from .grid import (
    Grid,
    GridMismatchError,
    PeriodicScalarField,
    make_field,
    mean_zero_project,
)


class NonPositiveMetricError(ValueError):
    """A metric is not positive, or no g + ddbar phi can clear the damping floor."""


class KrylovConvergenceError(RuntimeError):
    def __init__(self, achieved: float, target: float, iterations: int):
        super().__init__(
            f"linear solve stalled after {iterations} iterations: "
            f"residual {achieved:.3e}, target {target:.3e}"
        )
        self.achieved = achieved
        self.target = target
        self.iterations = iterations


NEWTON_MAX_ITER = 50  # Newton iterations at one t before the t-step is rejected
T_STEP_MIN = 1e-4  # the solve ends as an underflow once a halved t-step falls below it
KRYLOV_TOL = 1e-12  # solve_linearized's default tol and the forcing terms' floor
# per dimension n, the largest N whose path an acceptance criterion reads
SEQUENCE_MIN_N = {1: 64, 2: 16}


@dataclass(frozen=True)
class SolverConfig:
    """The continuity method's three settings, for the grid (n, N), checked here."""

    n: int = 1
    N: int = 64
    newton_tol: float = 1e-11
    t_step_initial: float = 0.1
    damping_eig_floor: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("newton_tol", "t_step_initial", "damping_eig_floor"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0.0 < value < math.inf):
                raise ValueError(f"{name} must be a finite positive number, not {value!r}")
        if not T_STEP_MIN <= self.t_step_initial <= 1.0:
            raise ValueError(f"need {T_STEP_MIN} <= t_step_initial <= 1")


@dataclass(frozen=True)
class ContinuityStep:
    t: float
    newton_iters: int
    residual_sup: float
    eig_min: float
    eig_max: float
    sup_phi: float
    sup_grad_phi: float
    sup_third: float


@dataclass(frozen=True)
class SolveResult:
    phi: PeriodicScalarField
    metric: HermitianMetricField  # g~ = g + ddbar phi of the final iterate
    trace: list[ContinuityStep]  # the path's accepted t, then one t = 1 step per finer grid
    converged: bool
    message: str = ""
    grid_sizes: tuple[int, ...] = ()  # N of each grid the trace has steps on, coarsest first
    fell_back: bool = False  # a sequenced solve failed and the path was rerun on the grid

    @property
    def t_reached(self) -> float:  # the last accepted t, 0.0 if the trace is empty
        return self.trace[-1].t if self.trace else 0.0


# ---------------------------------------------------------------------------
# iterate state

@dataclass(frozen=True)
class MetricIterate:
    """One Newton iterate: the potential phi and its metric g~ = g + ddbar phi."""

    g: HermitianMetricField
    phi: PeriodicScalarField
    gt: HermitianMetricField
    min_eig: float  # smallest pointwise eigenvalue of gt
    max_eig: float  # largest pointwise eigenvalue of gt
    spec: np.ndarray | None = None  # phi's rfftn half spectrum at n = 1, None at n = 2


def metric_iterate(g: HermitianMetricField, phi: PeriodicScalarField,
                   spec: np.ndarray | None = None) -> MetricIterate:
    """Form g~ = g + ddbar phi and its eigenvalue range, once per iterate, from
    phi's half spectrum at n = 1: spec if the caller holds it, else rfftn(phi)."""
    if g.grid.n == 1 and spec is None and phi.is_real:  # metric_from_potential refuses complex phi
        spec = g.grid.rfftn(phi.values)
    gt = metric_from_potential(g, phi, spec)
    lo, hi = eigenvalue_fields(gt)
    spec = spec if g.grid.n == 1 else None
    return MetricIterate(g, phi, gt, float(np.min(lo)), float(np.max(hi)), spec)


def _zero_iterate(g: HermitianMetricField) -> MetricIterate:
    """The iterate at phi = 0, whose metric is g: copied, not formed from a Hessian of
    zeros, and whose n = 1 spectrum is a read-only zero that allocates nothing.  The copy
    is for library callers, who keep glibc's heap defaults: sharing g's arrays kept its
    mmap threshold low, and an n = 2 N = 16 solve then page-faulted in every apply_B."""
    grid = g.grid
    gt = HermitianMetricField(grid, g.diag.copy(), None if g.off is None else g.off.copy())
    spec = np.broadcast_to(0j, grid.shape[:-1] + (grid.N // 2 + 1,)) if grid.n == 1 else None
    phi = make_field(grid, np.zeros(grid.shape))
    lo, hi = eigenvalue_fields(gt)
    return MetricIterate(g, phi, gt, float(np.min(lo)), float(np.max(hi)), spec)


def _require_real_on(f: PeriodicScalarField, it: MetricIterate, name: str) -> None:
    if f.grid != it.g.grid:
        raise GridMismatchError(f"{name} and the iterate must share a grid")
    if not f.is_real:
        raise ValueError(f"{name} must be real")


def _require_positive(it: MetricIterate) -> None:
    if not it.min_eig > 0.0:
        raise NonPositiveMetricError(
            f"metric from potential is not positive (min eig {it.min_eig:.3e})"
        )


# ---------------------------------------------------------------------------
# residual and linearization

def ma_residual(
    it: MetricIterate,
    F: PeriodicScalarField,
    t: float,
) -> PeriodicScalarField:
    """r = det(g + ddbar phi)/det(g) - C e^{tF}; integrates to zero in dV_g.

    C = mean(det g~) / mean(e^{tF} det g) comes from the iterate's discrete
    volume.  The equation leaves the constant free, and this choice keeps r
    compatible with the linear solve, which projects out r's weighted mean.
    """
    g = it.g
    _require_real_on(F, it, "F")
    _require_positive(it)
    etF = np.exp(t * F.values)
    C = float(np.mean(it.gt.det)) / float(np.mean(etF * g.det))
    return make_field(g.grid, it.gt.det / g.det - C * etF)


def linearized_apply(psi: PeriodicScalarField, it: MetricIterate) -> PeriodicScalarField:
    """L[psi] = (det g~/det g) * lap_{g~} psi; annihilates constants."""
    _require_real_on(psi, it, "psi")
    _require_positive(it)
    return make_field(it.g.grid, -_LinearizedOperator(it).apply_B(psi.values) / it.g.det)


class _LinearizedOperator:
    """Precomputed pointwise data for repeated applications of L.

    B[psi] = -det(g~) lap_{g~} psi = -sum adj(g~)[k,j] d_j dbar_k psi and
    L[psi] = -B[psi]/det(g).  The continuum B is self-adjoint and positive
    semidefinite in the plain L2 inner product; the discrete B is symmetric
    only at n = 1 (CONVENTIONS.md), so _pcg's positivity checks on r.z and
    p.Bp are what stop a bad step.  Both methods map physical samples to
    physical samples.
    """

    def __init__(self, it: MetricIterate):
        self.grid = grid = it.g.grid
        self.det_g = it.g.det
        # B[u] = -sum_jk c_jk h_jk with c_jk = adj(g~)[k, j], h_jk = d_j dbar_k u; both are
        # Hermitian in (j, k), so B[u] = -sum_j c_jj h_jj - 2 sum_{j<k} Re(c_jk h_jk).
        # The adjugate has a closed form: 1 for n = 1; for n = 2 the diagonal
        # entries swap and the off-diagonal ones change sign, so with
        # h_01 = A + iB and c_01 = -g~_{2 1bar} = -off,
        #   B[u] = -g~_22 h_00 - g~_11 h_11 + 2 Re(off) A - 2 Im(off) B.
        # The coefficients follow the parts of Grid.hessian: A_00, A_11, A, B.
        if grid.n == 1:
            self.coefs = [-1.0]
        else:
            gt = it.gt
            self.coefs = [-gt.diag[1], -gt.diag[0], 2.0 * gt.off.real, -2.0 * gt.off.imag]

    def apply_B(self, u: np.ndarray) -> np.ndarray:
        """B[u] from the parts of one Grid.hessian of u, summed in place."""
        acc, *rest = self.grid.hessian(u)
        acc *= self.coefs[0]
        for c, h in zip(self.coefs[1:], rest):
            h *= c
            acc += h
        return acc

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The flat operator -(1/4)Delta's inverse applied to r, as a new array."""
        return self.grid.inverse_flat(r)


def solve_linearized(
    rhs: PeriodicScalarField,
    it: MetricIterate,
    tol: float | None = None,
) -> PeriodicScalarField:
    """Mean-zero psi with ||L[psi] - rhs||_sup <= tol * ||rhs||_sup.

    rhs is first projected against constants in dV_g, the part L can reach;
    tol defaults to KRYLOV_TOL.  Raises KrylovConvergenceError after 10 N^n PCG iterations.
    """
    _require_real_on(rhs, it, "rhs")
    _require_positive(it)
    op = _LinearizedOperator(it)
    target = KRYLOV_TOL if tol is None else tol
    grid = it.g.grid
    return make_field(grid, _pcg(op, rhs.values, target, 10 * grid.N ** grid.n))


def _pcg(op: _LinearizedOperator, rhs: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """PCG for B x = -det(g) rhs until sup|L x - rhs| <= tol * sup|rhs| (rhs projected).

    Every vector is physical samples, with the inner product mean(u * v)
    taken as a dot product.  The residual is preconditioned only once the
    stopping test has failed, so an iteration takes one precondition and one
    apply_B; the updates reuse their arrays where they can.
    """
    rhs = rhs - np.mean(rhs * op.det_g) / np.mean(op.det_g)  # against constants in dV_g
    target = tol * float(np.max(np.abs(rhs)))

    r = -op.det_g * rhs
    r -= np.mean(r)
    x = np.zeros_like(r)
    p = None
    for it in range(max_iter + 1):
        achieved = float(np.max(np.abs(r / op.det_g)))
        if achieved <= target:
            break
        if it == max_iter:
            raise KrylovConvergenceError(achieved, target, it)
        z = op.precondition(r)
        rz_new = float(np.vdot(r, z)) / r.size
        # breakdown: B and the preconditioner are positive on mean-zero fields,
        # so a non-positive rz or p.Bp means no further progress
        if not rz_new > 0.0:
            raise KrylovConvergenceError(achieved, target, it)
        if p is None:
            p = z
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new
        Bp = op.apply_B(p)
        pBp = float(np.vdot(p, Bp)) / p.size
        if not pBp > 0.0:
            raise KrylovConvergenceError(achieved, target, it)
        alpha = rz / pBp
        x += alpha * p
        Bp *= alpha
        r -= Bp
        r -= np.mean(r)
    return x - np.mean(x)


# ---------------------------------------------------------------------------
# monitored quantities

def yau_estimate_report(it: MetricIterate) -> dict[str, float]:
    """sup|phi|, sup|grad phi|, eigenvalue range of g~ = g + ddbar phi, sup third derivs.

    The keys are ContinuityStep's monitored fields; the eigenvalue range is the iterate's.
    sup_third is the sup of |d_l d_j dbar_k phi| over all l, j, k.  At n = 1 grad phi
    and d h, h the Hessian, are symbol products of the iterate's half spectrum, with
    no forward transform; at n = 2, Grid.derivative calls on phi and h = g~ - g.  A
    real diagonal entry has |d_l h| = |dbar_l h| = sqrt(h_x^2 + h_y^2) / 2; for n = 2,
    d_l of conj(off) is conj(dbar_l off), so |d_l off| and |dbar_l off| cover both.
    """
    grid = it.phi.grid
    phi = it.phi.values
    if grid.n == 1:
        grad_sq = _sup_gradient_sq(grid, it.spec)
        third_sq = 0.25 * _sup_gradient_sq(grid, it.spec * grid.hessian_half_symbol)
    else:
        grad_sq = grid.derivative(phi, 0) ** 2
        for a in range(1, grid.num_axes):
            grad_sq += grid.derivative(phi, a) ** 2
        hess = it.gt - it.g
        third_sq = 0.0
        for l in range(grid.n):
            for h in hess.diag:
                hx, hy = grid.derivative(h, 2 * l), grid.derivative(h, 2 * l + 1)
                third_sq = max(third_sq, 0.25 * float(np.max(hx ** 2 + hy ** 2)))
            ox, oy = grid.derivative(hess.off, 2 * l), grid.derivative(hess.off, 2 * l + 1)
            for d in (ox - 1j * oy, ox + 1j * oy):  # 2 d_l off and 2 dbar_l off
                third_sq = max(third_sq, 0.25 * float(np.max(d.real ** 2 + d.imag ** 2)))
    return {
        "sup_phi": float(np.max(np.abs(phi))),
        "sup_grad_phi": float(np.sqrt(np.max(grad_sq))),
        "eig_min": it.min_eig,
        "eig_max": it.max_eig,
        "sup_third": float(np.sqrt(third_sq)),
    }


def _sup_gradient_sq(grid: Grid, spec: np.ndarray) -> float:
    """sup(u_x^2 + u_y^2) of the n = 1 field u with half spectrum spec: one irfftn per partial."""
    first = grid.axis_symbols[0]
    ux, uy = (grid.irfftn(spec * grid.along(first, a)[..., : grid.N // 2 + 1]) for a in (0, 1))
    ux *= ux
    ux += uy * uy
    return float(np.max(ux))


# ---------------------------------------------------------------------------
# continuity method

def _band_limit_warning(F: PeriodicScalarField) -> None:
    grid = F.grid
    spec = np.abs(grid.rfftn(F.values))
    # an interior last-axis wavenumber of the half spectrum also stands for its mirror
    spec[..., 1 : grid.N // 2] *= 2.0
    total = float(np.sum(spec))
    # |k| > N/4 on some axis: all but the block with |k| <= N/4 on every axis
    high = total - float(np.sum(spec[grid.band(grid.N // 4 + 1)]))
    if high > 1e-10 * total:
        warnings.warn(
            "F carries significant spectral content above N/4; the solve "
            "continues but may be under-resolved",
            RuntimeWarning,
        )


def _damped_update(
    it: MetricIterate,
    psi: PeriodicScalarField,
    floor: float,
) -> MetricIterate | None:
    """Iterate at the largest dyadic lambda in (0,1] with min eig of g~ >= floor.

    lambda = 1 is formed first.  If it fails, ddbar psi is formed once and
    each smaller lambda is screened on g~ + lambda ddbar psi; only a passing
    candidate's iterate is formed, and that iterate decides.
    """
    phi, grid = it.phi.values, it.phi.grid
    cand = metric_iterate(it.g, mean_zero_project(make_field(grid, phi + psi.values)))
    if cand.min_eig >= floor:
        return cand
    H = hermitian_hessian(psi)
    lam = 1.0
    for _ in range(39):
        lam *= 0.5
        off = None if H.off is None else it.gt.off + lam * H.off
        if positivity_check(HermitianMetricField(grid, it.gt.diag + lam * H.diag, off)) < floor:
            continue
        cand = metric_iterate(it.g, mean_zero_project(make_field(grid, phi + lam * psi.values)))
        if cand.min_eig >= floor:
            return cand
    return None


def _forcing_term(res_sup: float, prev_sup: float | None, cfg: SolverConfig) -> float:
    """Eisenstat-Walker choice 2 relative Krylov target for the next correction."""
    eta = 0.1 if prev_sup is None else min(0.1, 0.9 * (res_sup / prev_sup) ** 2)
    return max(eta, KRYLOV_TOL, 0.1 * cfg.newton_tol / res_sup)


def _secant_start(it, phi_prev, s, floor):
    """The iterate at phi + s (phi - phi_prev), or it if that one is below the floor."""
    phi = it.phi.values
    pred = metric_iterate(it.g, mean_zero_project(
        make_field(it.phi.grid, phi + s * (phi - phi_prev.values))))
    return pred if pred.min_eig >= floor else it


def _newton_at_t(it, F, t, cfg, secant=None):
    """Inexact Newton iteration at fixed t; returns (iterate, iters, residual_sup) or None."""
    if secant is not None:  # (phi_prev, s); no local name outlives the start's replacement
        it = _secant_start(it, *secant, cfg.damping_eig_floor)
    prev_sup = None
    for k in range(NEWTON_MAX_ITER + 1):
        r = ma_residual(it, F, t)
        res_sup = r.sup_norm()
        if res_sup <= cfg.newton_tol:
            return it, k, res_sup
        if k == NEWTON_MAX_ITER:
            return None
        eta = _forcing_term(res_sup, prev_sup, cfg)
        prev_sup = res_sup
        rhs = make_field(F.grid, -r.values)
        try:
            # the operator lives inside solve_linearized and is freed before damping
            psi = solve_linearized(rhs, it, tol=eta)
        except KrylovConvergenceError:
            return None
        it = _damped_update(it, psi, cfg.damping_eig_floor)
        if it is None:
            return None


def _follow_path(it: MetricIterate, F: PeriodicScalarField, cfg: SolverConfig):
    """The t-path from the iterate ``it`` at t = 0 to 1 on its grid:
    (last accepted iterate, steps, underflow message or "")."""
    steps: list[ContinuityStep] = []
    t = 0.0
    dt = cfg.t_step_initial
    fast_successes = 0
    message = ""
    # (t, phi) accepted before the current one, kept only when the last step
    # needed more than one Newton iteration: otherwise (n = 1, where the
    # equation is linear in phi) a prediction costs a Hessian and saves nothing
    prev = None
    while t < 1.0:
        t_try = min(1.0, t + dt)
        secant = None if prev is None else (prev[1], (t_try - t) / (t - prev[0]))
        outcome = _newton_at_t(it, F, t_try, cfg, secant)
        if outcome is not None:
            accepted, iters, res_sup = outcome
            prev = (t, it.phi) if iters > 1 else None
            it = accepted
            t = t_try
            steps.append(ContinuityStep(t=t, newton_iters=iters, residual_sup=res_sup,
                                        **yau_estimate_report(it)))
            fast_successes = fast_successes + 1 if iters < 5 else 0
            if fast_successes >= 2:
                dt = min(2.0 * dt, 0.25)
                fast_successes = 0
        else:
            dt *= 0.5
            if dt < T_STEP_MIN:
                message = f"continuity step underflow below {T_STEP_MIN} at t={t}"
                if it.min_eig < cfg.damping_eig_floor:
                    # a shorter step keeps g~ nearer this iterate's metric
                    message += (f": the last accepted metric's smallest eigenvalue "
                                f"{it.min_eig:.6g} is below damping_eig_floor "
                                f"{cfg.damping_eig_floor:.6g}, which shorter t-steps cannot clear")
                break
    return it, steps, message


def _sequence_grids(grid: Grid) -> list[Grid]:
    """The solve's grids, coarsest first (the module docstring's halving rule)."""
    grids = [grid]
    while (h := grids[0].N // 2) % 2 == 0 and h >= SEQUENCE_MIN_N[grid.n]:
        grids.insert(0, Grid(grid.n, h))
    return grids


def _sample_at(grid: Grid, F: PeriodicScalarField, g: HermitianMetricField):
    """F and g at the points of ``grid``, their own grid or a coarsening of it."""
    if grid == g.grid:
        return F, g
    idx = (Ellipsis,) + (slice(None, None, g.grid.N // grid.N),) * grid.num_axes
    off = None if g.off is None else g.off[idx].copy()
    sampled = HermitianMetricField(grid, g.diag[idx].copy(), off)
    return make_field(grid, F.values[idx].copy()), sampled


def _solve_on(grids, F, g, cfg) -> SolveResult:
    """The path on grids[0], then one t = 1 Newton solve on each finer grid (the module
    docstring); a failure ends it unconverged, its message naming the stage and N."""
    Fc, gc = _sample_at(grids[0], F, g)
    it, steps, message = _follow_path(_zero_iterate(gc), Fc, cfg)
    message = f"the N={grids[0].N} path: {message}" if message and len(grids) > 1 else message
    for fine in grids[1:] if not message else ():
        Ff, gf = _sample_at(fine, F, g)
        spec = it.phi.grid.rfftn(it.phi.values) if it.spec is None else it.spec
        spec = it.phi.grid.prolong(spec, fine)
        phi = fine.irfftn(spec)
        phi -= np.mean(phi)  # mean_zero_project's bytes, with no second field
        it = metric_iterate(gf, make_field(fine, phi), spec)
        below = it.min_eig < cfg.damping_eig_floor
        if (outcome := None if below else _newton_at_t(it, Ff, 1.0, cfg)) is None:
            message = (f"the prolonged iterate on N={fine.N} is below damping_eig_floor" if below
                       else f"the t = 1 correction on N={fine.N} was rejected")
            break
        it, iters, res_sup = outcome
        steps.append(ContinuityStep(t=1.0, newton_iters=iters, residual_sup=res_sup,
                                    **yau_estimate_report(it)))
    return SolveResult(phi=it.phi, metric=it.gt, trace=steps, converged=not message,
                       message=message, grid_sizes=tuple(grid.N for grid in grids))


def continuity_solve(
    F: PeriodicScalarField,
    g: HermitianMetricField,
    cfg: SolverConfig,
) -> SolveResult:
    """Path-follow t from 0 to 1 with warm-started damped Newton corrections, on
    a coarser grid where _sequence_grids finds one (the module docstring)."""
    if not F.is_real:
        raise ValueError("F must be real")
    if not np.all(np.isfinite(F.values)):
        raise ValueError("F has non-finite (inf or NaN) values")
    if F.grid != g.grid:
        raise GridMismatchError("F and g must share a grid")
    if (cfg.n, cfg.N) != (g.grid.n, g.grid.N):
        raise GridMismatchError(
            f"config is for n={cfg.n} N={cfg.N}, grid n={g.grid.n} N={g.grid.N}")
    # from a copy freed at once, for library callers on glibc's heap defaults: forming g.det
    # on the caller's g took an n = 2 N = 16 solve from 5958 to 42943 minor page faults
    eig_min = _zero_iterate(g).min_eig
    if not eig_min > 0.0:
        raise NonPositiveMetricError("background metric is not positive")
    # tr(ddbar phi) has zero mean, so min_x eig_min(g + ddbar phi) <= mean(tr g)/n
    eig_bound = float(np.mean(g.diag))
    if cfg.damping_eig_floor > eig_bound:
        raise NonPositiveMetricError(
            f"damping_eig_floor {cfg.damping_eig_floor:.6g} is above {eig_bound:.6g}, the "
            f"mean trace of g over n, which no g + ddbar phi can exceed in its smallest "
            f"eigenvalue (the background's smallest eigenvalue is {eig_min:.6g})"
        )
    _band_limit_warning(F)
    grids = _sequence_grids(g.grid)
    result = _solve_on(grids, F, g, cfg)
    if result.converged or len(grids) == 1:
        return result
    direct = _solve_on([g.grid], F, g, cfg)
    return replace(direct, fell_back=True, message=f"{result.message}; the N={g.grid.N} "
                   f"path: {direct.message or 'converged'}")
