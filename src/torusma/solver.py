"""Continuity-method Newton solver for det(g + ddbar phi) = C e^{tF} det(g).

The outer loop walks t from 0 to 1 with adaptive steps.  At each t a damped
Newton iteration drives the normalized residual

    r = det(g~)/det(g) - C e^{tF},   C = integral(det g~) / integral(e^{tF} dV_g)

to the sup-norm tolerance.  C is taken from the iterate's discrete volume, so
r integrates to zero in dV_g exactly, even where the discrete identity
integral(det g~) = Vol_g fails by rounding or Nyquist content of phi.  The
Newton correction solves the linearization

    L[psi] = (det g~/det g) lap_{g~} psi = -r

by preconditioned conjugate gradients on mean-zero fields, kept in the rfftn
half spectrum with the Parseval inner product, only as accurately as the
Newton step needs (inexact Newton, Eisenstat-Walker choice 2): the relative
Krylov target is eta_0 = 0.1, then

    eta_k = min(0.1, 0.9 (|r_k| / |r_{k-1}|)^2),

floored at KRYLOV_TOL and at 0.1 newton_tol / |r_k| so the last step can still
reach newton_tol (sup norms throughout).  After a step that needed more than
one Newton iteration, the next t-step starts from the secant predictor
phi_t + s (phi_t - phi_prev), s = (t_next - t) / (t - t_prev), unless its
metric falls below the eigenvalue floor.  Dyadic damping keeps the metric
eigenvalues above the configured floor along the path.  Each iterate's metric
g~ = g + ddbar phi is formed once, by metric_iterate; the residual, the linear
solve and the damping all read that one iterate.  A metric keeps its
determinant once formed, so det g~ is formed once per iterate and det g once
per solve.  Every field here is real (float64).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    HermitianMetricField,
    eigenvalue_fields,
    metric_from_potential,
    positivity_check,
)
from .grid import (
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
    trace: list[ContinuityStep]  # one step per accepted t
    converged: bool
    t_reached: float
    message: str = ""


# ---------------------------------------------------------------------------
# iterate state

@dataclass(frozen=True)
class MetricIterate:
    """One Newton iterate: the potential phi and its metric g~ = g + ddbar phi."""

    g: HermitianMetricField
    phi: PeriodicScalarField
    gt: HermitianMetricField
    min_eig: float  # smallest pointwise eigenvalue of gt


def metric_iterate(g: HermitianMetricField, phi: PeriodicScalarField) -> MetricIterate:
    """Form g~ = g + ddbar phi and its smallest eigenvalue, once per iterate."""
    gt = metric_from_potential(g, phi)
    return MetricIterate(g, phi, gt, positivity_check(gt))


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
    if F.grid != g.grid:
        raise GridMismatchError("F and the iterate must share a grid")
    _require_positive(it)
    etF = np.exp(t * F.values)
    C = float(np.mean(it.gt.det)) / float(np.mean(etF * g.det))
    return make_field(g.grid, it.gt.det / g.det - C * etF)


def linearized_apply(psi: PeriodicScalarField, it: MetricIterate) -> PeriodicScalarField:
    """L[psi] = (det g~/det g) * lap_{g~} psi; annihilates constants."""
    _require_positive(it)
    grid = it.g.grid
    return make_field(grid, -_LinearizedOperator(it).apply_B(grid.rfftn(psi.values)) / it.g.det)


class _LinearizedOperator:
    """Precomputed pointwise data for repeated applications of L.

    B[psi] = -det(g~) lap_{g~} psi = -sum adj(g~)[k,j] d_j dbar_k psi is
    self-adjoint and positive semidefinite in the plain L2 inner product;
    L[psi] = -B[psi]/det(g).
    """

    def __init__(self, it: MetricIterate):
        self.grid = grid = it.g.grid
        self.det_g = it.g.det
        # B[u] = -sum_jk c_jk h_jk with c_jk = adj(g~)[k, j], h_jk = d_j dbar_k u; both are
        # Hermitian in (j, k), so B[u] = -sum_j c_jj h_jj - 2 sum_{j<k} Re(c_jk h_jk).
        # The adjugate has a closed form: 1 for n = 1; for n = 2 the diagonal
        # entries swap and the off-diagonal ones change sign.
        if grid.n == 1:
            self.terms = [(grid.mixed_symbols(0, 0)[0], 1.0)]
        else:
            A, B = grid.mixed_symbols(0, 1)
            c01 = -it.gt.off  # adj(g~)[0, 1] = -g~_{2 1bar}
            self.terms = [
                (grid.mixed_symbols(0, 0)[0], it.gt.diag[1]),
                (grid.mixed_symbols(1, 1)[0], it.gt.diag[0]),
                (A, 2.0 * c01.real),
                (B, -2.0 * c01.imag),
            ]

    def apply_B(self, spec: np.ndarray) -> np.ndarray:
        """Physical samples of B[u] from the half spectrum of u: n^2 irfftn."""
        acc = np.zeros(self.grid.shape)
        for sym, c in self.terms:
            acc += c * self.grid.irfftn(spec * sym)
        return -acc

    def precondition(self, spec: np.ndarray) -> np.ndarray:
        """Half spectrum of the flat operator -(1/4)Delta's inverse applied to spec."""
        return spec * self.grid.inverse_flat()


def solve_linearized(
    rhs: PeriodicScalarField,
    it: MetricIterate,
    tol: float | None = None,
) -> PeriodicScalarField:
    """Mean-zero psi with ||L[psi] - rhs||_sup <= tol * ||rhs||_sup.

    rhs is first projected against constants in dV_g, the part L can reach;
    tol defaults to KRYLOV_TOL.  Raises KrylovConvergenceError after 10 N^n PCG iterations.
    """
    _require_positive(it)
    op = _LinearizedOperator(it)
    target = KRYLOV_TOL if tol is None else tol
    grid = it.g.grid
    return make_field(grid, _pcg(op, rhs.values, target, 10 * grid.N ** grid.n))


def _pcg(op: _LinearizedOperator, rhs: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """PCG for B x = -det(g) rhs until sup|L x - rhs| <= tol * sup|rhs| (rhs projected).

    x, p, z and r are half spectra (Parseval inner product); r is also kept
    physical for the stopping test.  An iteration takes n^2 irfftn and one rfftn.
    """
    rhs = rhs - np.mean(rhs * op.det_g) / np.mean(op.det_g)  # against constants in dV_g
    rhs_sup = float(np.max(np.abs(rhs)))
    if rhs_sup == 0.0:
        return np.zeros_like(rhs)
    target = tol * rhs_sup
    grid = op.grid

    r = -op.det_g * rhs
    r -= np.mean(r)
    # the constant mode of r_hat never enters: the preconditioner zeroes it
    r_hat = grid.rfftn(r)
    x_hat = np.zeros_like(r_hat)
    z_hat = op.precondition(r_hat)
    p_hat = z_hat
    rz = grid.inner(r_hat, z_hat)
    for it in range(max_iter + 1):
        achieved = float(np.max(np.abs(r / op.det_g)))
        if achieved <= target:
            break
        # breakdown: B and the preconditioner are positive on mean-zero fields,
        # so a non-positive rz or p.Bp means no further progress
        if it == max_iter or not rz > 0.0:
            raise KrylovConvergenceError(achieved, target, it)
        Bp = op.apply_B(p_hat)
        Bp_hat = grid.rfftn(Bp)
        pBp = grid.inner(p_hat, Bp_hat)
        if not pBp > 0.0:
            raise KrylovConvergenceError(achieved, target, it)
        alpha = rz / pBp
        x_hat += alpha * p_hat
        r -= alpha * Bp
        r -= np.mean(r)
        r_hat -= alpha * Bp_hat
        z_hat = op.precondition(r_hat)
        rz_new = grid.inner(r_hat, z_hat)
        p_hat = z_hat + (rz_new / rz) * p_hat
        rz = rz_new
    x = grid.irfftn(x_hat)
    return x - np.mean(x)


# ---------------------------------------------------------------------------
# monitored quantities

def yau_estimate_report(it: MetricIterate) -> dict[str, float]:
    """sup|phi|, sup|grad phi|, eigenvalue range of g~ = g + ddbar phi, sup third derivs.

    The keys are the monitored fields of ContinuityStep.  Every derivative is
    a Grid.derivative call: grad phi from phi, and sup_third, the sup of
    |d_l d_j dbar_k phi| over all l, j, k, from the iterate's Hessian
    h = g~ - g.  A real diagonal entry has |d_l h| = |dbar_l h| =
    sqrt(h_x^2 + h_y^2) / 2; for n = 2, d_l of the conjugate entry conj(off)
    is conj(dbar_l off), so |d_l off| and |dbar_l off| cover both.
    """
    grid = it.phi.grid
    phi = it.phi.values
    grad_sq = grid.derivative(phi, 0) ** 2
    for a in range(1, grid.num_axes):
        grad_sq += grid.derivative(phi, a) ** 2
    lo, hi = eigenvalue_fields(it.gt)
    hess = it.gt - it.g
    third_sq = 0.0
    for l in range(grid.n):
        for h in hess.diag:
            hx, hy = grid.derivative(h, 2 * l), grid.derivative(h, 2 * l + 1)
            third_sq = max(third_sq, 0.25 * float(np.max(hx ** 2 + hy ** 2)))
        if hess.off is not None:
            ox, oy = grid.derivative(hess.off, 2 * l), grid.derivative(hess.off, 2 * l + 1)
            for d in (ox - 1j * oy, ox + 1j * oy):  # 2 d_l off and 2 dbar_l off
                third_sq = max(third_sq, 0.25 * float(np.max(d.real ** 2 + d.imag ** 2)))
    return {
        "sup_phi": float(np.max(np.abs(phi))),
        "sup_grad_phi": float(np.sqrt(np.max(grad_sq))),
        "eig_min": float(np.min(lo)),
        "eig_max": float(np.max(hi)),
        "sup_third": float(np.sqrt(third_sq)),
    }


# ---------------------------------------------------------------------------
# continuity method

def _band_limit_warning(F: PeriodicScalarField) -> None:
    grid = F.grid
    spec = np.abs(grid.rfftn(F.values))
    # an interior last-axis wavenumber of the half spectrum also stands for its mirror
    spec[..., 1 : grid.N // 2] *= 2.0
    total = float(np.sum(spec))
    if total == 0.0:
        return
    cutoff = grid.N // 4
    mask = np.zeros(spec.shape, dtype=bool)
    for a in range(grid.num_axes):
        mask |= grid.half(np.abs(grid.wavenumbers(a)) > cutoff)
    high = float(np.sum(spec[mask]))
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
    """Iterate at the largest dyadic lambda in (0,1] with min eig of g~ >= floor."""
    lam = 1.0
    for _ in range(40):
        cand = mean_zero_project(make_field(it.phi.grid, it.phi.values + lam * psi.values))
        cand_it = metric_iterate(it.g, cand)
        if cand_it.min_eig >= floor:
            return cand_it
        lam *= 0.5
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


def continuity_solve(
    F: PeriodicScalarField,
    g: HermitianMetricField,
    cfg: SolverConfig,
) -> SolveResult:
    """Path-follow t from 0 to 1 with warm-started damped Newton corrections."""
    if not F.is_real:
        raise ValueError("F must be real")
    if not np.all(np.isfinite(F.values)):
        raise ValueError("F has non-finite (inf or NaN) values")
    if F.grid != g.grid:
        raise GridMismatchError("F and g must share a grid")
    if (cfg.n, cfg.N) != (g.grid.n, g.grid.N):
        raise GridMismatchError(
            f"config is for n={cfg.n} N={cfg.N}, grid n={g.grid.n} N={g.grid.N}")
    # at phi = 0 the iterate's metric is g itself
    it = metric_iterate(g, make_field(g.grid, np.zeros(g.grid.shape)))
    if not it.min_eig > 0.0:
        raise NonPositiveMetricError("background metric is not positive")
    # tr(ddbar phi) has zero mean, so min_x eig_min(g + ddbar phi) <= mean(tr g)/n
    eig_bound = float(np.mean(g.diag))
    if cfg.damping_eig_floor > eig_bound:
        raise NonPositiveMetricError(
            f"damping_eig_floor {cfg.damping_eig_floor:.6g} is above {eig_bound:.6g}, the "
            f"mean trace of g over n, which no g + ddbar phi can exceed in its smallest "
            f"eigenvalue (the background's smallest eigenvalue is {it.min_eig:.6g})"
        )
    _band_limit_warning(F)

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
    return SolveResult(phi=it.phi, metric=it.gt, trace=steps,
                       converged=not message, t_reached=t, message=message)
