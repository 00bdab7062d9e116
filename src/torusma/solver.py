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
from dataclasses import dataclass, field, asdict

import numpy as np

from .geometry import (
    HermitianMetricField,
    det_field,
    eigenvalue_fields,
    hermitian_hessian,
    positivity_check,
)
from .grid import (
    Grid,
    GridMismatchError,
    PeriodicScalarField,
    first_symbol,
    make_field,
    mean_zero_project,
)


class NonPositiveMetricError(ValueError):
    """The potential left the positive cone; the caller must damp."""


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

    @property
    def krylov_iter_cap(self) -> int:
        return 10 * self.N ** self.n


def _check_config_grid(cfg: SolverConfig, grid: Grid) -> None:
    if (cfg.n, cfg.N) != (grid.n, grid.N):
        raise GridMismatchError(f"config is for n={cfg.n} N={cfg.N}, grid n={grid.n} N={grid.N}")


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
class ContinuityTrace:
    steps: list[ContinuityStep] = field(default_factory=list)

    def to_json_records(self) -> list[dict]:
        return [asdict(s) for s in self.steps]


@dataclass(frozen=True)
class SolveResult:
    phi: PeriodicScalarField
    metric: HermitianMetricField  # g~ = g + ddbar phi of the final iterate
    trace: ContinuityTrace
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
    if phi.grid != g.grid:
        raise GridMismatchError("phi and g must share a grid")
    gt = g + hermitian_hessian(phi)
    return MetricIterate(g, phi, gt, positivity_check(gt).min_eig)


def _require_positive(it: MetricIterate) -> None:
    if not it.min_eig > 0.0:
        raise NonPositiveMetricError(
            f"metric from potential is not positive (min eig {it.min_eig:.3e})"
        )


# ---------------------------------------------------------------------------
# residual and linearization

def compatibility_constant(F: PeriodicScalarField, g: HermitianMetricField) -> float:
    """C with C * integral(e^F dV_g) = Vol_g(M)."""
    if not F.is_real:
        raise ValueError("F must be real")
    w = det_field(g).values
    vol = float(np.mean(w))
    den = float(np.mean(np.exp(F.values) * w))
    return vol / den


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
    op = _LinearizedOperator(it)
    return make_field(it.g.grid, op.apply_L(psi.values))


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

    def apply_L(self, u: np.ndarray) -> np.ndarray:
        return -self.apply_B(self.grid.rfftn(u)) / self.det_g

    def precondition(self, spec: np.ndarray) -> np.ndarray:
        """Half spectrum of the flat operator -(1/4)Delta's inverse applied to spec."""
        return spec * self.grid.inverse_flat()


def solve_linearized(
    rhs: PeriodicScalarField,
    it: MetricIterate,
    cfg: SolverConfig,
    tol: float | None = None,
) -> PeriodicScalarField:
    """Mean-zero psi with ||L[psi] - rhs||_sup <= tol * ||rhs||_sup.

    rhs is first projected against constants in dV_g, the part L can reach;
    tol defaults to KRYLOV_TOL.  cfg must be for the iterate's grid.
    """
    _check_config_grid(cfg, it.g.grid)
    _require_positive(it)
    op = _LinearizedOperator(it)
    target = KRYLOV_TOL if tol is None else tol
    return make_field(it.g.grid, _pcg(op, rhs.values, target, cfg.krylov_iter_cap))


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

    The keys are the monitored fields of ContinuityStep.  Every derivative
    comes from one half spectrum of phi; sup_third is the sup of
    |d_l d_j dbar_k phi| over all l, j, k.
    """
    grid = it.phi.grid
    phi = it.phi.values
    spec = grid.rfftn(phi)
    grad_sq = np.zeros(grid.shape)
    for a in range(grid.num_axes):
        grad_sq += grid.irfftn(spec * grid.half(first_symbol(grid, a))) ** 2
    lo, hi = eigenvalue_fields(it.gt)
    third_sq = 0.0
    for l in range(grid.n):
        dl = grid.half(0.5 * (first_symbol(grid, 2 * l) - 1j * first_symbol(grid, 2 * l + 1)))
        P, Q = dl.real, dl.imag
        for j in range(l, grid.n):  # d_l d_j dbar_k is symmetric in (l, j)
            for k in range(grid.n):
                # d_l d_j dbar_k has symbol (P + iQ)(A + iB), P and Q odd, A and B
                # even: i(PB + QA) gives the real part, -i(PA - QB) the imaginary part
                A, B = grid.mixed_symbols(j, k)
                re = grid.irfftn(spec * (1j * (P * B + Q * A)))
                im = grid.irfftn(spec * (-1j * (P * A - Q * B)))
                third_sq = max(third_sq, float(np.max(re ** 2 + im ** 2)))
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
            psi = solve_linearized(rhs, it, cfg, tol=eta)
        except KrylovConvergenceError:
            return None
        it = _damped_update(it, psi, cfg.damping_eig_floor)
        if it is None:
            return None
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
    _check_config_grid(cfg, g.grid)
    # at phi = 0 the iterate's metric is g itself
    it = metric_iterate(g, make_field(g.grid, np.zeros(g.grid.shape)))
    if not it.min_eig > 0.0:
        raise NonPositiveMetricError("background metric is not positive")
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
                break
    return SolveResult(phi=it.phi, metric=it.gt, trace=ContinuityTrace(steps),
                       converged=not message, t_reached=t, message=message)
