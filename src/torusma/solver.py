"""Continuity-method Newton solver for det(g + ddbar phi) = C e^{tF} det(g).

The outer loop walks t from 0 to 1 with adaptive steps.  At each t a damped
Newton iteration drives the normalized residual

    r = det(g~)/det(g) - C(t) e^{tF},   C(t) = Vol_g / integral(e^{tF} dV_g)

to the sup-norm tolerance.  The Newton correction solves the linearization

    L[psi] = (det g~/det g) lap_{g~} psi = -r

by preconditioned conjugate gradients on mean-zero fields; dyadic damping
keeps the metric eigenvalues above the configured floor along the path.
Each iterate's metric g~ = g + ddbar phi is formed once, by metric_iterate;
the residual, the linear solve and the damping all read that one iterate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .geometry import (
    HermitianMetricField,
    det_field,
    eigenvalue_fields,
    hermitian_hessian,
    inverse_field,
    positivity_check,
)
from .grid import (
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


@dataclass(frozen=True)
class SolverConfig:
    n: int = 1
    N: int = 64
    newton_tol: float = 1e-11
    newton_max_iter: int = 50
    t_step_initial: float = 0.1
    t_step_min: float = 1e-4
    damping_eig_floor: float = 1e-8
    krylov_tol: float = 1e-12
    krylov_max_iter: int | None = None  # defaults to 10 * N^n

    def __post_init__(self) -> None:
        for name in ("newton_tol", "t_step_initial", "t_step_min",
                     "damping_eig_floor", "krylov_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.t_step_min <= self.t_step_initial <= 1.0:
            raise ValueError("need t_step_min <= t_step_initial <= 1")

    @property
    def krylov_iter_cap(self) -> int:
        if self.krylov_max_iter is not None:
            return self.krylov_max_iter
        return 10 * self.N ** self.n


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

    @property
    def final_t(self) -> float:
        return self.steps[-1].t if self.steps else 0.0


@dataclass(frozen=True)
class SolveResult:
    phi: PeriodicScalarField
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
    gt = HermitianMetricField(g.grid, g.mats + hermitian_hessian(phi))
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
    w = det_field(g).values.real
    vol = float(np.mean(w))
    den = float(np.mean(np.exp(F.values.real) * w))
    return vol / den


def ma_residual(
    it: MetricIterate,
    F: PeriodicScalarField,
    t: float,
) -> PeriodicScalarField:
    """r = det(g + ddbar phi)/det(g) - C(t) e^{tF}; integrates to zero in dV_g."""
    g = it.g
    if F.grid != g.grid:
        raise GridMismatchError("F and the iterate must share a grid")
    _require_positive(it)
    tF = make_field(g.grid, t * F.values.real)
    C = compatibility_constant(tF, g)
    ratio = det_field(it.gt).values.real / det_field(g).values.real
    r = ratio - C * np.exp(tF.values.real)
    return make_field(g.grid, r)


def linearized_apply(psi: PeriodicScalarField, it: MetricIterate) -> PeriodicScalarField:
    """L[psi] = (det g~/det g) * lap_{g~} psi; annihilates constants."""
    _require_positive(it)
    op = _LinearizedOperator(it)
    return make_field(it.g.grid, op.apply_L(psi.values.real))


class _LinearizedOperator:
    """Precomputed pointwise data for repeated applications of L.

    B[psi] = -det(g~) lap_{g~} psi = -sum adj(g~)[k,j] d_j dbar_k psi is
    self-adjoint and positive semidefinite in the plain L2 inner product;
    L[psi] = -B[psi]/det(g).
    """

    def __init__(self, it: MetricIterate):
        self.grid = grid = it.g.grid
        self.det_g = det_field(it.g).values.real
        det_gt = det_field(it.gt).values.real
        ginv = inverse_field(it.gt).mats
        # B[u] = -sum_jk c_jk h_jk with c_jk = det(g~) ginv[k, j], h_jk = d_j dbar_k u; both are
        # Hermitian in (j, k), so B[u] = -sum_j c_jj h_jj - 2 sum_{j<k} Re(c_jk h_jk)
        self.terms = []
        for j in range(grid.n):
            self.terms.append((grid.mixed_symbols(j, j)[0], det_gt * ginv[..., j, j].real))
            for k in range(j + 1, grid.n):
                A, B = grid.mixed_symbols(j, k)
                c = det_gt * ginv[..., k, j]
                self.terms += [(A, 2.0 * c.real), (B, -2.0 * c.imag)]
        # inverse of the flat operator's symbol -(1/4)Delta >= 0, zero on constants
        flat = -sum(grid.mixed_symbols(j, j)[0] for j in range(grid.n))
        self.inv_flat = np.divide(1.0, flat, out=np.zeros(flat.shape), where=flat > 0)

    def apply_B(self, u: np.ndarray) -> np.ndarray:
        spec = self.grid.rfftn(u)
        acc = np.zeros(self.grid.shape)
        for sym, c in self.terms:
            acc += c * self.grid.irfftn(spec * sym)
        return -acc

    def apply_L(self, u: np.ndarray) -> np.ndarray:
        return -self.apply_B(u) / self.det_g

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Apply the inverse of the flat operator -lap_flat/1 = -(1/4)Delta."""
        return self.grid.irfftn(self.grid.rfftn(r) * self.inv_flat)


def solve_linearized(
    rhs: PeriodicScalarField,
    it: MetricIterate,
    cfg: SolverConfig,
) -> PeriodicScalarField:
    """Mean-zero psi with ||L[psi] - rhs||_sup <= krylov_tol * ||rhs||_sup."""
    _require_positive(it)
    op = _LinearizedOperator(it)
    return make_field(it.g.grid, _pcg(op, rhs.values.real, cfg))


def _project_compatible(rhs: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Project rhs against constants in the weighted inner product."""
    return rhs - np.mean(rhs * weight) / np.mean(weight)


def _pcg(op: _LinearizedOperator, rhs: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    rhs = _project_compatible(rhs, op.det_g)
    rhs_sup = float(np.max(np.abs(rhs)))
    if rhs_sup == 0.0:
        return np.zeros_like(rhs)
    target = cfg.krylov_tol * rhs_sup

    b = -op.det_g * rhs
    b = b - np.mean(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = op.precondition(r)
    p = z.copy()
    rz = float(np.mean(r * z))
    achieved = np.inf
    for it in range(cfg.krylov_iter_cap):
        achieved = float(np.max(np.abs(r / op.det_g)))
        if achieved <= target:
            return x - np.mean(x)
        Bp = op.apply_B(p)
        alpha = rz / float(np.mean(p * Bp))
        x += alpha * p
        r -= alpha * Bp
        r -= np.mean(r)
        z = op.precondition(r)
        rz_new = float(np.mean(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    achieved = float(np.max(np.abs(r / op.det_g)))
    if achieved <= target:
        return x - np.mean(x)
    raise KrylovConvergenceError(achieved, target, cfg.krylov_iter_cap)


# ---------------------------------------------------------------------------
# monitored quantities

def yau_estimate_report(it: MetricIterate) -> dict[str, float]:
    """sup|phi|, sup|grad phi|, eigenvalue range of g~ = g + ddbar phi, sup third derivs.

    The keys are the monitored fields of ContinuityStep.  Every derivative
    comes from one half spectrum of phi; sup_third is the sup of
    |d_l d_j dbar_k phi| over all l, j, k.
    """
    grid = it.phi.grid
    phi = it.phi.values.real
    spec = grid.rfftn(phi)
    grad_sq = np.zeros(grid.shape)
    for a in range(grid.num_axes):
        grad_sq += grid.irfftn(spec * grid.half(first_symbol(grid, a))) ** 2
    lo, hi = eigenvalue_fields(it.gt)
    third_sq = 0.0
    for l in range(grid.n):
        dl = grid.half(0.5 * (first_symbol(grid, 2 * l) - 1j * first_symbol(grid, 2 * l + 1)))
        P, Q = dl.real, dl.imag
        for j in range(grid.n):
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
    spec = np.abs(grid.rfftn(F.values.real))
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
        cand = mean_zero_project(
            make_field(it.phi.grid, it.phi.values.real + lam * psi.values.real)
        )
        cand_it = metric_iterate(it.g, cand)
        if cand_it.min_eig >= floor:
            return cand_it
        lam *= 0.5
    return None


def _newton_at_t(it, F, t, cfg):
    """Newton iteration at fixed t; returns (iterate, iters, residual_sup) or None."""
    for k in range(cfg.newton_max_iter + 1):
        r = ma_residual(it, F, t)
        res_sup = r.sup_norm()
        if res_sup <= cfg.newton_tol:
            return it, k, res_sup
        if k == cfg.newton_max_iter:
            return None
        rhs = make_field(F.grid, -r.values.real)
        try:
            psi = solve_linearized(rhs, it, cfg)
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
    if F.grid != g.grid:
        raise GridMismatchError("F and g must share a grid")
    grid = g.grid
    # at phi = 0 the iterate's metric is g itself
    it = metric_iterate(g, mean_zero_project(make_field(grid, np.zeros(grid.shape))))
    if not it.min_eig > 0.0:
        raise NonPositiveMetricError("background metric is not positive")
    _band_limit_warning(F)

    steps: list[ContinuityStep] = []
    t = 0.0
    dt = cfg.t_step_initial
    fast_successes = 0
    while t < 1.0:
        t_try = min(1.0, t + dt)
        outcome = _newton_at_t(it, F, t_try, cfg)
        if outcome is not None:
            it, iters, res_sup = outcome
            t = t_try
            steps.append(ContinuityStep(t=t, newton_iters=iters, residual_sup=res_sup,
                                        **yau_estimate_report(it)))
            fast_successes = fast_successes + 1 if iters < 5 else 0
            if fast_successes >= 2:
                dt = min(2.0 * dt, 0.25)
                fast_successes = 0
        else:
            dt *= 0.5
            if dt < cfg.t_step_min:
                return SolveResult(
                    phi=it.phi,
                    trace=ContinuityTrace(steps),
                    converged=False,
                    t_reached=t,
                    message=f"continuity step underflow below {cfg.t_step_min} at t={t}",
                )
    return SolveResult(
        phi=it.phi,
        trace=ContinuityTrace(steps),
        converged=True,
        t_reached=1.0,
    )
