"""SQP solver for small constrained nonlinear programs.

Layout: minimize f(z) subject to c_eq(z) = 0, c_in(z) <= 0 and box bounds.
Each iteration builds a convex QP from a damped-BFGS Lagrangian Hessian and
linearized constraints, solves it with a dual active-set method
(Goldfarb-Idnani flavour: start at the unconstrained optimum, add violated
constraints one at a time, drop blocking ones), and globalizes with an
l1-merit backtracking line search. The Hessian is kept in the compact form of
Byrd, Nocedal and Schnabel (1994): a diagonal plus the damped pairs of the
accepted steps, so the QP applies its inverse in O(n r) for r pairs and never
forms or factors an n x n matrix. Infeasible subproblems are retried in an
elastic form where a scalar relaxation variable scales the constraint
right-hand sides.

All randomness (multistart sampling) flows through one seeded generator, so
results are reproducible bit for bit for a fixed BLAS thread count.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpstrf

from .errors import EvaluatorFailure, InfeasibleSubproblem

logger = logging.getLogger(__name__)

# Inequality rows with values below -WORKING_SET_MARGIN are left out of an
# iteration's QP (their multipliers are zero anyway). Feasibility and KKT
# checks always use every row.
WORKING_SET_MARGIN = 0.5

# A row is dependent when its squared pivot is <= this * max(1, |row|^2).
DEPENDENT_PIVOT = 1e-13


@dataclass
class NlpSpec:
    """Problem description handed to the solver.

    Constraint convention: equalities c_eq(z) = 0, inequalities c_in(z) <= 0.
    Jacobians have one row per constraint, so (0, n) when there are none.
    """

    n: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    jacobians: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    # Optional closed-form block minimizer (e.g. exact slack values); applied
    # after each accepted step and kept only when it does not worsen the merit.
    repair: Callable[[np.ndarray], np.ndarray] | None = None
    # Optional terminal improvement (e.g. rounding convex-combination weights
    # onto the best vertex); applied once at exit, kept only when it does not
    # worsen (violation, objective).
    finalize: Callable[[np.ndarray], np.ndarray] | None = None
    # Known lower bound on the objective. A feasible point attaining it is a
    # certified global optimum; the solver stops there immediately.
    objective_lower_bound: float | None = None
    # Typical magnitude per variable; the initial (and reset) quasi-Newton
    # Hessian is diag(scales**-2), so early steps move each variable on its
    # own scale instead of one unit.
    scales: np.ndarray | None = None


@dataclass
class SolverOptions:
    max_iterations: int = 500
    kkt_tolerance: float = 1e-6
    constraint_tolerance: float = 1e-8
    multistart: int = 1
    seed: int = 0
    # Optional shortcut for multistart: stop launching new starts once a
    # converged result reaches this objective value (None = run all starts).
    early_stop_objective: float | None = None

    def __post_init__(self):
        if self.kkt_tolerance <= 0 or self.constraint_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")


@dataclass
class SolverResult:
    z: np.ndarray
    objective: float
    kkt_residual: float
    constraint_violation: float
    iterations: int
    status: str  # "converged" | "max_iterations" | "stalled" | "failed"
    start_index: int = 0
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class QpResult:
    step: np.ndarray
    eq_multipliers: np.ndarray
    in_multipliers: np.ndarray
    lower_multipliers: np.ndarray
    upper_multipliers: np.ndarray
    # active-set steps taken, counted as the QP's iteration limit counts them
    iterations: int


# ---------------------------------------------------------------------------
# quasi-Newton Hessian
# ---------------------------------------------------------------------------

class DampedBfgs:
    """Powell-damped BFGS matrix B in compact form, with B0 = diag(b0).

    Every accepted pair (s, y) is kept; ``reset`` drops them all. ``times``
    applies B through the rank-one terms of the updates,
    B = B0 + sum_i (y_i y_i'/s_i'y_i - u_i u_i'/s_i'u_i) with u_i the
    product of s_i and the matrix before update i. ``solve`` applies B^-1
    through the inverse compact form of Byrd, Nocedal and Schnabel (1994),
    H0 V + W (M (W' V)) with H0 = B0^-1 and W = [S, H0 Y], whose 2r x 2r
    middle matrix M is rebuilt once per accepted pair.
    """

    def __init__(self, b0: np.ndarray):
        self.b0 = np.asarray(b0, float)
        self.h0 = 1.0 / self.b0
        self.reset()

    def reset(self) -> None:
        self._s: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._u: list[np.ndarray] = []
        self._sy: list[float] = []
        self._su: list[float] = []
        self._w = self._m = None

    def times(self, v: np.ndarray) -> np.ndarray:
        """B v for one vector."""
        out = self.b0 * v
        for y, u, sy, su in zip(self._y, self._u, self._sy, self._su):
            out += (y @ v / sy) * y - (u @ v / su) * u
        return out

    def solve(self, v: np.ndarray) -> np.ndarray:
        """B^-1 V for a vector or an (n, m) block."""
        h0 = self.h0 if v.ndim == 1 else self.h0[:, None]
        if self._w is None:
            return h0 * v
        return h0 * v + self._w @ (self._m @ (self._w.T @ v))

    def update(self, s: np.ndarray, y: np.ndarray) -> None:
        """Add the pair (s, y), damped so that B stays positive definite."""
        bs = self.times(s)
        shs = float(s @ bs)
        sy = float(s @ y)
        if shs <= 1e-14:
            return
        if sy < 0.2 * shs:
            theta = 0.8 * shs / (shs - sy)
            y = theta * y + (1.0 - theta) * bs
            sy = float(s @ y)
        if sy <= 1e-14:
            return
        self._s.append(s)
        self._y.append(y)
        self._u.append(bs)
        self._sy.append(sy)
        self._su.append(shs)
        big_s, big_y = np.column_stack(self._s), np.column_stack(self._y)
        h0_y = self.h0[:, None] * big_y
        r = len(self._s)
        sty = big_s.T @ big_y
        r_inv = scipy.linalg.solve_triangular(np.triu(sty), np.eye(r),
                                              check_finite=False)
        inner = np.diag(np.diag(sty)) + big_y.T @ h0_y
        self._m = np.block([[r_inv.T @ inner @ r_inv, -r_inv.T],
                            [-r_inv, np.zeros((r, r))]])
        self._w = np.hstack([big_s, h0_y])


# ---------------------------------------------------------------------------
# dual active-set QP
# ---------------------------------------------------------------------------

class _ActiveSet:
    """Active rows of the dual QP, with an incremental Cholesky of N H^-1 N^T.

    Each member is one row in the ">=" form, kept with its integer row id
    (see ``solve_qp``). The first ``n_eq`` members are the equality rows
    that ``batch_init_equalities`` installs, and are never dropped. At most
    n rows in R^n are independent, so the buffers hold n members and are
    allocated once.

    The upper factor R of N H^-1 N^T over the q members lives in one n x n
    Fortran-ordered buffer that is always blockdiag(R, I): the leading q x q
    block is R with exact zeros below its diagonal, and everything outside
    that block is exactly the identity. BLAS ``dtrsv`` then solves with R
    on the whole buffer, in place, given a right-hand side padded with
    zeros (the padding solves to zeros), so no step copies the factor.
    """

    def __init__(self, hinv, n):
        self.hinv = hinv
        self.size = 0
        self.n_eq = 0
        self._normals = np.empty((n, n))  # active ">=" rows
        self._b = np.empty((n, n))  # H^-1 N^T, one column per member
        self._chol = np.eye(n, order="F")  # blockdiag(R, I)
        self._mult = np.empty(n)
        self._ids = np.empty(n, dtype=np.intp)

    @property
    def normals(self):
        return self._normals[:self.size]

    @property
    def hinv_nt(self):
        return self._b[:, :self.size]

    @property
    def multipliers(self):
        return self._mult[:self.size]

    @property
    def ids(self):
        return self._ids[:self.size]

    def solve(self, v, trans=0):
        """R^-1 v, or R^-T v with trans=1, for a vector over the members."""
        x = np.zeros(self._mult.size)
        x[:self.size] = v
        return dtrsv(self._chol, x, trans=trans, overwrite_x=1)[:self.size]

    def try_add(self, row_id, normal, multiplier, y, w) -> bool:
        """Append a row, given y = H^-1 normal and w = R^-T (N y) over the
        current members; False if it depends on the members (any does at n)."""
        q = self.size
        if q == self._mult.size:
            return False
        rho_sq = float(normal @ y) - float(w @ w)
        if rho_sq <= DEPENDENT_PIVOT * max(1.0, float(normal @ normal)):
            return False
        self._chol[:q, q] = w
        self._chol[q, q] = math.sqrt(rho_sq)
        self._normals[q] = normal
        self._b[:, q] = y
        self._mult[q] = multiplier
        self._ids[q] = row_id
        self.size = q + 1
        return True

    def drop(self, position):
        """Remove a member: shift the later columns of R left, then Givens
        rotations clear the subdiagonal this leaves, in O(q^2) and in place.

        The diagonal stays positive (Goldfarb and Idnani, 1983): rotation k
        zeroes R[k + 1, k], the untouched original diagonal entry shifted
        left, and leaves hypot(R[k, k], R[k + 1, k]) > 0 on the diagonal.
        """
        q, r = self.size, self._chol
        r[:q, position:q - 1] = r[:q, position + 1:q]
        for k in range(position, q - 1):
            a, b = r[k, k], r[k + 1, k]
            rad = math.hypot(a, b)
            c, s = a / rad, b / rad
            top, bottom = r[k, k + 1:q - 1], r[k + 1, k + 1:q - 1]
            top, bottom = c * top + s * bottom, c * bottom - s * top
            r[k, k + 1:q - 1], r[k + 1, k + 1:q - 1] = top, bottom
            r[k, k], r[k + 1, k] = rad, 0.0
        r[:q, q - 1] = 0.0
        r[q - 1, q - 1] = 1.0
        self._normals[position:q - 1] = self._normals[position + 1:q]
        self._b[:, position:q - 1] = self._b[:, position + 1:q]
        self._mult[position:q - 1] = self._mult[position + 1:q]
        self._ids[position:q - 1] = self._ids[position + 1:q]
        self.size = q - 1

    def directions(self, y, ny):
        """Primal direction z and dual direction r for a candidate normal,
        given y = H^-1 normal and ny = N y over the current members, plus the
        forward solve w = R^-T ny that ``try_add`` takes."""
        w = self.solve(ny, trans=1)
        r = self.solve(w)
        return y - self.hinv_nt @ r, r, w

    def batch_init_equalities(self, a_eq, b_eq, d):
        """Install the equality rows in one blocked step; returns the
        equality-feasible minimizer. Must be called on an empty set.

        If a row is dependent, a pivoted Cholesky (LAPACK dpstrf) picks a
        largest independent subset, installed in row order the same way
        (``ids`` names the rows kept; the caller checks the others). Raises
        InfeasibleSubproblem if that subset's factor is refused too.
        """
        b_block = self.hinv(a_eq.T)
        s = a_eq @ b_block
        s = 0.5 * (s + s.T)
        scale = np.maximum(1.0, np.einsum("ij,ij->i", a_eq, a_eq))
        # more than n rows in R^n are dependent, though rounding may pass them
        chol = (_independent_factor(s, scale)
                if a_eq.shape[0] <= self._mult.size else None)
        ids = None
        if chol is None:
            # on s / sqrt(scale scale'), dpstrf's absolute stop on the
            # squared pivots is the relative DEPENDENT_PIVOT test
            _, piv, rank, _ = dpstrf(s / np.sqrt(np.outer(scale, scale)),
                                     tol=DEPENDENT_PIVOT)
            ids = np.sort(piv[:min(rank, self._mult.size)] - 1)
            a_eq, b_eq, b_block = a_eq[ids], b_eq[ids], b_block[:, ids]
            chol = _independent_factor(s[np.ix_(ids, ids)], scale[ids])
            if chol is None:
                raise InfeasibleSubproblem("dependent equality rows")
        m = a_eq.shape[0]
        self._normals[:m] = a_eq
        self._b[:, :m] = b_block
        self._chol[:m, :m] = chol
        self._ids[:m] = np.arange(m) if ids is None else ids
        self.size = self.n_eq = m
        lam = self.solve(self.solve(b_eq - a_eq @ d, trans=1))
        self._mult[:m] = lam
        return d + b_block @ lam


def _independent_factor(s, scale):
    """Upper Cholesky factor of s, or None if a row is dependent: chol[i, i]^2
    is row i's pivot given the rows before it, tested as in try_add."""
    try:
        chol = scipy.linalg.cholesky(s, lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    if np.any(np.diag(chol) ** 2 <= DEPENDENT_PIVOT * scale):
        return None
    return chol


def solve_qp(hinv: Callable[[np.ndarray], np.ndarray], g: np.ndarray,
             a_eq: np.ndarray | None = None, b_eq: np.ndarray | None = None,
             a_in: np.ndarray | None = None, b_in: np.ndarray | None = None,
             lower: np.ndarray | None = None, upper: np.ndarray | None = None
             ) -> QpResult:
    """Minimize 0.5 d'Hd + g'd s.t. A_eq d = b_eq, A_in d <= b_in, lower <= d <= upper.

    H is positive definite and reached only through ``hinv``, which maps a
    vector or an (n, m) block V to H^-1 V. Raises InfeasibleSubproblem when
    the constraints admit no point.

    Every inequality is one row n_i'd >= rhs_i with an integer id i: the
    general rows -A_in d >= -b_in take ids [0, n_in), the lower bounds
    d >= lower [n_in, n_in + n) and the upper bounds -d >= -upper
    [n_in + n, n_in + 2n). The equality rows, by their index in A_eq, form
    a prefix of the active set that is never dropped. They enter in one
    blocked step, which leaves out dependent rows; those must hold within
    the QP's tolerance as far as the kept rows do, and get multiplier 0.
    """
    n = g.shape[0]
    a_eq = np.empty((0, n)) if a_eq is None else np.atleast_2d(a_eq)
    b_eq = np.empty(0) if b_eq is None else np.atleast_1d(b_eq)
    a_in = np.empty((0, n)) if a_in is None else np.atleast_2d(a_in)
    b_in = np.empty(0) if b_in is None else np.atleast_1d(b_in)

    n_eq, n_in = a_eq.shape[0], a_in.shape[0]
    lo_vec = np.full(n, -np.inf) if lower is None else np.asarray(lower, float)
    hi_vec = np.full(n, np.inf) if upper is None else np.asarray(upper, float)
    rhs = np.concatenate([-b_in, lo_vec, -hi_vec])

    d = -hinv(g)
    active = _ActiveSet(hinv, n)

    b_all = np.abs(np.concatenate([b_eq, rhs]))
    tol = 1e-10 * max(1.0, float(np.max(b_all[np.isfinite(b_all)], initial=0.0)))
    limit = max(200, 20 * (n + n_eq + 1))
    iterations = 0

    def normal_of(i):
        if i < n_in:
            return -a_in[i]
        normal = np.zeros(n)
        normal[(i - n_in) % n] = 1.0 if i < n_in + n else -1.0
        return normal

    def step_to(row_id, normal, row_rhs):
        nonlocal d, iterations
        # H^-1 normal and its products with the members, renewed on a drop
        y = hinv(normal)
        ny = active.normals @ y
        u_plus = 0.0  # multiplier of the incoming constraint, built up stepwise
        while True:
            iterations += 1
            if iterations > limit:
                raise InfeasibleSubproblem("active-set iteration limit")
            slack = row_rhs - float(normal @ d)
            if slack <= tol:
                # u_plus > 0 here only after a drop, so w is solved afresh
                if u_plus > 0.0 and not active.try_add(
                        row_id, normal, u_plus, y, active.solve(ny, trans=1)):
                    raise InfeasibleSubproblem("degenerate active set")
                return
            z, r, w = active.directions(y, ny)
            z_dot = float(normal @ z)
            # Dual blocking test over the inequality members: the first
            # smallest ratio; the trailing inf stands for "none blocks".
            r_in = r[active.n_eq:]
            ratios = np.full(r_in.size + 1, math.inf)
            np.divide(active.multipliers[active.n_eq:], r_in, out=ratios[:-1],
                      where=r_in > 1e-12)
            block = int(np.argmin(ratios))
            t1 = float(ratios[block])
            t2 = slack / z_dot if z_dot > 1e-12 else math.inf
            t = min(t1, t2)
            if not math.isfinite(t):
                raise InfeasibleSubproblem("no feasible point for QP constraints")
            d = d + t * z
            u_plus += t
            active.multipliers[:] -= t * r
            if t2 <= t1:
                if not active.try_add(row_id, normal, u_plus, y, w):
                    raise InfeasibleSubproblem("degenerate active set")
                return
            active.drop(active.n_eq + block)
            ny = active.normals @ y

    if n_eq:
        d = active.batch_init_equalities(a_eq, b_eq, d)
        if active.n_eq < n_eq:  # rows left out as dependent must hold too
            kept, gap = active.ids, a_eq @ d - b_eq
            left = np.delete(np.arange(n_eq), kept)
            # a left-out row is c'(kept rows): net of c'(their gaps), the
            # rounding that d carries in every row cancels
            c = np.linalg.lstsq(a_eq[kept].T, a_eq[left].T, rcond=None)[0]
            if np.max(np.abs(gap[left] - c.T @ gap[kept])) > tol:
                raise InfeasibleSubproblem("inconsistent equality rows")

    # Main loop: chase the most violated inequality; ties go to the lowest id.
    while True:
        iterations += 1
        if iterations > limit:
            raise InfeasibleSubproblem("active-set iteration limit")
        resid = np.concatenate([a_in @ d - b_in, lo_vec - d, d - hi_vec])
        i = int(np.argmax(resid))
        if not resid[i] > tol:
            break
        step_to(i, normal_of(i), float(rhs[i]))

    ids, mult, k = active.ids, active.multipliers, active.n_eq
    lam_eq = np.zeros(n_eq)  # of A_eq d - b_eq = 0; 0 for rows left out
    lam_eq[ids[:k]] = -mult[:k]
    lam = np.zeros(n_in + 2 * n)
    lam[ids[k:]] = mult[k:]
    return QpResult(d, lam_eq, lam[:n_in], lam[n_in:n_in + n], lam[n_in + n:],
                    iterations)


# ---------------------------------------------------------------------------
# SQP driver
# ---------------------------------------------------------------------------

def _merit(f, c_eq, c_in, mu):
    return f + mu * (np.sum(np.abs(c_eq)) + np.sum(np.maximum(c_in, 0.0)))


def _violation(c_eq, c_in):
    v = 0.0
    if c_eq.size:
        v = float(np.max(np.abs(c_eq)))
    if c_in.size:
        v = max(v, float(np.max(np.maximum(c_in, 0.0))))
    return v


def _require_finite(z, what, *arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        logger.error("non-finite %s at iterate %s", what, z)
        raise EvaluatorFailure(f"non-finite {what}", iterate=z)


class _Evaluator:
    """Wraps the user callbacks so that a failure raises EvaluatorFailure.

    Non-finite derivatives fail too, wherever they are evaluated (the start
    and accepted points). ``solve`` checks the values at the start point
    itself; a non-finite value at a line-search trial point only fails the
    merit test.
    """

    def __init__(self, spec: NlpSpec):
        self.spec = spec

    def _call(self, fn, z, what):
        try:
            return fn(z)
        except Exception as exc:  # noqa: BLE001 - deliberate broad capture
            logger.error("%s evaluation failed at iterate %s", what, z)
            raise EvaluatorFailure(f"{what} evaluation failed: {exc}",
                                   iterate=z) from exc

    def value(self, z):
        f = float(self._call(self.spec.objective, z, "objective"))
        c_eq, c_in = self._call(self.spec.constraints, z, "constraints")
        return f, np.asarray(c_eq, float), np.asarray(c_in, float)

    def derivatives(self, z):
        g = np.asarray(self._call(self.spec.gradient, z, "gradient"), float)
        j_eq, j_in = self._call(self.spec.jacobians, z, "jacobians")
        j_eq, j_in = np.asarray(j_eq, float), np.asarray(j_in, float)
        _require_finite(z, "gradient or jacobians", g, j_eq, j_in)
        return g, j_eq, j_in


def _lagrangian_gradient(g, j_eq, j_in, lam_eq, lam_in):
    return g + j_eq.T @ lam_eq + j_in.T @ lam_in


def _kkt_residual(z, grad_l, c_in, lam_in, lower, upper):
    # Projected-gradient stationarity absorbs the bound multipliers.
    projected = np.clip(z - grad_l, lower, upper)
    stat = float(np.max(np.abs(projected - z))) if z.size else 0.0
    comp = float(np.max(np.abs(lam_in * c_in))) if c_in.size else 0.0
    return max(stat, comp)


def _elastic_qp(hinv, g, j_eq, c_eq, j_in, c_in, lo_step, hi_step):
    """Relaxed QP: scale constraint right-hand sides by xi in [0, 1].

    Variable vector (d, xi); xi = 0 is always feasible, the penalty pushes xi
    toward 1 (the original subproblem). Its Hessian is blockdiag(H, 2 rho).
    """
    n = g.shape[0]
    rho = 1e4 * max(1.0, float(np.max(np.abs(g))))

    def hinv_aug(v):
        out = np.empty(v.shape)
        out[:n] = hinv(v[:n])
        out[n] = v[n] / (2.0 * rho)
        return out

    g_aug = np.append(g, -2.0 * rho)  # from rho * (1 - xi)^2
    a_eq = np.hstack([j_eq, c_eq[:, None]])
    a_in = np.hstack([j_in, np.maximum(c_in, 0.0)[:, None]])
    result = solve_qp(hinv_aug, g_aug, a_eq, np.zeros(c_eq.shape[0]), a_in,
                      -np.minimum(c_in, 0.0), np.append(lo_step, 0.0),
                      np.append(hi_step, 1.0))
    return QpResult(result.step[:n], result.eq_multipliers,
                    result.in_multipliers, result.lower_multipliers[:n],
                    result.upper_multipliers[:n], result.iterations)


def solve(spec: NlpSpec, options: SolverOptions, z0) -> SolverResult:
    """Run the SQP iteration from z0 (projected into the bounds first)."""
    ev = _Evaluator(spec)
    n = spec.n
    lower = np.full(n, -np.inf) if spec.lower is None else spec.lower
    upper = np.full(n, np.inf) if spec.upper is None else spec.upper
    z = np.clip(np.asarray(z0, float), lower, upper)

    f, c_eq, c_in = ev.value(z)
    _require_finite(z, "objective or constraints", f, c_eq, c_in)
    g, j_eq, j_in = ev.derivatives(z)
    h = DampedBfgs(np.asarray(spec.scales, float) ** -2.0
                   if spec.scales is not None else np.ones(n))
    lam_eq = np.zeros(c_eq.shape[0])
    lam_in = np.zeros(c_in.shape[0])
    grad_l = _lagrangian_gradient(g, j_eq, j_in, lam_eq, lam_in)
    mu = 1.0
    status = "max_iterations"
    message = ""
    iteration = 0

    def certified_optimal(value, c_eq_val, c_in_val):
        return (spec.objective_lower_bound is not None
                and value <= spec.objective_lower_bound + 1e-12
                and _violation(c_eq_val, c_in_val)
                <= options.constraint_tolerance)

    for iteration in range(1, options.max_iterations + 1):
        violation = _violation(c_eq, c_in)
        kkt = _kkt_residual(z, grad_l, c_in, lam_in, lower, upper)
        if kkt <= options.kkt_tolerance and violation <= options.constraint_tolerance:
            status = "converged"
            break
        if certified_optimal(f, c_eq, c_in):
            status = "converged"
            break
        if spec.finalize is not None and spec.objective_lower_bound is not None:
            # A feasible finalized candidate at the lower bound ends the run.
            z_fin = np.clip(spec.finalize(z.copy()), lower, upper)
            f_fin, c_eq_fin, c_in_fin = ev.value(z_fin)
            if certified_optimal(f_fin, c_eq_fin, c_in_fin):
                z, f, c_eq, c_in = z_fin, f_fin, c_eq_fin, c_in_fin
                g, j_eq, j_in = ev.derivatives(z)
                status = "converged"
                break

        lo_step, hi_step = lower - z, upper - z
        # Working set: rows far on the feasible side contribute nothing to
        # the step; leaving them out keeps the active-set solve small.
        ws = c_in >= -WORKING_SET_MARGIN
        c_ws, j_ws = c_in[ws], j_in[ws]

        accepted = False
        fresh_hessian = False
        while True:  # at most two passes: current Hessian, then a reset one
            try:
                qp = solve_qp(h.solve, g, j_eq, -c_eq, j_ws, -c_ws,
                              lo_step, hi_step)
            except (InfeasibleSubproblem, np.linalg.LinAlgError):
                logger.debug("elastic fallback at iteration %d", iteration)
                try:
                    qp = _elastic_qp(h.solve, g, j_eq, c_eq, j_ws, c_ws,
                                     lo_step, hi_step)
                except (InfeasibleSubproblem, np.linalg.LinAlgError):
                    status = "stalled"
                    message = "QP subproblem failed even in elastic mode"
                    break

            d = qp.step
            lam_eq = qp.eq_multipliers
            lam_in = np.zeros(c_in.shape[0])
            lam_in[ws] = qp.in_multipliers
            step_norm = float(np.max(np.abs(d))) if d.size else 0.0
            if step_norm <= 1e-14 * max(1.0, float(np.max(np.abs(z)))):
                status = "converged" if violation <= options.constraint_tolerance \
                    else "stalled"
                message = "zero step"
                break

            lam_norm = max(
                float(np.max(np.abs(lam_eq))) if lam_eq.size else 0.0,
                float(np.max(np.abs(lam_in))) if lam_in.size else 0.0)
            mu_needed = 1.5 * lam_norm + 1e-2
            if mu < mu_needed:
                mu = mu_needed
            elif mu > 4.0 * mu_needed:  # let an inflated penalty come down
                mu = 2.0 * mu_needed

            phi0 = _merit(f, c_eq, c_in, mu)
            directional = float(g @ d) - mu * (np.sum(np.abs(c_eq)) +
                                               np.sum(np.maximum(c_in, 0.0)))
            alpha = 1.0
            while alpha >= 1e-12:
                z_try = z + alpha * d
                # The repaired candidate doubles as a second-order correction:
                # auxiliary rows are exactly feasible there, so constraint
                # curvature cannot veto an otherwise good step (Maratos).
                candidates = ([spec.repair(z_try.copy()), z_try]
                              if spec.repair is not None else [z_try])
                for z_cand in candidates:
                    f_cand, c_eq_cand, c_in_cand = ev.value(z_cand)
                    phi_cand = _merit(f_cand, c_eq_cand, c_in_cand, mu)
                    if phi_cand <= phi0 + 1e-4 * alpha * directional \
                            + 1e-12 * abs(phi0):
                        accepted = True
                        z_new, f_new = z_cand, f_cand
                        c_eq_new, c_in_new = c_eq_cand, c_in_cand
                        break
                if accepted:
                    break
                alpha *= 0.5
            if accepted or fresh_hessian:
                break
            # Accumulated quasi-Newton curvature can poison the step long
            # before the iterates are optimal; retry once from scratch.
            logger.debug("hessian reset at iteration %d", iteration)
            h.reset()
            fresh_hessian = True

        if status in ("converged", "stalled"):
            break
        if not accepted:
            status = "stalled"
            message = "line search failed"
            break

        g_new, j_eq_new, j_in_new = ev.derivatives(z_new)

        # Damped BFGS on the Lagrangian (Powell's modification keeps H SPD).
        # The new point's gradient is also the next iteration's KKT one.
        grad_l_old = _lagrangian_gradient(g, j_eq, j_in, lam_eq, lam_in)
        grad_l = _lagrangian_gradient(g_new, j_eq_new, j_in_new, lam_eq, lam_in)
        h.update(z_new - z, grad_l - grad_l_old)

        z, f, c_eq, c_in = z_new, f_new, c_eq_new, c_in_new
        g, j_eq, j_in = g_new, j_eq_new, j_in_new

    # The QP keeps bound residuals only to its own tolerance; snap exactly.
    z_final = np.clip(z, lower, upper)
    changed = not np.array_equal(z_final, z)
    if changed:
        f, c_eq, c_in = ev.value(z_final)
    if spec.finalize is not None:
        z_candidate = np.clip(spec.finalize(z_final.copy()), lower, upper)
        f_cand, c_eq_cand, c_in_cand = ev.value(z_candidate)
        if (_violation(c_eq_cand, c_in_cand), f_cand) <= \
                (_violation(c_eq, c_in), f):
            z_final = z_candidate
            f, c_eq, c_in = f_cand, c_eq_cand, c_in_cand
            changed = True
    if changed:
        z = z_final
        g, j_eq, j_in = ev.derivatives(z)
    violation = _violation(c_eq, c_in)
    # Any multiplier vector certifies KKT; try the QP estimate and zero.
    kkt = min(
        _kkt_residual(z, _lagrangian_gradient(g, j_eq, j_in, lam_eq, lam_in),
                      c_in, lam_in, lower, upper),
        _kkt_residual(z, g, c_in, np.zeros(lam_in.shape), lower, upper))
    if (kkt <= options.kkt_tolerance
            and violation <= options.constraint_tolerance) \
            or certified_optimal(f, c_eq, c_in):
        status = "converged"
    elif status == "converged":
        status = "stalled"
    return SolverResult(z=z, objective=f, kkt_residual=kkt,
                        constraint_violation=violation, iterations=iteration,
                        status=status, message=message)


def multistart(spec: NlpSpec, options: SolverOptions,
               sampler: Callable[[int, np.random.Generator], np.ndarray]
               ) -> SolverResult:
    """Independent solves from sampled starts; best result wins.

    Selection is by value, never by completion order: converged results beat
    non-converged ones, lower objective beats higher, ties go to the smaller
    start index. With ``early_stop_objective`` set, later starts are skipped
    once a converged result reaches that value (still deterministic because
    starts run in index order). A start whose callbacks raise is recorded as
    ``failed`` and never wins; the first failure is raised only when every
    start failed.
    """
    rng = np.random.default_rng(options.seed)
    results: list[SolverResult] = []
    failures: list[EvaluatorFailure] = []
    for index in range(options.multistart):
        z0 = sampler(index, rng)
        try:
            result = solve(spec, options, z0)
        except EvaluatorFailure as exc:
            logger.warning("start %d failed: %s", index, exc)
            failures.append(exc)
            result = SolverResult(z=np.asarray(z0, float), objective=math.inf,
                                  kkt_residual=math.inf,
                                  constraint_violation=math.inf, iterations=0,
                                  status="failed", message=str(exc))
        result.start_index = index
        results.append(result)
        logger.debug("start %d: status=%s objective=%.6g", index,
                     result.status, result.objective)
        if (options.early_stop_objective is not None and result.converged
                and result.objective <= options.early_stop_objective):
            break

    converged = [r for r in results if r.converged]
    pool = converged or [r for r in results if r.status != "failed"]
    if not pool:
        raise failures[0]
    if converged:
        return min(pool, key=lambda r: (r.objective, r.start_index))
    return min(pool, key=lambda r: (r.constraint_violation, r.objective,
                                    r.start_index))
