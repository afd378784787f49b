"""SQP solver for small constrained nonlinear programs.

Layout: minimize f(z) subject to c_eq(z) = 0, c_in(z) <= 0 and box bounds.
Each iteration builds a convex QP from a damped-BFGS Lagrangian Hessian and
linearized constraints, solves it with a dual active-set method
(Goldfarb-Idnani flavour: start at the unconstrained optimum, add violated
constraints one at a time, drop blocking ones), and globalizes with an
l1-merit backtracking line search. The Hessian is kept in the compact form of
Byrd, Nocedal and Schnabel (1994): a diagonal plus the damped pairs of the
accepted steps, so the QP applies its inverse in O(n r) for r pairs and never
forms or factors an n x n matrix. As in qpOASES (Ferreau et al., 2014), an
active bound fixes its variable instead of entering the QP's factor, which
holds only the equality and general rows; the inverse of the Hessian over
the free variables is one Woodbury form of the same compact terms through
which the QP applies the Hessian itself. The bounds that the QP's starting
point violates are fixed in one block. Infeasible
subproblems are retried in an elastic form where a scalar relaxation
variable scales the constraint right-hand sides, and a QP that fails in
both forms is retried once with a reset Hessian. A start stops when the l1
merit stops falling.

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
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotrf, dpotri, dpstrf

from .errors import EvaluatorFailure, InfeasibleSubproblem

logger = logging.getLogger(__name__)

# Inequality rows with values below -WORKING_SET_MARGIN are left out of an
# iteration's QP (their multipliers are zero anyway). Feasibility and KKT
# checks always use every row.
WORKING_SET_MARGIN = 0.5

# A row is dependent when its squared pivot is <= this * max(1, |row|^2).
DEPENDENT_PIVOT = 1e-13

# An SQP start stops "stalled" with message "no progress" once the l1 merit
# has fallen by at most NO_PROGRESS_DROP (relative) over the last
# NO_PROGRESS_WINDOW accepted iterations.
NO_PROGRESS_WINDOW = 10
NO_PROGRESS_DROP = 1e-9

# The QP re-solves for its members from scratch, once, when at its end they
# miss their rows by more than this many times its feasibility tolerance.
DRIFT_FACTOR = 1e3

# DampedBfgs.update skips a pair whose curvature s'Bs/s's is at most this
# fraction of |B|: each damped pair leaves curvature 0.2 s'Bs along s, and
# a chain of such pairs drives B's smallest eigenvalue into its rounding
# (|B| eps), where the compact form stops being positive definite. The
# benchmark scenes' pairs stay above 1.7e-9; at 1e-10 the floor already
# skips pairs that an infeasible scene's starts need to stop.
CURVATURE_FLOOR = 1e-11


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

    Every accepted pair (s, y) is kept; ``reset`` drops them all. B is the
    sum of the rank-one terms of the updates,
    B = B0 + sum_i (y_i y_i'/s_i'y_i - u_i u_i'/s_i'u_i) with u_i the
    product of s_i and the matrix before update i: ``times`` applies it and
    ``compact`` hands its terms to the QP, whose Woodbury form of the same
    terms (``_FreeHessian``) also applies B^-1 for ``solve``.
    """

    def __init__(self, b0: np.ndarray):
        self.b0 = np.asarray(b0, float)
        self.reset()

    def reset(self) -> None:
        self._s: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._u: list[np.ndarray] = []
        self._sy: list[float] = []
        self._su: list[float] = []

    def times(self, v: np.ndarray) -> np.ndarray:
        """B v for one vector."""
        out = self.b0 * v
        for y, u, sy, su in zip(self._y, self._u, self._sy, self._su):
            out += (y @ v / sy) * y - (u @ v / su) * u
        return out

    def solve(self, v: np.ndarray) -> np.ndarray:
        """B^-1 V for a vector or an (n, m) block."""
        return _FreeHessian(self.compact, self.b0.size).apply(v)

    def compact(self):
        """(b0, U, sign) with B = diag(b0) + U diag(sign) U': one column
        y_i / sqrt(s_i'y_i) (sign +1) and one u_i / sqrt(s_i'u_i) (sign -1)
        per pair, the terms ``times`` sums."""
        cols = ([y / math.sqrt(sy) for y, sy in zip(self._y, self._sy)]
                + [u / math.sqrt(su) for u, su in zip(self._u, self._su)])
        u = np.column_stack(cols) if cols else np.empty((self.b0.size, 0))
        sign = np.repeat([1.0, -1.0], len(self._s))
        return self.b0, u, sign

    def augmented(self, b_extra: float) -> "DampedBfgs":
        """blockdiag(B, b_extra) in the same compact form: one more
        variable, on which every stored pair is zero."""
        out = DampedBfgs(np.append(self.b0, b_extra))
        out._s, out._y, out._u = ([np.append(v, 0.0) for v in vs]
                                  for vs in (self._s, self._y, self._u))
        out._sy, out._su = list(self._sy), list(self._su)
        return out

    def update(self, s: np.ndarray, y: np.ndarray) -> None:
        """Add the pair (s, y), damped so that B stays positive definite."""
        bs = self.times(s)
        shs = float(s @ bs)
        sy = float(s @ y)
        # sum(y y'/s'y) bounds the terms that B adds to B0, so the bracket
        # bounds |B|: the pair's curvature must stand above its floor
        b_norm = float(np.max(self.b0)) + sum(
            float(v @ v) / v_sy for v, v_sy in zip(self._y, self._sy))
        if shs <= max(1e-14, CURVATURE_FLOOR * b_norm * float(s @ s)):
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


# ---------------------------------------------------------------------------
# dual active-set QP
# ---------------------------------------------------------------------------

class _FreeHessian:
    """B and the inverse of B over the free variables F, from one compact form.

    B = diag(b0) + U diag(sign) U' (``DampedBfgs.compact``, loaded by the
    callable ``compact`` when first needed); ``times`` applies it. A fixed
    variable is held where it is, so the QP works with K_F, the inverse of
    B_FF padded with zeros on the fixed rows and columns, which ``apply``
    applies by the Woodbury form of the same terms

        K_F v = h v - h U M^-1 U' h v,   M = diag(sign) + U' h U  (2r x 2r)

    with h = 1/b0 on F and 0 on the fixed variables. M is indefinite.
    Fixing or freeing variable j changes M by -/+ h_j U_j' U_j and M^-1 by
    rank one (Sherman-Morrison): its pivot is b0_j times K_F's (j, j) entry
    while j is free, so it stays positive. ``set_free`` changes many
    variables at once and computes M^-1 afresh. Solves with M^-1 take one
    step of iterative refinement against M.

    A dense H given only through ``hinv`` (H^-1 as a callable, for small
    problems) is applied through ``hinv`` while no variable is fixed.
    """

    def __init__(self, compact, n, hinv=None):
        self._compact = compact
        self.hinv = hinv
        self.free = np.ones(n, dtype=bool)
        self.n_fixed = 0
        self.b0 = None

    def _load(self):
        if self.b0 is None:
            self.b0, self.u, self.sign = self._compact()
            self._h = np.where(self.free, 1.0 / self.b0, 0.0)
            self.invert()

    def invert(self):
        """M and M^-1 afresh from the free set."""
        self._load()
        u = self.u
        self._mid = np.asfortranarray(np.diag(self.sign)
                                      + u.T @ (self._h[:, None] * u))
        self._mid_inv = np.asfortranarray(np.linalg.inv(self._mid)) \
            if self.sign.size else None

    def _rank_one(self, j, c):
        """M += c U_j' U_j, with M^-1 following by Sherman-Morrison."""
        if self._mid_inv is not None:
            uj = self.u[j]
            w = _refined_solve(self._mid_inv, self._mid, uj)
            dger(c, uj, uj, a=self._mid, overwrite_a=1)
            dger(-c / (1.0 + c * float(uj @ w)), w, w, a=self._mid_inv,
                 overwrite_a=1)

    def fix(self, j):
        if self.b0 is not None:
            self._rank_one(j, -self._h[j])
            self._h[j] = 0.0
        self.free[j] = False
        self.n_fixed += 1

    def release(self, j):
        if self.b0 is not None:
            self._h[j] = 1.0 / self.b0[j]
            self._rank_one(j, self._h[j])
        self.free[j] = True
        self.n_fixed -= 1

    def set_free(self, var, value):
        """Free (True) or fix (False) the variables ``var`` at once."""
        self.free[var] = value
        self.n_fixed = int(np.count_nonzero(~self.free))
        if self.b0 is not None:
            self._h = np.where(self.free, 1.0 / self.b0, 0.0)
            self.invert()

    def apply(self, v):
        """K_F v for a vector or an (n, m) block."""
        if self.hinv is not None and not self.n_fixed:
            return self.hinv(v)
        self._load()
        h = self._h if v.ndim == 1 else self._h[:, None]
        hv = h * v
        if self._mid_inv is not None:
            hv -= h * (self.u @ _refined_solve(self._mid_inv, self._mid,
                                               self.u.T @ hv))
        return hv

    def times(self, v):
        """B v for one vector."""
        self._load()
        return self.b0 * v + self.u @ (self.sign * (self.u.T @ v))


def _compact_of(hinv, n):
    """(b0, U, sign) of a dense H given only through H^-1: with the least
    eigenvalue l of H, B = (l/2) I + V diag(lambda - l/2) V'."""
    h = np.linalg.inv(hinv(np.eye(n)))
    lam, vec = np.linalg.eigh(0.5 * (h + h.T))
    shift = 0.5 * lam[0]
    return np.full(n, shift), vec * np.sqrt(lam - shift), np.ones(n)


class _ActiveSet:
    """Active rows of the dual QP: bounds fix variables, the rest keep S^-1.

    Each member is one row n'd >= rhs, kept with its integer row id (see
    ``solve_qp``). A bound member (normal e_j or -e_j) fixes variable j in
    ``hess`` and never enters S below. It keeps its multiplier, and its dual
    direction comes from row j of the stationarity condition
    (``directions``). The general members E, the ``n_eq`` equality rows
    first (installed by ``batch_init_equalities``, never dropped), keep

        B_E = K_F N_E'  (one column per member),  S = N_E K_F N_E'  and  S^-1

    with K_F from ``hess``; S and S^-1 are q x q, in Fortran order. Fixing
    variable j changes K_F by -k k'/k_j with k = K_F e_j, so B_E, S and S^-1
    change by rank one in place (BLAS dger; S^-1 gains r r'/rho^2 with
    r = S^-1 N_E k and rho^2 the pivot). Freeing j changes them back and
    adding a general member borders them. Dropping a general member removes
    a row and a column of S and recomputes S^-1 from its Cholesky factor.

    S^-1 is kept instead of a factor of S because every fix or free would
    refactor S: LAPACK dpotrf takes 50-230 us at q = 100-180 and scipy's
    qr_update with an identity Q 110-130 us, against 25-70 us for the
    Sherman-Morrison update (a Python loop of Givens rotations: 0.6-1 ms).
    Rank-one downdates of S lose digits when they cancel (S^-1 adds no
    error of its own: solves refined against S come out the same);
    ``refresh`` and ``resolve`` recompute everything from the members when
    that shows.
    """

    def __init__(self, hess, n, capacity):
        self.hess = hess
        self.q = self.n_eq = 0  # general members, equality rows first
        self._normals = np.empty((capacity, n))
        self._b = np.empty((n, capacity), order="F")
        self._gram = np.empty((0, 0), order="F")  # S
        self._inv = np.empty((0, 0), order="F")  # S^-1
        self._mult = np.empty(capacity)
        self._ids = np.empty(capacity, dtype=np.intp)
        self.nb = 0  # bound members: variable, +1 lower / -1 upper, id
        self._var = np.empty(n, dtype=np.intp)
        self._side = np.empty(n)
        self._bid = np.empty(n, dtype=np.intp)
        self._bmult = np.empty(n)

    @property
    def normals(self):
        return self._normals[:self.q]

    @property
    def hinv_nt(self):
        return self._b[:, :self.q]

    @property
    def gram(self):
        return self._gram

    @property
    def gram_inverse(self):
        return self._inv

    @property
    def multipliers(self):
        return self._mult[:self.q]

    @property
    def ids(self):
        return self._ids[:self.q]

    @property
    def bounds(self):
        """(variable, side, id, multiplier) arrays of the bound members."""
        nb = self.nb
        return self._var[:nb], self._side[:nb], self._bid[:nb], self._bmult[:nb]

    def _rank_one(self, alpha, k, nk, r):
        """K_F += alpha k k' (k = K_F e_j up to a factor, nk = N_E k,
        r = S^-1 nk), in place."""
        if self.q:
            dger(alpha, nk, nk, a=self._gram, overwrite_a=1)
            dger(alpha, k, nk, a=self._b[:, :self.q], overwrite_a=1)
            dger(-alpha / (1.0 + alpha * float(nk @ r)), r, r, a=self._inv,
                 overwrite_a=1)

    def directions(self, normal, y, ny):
        """Primal direction z and dual directions r over E and r_b over the
        bound members for a candidate normal, given y = K_F normal and
        ny = N_E y. Row j of H z = normal - N_E'r - side_j r_b,j e_j gives
        r_b."""
        r = self._inv @ ny
        z = y - self.hinv_nt @ r
        var, side, _, _ = self.bounds
        r_b = side * (normal - r @ self.normals - self.hess.times(z))[var] \
            if self.nb else np.zeros(0)
        return z, r, r_b

    def inequality_members(self):
        """Multipliers and ids of the droppable members, general first: the
        positions ``drop`` takes."""
        k, q = self.n_eq, self.q
        return (np.concatenate([self._mult[k:q], self._bmult[:self.nb]]),
                np.concatenate([self._ids[k:q], self._bid[:self.nb]]))

    def step_multipliers(self, t, r, r_b):
        self._mult[:self.q] -= t * r
        self._bmult[:self.nb] -= t * r_b

    def try_add(self, row_id, normal, multiplier, y, ny, r, rho_sq,
                var=None) -> bool:
        """Add a row given y = K_F normal, ny = N_E y, r = S^-1 ny and its
        pivot rho_sq = normal'y - ny'r; a bound on variable ``var`` fixes
        it. False if the row depends on the members."""
        q = self.q
        if rho_sq <= DEPENDENT_PIVOT * max(1.0, float(normal @ normal)):
            return False
        if var is not None:
            # K_F loses k k'/k_j, k = K_F e_j = side * y, k_j = normal'y
            self._rank_one(-1.0 / float(normal @ y), y, ny, r)
            self._b[var, :q] = 0.0
            self.hess.fix(var)
            nb = self.nb
            self._var[nb], self._side[nb] = var, normal[var]
            self._bid[nb], self._bmult[nb] = row_id, multiplier
            self.nb = nb + 1
            return True
        if q == self._mult.size:
            return False
        gram = np.empty((q + 1, q + 1), order="F")
        gram[:q, :q] = self._gram
        gram[q, :q] = gram[:q, q] = ny
        gram[q, q] = float(normal @ y)
        self._gram = gram
        inv = np.empty((q + 1, q + 1), order="F")
        inv[:q, :q] = self._inv + np.outer(r, r / rho_sq)
        inv[q, :q] = inv[:q, q] = -r / rho_sq
        inv[q, q] = 1.0 / rho_sq
        self._inv = inv
        self._normals[q] = normal
        self._b[:, q] = y
        self._mult[q] = multiplier
        self._ids[q] = row_id
        self.q = q + 1
        return True

    def drop(self, position):
        """Remove the droppable member at ``position`` (as in
        ``inequality_members``); returns its row id and, for a bound, its
        variable (else None)."""
        q, general = self.q, self.q - self.n_eq
        if position < general:
            p = self.n_eq + position
            row_id = int(self._ids[p])
            for a in (self._normals, self._mult, self._ids):
                a[p:q - 1] = a[p + 1:q]
            self._b[:, p:q - 1] = self._b[:, p + 1:q]
            keep = np.delete(np.arange(q), p)
            self._gram = np.asfortranarray(self._gram[np.ix_(keep, keep)])
            self.q = q - 1
            self._inv = _spd_inverse(self._gram) if self.q else \
                np.empty((0, 0), order="F")
            return row_id, None
        b, nb = position - general, self.nb
        var, row_id = int(self._var[b]), int(self._bid[b])
        for a in (self._var, self._side, self._bid, self._bmult):
            a[b:nb - 1] = a[b + 1:nb]
        self.nb = nb - 1
        # K_F gains k k'/k_j, k = K_F e_j with j free again
        self.hess.release(var)
        unit = np.zeros(self._b.shape[0])
        unit[var] = 1.0
        k = self.hess.apply(unit)
        nk = self.normals @ k
        self._rank_one(1.0 / k[var], k, nk, self._inv @ nk)
        return row_id, var

    def refresh(self):
        """Recompute B_E, S and S^-1 from the members; returns S's upper
        Cholesky factor, or None with nothing changed if S is numerically
        singular. Rank-one updates lose digits when they cancel (a pivot
        far below its row's K_F diagonal); this restores them."""
        q = self.q
        self.hess.invert()
        b = self.hess.apply(np.ascontiguousarray(self.normals.T))
        s = self.normals @ b
        s = 0.5 * (s + s.T)
        chol, info = dpotrf(s, lower=0, clean=1)
        if info:
            return None
        self._b[:, :q] = b
        self._gram = np.asfortranarray(s)
        self._inv = _spd_inverse(chol=chol)
        return chol

    def dependent(self):
        """Positions of the general members outside the rank of S, by a
        pivoted Cholesky (LAPACK dpstrf) with try_add's relative test."""
        s = self.normals @ self.hess.apply(np.ascontiguousarray(self.normals.T))
        scale = np.sqrt(np.maximum(1.0, np.einsum("ij,ij->i", self.normals,
                                                  self.normals)))
        _, piv, rank, _ = dpstrf(0.5 * (s + s.T) / np.outer(scale, scale),
                                 tol=DEPENDENT_PIVOT)
        return np.sort(piv[rank:] - 1)

    def resolve(self, g, d_fixed, rhs):
        """Solve afresh for the current members: the minimizer with the
        fixed variables at d_fixed and each general member n'd = rhs, with
        new B_E, S, S^-1 and multipliers; returns it, or None with nothing
        changed if S is numerically singular."""
        hess, q = self.hess, self.q
        d = d_fixed - hess.apply(g + hess.times(d_fixed) if hess.n_fixed
                                 else g)
        if q:
            chol = self.refresh()
            if chol is None:
                return None
            lam = scipy.linalg.cho_solve((chol, False), rhs - self.normals @ d,
                                         check_finite=False)
            d = d + self.hinv_nt @ lam
            self._mult[:q] = lam
        if self.nb:
            var, side, _, _ = self.bounds
            self._bmult[:self.nb] = side * (
                hess.times(d) + g - self.multipliers @ self.normals)[var]
        return d

    def fix_bounds(self, var, side, ids):
        """Make bound members of the variables ``var`` (sides +1 lower,
        -1 upper, row ids ``ids``) at once, leaving B_E, S, S^-1 and the
        multipliers to ``resolve``."""
        nb, k = self.nb, var.size
        self._var[nb:nb + k], self._side[nb:nb + k] = var, side
        self._bid[nb:nb + k], self._bmult[nb:nb + k] = ids, 0.0
        self.nb = nb + k
        self.hess.set_free(var, False)

    def release_bounds(self, positions):
        """Drop the bound members at these positions among the bound
        members at once, leaving the rest to ``resolve``; returns their row
        ids and variables."""
        gone = self._bid[positions].copy(), self._var[positions].copy()
        keep = np.delete(np.arange(self.nb), positions)
        for a in (self._var, self._side, self._bid, self._bmult):
            a[:keep.size] = a[keep]
        self.nb = keep.size
        self.hess.set_free(gone[1], True)
        return gone

    def clip_multipliers(self):
        """Zero the inequality members' multipliers that rounding left
        below zero."""
        np.maximum(self._mult[self.n_eq:self.q], 0.0,
                   out=self._mult[self.n_eq:self.q])
        np.maximum(self._bmult[:self.nb], 0.0, out=self._bmult[:self.nb])

    def batch_init_equalities(self, a_eq, b_eq, d):
        """Install the equality rows in one blocked step; returns the
        equality-feasible minimizer. Must be called on a set with no members.

        If a row is dependent, a pivoted Cholesky (LAPACK dpstrf) picks a
        largest independent subset, installed in row order the same way
        (``ids`` names the rows kept; the caller checks the others). Raises
        InfeasibleSubproblem if that subset's factor is refused too.
        """
        b_block = self.hess.apply(a_eq.T)
        s = a_eq @ b_block
        s = 0.5 * (s + s.T)
        scale = np.maximum(1.0, np.einsum("ij,ij->i", a_eq, a_eq))
        capacity = self._mult.size
        # more than n rows in R^n are dependent, though rounding may pass them
        chol = (_independent_factor(s, scale)
                if a_eq.shape[0] <= capacity else None)
        ids = None
        if chol is None:
            # on s / sqrt(scale scale'), dpstrf's absolute stop on the
            # squared pivots is the relative DEPENDENT_PIVOT test
            _, piv, rank, _ = dpstrf(s / np.sqrt(np.outer(scale, scale)),
                                     tol=DEPENDENT_PIVOT)
            ids = np.sort(piv[:min(rank, capacity)] - 1)
            a_eq, b_eq, b_block = a_eq[ids], b_eq[ids], b_block[:, ids]
            s = s[np.ix_(ids, ids)]
            chol = _independent_factor(s, scale[ids])
            if chol is None:
                raise InfeasibleSubproblem("dependent equality rows")
        m = a_eq.shape[0]
        self._normals[:m] = a_eq
        self._b[:, :m] = b_block
        self._gram = np.asfortranarray(s)
        self._inv = _spd_inverse(chol=chol)
        self._ids[:m] = np.arange(m) if ids is None else ids
        self.q = self.n_eq = m
        lam = scipy.linalg.cho_solve((chol, False), b_eq - a_eq @ d,
                                     check_finite=False)
        self._mult[:m] = lam
        return d + b_block @ lam


def _refined_solve(inv, mat, b):
    """mat^-1 b through an explicit inverse, with one step of iterative
    refinement: the inverse follows mat through rank-one updates and loses
    digits that the residual against mat restores."""
    x = inv @ b
    return x + inv @ (b - mat @ x)


def _spd_inverse(s=None, chol=None):
    """S^-1 in Fortran order from S or from its upper Cholesky factor."""
    if chol is None:
        chol, info = dpotrf(s, lower=0, clean=1)
        if info:
            raise InfeasibleSubproblem("degenerate active set")
    inv, _ = dpotri(chol, lower=0)
    return np.asfortranarray(np.triu(inv) + np.triu(inv, 1).T)


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


def solve_qp(hessian, g: np.ndarray,
             a_eq: np.ndarray | None = None, b_eq: np.ndarray | None = None,
             a_in: np.ndarray | None = None, b_in: np.ndarray | None = None,
             lower: np.ndarray | None = None, upper: np.ndarray | None = None
             ) -> QpResult:
    """Minimize 0.5 d'Hd + g'd s.t. A_eq d = b_eq, A_in d <= b_in, lower <= d <= upper.

    H is positive definite, given as a DampedBfgs or as a callable mapping a
    vector or an (n, m) block V to H^-1 V. A callable serves small dense
    problems: its compact form is built from H^-1 once a variable is fixed.
    Raises InfeasibleSubproblem when the constraints admit no point.

    Every inequality is one row n_i'd >= rhs_i with an integer id i: the
    general rows -A_in d >= -b_in take ids [0, n_in), the lower bounds
    d >= lower [n_in, n_in + n) and the upper bounds -d >= -upper
    [n_in + n, n_in + 2n). An active bound fixes its variable (see
    ``_ActiveSet``), and a variable whose bounds coincide is fixed from the
    start. The equality rows, by their index in A_eq, form a prefix of the
    active set that is never dropped. They enter in one blocked step, which
    leaves out dependent rows; those must hold within the QP's tolerance as
    far as the kept rows do, and get multiplier 0.

    The main loop enters the most violated row that is not a member, ties
    to the lowest id. After a step of length zero it enters the violated row
    with the lowest id instead, until a step has positive length, and a tie
    in the blocking test goes to the lowest id (Bland's rule).
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

    if isinstance(hessian, DampedBfgs):
        hess = _FreeHessian(hessian.compact, n)
    else:
        hess = _FreeHessian(lambda: _compact_of(hessian, n), n, hessian)
    # members, which the main loop never enters again: the general rows by
    # id, a fixed variable by both of its bound ids
    member = np.zeros(n_in + 2 * n, dtype=bool)
    pinned = np.flatnonzero(lo_vec == hi_vec)
    member[n_in + pinned] = member[n_in + n + pinned] = True
    if pinned.size:
        hess.set_free(pinned, False)
    d = np.zeros(n)
    d[pinned] = lo_vec[pinned]
    d = d - hess.apply(g + hess.times(d) if pinned.size else g)
    active = _ActiveSet(hess, n, min(n, n_eq + n_in))

    b_all = np.abs(np.concatenate([b_eq, rhs]))
    tol = 1e-10 * max(1.0, float(np.max(b_all[np.isfinite(b_all)], initial=0.0)))
    limit = max(200, 20 * (n + n_eq + 1))
    iterations = 0
    degenerate = False  # the last step had length zero

    def mark(row_id, var, value):
        """Record whether a row is a member; a bound, or an array of them,
        by its variable."""
        if var is None:
            member[row_id] = value
        else:
            member[n_in + var] = member[n_in + n + var] = value

    def member_rhs():
        k, ids = active.n_eq, active.ids
        return np.concatenate([b_eq[ids[:k]], rhs[ids[k:]]])

    def step_to(row_id, normal, row_rhs, var):
        nonlocal d, iterations, degenerate
        # K_F normal and its products with E, renewed on a drop
        dependent = DEPENDENT_PIVOT * max(1.0, float(normal @ normal))
        y = hess.apply(normal)
        ny = active.normals @ y
        u_plus = 0.0  # multiplier of the incoming constraint, built up stepwise
        refreshed = False
        while True:
            iterations += 1
            if iterations > limit:
                raise InfeasibleSubproblem("active-set iteration limit")
            slack = row_rhs - float(normal @ d)
            if slack <= tol:
                # u_plus > 0 here only after a drop, so S^-1 ny is renewed
                if u_plus > 0.0:
                    r = active.gram_inverse @ ny
                    if not active.try_add(row_id, normal, u_plus, y, ny, r,
                                          float(normal @ y - ny @ r), var):
                        raise InfeasibleSubproblem("degenerate active set")
                mark(row_id, var, u_plus > 0.0)
                return
            z, r, r_b = active.directions(normal, y, ny)
            # the pivot of the row, the same number try_add tests
            z_dot = float(normal @ z)
            # Dual blocking test over the droppable members: the smallest
            # ratio, ties to the lowest id; the trailing inf stands for
            # "none blocks".
            mult, ids = active.inequality_members()
            rates = np.concatenate([r[active.n_eq:], r_b])
            ratios = np.full(rates.size + 1, math.inf)
            np.divide(mult, rates, out=ratios[:-1], where=rates > 1e-12)
            t1 = float(np.min(ratios))
            t2 = slack / z_dot if z_dot > dependent else math.inf
            t = min(t1, t2)
            if not math.isfinite(t):
                # proof of infeasibility, unless rounding faked it: check
                # once more against freshly computed factors
                if refreshed or active.q == 0 or active.refresh() is None:
                    raise InfeasibleSubproblem(
                        "no feasible point for QP constraints")
                refreshed = True
                ny = active.normals @ y
                continue
            if not math.isfinite(t * float(np.max(np.abs(z), initial=0.0))):
                # a pivot that rounding kept just above DEPENDENT_PIVOT
                raise InfeasibleSubproblem("non-finite step")
            degenerate = t == 0.0
            d = d + t * z
            u_plus += t
            active.step_multipliers(t, r, r_b)
            if t2 <= t1:
                if not active.try_add(row_id, normal, u_plus, y, ny, r, z_dot,
                                      var):
                    raise InfeasibleSubproblem("degenerate active set")
                mark(row_id, var, True)
                return
            ties = np.flatnonzero(ratios == t1)
            dropped, dropped_var = active.drop(int(ties[np.argmin(ids[ties])]))
            mark(dropped, dropped_var, False)
            if dropped_var is not None:
                y = hess.apply(normal)
            ny = active.normals @ y

    if n_eq:
        d = active.batch_init_equalities(a_eq, b_eq, d)
        if active.n_eq < n_eq:  # rows left out as dependent must hold too
            kept, gap = active.ids, a_eq @ d - b_eq
            left = np.delete(np.arange(n_eq), kept)
            # on the free columns a left-out row is c'(kept rows): net of
            # c'(their gaps), the rounding that d carries in every row cancels
            free = hess.free
            c = np.linalg.lstsq(a_eq[kept][:, free].T, a_eq[left][:, free].T,
                                rcond=None)[0]
            if np.max(np.abs(gap[left] - c.T @ gap[kept])) > tol:
                raise InfeasibleSubproblem("inconsistent equality rows")

    def resolve():
        """``_ActiveSet.resolve`` for the members: d and the multipliers
        afresh, or None with nothing changed."""
        var, side, _, _ = active.bounds
        d_fixed = np.zeros(n)
        d_fixed[pinned] = lo_vec[pinned]
        d_fixed[var] = np.where(side > 0.0, lo_vec[var], hi_vec[var])
        return active.resolve(g, d_fixed, member_rhs())

    # Blocked start: the equality-feasible minimizer's violated bounds are
    # nearly all active at the solution (188 of 194 on the first QP of a
    # K=30 squared scene, with 238 violated), so they become members at
    # once. Those whose multiplier comes out negative leave together, and
    # the rest is re-solved, until every multiplier is nonnegative; the
    # main loop then adds what is still violated. A single violated bound
    # takes the main loop's ordinary step, which costs less than a re-solve.
    start = np.flatnonzero(((d < lo_vec - tol) | (d > hi_vec + tol))
                           & hess.free)
    if start.size > 1:
        side = np.where(d[start] < lo_vec[start], 1.0, -1.0)
        ids = np.where(side > 0.0, n_in + start, n_in + n + start)
        active.fix_bounds(start, side, ids)
        mark(None, start, True)
        while True:
            iterations += 1
            d_new = resolve()
            if d_new is None:
                # the fixed variables leave some members dependent: free
                # those that appear in them, or all if none does
                var = active.bounds[0]
                rows = active.normals[active.dependent()]
                out = np.flatnonzero(np.any(rows[:, var] != 0.0, axis=0))
                if not out.size:
                    out = np.arange(active.nb)
                mark(None, active.release_bounds(out)[1], False)
                if not active.nb:
                    d = resolve()
                    if d is None:
                        raise InfeasibleSubproblem("degenerate active set")
                    break
                continue
            d = d_new
            mult = active.bounds[3]
            negative = np.flatnonzero(
                mult < -1e-9 * float(np.max(np.abs(mult), initial=1.0)))
            if not negative.size:
                active.clip_multipliers()
                break
            mark(None, active.release_bounds(negative)[1], False)

    resid = np.empty(n_in + 2 * n)
    settled = False
    while True:
        iterations += 1
        if iterations > limit:
            raise InfeasibleSubproblem("active-set iteration limit")
        np.subtract(a_in @ d, b_in, out=resid[:n_in])
        np.subtract(lo_vec, d, out=resid[n_in:n_in + n])
        np.subtract(d, hi_vec, out=resid[n_in + n:])
        np.copyto(resid, -np.inf, where=member)
        i = int(np.argmax(resid > tol if degenerate else resid))
        if not resid[i] > tol:
            # the members must hold as equalities: once per QP, re-solve if
            # they drifted by more than DRIFT_FACTOR * tol
            drift = active.normals @ d - member_rhs()
            if settled or not np.max(np.abs(drift), initial=0.0) > \
                    DRIFT_FACTOR * tol:
                break
            settled = True
            d_new = resolve()
            if d_new is not None:
                d = d_new
                active.clip_multipliers()
            continue
        var = None
        if i < n_in:
            normal = -a_in[i]
        else:
            var = (i - n_in) % n
            normal = np.zeros(n)
            normal[var] = 1.0 if i < n_in + n else -1.0
        step_to(i, normal, float(rhs[i]), var)

    ids, mult, k = active.ids, active.multipliers, active.n_eq
    lam_eq = np.zeros(n_eq)  # of A_eq d - b_eq = 0; 0 for rows left out
    lam_eq[ids[:k]] = -mult[:k]
    lam = np.zeros(n_in + 2 * n)
    lam[ids[k:]] = mult[k:]
    _, _, bound_ids, bound_mult = active.bounds
    lam[bound_ids] = bound_mult
    if pinned.size:
        # stationarity row j of a pinned variable is its multiplier
        mu = (hess.times(d) + g + a_eq.T @ lam_eq + a_in.T @ lam[:n_in])[pinned]
        lam[n_in + pinned] = np.maximum(mu, 0.0)
        lam[n_in + n + pinned] = np.maximum(-mu, 0.0)
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


def _elastic_qp(h, g, j_eq, c_eq, j_in, c_in, lo_step, hi_step):
    """Relaxed QP: scale constraint right-hand sides by xi in [0, 1].

    Variable vector (d, xi); xi = 0 is always feasible, the penalty pushes xi
    toward 1 (the original subproblem). Its Hessian is blockdiag(H, 2 rho).
    """
    n = g.shape[0]
    rho = 1e4 * max(1.0, float(np.max(np.abs(g))))
    g_aug = np.append(g, -2.0 * rho)  # from rho * (1 - xi)^2
    a_eq = np.hstack([j_eq, c_eq[:, None]])
    a_in = np.hstack([j_in, np.maximum(c_in, 0.0)[:, None]])
    result = solve_qp(h.augmented(2.0 * rho), g_aug, a_eq,
                      np.zeros(c_eq.shape[0]), a_in, -np.minimum(c_in, 0.0),
                      np.append(lo_step, 0.0), np.append(hi_step, 1.0))
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
    accepted_points = []  # (objective, l1 infeasibility), the last few
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
                qp = solve_qp(h, g, j_eq, -c_eq, j_ws, -c_ws, lo_step, hi_step)
            except (InfeasibleSubproblem, np.linalg.LinAlgError):
                logger.debug("elastic fallback at iteration %d", iteration)
                try:
                    qp = _elastic_qp(h, g, j_eq, c_eq, j_ws, c_ws,
                                     lo_step, hi_step)
                except (InfeasibleSubproblem, np.linalg.LinAlgError):
                    if not fresh_hessian:
                        # an ill-conditioned Hessian can defeat both QPs
                        logger.debug("hessian reset at iteration %d",
                                     iteration)
                        h.reset()
                        fresh_hessian = True
                        continue
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

        # No progress: the l1 merit at the current penalty fell by less
        # than NO_PROGRESS_DROP (relative) over NO_PROGRESS_WINDOW accepted
        # iterations.
        accepted_points.append((f, _merit(0.0, c_eq, c_in, 1.0)))
        if len(accepted_points) > NO_PROGRESS_WINDOW:
            f_old, infeasibility_old = accepted_points.pop(0)
            phi_old = f_old + mu * infeasibility_old
            if phi_old - _merit(f, c_eq, c_in, mu) <= \
                    NO_PROGRESS_DROP * abs(phi_old):
                status = "stalled"
                message = "no progress"
                break

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
