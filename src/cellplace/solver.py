"""SQP solver for small constrained nonlinear programs.

Layout: minimize f(z) subject to c_eq(z) = 0, c_in(z) <= 0 and box bounds.
Each iteration builds a convex QP from a damped-BFGS Lagrangian Hessian and
linearized constraints, solves it with a dual active-set method
(Goldfarb-Idnani flavour: start at the unconstrained optimum, add violated
constraints one at a time, drop blocking ones), and globalizes with an
l1-merit backtracking line search. The Hessian is kept in the compact form of
Byrd, Nocedal and Schnabel (1994): a diagonal plus m = 2r columns for the
damped pairs of the accepted steps, the one form the QP takes; it is never
formed or factored as an n x n matrix. As in qpOASES (Ferreau et al., 2014),
an active bound fixes its variable. The QP keeps one inverse, of a matrix of
order m + q that couples the Hessian's columns with the q general active
rows, and follows the active set by rank-one updates of it; one routine
rebuilds it from the members, with one test for dependent rows. The bounds
that the QP's starting point violates are fixed in one block. Infeasible
subproblems are retried in an elastic form where a scalar relaxation
variable scales the constraint right-hand sides, and a QP that fails in both
forms is retried once with a reset Hessian. A start stops when the l1 merit
stops falling.

All randomness (multistart sampling) flows through one seeded generator, so
results are reproducible bit for bit for a fixed BLAS thread count.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
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

def _times(hessian, v):
    """H v for the compact H = diag(b0) + U diag(sign) U' given as the
    triple (b0, U, sign)."""
    b0, u, sign = hessian
    return b0 * v + u @ (sign * (u.T @ v))


class DampedBfgs:
    """Powell-damped BFGS matrix B in compact form, with B0 = diag(b0).

    Every accepted pair (s, y) is kept; ``reset`` drops them all. B is the
    sum of the rank-one terms of the updates,
    B = B0 + sum_i (y_i y_i'/s_i'y_i - u_i u_i'/s_i'u_i) with u_i the
    product of s_i and the matrix before update i, kept as
    B = diag(b0) + U diag(sign) U': the columns y_i / sqrt(s_i'y_i)
    (sign +1) of all pairs, then the columns u_i / sqrt(s_i'u_i) (sign -1).
    ``compact`` hands the triple to the QP; ``times`` applies it.
    """

    def __init__(self, b0: np.ndarray):
        self.b0 = np.asarray(b0, float)
        self.reset()

    def reset(self) -> None:
        self.u = np.empty((self.b0.size, 0))
        self.sign = np.empty(0)

    def times(self, v: np.ndarray) -> np.ndarray:
        """B v for one vector."""
        return _times(self.compact(), v)

    def compact(self):
        """(b0, U, sign) with B = diag(b0) + U diag(sign) U'."""
        return self.b0, self.u, self.sign

    def update(self, s: np.ndarray, y: np.ndarray) -> None:
        """Add the pair (s, y), damped so that B stays positive definite."""
        bs = self.times(s)
        shs = float(s @ bs)
        sy = float(s @ y)
        # the +1 columns' terms bound what B adds to B0, so the bracket
        # bounds |B|: the pair's curvature must stand above its floor
        r = self.sign.size // 2
        plus = self.u[:, :r]
        b_norm = float(np.max(self.b0)) + float(np.sum(plus * plus))
        if shs <= max(1e-14, CURVATURE_FLOOR * b_norm * float(s @ s)):
            return
        if sy < 0.2 * shs:
            theta = 0.8 * shs / (shs - sy)
            y = theta * y + (1.0 - theta) * bs
            sy = float(s @ y)
        if sy <= 1e-14:
            return
        self.u = np.column_stack([plus, y / math.sqrt(sy), self.u[:, r:],
                                  bs / math.sqrt(shs)])
        self.sign = np.repeat([1.0, -1.0], r + 1)


# ---------------------------------------------------------------------------
# dual active-set QP
# ---------------------------------------------------------------------------

class _ActiveSet:
    """Active rows of the dual QP, with one inverse that follows them.

    Each member is one row n'd >= rhs, kept with its integer row id (see
    ``solve_qp``). A bound member (normal e_j or -e_j) fixes variable j at
    the value where its row holds; it keeps its multiplier, and its dual
    direction comes from row j of the stationarity condition. The general
    members E, the ``n_eq`` equality rows first (installed by
    ``batch_init_equalities``, never dropped), are the last q columns of

        G = [U, N_E']   (one n x (m + capacity) Fortran buffer)

    after the m columns of the compact H = diag(b0) + U diag(sign) U'. With
    h = 1/b0 on the free variables and 0 on the fixed ones, the set keeps
    only P = T^-1, where

        T = blockdiag(diag(sign), 0) + G' diag(h) G   ((m + q)-square).

    T is the KKT matrix of the QP over the free variables once H's columns
    are extra unknowns: for an entering row a, xi = T^-1 G' h a gives the
    primal direction z = h (a - G xi), the dual directions xi[m:] over E
    and, for a bound member on variable j, side_j (a - G xi)_j
    (``directions``). T is indefinite; the trailing q x q block of P is
    S^-1, S = N_E K_F N_E' with K_F the inverse of H over the free
    variables, positive definite while the members are independent.

    Each change of the set is one update of P. Fixing j (h_j -> 0) and
    adding a general row a both give P += xi xi'/rho with rho = a'z, the
    pivot ``try_add`` tests; the addition then borders P by -xi/rho and
    1/rho. Freeing j is a Sherman-Morrison update with G's row j, and
    dropping a general member deletes its row and column of P by the Schur
    formula. Solves with P take one step of iterative refinement against T,
    applied through G, which restores the digits the updates lose.
    ``rebuild`` forms P afresh from the members, and a solve calls it when
    its refinement step shows that P no longer inverts T.
    """

    def __init__(self, hessian, free, at, capacity):
        b0, u, self._sign = hessian
        n, self.m = u.shape
        self.hessian = hessian
        self._h = np.where(free, 1.0 / b0, 0.0)
        self._at = at  # fixed variables' values; bound members set theirs
        self.q = self.n_eq = 0  # general members, equality rows first
        self._g = np.empty((n, self.m + capacity), order="F")
        self._g[:, :self.m] = u
        self._p = None  # P, formed by the first rebuild
        self._rhs = np.empty(capacity)
        self._mult = np.empty(capacity)
        self._ids = np.empty(capacity, dtype=np.intp)
        self.nb = 0  # bound members: variable, +1 lower / -1 upper, id
        self._var = np.empty(n, dtype=np.intp)
        self._side = np.empty(n)
        self._bid = np.empty(n, dtype=np.intp)
        self._bmult = np.empty(n)

    @property
    def free(self):
        return self._h > 0.0

    @property
    def columns(self):
        """G = [U, N_E']."""
        return self._g[:, :self.m + self.q]

    @property
    def inverse(self):
        """P = T^-1, in Fortran order."""
        return self._p

    @property
    def normals(self):
        return self._g[:, self.m:self.m + self.q].T

    @property
    def rhs(self):
        return self._rhs[:self.q]

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

    def solve(self, b):
        """T^-1 b by P, with one step of iterative refinement against T.
        A refinement step longer than the solution shows that P no longer
        inverts T; P is then formed afresh, once."""
        g, m = self.columns, self.m
        for fresh in (False, True):
            x = self._p @ b
            tx = g.T @ (self._h * (g @ x))
            tx[:m] += self._sign * x[:m]
            dx = self._p @ (b - tx)
            if fresh or not float(dx @ dx) > float(x @ x):
                return x + dx
            if self.rebuild()[0] is not None:
                raise InfeasibleSubproblem("degenerate active set")

    def _project(self, v, e=None):
        """xi = T^-1 (G' h v - [0; e]) and v - G xi."""
        g = self.columns
        b = g.T @ (self._h * v)
        if e is not None:
            b[self.m:] -= e
        xi = self.solve(b)
        return xi, v - g @ xi

    def directions(self, normal):
        """xi (see the class), the primal direction z and the dual
        directions r over E and r_b over the bound members for a candidate
        normal."""
        xi, v = self._project(normal)
        var, side, _, _ = self.bounds
        return xi, self._h * v, xi[self.m:], side * v[var]

    def inequality_members(self):
        """Multipliers and ids of the droppable members, general first: the
        positions ``drop`` takes."""
        k, q = self.n_eq, self.q
        return (np.concatenate([self._mult[k:q], self._bmult[:self.nb]]),
                np.concatenate([self._ids[k:q], self._bid[:self.nb]]))

    def step_multipliers(self, t, r, r_b):
        self._mult[:self.q] -= t * r
        self._bmult[:self.nb] -= t * r_b

    def try_add(self, row_id, normal, row_rhs, multiplier, xi, rho,
                var=None) -> bool:
        """Add the row normal'd >= row_rhs given its xi and pivot rho = a'z
        (``directions``); a bound on variable ``var`` fixes it. False if the
        row depends on the members."""
        k = self.m + self.q
        if rho <= DEPENDENT_PIVOT * max(1.0, float(normal @ normal)):
            return False
        if var is None and self.q == self._mult.size:
            return False
        if k:
            dger(1.0 / rho, xi, xi, a=self._p, overwrite_a=1)
        if var is not None:
            self._h[var] = 0.0
            self._at[var] = normal[var] * row_rhs
            nb = self.nb
            self._var[nb], self._side[nb] = var, normal[var]
            self._bid[nb], self._bmult[nb] = row_id, multiplier
            self.nb = nb + 1
            return True
        p = np.empty((k + 1, k + 1), order="F")
        p[:k, :k] = self._p
        p[k, :k] = p[:k, k] = -xi / rho
        p[k, k] = 1.0 / rho
        self._p = p
        q = self.q
        self._g[:, k] = normal
        self._rhs[q] = row_rhs
        self._mult[q] = multiplier
        self._ids[q] = row_id
        self.q = q + 1
        return True

    def drop(self, position):
        """Remove the droppable member at ``position`` (as in
        ``inequality_members``); returns its row id and, for a bound, its
        variable (else None)."""
        q, general = self.q, self.q - self.n_eq
        k = self.m + q
        if position < general:
            p = self.n_eq + position
            row_id = int(self._ids[p])
            for a in (self._rhs, self._mult, self._ids):
                a[p:q - 1] = a[p + 1:q]
            i = self.m + p
            self._g[:, i:k - 1] = self._g[:, i + 1:k]
            keep = np.delete(np.arange(k), i)
            col = self._p[keep, i]
            inv = np.asfortranarray(self._p[np.ix_(keep, keep)])
            if keep.size:
                dger(-1.0 / self._p[i, i], col, col, a=inv, overwrite_a=1)
            self._p = inv
            self.q = q - 1
            return row_id, None
        b, nb = position - general, self.nb
        var, row_id = int(self._var[b]), int(self._bid[b])
        for a in (self._var, self._side, self._bid, self._bmult):
            a[b:nb - 1] = a[b + 1:nb]
        self.nb = nb - 1
        # T gains c g g' with g G's row j and c = 1/b0_j
        c = 1.0 / self.hessian[0][var]
        if k:
            gj = self._g[var, :k]
            w = self.solve(gj)
            dger(-c / (1.0 + c * float(gj @ w)), w, w, a=self._p,
                 overwrite_a=1)
        self._h[var] = c
        return row_id, var

    def rebuild(self, g=None):
        """P afresh from the free set and the general members, by M^-1 for
        M = diag(sign) + U' h U, T's leading block, and one Cholesky factor
        of S with try_add's test on its pivots; returns (dependent, d).

        If a pivot fails, P stays and ``dependent`` holds the positions of
        the general members outside the rank of S, by a pivoted Cholesky
        (LAPACK dpstrf) with the same test; more members than free
        variables are dependent, though rounding may pass them. Else it is
        None and, given the QP's g, d is the minimizer with the fixed
        variables at their values and each general member n'd = rhs, with
        the members' multipliers re-solved to match.
        """
        _, u, sign = self.hessian
        h, m, q = self._h, self.m, self.q
        mid = u.T @ (h[:, None] * u)
        mid[np.diag_indices(m)] += sign
        mid_inv = np.linalg.inv(mid) if m else mid
        if q:
            normals = self.normals
            nh = normals * h
            x = nh @ u
            # M^-1 (U' h N_E'), refined once against M
            w = mid_inv @ x.T
            w += mid_inv @ (x.T - mid @ w)
            s = nh @ normals.T - x @ w
            s = 0.5 * (s + s.T)
            scale = np.maximum(1.0, np.einsum("ij,ij->i", normals, normals))
            n_free = np.count_nonzero(h)
            chol, info = dpotrf(s, lower=0, clean=1)
            if info or q > n_free \
                    or np.any(np.diag(chol) ** 2 <= DEPENDENT_PIVOT * scale):
                # on s / sqrt(scale scale'), dpstrf's absolute stop on the
                # squared pivots is the same relative test
                _, piv, rank, _ = dpstrf(s / np.sqrt(np.outer(scale, scale)),
                                         tol=DEPENDENT_PIVOT)
                return np.sort(piv[min(rank, n_free):] - 1), None
            s_inv, _ = dpotri(chol, lower=0)
            s_inv = np.triu(s_inv) + np.triu(s_inv, 1).T
            ws = w @ s_inv
            self._p = np.asfortranarray(np.block([[mid_inv + ws @ w.T, -ws],
                                                  [-ws.T, s_inv]]))
        else:
            self._p = np.asfortranarray(mid_inv)
        if g is None:
            return None, None
        # d = d0 + h (c - G xi) with d0 the fixed values: the members'
        # multipliers are -xi[m:], and row j of the stationarity condition
        # gives a bound member's
        d = np.where(h > 0.0, 0.0, self._at)
        xi, v = self._project(-(g + _times(self.hessian, d)),
                              self.rhs - self.normals @ d)
        d += h * v
        self._mult[:q] = -xi[m:]
        var, side, _, _ = self.bounds
        self._bmult[:self.nb] = -side * v[var]
        return None, d

    def fix_bounds(self, var, side, ids, rhs):
        """Make bound members of the variables ``var`` (rows
        side * d_var >= rhs, sides +1 lower, -1 upper, row ids ``ids``) at
        once, leaving P and the multipliers to ``rebuild``."""
        nb, k = self.nb, var.size
        self._var[nb:nb + k], self._side[nb:nb + k] = var, side
        self._bid[nb:nb + k], self._bmult[nb:nb + k] = ids, 0.0
        self.nb = nb + k
        self._at[var] = side * rhs
        self._h[var] = 0.0

    def release_bounds(self, positions):
        """Drop the bound members at these positions among the bound
        members at once, leaving P and the rest to ``rebuild``; returns
        their row ids and variables."""
        gone = self._bid[positions].copy(), self._var[positions].copy()
        keep = np.delete(np.arange(self.nb), positions)
        for a in (self._var, self._side, self._bid, self._bmult):
            a[:keep.size] = a[keep]
        self.nb = keep.size
        self._h[gone[1]] = 1.0 / self.hessian[0][gone[1]]
        return gone

    def clip_multipliers(self):
        """Zero the inequality members' multipliers that rounding left
        below zero."""
        np.maximum(self._mult[self.n_eq:self.q], 0.0,
                   out=self._mult[self.n_eq:self.q])
        np.maximum(self._bmult[:self.nb], 0.0, out=self._bmult[:self.nb])

    def batch_init_equalities(self, a_eq, b_eq, g):
        """Install the rows a_eq d = b_eq as the first members of an empty
        set and return the minimizer over them (see ``rebuild``). Rows that
        the rebuild finds dependent are left out (``ids`` names the rows
        kept; the caller checks the others) and the rest rebuilt once more;
        raises InfeasibleSubproblem if that is refused too."""
        keep = np.arange(a_eq.shape[0])
        m = self.m
        while True:
            k = keep.size
            self._g[:, m:m + k] = a_eq[keep].T
            self._rhs[:k] = b_eq[keep]
            self._ids[:k] = keep
            self.q = self.n_eq = k
            dependent, d = self.rebuild(g)
            if dependent is None:
                return d
            if k < a_eq.shape[0]:
                raise InfeasibleSubproblem("dependent equality rows")
            keep = np.delete(keep, dependent)


def solve_qp(hessian, g: np.ndarray,
             a_eq: np.ndarray | None = None, b_eq: np.ndarray | None = None,
             a_in: np.ndarray | None = None, b_in: np.ndarray | None = None,
             lower: np.ndarray | None = None, upper: np.ndarray | None = None
             ) -> QpResult:
    """Minimize 0.5 d'Hd + g'd s.t. A_eq d = b_eq, A_in d <= b_in, lower <= d <= upper.

    H is positive definite, given in compact form as the triple
    (b0, U, sign) with H = diag(b0) + U diag(sign) U' that
    ``DampedBfgs.compact`` returns. Raises InfeasibleSubproblem when the
    constraints admit no point.

    Every inequality is one row n_i'd >= rhs_i with an integer id i: the
    general rows -A_in d >= -b_in take ids [0, n_in), the lower bounds
    d >= lower [n_in, n_in + n) and the upper bounds -d >= -upper
    [n_in + n, n_in + 2n). An active bound fixes its variable, and a
    variable whose bounds coincide is fixed from the start. The other
    members are the columns of G = [U, N_E'] next to U, and the QP keeps one
    inverse P of T = blockdiag(diag(sign), 0) + G' diag(h) G, with h = 1/b0
    on the free variables and 0 on the fixed ones, through which every step
    computes its primal and dual directions (see ``_ActiveSet``). The
    equality rows, by their index in A_eq, form a prefix of the active set
    that is never dropped. They enter in one blocked step, which
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

    free = lo_vec != hi_vec
    pinned = np.flatnonzero(~free)
    # members, which the main loop never enters again: the general rows by
    # id, a fixed variable by both of its bound ids
    member = np.zeros(n_in + 2 * n, dtype=bool)
    member[n_in + pinned] = member[n_in + n + pinned] = True
    # room for every equality row, which the install loads before it
    # leaves out the dependent ones
    active = _ActiveSet(hessian, free, np.where(free, 0.0, lo_vec),
                        max(n_eq, min(n, n_eq + n_in)))

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

    def step_to(row_id, normal, row_rhs, var):
        nonlocal d, iterations, degenerate
        dependent = DEPENDENT_PIVOT * max(1.0, float(normal @ normal))
        u_plus = 0.0  # multiplier of the incoming constraint, built up stepwise
        rebuilt = False
        while True:
            iterations += 1
            if iterations > limit:
                raise InfeasibleSubproblem("active-set iteration limit")
            slack = row_rhs - float(normal @ d)
            if slack <= tol:
                # u_plus > 0 here only after a drop, which changed P
                if u_plus > 0.0:
                    xi, z, _, _ = active.directions(normal)
                    if not active.try_add(row_id, normal, row_rhs, u_plus, xi,
                                          float(normal @ z), var):
                        raise InfeasibleSubproblem("degenerate active set")
                mark(row_id, var, u_plus > 0.0)
                return
            xi, z, r, r_b = active.directions(normal)
            z_max = float(np.max(np.abs(z), initial=0.0))
            if not math.isfinite(z_max):
                # z overflowed as P grew through rank-one updates: no proof
                # of infeasibility
                raise InfeasibleSubproblem("non-finite step")
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
                # once more against a freshly computed P
                if rebuilt or active.rebuild()[0] is not None:
                    raise InfeasibleSubproblem(
                        "no feasible point for QP constraints")
                rebuilt = True
                continue
            if not math.isfinite(t * z_max):
                raise InfeasibleSubproblem("non-finite step")
            degenerate = t == 0.0
            d = d + t * z
            u_plus += t
            active.step_multipliers(t, r, r_b)
            if t2 <= t1:
                if not active.try_add(row_id, normal, row_rhs, u_plus, xi,
                                      z_dot, var):
                    raise InfeasibleSubproblem("degenerate active set")
                mark(row_id, var, True)
                return
            ties = np.flatnonzero(ratios == t1)
            dropped, dropped_var = active.drop(int(ties[np.argmin(ids[ties])]))
            mark(dropped, dropped_var, False)

    d = active.batch_init_equalities(a_eq, b_eq, g)
    if active.n_eq < n_eq:  # rows left out as dependent must hold too
        kept, gap = active.ids, a_eq @ d - b_eq
        left = np.delete(np.arange(n_eq), kept)
        # on the free columns a left-out row is c'(kept rows): net of
        # c'(their gaps), the rounding that d carries in every row cancels
        c = np.linalg.lstsq(a_eq[kept][:, free].T, a_eq[left][:, free].T,
                            rcond=None)[0]
        if np.max(np.abs(gap[left] - c.T @ gap[kept])) > tol:
            raise InfeasibleSubproblem("inconsistent equality rows")

    # Blocked start: the equality-feasible minimizer's violated bounds are
    # nearly all active at the solution (188 of 194 on the first QP of a
    # K=30 squared scene, with 238 violated), so they become members at
    # once. Those whose multiplier comes out negative leave together, and
    # the rest is re-solved, until every multiplier is nonnegative; the
    # main loop then adds what is still violated. A single violated bound
    # takes the main loop's ordinary step, which costs less than a re-solve.
    start = np.flatnonzero(((d < lo_vec - tol) | (d > hi_vec + tol)) & free)
    if start.size > 1:
        side = np.where(d[start] < lo_vec[start], 1.0, -1.0)
        ids = np.where(side > 0.0, n_in + start, n_in + n + start)
        active.fix_bounds(start, side, ids, rhs[ids])
        mark(None, start, True)
        while True:
            iterations += 1
            dependent, d_new = active.rebuild(g)
            if dependent is not None:
                # the fixed variables leave some members dependent: free
                # those that appear in them, or all if none does
                if not active.nb:
                    raise InfeasibleSubproblem("degenerate active set")
                rows = active.normals[dependent]
                out = np.flatnonzero(np.any(rows[:, active.bounds[0]] != 0.0,
                                            axis=0))
                if not out.size:
                    out = np.arange(active.nb)
                mark(None, active.release_bounds(out)[1], False)
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
            drift = active.normals @ d - active.rhs
            if settled or not np.max(np.abs(drift), initial=0.0) > \
                    DRIFT_FACTOR * tol:
                break
            settled = True
            dependent, d_new = active.rebuild(g)
            if dependent is None:
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
        mu = (_times(hessian, d) + g + a_eq.T @ lam_eq
              + a_in.T @ lam[:n_in])[pinned]
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


def _elastic_qp(hessian, g, j_eq, c_eq, j_in, c_in, lo_step, hi_step):
    """Relaxed QP: scale constraint right-hand sides by xi in [0, 1].

    Variable vector (d, xi); xi = 0 is always feasible, the penalty pushes xi
    toward 1 (the original subproblem). Its Hessian blockdiag(H, 2 rho) is
    H's compact form with one more entry of b0 and a zero row of U.
    """
    n = g.shape[0]
    b0, u, sign = hessian
    rho = 1e4 * max(1.0, float(np.max(np.abs(g))))
    g_aug = np.append(g, -2.0 * rho)  # from rho * (1 - xi)^2
    a_eq = np.hstack([j_eq, c_eq[:, None]])
    a_in = np.hstack([j_in, np.maximum(c_in, 0.0)[:, None]])
    augmented = (np.append(b0, 2.0 * rho),
                 np.vstack([u, np.zeros((1, u.shape[1]))]), sign)
    result = solve_qp(augmented, g_aug, a_eq,
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
                qp = solve_qp(h.compact(), g, j_eq, -c_eq, j_ws, -c_ws,
                              lo_step, hi_step)
            except (InfeasibleSubproblem, np.linalg.LinAlgError):
                logger.debug("elastic fallback at iteration %d", iteration)
                try:
                    qp = _elastic_qp(h.compact(), g, j_eq, c_eq, j_ws, c_ws,
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
