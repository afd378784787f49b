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
rebuilds it from the members, with one test for dependent rows. Every
constraint row, from the Jacobians through the QP's members, has one shape
(``Rows``): a dense block over the leading p variables plus a short sparse
tail. A placement program's rows are a 6-column block over the placement
and a tail fixed per program (its slack, |v| epigraph and simplex entries),
so no (rows x n) array is formed; a plain array is the case p = n. The bounds
that the QP's starting point violates are fixed in one block. A QP that
fails, or a step that the line search rejects, is retried once with a reset
Hessian; if the retry fails too, the start stops "stalled". The placement
program's linearizations are feasible by construction (its slacks and |v|
epigraph variables absorb any violation), so there a failed QP is a
numerical breakdown. A start also stops when the l1 merit stops falling.
The evaluator answers a repeated request for its last point without calling
the program again, and a caller may hand solve a QpMemo, which returns a QP
subproblem's stored result when every input matches one it solved, byte for
byte; both are exact because the callbacks and solve_qp are deterministic.

All randomness (multistart sampling) flows through one seeded generator, so
results are reproducible bit for bit for a fixed BLAS thread count: OpenBLAS
splits large matrix products among its threads in ways that can move their
last bits.
"""
from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

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

# solve_qp results a QpMemo keeps, least recently used first out
QP_MEMO_SIZE = 64


@dataclass
class NlpSpec:
    """Problem description handed to the solver.

    Constraint convention: equalities c_eq(z) = 0, inequalities c_in(z) <= 0.
    ``jacobians`` returns (J_eq, J_in), one row per constraint, each either
    a plain (rows, n) array ((0, n) when there are none) or ``Rows``: a
    dense block over the leading p variables, which changes with z, plus a
    tail whose columns and values are the same on every call.
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
# constraint rows
# ---------------------------------------------------------------------------

class Rows:
    """Constraint rows over n variables, each a dense block over the leading
    p variables plus a sparse tail of t (column, value) pairs.

    ``block`` is (r, p); ``cols`` and ``vals`` are (r, t). Tail entries lie
    past the block, and tail entries that share a column add up; a row with
    fewer than t of them is padded with value 0 at any column. A plain
    (r, n) array is the case p = n with an empty tail (``Rows.of``). The
    products sum the tail in a fixed order: by row in ``dot`` and by entry
    (row-major) in ``tdot``.
    """

    __slots__ = ("block", "cols", "vals", "n", "p", "t", "_cf", "_vf")

    def __init__(self, block, cols=None, vals=None, n=None):
        self.block = block
        self.p = block.shape[1]
        self.n = self.p if n is None else n
        if cols is None:
            cols, vals = np.empty((block.shape[0], 0), np.intp), \
                np.empty((block.shape[0], 0))
        self.cols, self.vals = cols, vals
        # tail entries per row; 0 also when there are no rows
        self.t = vals.shape[1] if vals.size else 0
        self._cf, self._vf = cols.ravel(), vals.ravel()

    @classmethod
    def of(cls, a, n: int, p: int | None = None) -> "Rows":
        """``a`` as Rows with a block of p columns (n when None): a Rows
        whose block already has p columns as it is, anything else through
        its dense (r, n) form, whose columns past p become a dense tail."""
        p = n if p is None else p
        if isinstance(a, Rows):
            if a.p == p:
                return a
            a = a.dense()
        a = np.asarray(a, float).reshape(-1, n)
        if p == n or not a.shape[0]:
            return cls(a[:, :p], n=n)
        return cls(a[:, :p], np.tile(np.arange(p, n), (a.shape[0], 1)),
                   a[:, p:], n)

    @property
    def shape(self):
        return self.block.shape[0], self.n

    def __getitem__(self, rows) -> "Rows":
        """The rows an index array or a boolean mask picks, as Rows."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return Rows(self.block.take(rows, 0), self.cols.take(rows, 0),
                    self.vals.take(rows, 0), self.n)

    def __neg__(self) -> "Rows":
        return Rows(-self.block, self.cols, -self.vals, self.n)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A x for an n-vector x."""
        out = self.block @ x[:self.p]
        if self.t == 1:
            out += self._vf * x[self._cf]
        elif self.t:
            out += np.add.reduce(self.vals * x[self.cols], axis=1)
        return out

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """A'y, an n-vector, for one value per row."""
        if self.t:
            out = np.bincount(self._cf, self._vf * y if self.t == 1 else
                              (self.vals * y[:, None]).ravel(), self.n)
        elif self.p == self.n:
            return y @ self.block
        else:
            out = np.zeros(self.n)
            if not y.size:
                return out
        out[:self.p] = y @ self.block
        return out

    def row(self, i: int) -> np.ndarray:
        """Row i as a dense n-vector."""
        if self.t:
            out = np.bincount(self.cols[i], self.vals[i], minlength=self.n)
        else:
            out = np.zeros(self.n)
        out[:self.p] = self.block[i]
        return out

    def dense(self) -> np.ndarray:
        """The rows as one (r, n) array."""
        r = self.block.shape[0]
        out = np.zeros((r, self.n))
        out[:, :self.p] = self.block
        for j in range(self.vals.shape[1]):
            out[np.arange(r), self.cols[:, j]] += self.vals[:, j]
        return out


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

def _rank_one(p, alpha, x):
    """p += alpha x x' in place, for a column-major p. The sum runs
    through p' (C order), so that it and the C-ordered outer product share
    one memory order."""
    pt = p.T
    pt += (alpha * x)[:, None] * x


def _pivoted_rank(s):
    """Pivoted Cholesky of the symmetric s: its rows in pivot order, each
    the largest remaining diagonal (ties to the first in the current
    order), and the rank, the number of pivots before the first squared
    pivot <= DEPENDENT_PIVOT."""
    s = s.copy()
    order = np.arange(s.shape[0])
    for r in range(order.size):
        rest = order[r:]
        j = r + int(np.argmax(s[rest, rest]))
        if not s[order[j], order[j]] > DEPENDENT_PIVOT:
            return order, r
        order[[r, j]] = order[[j, r]]
        col = s[:, order[r]] / math.sqrt(s[order[r], order[r]])
        s -= np.outer(col, col)
    return order, order.size


class _ActiveSet:
    """Active rows of the dual QP, with one inverse that follows them.

    Each member is one row n'd >= rhs, kept with its integer row id (see
    ``solve_qp``). A bound member (normal e_j or -e_j) fixes variable j at
    the value where its row holds; it keeps its multiplier, and its dual
    direction comes from row j of the stationarity condition. The general
    members E, the ``n_eq`` equality rows first (installed by
    ``batch_init_equalities``, never dropped), are the last q columns of

        G = [U, N_E']

    after the m columns of the compact H = diag(b0) + U diag(sign) U'. G is
    never formed: U keeps its n-long columns, and N_E is ``members``, rows
    of the QP's shape kept in a (capacity x p) block and (capacity x t) tail
    buffers, so G x and G'w are U's products plus a p-column product, a
    gather and a bincount. With h = 1/b0 on the free variables and 0 on the
    fixed ones, the set keeps only P = T^-1, where

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
    formula. P is the leading block of one preallocated Fortran buffer, so
    each of these updates runs in place. Solves with P take one step of
    iterative refinement against T, applied through G, which restores the
    digits the updates lose. ``rebuild`` forms P afresh from the members
    (expanded to dense rows once), and a solve calls it when its refinement
    step shows that P no longer inverts T.
    """

    def __init__(self, hessian, free, at, capacity, p=None, t=0):
        b0, self._u, self._sign = hessian
        n, self.m = self._u.shape
        p = n if p is None else p
        self.hessian = hessian
        self._h = np.where(free, 1.0 / b0, 0.0)
        self._at = at  # fixed variables' values; bound members set theirs
        # the general members' rows: a block over the first p variables
        # and tails of t entries
        self._blk = np.empty((capacity, p))
        self._cols = np.zeros((capacity, t), dtype=np.intp)
        self._vals = np.zeros((capacity, t))
        self.n_eq = 0  # general members, equality rows first
        self._resize(0)
        # P = T^-1 is the leading (m + q)-square block of one Fortran
        # buffer, bordered and shrunk in place; formed by the first rebuild
        self._pbuf = np.empty((self.m + capacity,) * 2, order="F")
        self._p = None
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

    def _resize(self, q):
        """Make the first q general members the set's; ``members`` views
        their rows."""
        self.q = q
        self.members = Rows(self._blk[:q], self._cols[:q], self._vals[:q],
                            self._h.size)

    @property
    def columns(self):
        """G = [U, N_E'], formed as one dense array."""
        return np.hstack([self._u, self.normals.T])

    @property
    def inverse(self):
        """P = T^-1, a column-major view into the buffer."""
        return self._p

    @property
    def normals(self):
        """N_E, formed as one dense array."""
        return self.members.dense()

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
        m = self.m
        for fresh in (False, True):
            x = self._p @ b
            tx = self._gt(self._h * self._g(x))
            if m:
                tx[:m] += self._sign * x[:m]
            dx = self._p @ (b - tx)
            if fresh or not float(dx @ dx) > float(x @ x):
                return x + dx
            if self.rebuild()[0] is not None:
                raise InfeasibleSubproblem("degenerate active set")

    def _g(self, x):
        """G x, an n-vector."""
        out = self.members.tdot(x[self.m:])
        if self.m:
            out += self._u @ x[:self.m]
        return out

    def _gt(self, w):
        """G'w for an n-vector w."""
        if self.m:
            return np.concatenate([w @ self._u, self.members.dot(w)])
        return self.members.dot(w)

    def _project(self, v, e=None):
        """xi = T^-1 (G' h v - [0; e]) and v - G xi."""
        b = self._gt(self._h * v)
        if e is not None:
            b[self.m:] -= e
        xi = self.solve(b)
        return xi, v - self._g(xi)

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
                var=None, tail=None) -> bool:
        """Add the row normal'd >= row_rhs given its xi and pivot rho = a'z
        (``directions``); a bound on variable ``var`` fixes it. A general
        row keeps normal's block columns and its ``tail`` (columns, values),
        which must hold its entries past the block (None: it has none).
        False if the row depends on the members."""
        k = self.m + self.q
        if rho <= DEPENDENT_PIVOT * max(1.0, float(normal @ normal)):
            return False
        if var is None and self.q == self._mult.size:
            return False
        _rank_one(self._p, 1.0 / rho, xi)
        if var is not None:
            self._h[var] = 0.0
            self._at[var] = normal[var] * row_rhs
            nb = self.nb
            self._var[nb], self._side[nb] = var, normal[var]
            self._bid[nb], self._bmult[nb] = row_id, multiplier
            self.nb = nb + 1
            return True
        p = self._pbuf
        p[k, :k] = p[:k, k] = -xi / rho
        p[k, k] = 1.0 / rho
        self._p = p[:k + 1, :k + 1]
        q = self.q
        self._blk[q] = normal[:self._blk.shape[1]]
        t = 0
        if tail is not None:
            t = tail[0].size
            self._cols[q, :t], self._vals[q, :t] = tail
        self._vals[q, t:] = 0.0
        self._rhs[q] = row_rhs
        self._mult[q] = multiplier
        self._ids[q] = row_id
        self._resize(q + 1)
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
            for a in (self._rhs, self._mult, self._ids, self._blk,
                      self._cols, self._vals):
                a[p:q - 1] = a[p + 1:q]
            i = self.m + p
            p = self._pbuf
            col = np.delete(p[:k, i], i)
            alpha = -1.0 / p[i, i]
            p[:k, i:k - 1] = p[:k, i + 1:k]
            p[i:k - 1, :k - 1] = p[i + 1:k, :k - 1]
            self._p = p[:k - 1, :k - 1]
            _rank_one(self._p, alpha, col)
            self._resize(q - 1)
            return row_id, None
        b, nb = position - general, self.nb
        var, row_id = int(self._var[b]), int(self._bid[b])
        for a in (self._var, self._side, self._bid, self._bmult):
            a[b:nb - 1] = a[b + 1:nb]
        self.nb = nb - 1
        # T gains c g g' with g G's row j and c = 1/b0_j
        c = 1.0 / self.hessian[0][var]
        unit = np.zeros(self._h.size)
        unit[var] = 1.0
        gj = self._gt(unit)
        w = self.solve(gj)
        _rank_one(self._p, -c / (1.0 + c * float(gj @ w)), w)
        self._h[var] = c
        return row_id, var

    def rebuild(self, g=None):
        """P afresh from the free set and the general members, by M^-1 for
        M = diag(sign) + U' h U, T's leading block, and one Cholesky factor
        of S with try_add's test on its pivots; returns (dependent, d).

        If a pivot fails, P stays and ``dependent`` holds the positions of
        the general members outside the rank of S, by a pivoted Cholesky
        with the same test; more members than free variables are dependent,
        though rounding may pass them. Else it is None and, given the QP's
        g, d is the minimizer with the fixed variables at their values and
        each general member n'd = rhs, with the members' multipliers
        re-solved to match.
        """
        _, u, sign = self.hessian
        h, m, q = self._h, self.m, self.q
        # H's columns take part only when there are any (m > 0)
        if m:
            mid = u.T @ (h[:, None] * u)
            mid[np.diag_indices(m)] += sign
            mid_inv = np.linalg.inv(mid)
        if q:
            normals = self.normals
            nh = normals * h
            s = nh @ normals.T
            if m:
                x = nh @ u
                # M^-1 (U' h N_E'), refined once against M
                w = mid_inv @ x.T
                w += mid_inv @ (x.T - mid @ w)
                s -= x @ w
            s = 0.5 * (s + s.T)
            scale = np.maximum(1.0, np.einsum("ij,ij->i", normals, normals))
            n_free = np.count_nonzero(h)
            try:
                chol = np.linalg.cholesky(s)
                independent = np.all(np.diag(chol) ** 2
                                     > DEPENDENT_PIVOT * scale)
            except np.linalg.LinAlgError:
                independent = False
            if q > n_free or not independent:
                # on s / sqrt(scale scale'), the absolute stop on the
                # squared pivots is the same relative test
                order, rank = _pivoted_rank(
                    s / np.sqrt(np.outer(scale, scale)))
                return np.sort(order[min(rank, n_free):]), None
            s_inv = np.linalg.inv(s)
            self._p = self._pbuf[:m + q, :m + q]
            self._p[m:, m:] = s_inv
            if m:
                ws = w @ s_inv
                self._p[:m, :m] = mid_inv + ws @ w.T
                self._p[:m, m:] = -ws
                self._p[m:, :m] = -ws.T
        else:
            self._p = self._pbuf[:m, :m]
            if m:
                self._p[...] = mid_inv
        if g is None:
            return None, None
        # d = d0 + h (c - G xi) with d0 the fixed values: the members'
        # multipliers are -xi[m:], and row j of the stationarity condition
        # gives a bound member's
        d = np.where(h > 0.0, 0.0, self._at)
        xi, v = self._project(-(g + _times(self.hessian, d)),
                              self.rhs - self.members.dot(d))
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
        a_eq = Rows.of(a_eq, self._h.size, self._blk.shape[1])
        keep = np.arange(a_eq.shape[0])
        t = a_eq.vals.shape[1]
        while True:
            k = keep.size
            if k:
                self._blk[:k] = a_eq.block[keep]
                self._cols[:k, :t] = a_eq.cols[keep]
                self._vals[:k, :t] = a_eq.vals[keep]
                self._vals[:k, t:] = 0.0
                self._rhs[:k] = b_eq[keep]
                self._ids[:k] = keep
            self.n_eq = k
            self._resize(k)
            dependent, d = self.rebuild(g)
            if dependent is None:
                return d
            if k < a_eq.shape[0]:
                raise InfeasibleSubproblem("dependent equality rows")
            keep = np.delete(keep, dependent)


def solve_qp(hessian, g: np.ndarray,
             a_eq: Rows | np.ndarray | None = None,
             b_eq: np.ndarray | None = None,
             a_in: Rows | np.ndarray | None = None,
             b_in: np.ndarray | None = None,
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
    [n_in + n, n_in + 2n). A_eq and A_in are ``Rows`` or plain arrays; both
    take the narrowest block given. An active bound fixes its variable, and a
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
    # both row sets take the narrowest block given, n for plain arrays
    p = min((a.p for a in (a_eq, a_in) if isinstance(a, Rows)), default=n)
    a_eq = Rows.of(np.empty((0, n)) if a_eq is None else a_eq, n, p)
    b_eq = np.empty(0) if b_eq is None else np.atleast_1d(b_eq)
    a_in = Rows.of(np.empty((0, n)) if a_in is None else a_in, n, p)
    b_in = np.empty(0) if b_in is None else np.atleast_1d(b_in)
    rows_in = -a_in  # the rows n_i'd >= rhs_i

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
                        max(n_eq, min(n, n_eq + n_in)), p,
                        max(a_eq.t, a_in.t))

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

    def step_to(row_id, normal, row_rhs, var, tail):
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
                                          float(normal @ z), var, tail):
                        raise InfeasibleSubproblem("degenerate active set")
                mark(row_id, var, u_plus > 0.0)
                return
            xi, z, r, r_b = active.directions(normal)
            z_max = float(np.abs(z).max(initial=0.0))
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
            t1 = float(ratios.min())
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
                                      z_dot, var, tail):
                    raise InfeasibleSubproblem("degenerate active set")
                mark(row_id, var, True)
                return
            ties = np.flatnonzero(ratios == t1)
            dropped, dropped_var = active.drop(int(ties[np.argmin(ids[ties])]))
            mark(dropped, dropped_var, False)

    d = active.batch_init_equalities(a_eq, b_eq, g)
    if active.n_eq < n_eq:  # rows left out as dependent must hold too
        kept, gap = active.ids, a_eq.dot(d) - b_eq
        left = np.delete(np.arange(n_eq), kept)
        # on the free columns a left-out row is c'(kept rows): net of
        # c'(their gaps), the rounding that d carries in every row cancels
        dense = a_eq.dense()[:, free]
        c = np.linalg.lstsq(dense[kept].T, dense[left].T, rcond=None)[0]
        if np.max(np.abs(gap[left] - c.T @ gap[kept])) > tol:
            raise InfeasibleSubproblem("inconsistent equality rows")

    # Blocked start: the bounds that the equality-feasible minimizer
    # violates become members at once, since most of them are active at
    # the solution (188 of 194 on the first QP of a K=30 squared scene, with
    # 238 violated). If the fixed variables leave equality rows dependent,
    # all of them are freed again, and the main loop enters the violated
    # ones one at a time. Bounds whose multiplier comes out negative leave
    # together, and the rest is re-solved, until every multiplier is
    # nonnegative; the main loop then adds what is still violated. A single
    # violated bound takes the main loop's ordinary step, which costs less
    # than a re-solve.
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
                if not active.nb:
                    raise InfeasibleSubproblem("degenerate active set")
                mark(None, active.release_bounds(np.arange(active.nb))[1],
                     False)
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
        np.subtract(a_in.dot(d), b_in, out=resid[:n_in])
        np.subtract(lo_vec, d, out=resid[n_in:n_in + n])
        np.subtract(d, hi_vec, out=resid[n_in + n:])
        np.copyto(resid, -np.inf, where=member)
        i = int(np.argmax(resid > tol if degenerate else resid))
        if not resid[i] > tol:
            # the members must hold as equalities: once per QP, re-solve if
            # they drifted by more than DRIFT_FACTOR * tol
            drift = active.members.dot(d) - active.rhs
            if settled or not np.abs(drift).max(initial=0.0) > \
                    DRIFT_FACTOR * tol:
                break
            settled = True
            dependent, d_new = active.rebuild(g)
            if dependent is None:
                d = d_new
                active.clip_multipliers()
            continue
        var = tail = None
        if i < n_in:
            normal = rows_in.row(i)
            tail = rows_in.cols[i], rows_in.vals[i]
        else:
            var = (i - n_in) % n
            normal = np.zeros(n)
            normal[var] = 1.0 if i < n_in + n else -1.0
        step_to(i, normal, float(rhs[i]), var, tail)

    ids, mult, k = active.ids, active.multipliers, active.n_eq
    lam_eq = np.zeros(n_eq)  # of A_eq d - b_eq = 0; 0 for rows left out
    lam_eq[ids[:k]] = -mult[:k]
    lam = np.zeros(n_in + 2 * n)
    lam[ids[k:]] = mult[k:]
    _, _, bound_ids, bound_mult = active.bounds
    lam[bound_ids] = bound_mult
    if pinned.size:
        # stationarity row j of a pinned variable is its multiplier
        mu = (_times(hessian, d) + g + a_eq.tdot(lam_eq)
              + a_in.tdot(lam[:n_in]))[pinned]
        lam[n_in + pinned] = np.maximum(mu, 0.0)
        lam[n_in + n + pinned] = np.maximum(-mu, 0.0)
    return QpResult(d, lam_eq, lam[:n_in], lam[n_in:n_in + n], lam[n_in + n:],
                    iterations)


def _exact_key(a):
    """The exact bytes, shape and dtype of one QP input; None for none."""
    if a is None:
        return None
    if isinstance(a, Rows):
        return a.n, _exact_key(a.block), _exact_key(a.cols), _exact_key(a.vals)
    a = np.asarray(a)
    return a.shape, a.dtype.str, a.tobytes()


class QpMemo:
    """``solve_qp`` results keyed by the exact bytes of every input it reads.

    solve_qp is a deterministic function of its inputs, so a hit returns
    what a fresh solve would, bit for bit. The memo keeps the last
    QP_MEMO_SIZE results, least recently used first out, with their arrays
    read-only; a QP that raises is not kept. ``hits`` and ``misses`` count
    the lookups.
    """

    def __init__(self):
        self.hits = self.misses = 0
        self._results: OrderedDict[tuple, QpResult] = OrderedDict()

    def __len__(self) -> int:
        return len(self._results)

    def solve(self, hessian, g, a_eq=None, b_eq=None, a_in=None, b_in=None,
              lower=None, upper=None) -> QpResult:
        """solve_qp's result for these inputs, from the memo if it holds
        them."""
        key = tuple(map(_exact_key, (*hessian, g, a_eq, b_eq, a_in, b_in,
                                     lower, upper)))
        result = self._results.get(key)
        if result is not None:
            self.hits += 1
            self._results.move_to_end(key)
            return result
        self.misses += 1
        result = solve_qp(hessian, g, a_eq, b_eq, a_in, b_in, lower, upper)
        for a in (result.step, result.eq_multipliers, result.in_multipliers,
                  result.lower_multipliers, result.upper_multipliers):
            a.flags.writeable = False
        self._results[key] = result
        if len(self._results) > QP_MEMO_SIZE:
            self._results.popitem(last=False)
        return result


# ---------------------------------------------------------------------------
# SQP driver
# ---------------------------------------------------------------------------

def _merit(f, c_eq, c_in, mu):
    return f + mu * (np.abs(c_eq).sum() + np.maximum(c_in, 0.0).sum())


def _violation(c_eq, c_in):
    v = 0.0
    if c_eq.size:
        v = float(np.abs(c_eq).max())
    if c_in.size:
        v = max(v, float(np.maximum(c_in, 0.0).max()))
    return v


def _require_finite(z, what, *arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        logger.error("non-finite %s at iterate %s", what, z)
        raise EvaluatorFailure(f"non-finite {what}", iterate=z)


class _Evaluator:
    """Wraps the user callbacks so that a failure raises EvaluatorFailure.

    Non-finite derivatives fail too, wherever they are evaluated (the start
    and accepted points). ``solve`` checks the values at the start point
    itself; a non-finite value at a line-search trial point only fails the
    merit test. ``value`` and ``derivatives`` each keep their last point's
    result, keyed by z.tobytes(), and return it when asked for the same
    bytes again: the finalize check and the exit ask for the point just
    accepted.
    """

    def __init__(self, spec: NlpSpec):
        self.spec = spec
        # (z.tobytes(), result) of the last point each method evaluated
        self._value = self._derivatives = (None, None)

    def _call(self, fn, z, what):
        try:
            return fn(z)
        except Exception as exc:  # noqa: BLE001 - deliberate broad capture
            logger.error("%s evaluation failed at iterate %s", what, z)
            raise EvaluatorFailure(f"{what} evaluation failed: {exc}",
                                   iterate=z) from exc

    def value(self, z):
        """The objective and both constraint vectors."""
        key = z.tobytes()
        if self._value[0] != key:
            f = float(self._call(self.spec.objective, z, "objective"))
            c_eq, c_in = self._call(self.spec.constraints, z, "constraints")
            self._value = key, (f, np.asarray(c_eq, float),
                                np.asarray(c_in, float))
        return self._value[1]

    def derivatives(self, z):
        """The gradient and both Jacobians, as Rows."""
        key = z.tobytes()
        if self._derivatives[0] != key:
            n = self.spec.n
            g = np.asarray(self._call(self.spec.gradient, z, "gradient"),
                           float)
            j_eq, j_in = (
                j if isinstance(j, Rows) else Rows.of(j, n)
                for j in self._call(self.spec.jacobians, z, "jacobians"))
            _require_finite(z, "gradient or jacobians", g, j_eq.block,
                            j_eq.vals, j_in.block, j_in.vals)
            self._derivatives = key, (g, j_eq, j_in)
        return self._derivatives[1]


def _lagrangian_gradient(g, j_eq, j_in, lam_eq, lam_in):
    return g + j_eq.tdot(lam_eq) + j_in.tdot(lam_in)


def _kkt_residual(z, grad_l, c_in, lam_in, lower, upper):
    # Projected-gradient stationarity absorbs the bound multipliers.
    projected = np.clip(z - grad_l, lower, upper)
    stat = float(np.abs(projected - z).max()) if z.size else 0.0
    comp = float(np.abs(lam_in * c_in).max()) if c_in.size else 0.0
    return max(stat, comp)


def solve(spec: NlpSpec, options: SolverOptions, z0,
          memo: QpMemo | None = None) -> SolverResult:
    """Run the SQP iteration from z0 (projected into the bounds first).

    With a memo, each QP subproblem is looked up in it before it is solved.
    """
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
        for fresh_hessian in (False, True):
            if fresh_hessian:
                # Accumulated quasi-Newton curvature can defeat the QP or
                # poison its step long before the iterates are optimal;
                # retry once from scratch.
                logger.debug("hessian reset at iteration %d", iteration)
                h.reset()
            try:
                qp = (solve_qp if memo is None else memo.solve)(
                    h.compact(), g, j_eq, -c_eq, j_ws, -c_ws, lo_step, hi_step)
            except (InfeasibleSubproblem, np.linalg.LinAlgError):
                failure = "QP subproblem failed"
                continue

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
            if accepted:
                break
            failure = "line search failed"

        if status in ("converged", "stalled"):
            break
        if not accepted:
            status = "stalled"
            message = failure
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
               sampler: Callable[[int, np.random.Generator], np.ndarray],
               memo: QpMemo | None = None) -> SolverResult:
    """Independent solves from sampled starts; best result wins.

    Selection is by value, never by completion order: converged results beat
    non-converged ones, lower objective beats higher, ties go to the smaller
    start index. With ``early_stop_objective`` set, later starts are skipped
    once a converged result reaches that value (still deterministic because
    starts run in index order). A start whose callbacks raise is recorded as
    ``failed`` and never wins; the first failure is raised only when every
    start failed. Every start shares ``memo`` (see ``solve``).
    """
    rng = np.random.default_rng(options.seed)
    results: list[SolverResult] = []
    failures: list[EvaluatorFailure] = []
    for index in range(options.multistart):
        z0 = sampler(index, rng)
        try:
            result = solve(spec, options, z0, memo)
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
