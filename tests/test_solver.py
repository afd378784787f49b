import logging
import math

import numpy as np
import pytest

from cellplace import solver
from cellplace.errors import EvaluatorFailure, InfeasibleSubproblem
from cellplace.solver import (DampedBfgs, NlpSpec, SolverOptions, multistart,
                              solve, solve_qp)


def _no_constraints(z):
    return np.zeros(0), np.zeros(0)


def _no_jacobians(n):
    return lambda z: (np.zeros((0, n)), np.zeros((0, n)))


def quadratic_bowl():
    return NlpSpec(2, lambda z: (z[0] - 1) ** 2 + (z[1] + 2) ** 2,
                   lambda z: np.array([2 * (z[0] - 1), 2 * (z[1] + 2)]),
                   _no_constraints, _no_jacobians(2))


def dense(h):
    """The compact form (b0, U, sign) of a dense positive definite H: with
    the least eigenvalue l of H, H = (l/2) I + V diag(lambda - l/2) V'."""
    lam, vec = np.linalg.eigh(0.5 * (h + h.T))
    shift = 0.5 * lam[0]
    return np.full(h.shape[0], shift), vec * np.sqrt(lam - shift), \
        np.ones(h.shape[0])


def inverse(h, v):
    """H^-1 v for a compact H, a vector or each column of a block: the QP's
    primal direction z for the row v in an active set with every variable
    free and no members."""
    n = h.b0.size
    active = solver._ActiveSet(h.compact(), np.ones(n, bool), np.zeros(n), 0)
    active.rebuild()
    if v.ndim == 2:
        return np.column_stack([active.directions(col)[1] for col in v.T])
    return active.directions(v)[1]


class TestQp:
    def test_identity_hessian_step(self):
        res = solve_qp(dense(np.eye(2)), np.array([-1.0, 0.0]))
        assert np.allclose(res.step, [1.0, 0.0], atol=1e-12)

    def test_equality_only_matches_dense_kkt(self):
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        g = np.array([1.0, -2.0])
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        res = solve_qp(dense(h), g, a, b)
        kkt = np.linalg.solve(np.block([[h, a.T], [a, np.zeros((1, 1))]]),
                              np.concatenate([-g, b]))
        assert np.allclose(res.step, kkt[:2], atol=1e-10)
        assert res.eq_multipliers[0] == pytest.approx(kkt[2], abs=1e-10)

    def test_bound_clipping_with_multiplier(self):
        res = solve_qp(dense(np.eye(1)), np.array([-5.0]),
                       lower=np.array([-1.0]), upper=np.array([2.0]))
        assert res.step[0] == pytest.approx(2.0, abs=1e-12)
        assert res.upper_multipliers[0] >= 0.0

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleSubproblem):
            solve_qp(dense(np.eye(1)), np.zeros(1),
                     a_in=np.array([[1.0], [-1.0]]), b_in=np.array([-2.0, 1.0]))

    def test_random_qps_satisfy_kkt(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 9))
            root = rng.normal(size=(n, n))
            h = root @ root.T + np.eye(n)
            g = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            # feasible by construction: b = A d0 + positive slack
            b = a @ rng.normal(size=n) + rng.uniform(0.0, 1.0, size=m)
            res = solve_qp(dense(h), g, a_in=a, b_in=b)
            d, lam = res.step, res.in_multipliers
            assert np.max(np.abs(h @ d + g + a.T @ lam)) < 1e-8
            assert np.max(a @ d - b) < 1e-8
            assert np.min(lam) >= -1e-10
            assert np.max(np.abs(lam * (a @ d - b))) < 1e-8

    def test_mixed_equalities_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            root = rng.normal(size=(n, n))
            h = root @ root.T + np.eye(n)
            g = rng.normal(size=n)
            a_eq = rng.normal(size=(1, n))
            d0 = rng.uniform(-0.4, 0.4, size=n)
            b_eq = a_eq @ d0
            lower, upper = np.full(n, -1.0), np.full(n, 1.0)
            res = solve_qp(dense(h), g, a_eq=a_eq, b_eq=b_eq, lower=lower,
                           upper=upper)
            d = res.step
            assert np.max(np.abs(a_eq @ d - b_eq)) < 1e-8
            assert np.all(d >= lower - 1e-9) and np.all(d <= upper + 1e-9)
            grad = (h @ d + g + a_eq.T @ res.eq_multipliers
                    - res.lower_multipliers + res.upper_multipliers)
            assert np.max(np.abs(grad)) < 1e-7

    def test_duplicated_consistent_equality_row(self, monkeypatch):
        # N H^-1 N^T is singular: the one blocked install leaves the copy
        # out as dependent itself, without raising
        installs = []
        real_install = solver._ActiveSet.batch_init_equalities

        def install(*args):
            installs.append(real_install(*args))
            return installs[-1]

        monkeypatch.setattr(solver._ActiveSet, "batch_init_equalities",
                            install)
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        g = np.array([1.0, -2.0])
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        b = np.array([1.0, 2.0])
        res = solve_qp(dense(h), g, a, b)
        assert len(installs) == 1
        kkt = np.linalg.solve(np.block([[h, a[:1].T], [a[:1], np.zeros((1, 1))]]),
                              np.concatenate([-g, b[:1]]))
        assert np.allclose(res.step, kkt[:2], atol=1e-10)
        assert np.max(np.abs(h @ res.step + g + a.T @ res.eq_multipliers)) < 1e-10

    def test_more_consistent_equalities_than_variables(self):
        # x = 1, y = 2 and a third row through (1, 2) in R^2: the install
        # keeps two rows and leaves the third out, with multiplier 0; with
        # the second H, rounding lets the 3 x 3 N H^-1 N^T pass as definite
        for h, third in ((np.array([[4.0, 1.0], [1.0, 3.0]]), [1.0, 1.0]),
                         (np.diag([1e-8, 3e-8]), [0.1, 0.3])):
            a = np.array([[1.0, 0.0], [0.0, 1.0], third])
            b = a @ np.array([1.0, 2.0])
            g = h @ np.array([1.0, -2.0])
            res = solve_qp(dense(h), g, a, b)
            assert np.max(np.abs(a @ res.step - b)) < 1e-10
            assert np.max(np.abs(h @ res.step + g
                                 + a.T @ res.eq_multipliers)) < 1e-10
            assert res.eq_multipliers[2] == 0.0

    def test_left_out_row_is_judged_net_of_the_kept_rows_rounding(self):
        # -H^-1 g is ~1e8, so after the install d misses the kept rows by
        # ~1e-8 > tol; the dependent third row shares that error, and only
        # a real inconsistency in its right-hand side may raise
        h = np.diag([1e-8, 3e-8])
        g = np.array([1.0, -2.0])
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.3]])
        b = a @ np.array([1.0, 2.0])
        res = solve_qp(dense(h), g, a, b)
        assert np.allclose(res.step, [1.0, 2.0], atol=1e-7)
        assert res.eq_multipliers[2] == 0.0
        with pytest.raises(InfeasibleSubproblem):
            solve_qp(dense(h), g, a, b + np.array([0.0, 0.0, 1e-6]))

    def test_duplicated_inconsistent_equality_row_raises(self):
        # x + y = 1 and x + y = 2: rounding leaves N H^-1 N^T a hair positive
        # definite, so the blocked install must test its pivots, not only
        # whether the Cholesky factorization succeeds
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        with pytest.raises(InfeasibleSubproblem):
            solve_qp(dense(h), np.array([1.0, -2.0]),
                     np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))

    def test_dependent_inconsistent_equalities_raise(self):
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        with pytest.raises(InfeasibleSubproblem):
            solve_qp(dense(h), np.array([1.0, -2.0]),
                     np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 3.0]))

    def test_dependent_equalities_met_at_the_start_stay_active(self):
        # d = -g already meets all three (dependent) equality rows; a later
        # inequality step must move along them, not off them
        a_eq = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b_eq = np.array([1.0, 2.0, 0.0])
        a_in, b_in = np.array([[1.0, 1.0, 1.0]]), np.array([1.5])
        g = np.array([-1.0, 0.0, -1.0])
        res = solve_qp(dense(np.eye(3)), g, a_eq, b_eq, a_in, b_in)
        assert np.allclose(res.step, [1.0, 0.0, 0.5], atol=1e-12)
        grad = res.step + g + a_eq.T @ res.eq_multipliers \
            + a_in.T @ res.in_multipliers
        assert np.max(np.abs(grad)) < 1e-10

    def test_three_rows_through_one_vertex(self):
        # x <= 1, y <= 1 and x + y <= 2 all pass through (1, 1); a KKT point
        # needs at most n = 2 of them in the active set
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = a @ np.ones(2)
        rng = np.random.default_rng(5)
        sizes = set()
        for _ in range(200):
            root = rng.normal(size=(2, 2))
            h = root @ root.T + 0.1 * np.eye(2)
            g = 3.0 * rng.normal(size=2)
            res = solve_qp(dense(h), g, a_in=a, b_in=b)
            d, lam = res.step, res.in_multipliers
            assert np.max(np.abs(h @ d + g + a.T @ lam)) < 1e-8
            assert np.max(a @ d - b) < 1e-8
            assert np.min(lam) >= -1e-10
            assert np.max(np.abs(lam * (a @ d - b))) < 1e-8
            sizes.add(int(np.count_nonzero(lam)))
        assert max(sizes) == 2  # the vertex itself is reached

    def test_each_step_projects_its_row_once(self, monkeypatch):
        # the unconstrained optimum (1, 1, 1, 1) violates three orthogonal
        # rows (two general rows and an upper bound); each enters with one
        # step and none is dropped, so P solves once for g and then once
        # per row: the step's projection also serves the row's addition
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        calls = []
        real_solve = solver._ActiveSet.solve

        def solve_with_p(self, b):
            calls.append(b.shape)
            return real_solve(self, b)

        monkeypatch.setattr(solver._ActiveSet, "solve", solve_with_p)
        a_in = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        g = -h @ np.ones(4)
        upper = np.array([np.inf, np.inf, 0.5, np.inf])
        res = solve_qp(dense(h), g, a_in=a_in, b_in=np.array([0.5, 0.5]),
                       upper=upper)
        assert np.allclose(res.step, [0.5, 0.5, 0.5, 1.0], atol=1e-12)
        assert np.all(res.in_multipliers > 0.0)
        assert res.upper_multipliers[2] > 0.0
        k = 3
        assert len(calls) == 1 + k


class TestResidentFactor:
    """The active set's P = T^-1, with T = blockdiag(diag(sign), 0)
    + G' diag(h) G and G = [U, N_E'], against dense references after every
    fix, free, add, drop and rebuild; its trailing block against S^-1 with
    S = N_E K_F N_E', where K_F is the inverse of B over the free variables,
    padded with zeros."""

    def random_hessian(self, rng, n, pairs):
        """A compact H with the given number of pairs, and B as a matrix."""
        h = DampedBfgs(10.0 ** rng.uniform(-1, 1, size=n))
        for s, y in TestCompactHessian().random_pairs(rng, n, pairs):
            h.update(s, y)
        b0, u, sign = h.compact()
        return h, np.diag(b0) + u @ np.diag(sign) @ u.T

    def new_set(self, rng, n, pairs):
        """An empty active set over a compact H with the given number of
        pairs (more than the free variables once most are fixed), or, for
        None, over the eigenvalue compact form of a dense H; and B."""
        if pairs is not None:
            h, dense_b = self.random_hessian(rng, n, pairs)
            hessian = h.compact()
        else:
            root = rng.normal(size=(n, n))
            dense_b = root @ root.T / n + np.eye(n)
            hessian = dense(dense_b)
        active = solver._ActiveSet(hessian, np.ones(n, bool), np.zeros(n), n)
        active.rebuild()
        return active, dense_b

    def check(self, active, dense_b, rng):
        n = dense_b.shape[0]
        free = active.free
        b0, u, sign = active.hessian
        m, normals = active.m, active.normals
        g = np.hstack([u, normals.T])
        assert np.array_equal(active.columns, g)
        t = g.T @ (np.where(free, 1.0 / b0, 0.0)[:, None] * g)
        t[:m, :m] += np.diag(sign)
        t_inv = np.linalg.inv(t)
        # P drifts through its rank-one updates (4.5e-10 relative with n
        # pairs), and the refined solves bring the directions back to 1e-13
        # column-major: P is the leading block of one Fortran buffer
        assert active.inverse.strides[0] == active.inverse.itemsize
        assert np.linalg.norm(active.inverse - t_inv) <= \
            1e-8 * np.linalg.norm(t_inv)
        k = np.zeros((n, n))
        k[np.ix_(free, free)] = np.linalg.inv(dense_b[np.ix_(free, free)])
        s = normals @ k @ normals.T
        if active.q:
            assert np.linalg.norm(active.inverse[m:, m:] @ s
                                  - np.eye(active.q)) <= 1e-10
        normal = rng.normal(size=n)
        _, z, r, r_b = active.directions(normal)
        want_r = np.linalg.solve(s, normals @ k @ normal) if active.q \
            else np.zeros(0)
        want_z = k @ (normal - normals.T @ want_r)
        assert np.linalg.norm(r - want_r) <= \
            1e-10 * max(1.0, np.linalg.norm(want_r))
        assert np.linalg.norm(z - want_z) <= 1e-10 * np.linalg.norm(k @ normal)
        # bound members: row j of B z = normal - N'r - side_j r_b,j e_j
        var, side, _, _ = active.bounds
        want_rb = side * (normal - normals.T @ want_r - dense_b @ want_z)[var]
        assert np.linalg.norm(r_b - want_rb) <= \
            1e-10 * max(1.0, np.linalg.norm(normal))

    RHS = 0.5  # right-hand side of the rows ``add`` makes members

    def add(self, active, rng, row_id, var=None, side=1.0):
        n = active.free.size
        if var is None:
            normal = rng.normal(size=n)
        else:
            normal = np.zeros(n)
            normal[var] = side
        self.add_row(active, row_id, normal, self.RHS, 1.0, var)

    @staticmethod
    def add_row(active, row_id, normal, rhs, multiplier, var=None):
        xi, z, _, _ = active.directions(normal)
        assert active.try_add(row_id, normal, rhs, multiplier, xi,
                              float(normal @ z), var)

    def rebuild(self, active, dense_b, probe):
        """Rebuild from the members: P as ``check`` wants it after an
        update, and the re-solve for a random g against the dense KKT
        system, with each bound member's variable at side * RHS. ``probe``
        draws apart from the sequence's own generator."""
        n = dense_b.shape[0]
        g = probe.normal(size=n)
        dependent, d = active.rebuild(g)
        assert dependent is None
        self.check(active, dense_b, probe)
        free = active.free
        var, side, _, bound_mult = active.bounds
        x = np.zeros(n)
        x[var] = side * self.RHS
        assert np.array_equal(d[~free], x[~free])
        normals, q = active.normals, active.q
        kkt = np.block([[dense_b[np.ix_(free, free)], -normals[:, free].T],
                        [normals[:, free], np.zeros((q, q))]])
        sol = np.linalg.solve(kkt, np.concatenate([
            -g[free] - dense_b[np.ix_(free, ~free)] @ x[~free],
            active.rhs - normals[:, ~free] @ x[~free]]))
        k = np.count_nonzero(free)
        x[free], lam = sol[:k], sol[k:]
        assert np.linalg.norm(d - x) <= 1e-10 * max(1.0, np.linalg.norm(x))
        assert np.linalg.norm(active.multipliers - lam) <= \
            1e-10 * max(1.0, np.linalg.norm(lam))
        want = side * (dense_b @ x + g - normals.T @ lam)[var]
        assert np.linalg.norm(bound_mult - want) <= \
            1e-10 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("blocked", [True, False])
    def test_factor_matches_dense_reference(self, compact, blocked):
        # a compact H runs each sequence with n // 2 and with n pairs
        rng = np.random.default_rng(17)
        probe = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(8, 30))
            m = int(rng.integers(1, 4))
            for pairs in (n // 2, n) if compact else (None,):
                self.sequence(rng, probe, n, m, pairs, blocked)

    def sequence(self, rng, probe, n, m, pairs, blocked):
        active, dense_b = self.new_set(rng, n, pairs)
        a_eq = rng.normal(size=(m, n))
        if blocked:
            active.batch_init_equalities(a_eq, rng.normal(size=m), np.zeros(n))
        else:
            for i in range(m):
                self.add_row(active, i, a_eq[i], 0.0, 0.0)
            active.n_eq = m
        self.check(active, dense_b, rng)
        self.rebuild(active, dense_b, probe)
        row_id = 0
        # fix variables until 3 + m stay free, fewer than the pairs
        for var in rng.permutation(n)[:n - m - 3]:
            self.add(active, rng, row_id, int(var), rng.choice([-1.0, 1.0]))
            row_id += 1
            self.check(active, dense_b, rng)
        self.add(active, rng, row_id)
        row_id += 1
        self.check(active, dense_b, rng)
        self.rebuild(active, dense_b, probe)
        # drop a general member, the first, a middle and the last bound
        # member, each followed by an addition
        for position in (0, 1, (active.q - m + active.nb) // 2,
                         active.q - m + active.nb - 1):
            _, ids = active.inequality_members()
            kept = np.delete(ids, position)
            active.drop(position)
            assert np.array_equal(active.inequality_members()[1], kept)
            self.check(active, dense_b, rng)
            free = np.flatnonzero(active.free)
            self.add(active, rng, row_id, int(rng.choice(free)))
            row_id += 1
            self.check(active, dense_b, rng)
        self.rebuild(active, dense_b, probe)
        while active.q + active.nb > m:
            active.drop(int(rng.integers(0, active.q - m + active.nb)))
            self.check(active, dense_b, rng)
        assert active.free.all()

    def test_spoiled_inverse_is_formed_afresh(self):
        # a P that no longer inverts T (negated here) makes the refinement
        # step longer than the solution: the solve forms P afresh and the
        # directions match the dense references
        rng = np.random.default_rng(31)
        probe = np.random.default_rng(1)
        active, dense_b = self.new_set(rng, 12, 6)
        for row_id in range(3):
            self.add(active, rng, row_id)
        self.add(active, rng, 3, var=5)
        active.inverse[:] *= -1.0
        active.directions(rng.normal(size=12))
        self.check(active, dense_b, probe)

    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("n_x", [2, 6])
    def test_rebuild_finds_members_dependent_through_fixed_columns(
            self, compact, n_x):
        # row i is c_i'x + p_i - q_i with its own columns p_i, q_i, so the
        # rows are independent while those are free; fixing every private
        # column leaves the rows c_i in R^n_x, more
        # of them than free variables (n_x = 2), or one the difference of
        # two others (n_x = 6). The rebuild names the rows outside the rank
        # of the dense S and changes nothing; freeing the columns again
        # makes the same members independent.
        rng = np.random.default_rng(29)
        for _ in range(5):
            m = 4
            n = n_x + 2 * m
            active, dense_b = self.new_set(rng, n, n // 2 if compact else None)
            rows = np.zeros((m, n))
            rows[:, :n_x] = rng.normal(size=(m, n_x))
            rows[m - 1, :n_x] = rows[0, :n_x] - rows[1, :n_x]
            private = np.arange(n_x, n)
            rows[np.arange(m), private[:m]] = 1.0
            rows[np.arange(m), private[m:]] = -1.0
            for i, normal in enumerate(rows):
                self.add_row(active, i, normal, 0.0, 1.0)
            active.fix_bounds(private, np.ones(private.size), private,
                              np.zeros(private.size))
            state = [a.copy() for a in (active.inverse, active.columns,
                                        active.multipliers, active.ids,
                                        active.rhs)]
            dependent, d = active.rebuild(np.zeros(n))
            assert d is None
            free = active.free
            k = np.linalg.inv(dense_b[np.ix_(free, free)])
            s = rows[:, free] @ k @ rows[:, free].T
            rank = np.linalg.matrix_rank(s)
            assert rank == min(n_x, m - 1)
            assert dependent.size == m - rank
            keep = np.delete(np.arange(m), dependent)
            assert np.linalg.matrix_rank(s[np.ix_(keep, keep)]) == keep.size
            for before, after in zip(state, (
                    active.inverse, active.columns, active.multipliers,
                    active.ids, active.rhs)):
                assert np.array_equal(before, after)
            active.release_bounds(np.arange(active.nb))
            assert active.rebuild()[0] is None
            self.check(active, dense_b, rng)

    def test_blocked_start_meets_kkt(self):
        # a steep gradient violates most bounds at the start, so they are
        # fixed in one block; some of them must leave again
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = 30
            h, dense_b = self.random_hessian(rng, n, int(rng.integers(0, 6)))
            g = 4.0 * rng.normal(size=n)
            a_eq = rng.normal(size=(2, n))
            a_in = rng.normal(size=(5, n))
            lower, upper = -rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
            res = solve_qp(h.compact(), g, a_eq, np.zeros(2), a_in,
                           np.ones(5), lower, upper)
            d = res.step
            assert np.max(np.abs(a_eq @ d)) < 1e-9
            assert np.max(a_in @ d - 1.0) < 1e-9
            assert np.all(d >= lower - 1e-9) and np.all(d <= upper + 1e-9)
            grad = (dense_b @ d + g + a_eq.T @ res.eq_multipliers
                    + a_in.T @ res.in_multipliers - res.lower_multipliers
                    + res.upper_multipliers)
            assert np.max(np.abs(grad)) < 1e-8 * np.max(np.abs(g))
            assert min(res.in_multipliers.min(), res.lower_multipliers.min(),
                       res.upper_multipliers.min()) >= 0.0
            assert np.max(np.abs(res.lower_multipliers * (d - lower))) < 1e-8

    def test_blocked_start_with_dependent_rows_meets_kkt(self, monkeypatch):
        # row i is p_i - q_i - c_i'x = b_i with its own columns
        # p_i, q_i >= lower, more rows than x columns, and a start that
        # violates both private bounds of every row. Fixing them all leaves
        # the rows dependent through x, so the blocked start frees them
        # again, and the QP still meets KKT.
        fixed, freed = [], []
        real_rebuild = solver._ActiveSet.rebuild
        real_fix = solver._ActiveSet.fix_bounds
        real_release = solver._ActiveSet.release_bounds
        last = [None]

        def rebuild(self, g=None):
            last[0], d = real_rebuild(self, g)
            return last[0], d

        def fix_bounds(self, var, side, ids, rhs):
            fixed.append(var.copy())
            real_fix(self, var, side, ids, rhs)

        def release_bounds(self, positions):
            gone = real_release(self, positions)
            if last[0] is not None:
                freed.append(gone[1])
            return gone

        monkeypatch.setattr(solver._ActiveSet, "rebuild", rebuild)
        monkeypatch.setattr(solver._ActiveSet, "fix_bounds", fix_bounds)
        monkeypatch.setattr(solver._ActiveSet, "release_bounds",
                            release_bounds)
        rng = np.random.default_rng(37)
        for _ in range(10):
            n_x, p = 3, 8
            n = n_x + 2 * p
            plus, minus = np.arange(n_x, n_x + p), np.arange(n_x + p, n)
            h, dense_b = self.random_hessian(rng, n, int(rng.integers(0, 6)))
            a_eq = np.zeros((p, n))
            a_eq[:, :n_x] = -rng.normal(size=(p, n_x))
            a_eq[np.arange(p), plus] = 1.0
            a_eq[np.arange(p), minus] = -1.0
            # the start, the minimizer over the rows, is d0
            d0 = np.concatenate([rng.normal(size=n_x),
                                 -rng.uniform(5.0, 10.0, 2 * p)])
            g, b_eq = -dense_b @ d0, a_eq @ d0
            lower = np.full(n, -np.inf)
            lower[n_x:] = -rng.uniform(0.0, 0.1, 2 * p)
            fixed.clear()
            freed.clear()
            res = solve_qp(h.compact(), g, a_eq, b_eq, lower=lower)
            assert set(plus) | set(minus) <= set(fixed[0])
            assert freed
            d = res.step
            assert np.max(np.abs(a_eq @ d - b_eq)) < 1e-9
            assert np.all(d >= lower - 1e-9)
            grad = (dense_b @ d + g + a_eq.T @ res.eq_multipliers
                    - res.lower_multipliers + res.upper_multipliers)
            assert np.max(np.abs(grad)) < 1e-8 * np.max(np.abs(g))
            assert res.lower_multipliers.min() >= 0.0
            assert np.max(np.abs(res.lower_multipliers[n_x:]
                                 * (d - lower)[n_x:])) < 1e-8

    def test_steps_without_drops_take_one_step_each(self):
        # three orthogonal violated rows enter with one step each and none
        # is dropped: one step per row plus the main loop's k + 1
        # most-violated checks, the count the QP's iteration limit bounds
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        a_in = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        upper = np.array([np.inf, np.inf, 0.5, np.inf])
        res = solve_qp(dense(h), -h @ np.ones(4), a_in=a_in,
                       b_in=np.array([0.5, 0.5]), upper=upper)
        assert np.allclose(res.step, [0.5, 0.5, 0.5, 1.0], atol=1e-12)
        k = 3
        assert res.iterations == 2 * k + 1

    def test_last_member_leaves_an_empty_inverse(self):
        # H = I without pairs (m = 0): -2x + y <= 2 enters first and leaves
        # when x >= 1 enters, so P goes from 1 x 1 to empty and back
        res = solve_qp(DampedBfgs(np.ones(2)).compact(), np.array([7.0, 0.0]),
                       a_in=np.array([[-1.0, 0.0], [-2.0, 1.0]]),
                       b_in=np.array([-1.0, 2.0]))
        assert np.allclose(res.step, [1.0, 0.0], atol=1e-12)
        assert np.allclose(res.in_multipliers, [8.0, 0.0], atol=1e-12)

    def test_unconstrained_qp_counts_one_iteration(self):
        # no step, only the most-violated check that finds nothing
        assert solve_qp(dense(np.eye(3)), np.ones(3)).iterations == 1

    def test_pinned_variables_start_fixed(self):
        # lower == upper fixes a variable before any step: a compact H
        # with pairs, the step meets KKT against the dense H, and the
        # pinned variable's multiplier closes its stationarity row
        rng = np.random.default_rng(3)
        n = 6
        h, dense_b = self.random_hessian(rng, n, 3)
        g = rng.normal(size=n)
        lower, upper = np.full(n, -1.0), np.full(n, 1.0)
        lower[2] = upper[2] = 0.25
        a_eq = rng.normal(size=(1, n))
        res = solve_qp(h.compact(), g, a_eq, np.zeros(1), lower=lower,
                       upper=upper)
        d = res.step
        assert d[2] == 0.25
        assert np.all(d >= lower - 1e-12) and np.all(d <= upper + 1e-12)
        grad = (dense_b @ d + g + a_eq.T @ res.eq_multipliers
                - res.lower_multipliers + res.upper_multipliers)
        assert np.max(np.abs(grad)) < 1e-9
        assert min(res.lower_multipliers.min(), res.upper_multipliers.min()) >= 0.0


class TestQpGuards:
    """Member skip and Bland's rule in the QP's main loop."""

    def test_many_rows_through_one_degenerate_vertex(self):
        # 300 rows a_i'd <= 0 through the origin of R^6 (a_i0 > 0), inside
        # the box [-1, 1]^6: the solution is the origin itself, where all
        # 300 rows are active and only a handful can be members
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            n, m = 6, 300
            a = rng.normal(size=(m, n))
            a[:, 0] = np.abs(a[:, 0])
            h = np.diag(rng.uniform(1.0, 3.0, size=n))
            g = 5.0 * rng.normal(size=n)
            res = solve_qp(dense(h), g, a_in=a, b_in=np.zeros(m),
                           lower=np.full(n, -1.0), upper=np.full(n, 1.0))
            d, lam = res.step, res.in_multipliers
            assert np.max(np.abs(d)) < 1e-12
            grad = (h @ d + g + a.T @ lam - res.lower_multipliers
                    + res.upper_multipliers)
            assert np.max(np.abs(grad)) < 1e-9
            assert np.min(lam) >= 0.0
            assert res.iterations < 50  # the limit is 200

    @pytest.mark.parametrize("spoil", [-1.0, np.nan])
    def test_recheck_projects_the_entering_row_afresh(self, monkeypatch,
                                                      spoil):
        # the entering row's directions come out spoiled once, as rank-one
        # updates of an ill-conditioned P can spoil them. Negated, they
        # fake a proof of infeasibility, and the check against a rebuilt P
        # must project the row afresh and solve the QP; not finite, they
        # prove nothing and the QP must say so instead of claiming
        # infeasibility.
        h = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        g = np.array([1.0, -2.0, 0.5])
        a_eq, b_eq = np.array([[1.0, 1.0, 1.0]]), np.array([1.0])
        a_in, b_in = np.array([[-1.0, 1.0, 0.0]]), np.array([1.0])
        real_directions = solver._ActiveSet.directions
        spoiled = []

        def directions(self, normal):
            out = real_directions(self, normal)
            if not spoiled and np.array_equal(normal, -a_in[0]):
                spoiled.append(normal)
                return tuple(spoil * x for x in out)
            return out

        monkeypatch.setattr(solver._ActiveSet, "directions", directions)
        if np.isnan(spoil):
            with pytest.raises(InfeasibleSubproblem, match="non-finite step"):
                solve_qp(dense(h), g, a_eq, b_eq, a_in, b_in)
            assert spoiled
            return
        res = solve_qp(dense(h), g, a_eq, b_eq, a_in, b_in)
        assert spoiled
        kkt = np.linalg.solve(np.block([[h, -a_eq.T, a_in.T],
                                        [a_eq, np.zeros((1, 2))],
                                        [a_in, np.zeros((1, 2))]]),
                              np.concatenate([-g, b_eq, b_in]))
        assert np.allclose(res.step, kkt[:3], atol=1e-12)
        assert res.in_multipliers[0] == pytest.approx(kkt[4], abs=1e-12)
        assert res.in_multipliers[0] > 0.0

    @pytest.mark.parametrize("mode", ["squared", "abs"])
    def test_reset_qp_of_the_impossible_scene(self, robot, mode):
        # criterion 10's impossible scene, whose QP at the fifth SQP iterate
        # once raised "degenerate active set" although the placement
        # program's linearizations are always feasible. Built from the scene
        # and each of its first iterates, with the initial Hessian that a
        # reset leaves, the QP must solve, keep the bounds and meet the rows
        # to its tolerance, with nonnegative multipliers.
        from cellplace.geometry import Pose
        from cellplace.nlp import BuildOptions, build_problem
        from cellplace.scene import PlacementBounds, ProcessPoint, Scene
        scene = Scene(
            robot=robot,
            points=(ProcessPoint("a", Pose(0.0, 0.0, 0.0)),
                    ProcessPoint("b", Pose(5_000.0, 0.0, 0.0))),
            bounds=PlacementBounds(np.array([-500.0, -500, -500, 0, 0, 0]),
                                   np.array([500.0, 500, 500, 0, 0, 0])))
        problem = build_problem(scene, BuildOptions(mode=mode))
        spec = problem.as_nlp_spec()
        z0 = problem.initial_point("scene")
        for iterations in range(1, 9):
            z = solve(spec, SolverOptions(max_iterations=iterations), z0).z
            c_eq, c_in = spec.constraints(z)
            j_eq, j_in = spec.jacobians(z)
            ws = c_in >= -solver.WORKING_SET_MARGIN
            lo, hi = spec.lower - z, spec.upper - z
            qp = solve_qp(DampedBfgs(spec.scales ** -2.0).compact(),
                          spec.gradient(z), j_eq, -c_eq, j_in[ws], -c_in[ws],
                          lo, hi)
            j_eq, j_in = j_eq.dense(), j_in.dense()
            finite = np.abs(np.r_[c_eq, c_in[ws], lo, hi])
            slack = 1e-10 * max(1.0, np.max(finite[np.isfinite(finite)]))
            assert np.all(qp.step >= lo - slack)
            assert np.all(qp.step <= hi + slack)
            assert np.all(np.abs(j_eq @ qp.step + c_eq) <= slack)
            assert np.all(j_in[ws] @ qp.step + c_in[ws] <= slack)
            assert np.all(qp.in_multipliers >= 0.0)


class TestNoProgressStop:
    def test_impossible_scene_starts_stop_without_progress(self, robot,
                                                           monkeypatch):
        # criterion 10's impossible scene: the merit stalls at a positive
        # objective, so each start ends "no progress" long before the
        # iteration limit instead of running all 500 iterations
        from cellplace.geometry import Pose
        from cellplace.nlp import SolveSettings, solve_placement
        from cellplace.scene import PlacementBounds, ProcessPoint, Scene
        scene = Scene(
            robot=robot,
            points=(ProcessPoint("a", Pose(0.0, 0.0, 0.0)),
                    ProcessPoint("b", Pose(5_000.0, 0.0, 0.0))),
            bounds=PlacementBounds(np.array([-500.0, -500, -500, 0, 0, 0]),
                                   np.array([500.0, 500, 500, 0, 0, 0])))
        results = []
        real_solve = solver.solve

        def spy(*args):
            results.append(real_solve(*args))
            return results[-1]

        monkeypatch.setattr(solver, "solve", spy)
        report = solve_placement(scene, SolveSettings(multistart=2, seed=0))
        assert report.verdict == "infeasible"
        assert len(results) == 2
        for result in results:
            assert (result.status, result.message) == ("stalled",
                                                       "no progress")
            assert result.iterations < 100


class TestPlacementQp:
    """The first QP of a placement solve, built through the public API."""

    @pytest.mark.parametrize("mode, count, seed, norm, dot", [
        # the step's 2-norm and its product with a fixed vector: squared as
        # the QP computed it when every active bound was a row of its
        # factor, abs on the program with epigraph rows for |v|
        ("squared", 30, 300, 234.66437193984936, -73.6645886485505),
        ("abs", 16, 304, 229.3299117808729, 246.07365764416238)],
        ids=["squared-300", "abs-304"])
    def test_first_qp_meets_kkt_and_keeps_its_step(self, mode, count, seed,
                                                   norm, dot):
        from cellplace.nlp import BuildOptions, build_problem
        from cellplace.scene import synthesize_scene
        problem = build_problem(synthesize_scene(count=count, seed=seed),
                                BuildOptions(mode=mode))
        spec = problem.as_nlp_spec()
        z = problem.initial_point("scene")
        g = spec.gradient(z)
        c_eq, c_in = spec.constraints(z)
        j_eq, j_in = spec.jacobians(z)
        ws = c_in >= -solver.WORKING_SET_MARGIN
        a_in, b_in = j_in[ws], -c_in[ws]
        lo, hi = spec.lower - z, spec.upper - z
        b0 = np.asarray(spec.scales, float) ** -2.0
        res = solve_qp(DampedBfgs(b0).compact(), g, j_eq, -c_eq, a_in, b_in,
                       lo, hi)
        j_eq, a_in = j_eq.dense(), a_in.dense()
        d = res.step
        w = np.random.default_rng(0).normal(size=d.size)
        assert np.linalg.norm(d) == pytest.approx(norm, rel=1e-9)
        assert d @ w == pytest.approx(dot, rel=1e-9)
        # KKT against the dense H = diag(b0)
        grad = (b0 * d + g + j_eq.T @ res.eq_multipliers
                + a_in.T @ res.in_multipliers - res.lower_multipliers
                + res.upper_multipliers)
        assert np.max(np.abs(grad)) <= 1e-9 * max(1.0, np.max(np.abs(g)))
        assert np.max(np.abs(j_eq @ d + c_eq)) < 1e-8
        assert np.max(a_in @ d - b_in) < 1e-8
        assert np.all(d >= lo - 1e-8) and np.all(d <= hi + 1e-8)
        assert min(res.in_multipliers.min(), res.lower_multipliers.min(),
                   res.upper_multipliers.min()) >= 0.0
        assert np.max(np.abs(res.in_multipliers * (a_in @ d - b_in))) < 1e-8
        assert np.max(np.abs(res.lower_multipliers * (d - lo))) < 1e-8

    def test_first_abs_qp_takes_few_steps(self):
        # the first QP of K=16 abs scene 304, built as above, takes 78
        # steps; with |v| as a split v+ - v- = v(x) it took 172 to 411
        from cellplace.nlp import BuildOptions, build_problem
        from cellplace.scene import synthesize_scene
        problem = build_problem(synthesize_scene(count=16, seed=304),
                                BuildOptions(mode="abs"))
        spec = problem.as_nlp_spec()
        z = problem.initial_point("scene")
        c_eq, c_in = spec.constraints(z)
        j_eq, j_in = spec.jacobians(z)
        ws = c_in >= -solver.WORKING_SET_MARGIN
        b0 = np.asarray(spec.scales, float) ** -2.0
        res = solve_qp(DampedBfgs(b0).compact(), spec.gradient(z), j_eq,
                       -c_eq, j_in[ws], -c_in[ws], spec.lower - z,
                       spec.upper - z)
        assert res.iterations <= 250

    def test_every_qp_of_a_solve_is_stationary(self, monkeypatch):
        # every QP of a K=30 squared solve, with the Hessians that BFGS
        # built on the way: stationary against the dense compact B
        from cellplace.nlp import SolveSettings, solve_placement
        from cellplace.scene import synthesize_scene
        residuals = []
        real_qp = solver.solve_qp

        def spy(hessian, g, a_eq, b_eq, a_in, b_in, lower, upper):
            res = real_qp(hessian, g, a_eq, b_eq, a_in, b_in, lower, upper)
            b0, u, sign = hessian
            bd = (np.diag(b0) + u @ np.diag(sign) @ u.T) @ res.step
            grad = (bd + g + a_eq.dense().T @ res.eq_multipliers
                    + a_in.dense().T @ res.in_multipliers
                    - res.lower_multipliers + res.upper_multipliers)
            residuals.append(np.max(np.abs(grad))
                             / (np.max(np.abs(g)) + np.max(np.abs(bd))))
            return res

        monkeypatch.setattr(solver, "solve_qp", spy)
        solve_placement(synthesize_scene(count=30, seed=300), SolveSettings(
            mode="squared", multistart=8, seed=0, early_stop_objective=1e-12))
        assert len(residuals) == 5
        assert max(residuals) <= 1e-7


class TestSolve:
    def test_quadratic_bowl(self):
        res = solve(quadratic_bowl(), SolverOptions(), np.array([5.0, 5.0]))
        assert res.converged
        assert np.allclose(res.z, [1.0, -2.0], atol=1e-8)

    def test_linear_over_disc(self):
        spec = NlpSpec(2, lambda z: z[0] + z[1], lambda z: np.ones(2),
                       lambda z: (np.zeros(0),
                                  np.array([z[0] ** 2 + z[1] ** 2 - 1.0])),
                       lambda z: (np.zeros((0, 2)),
                                  np.array([[2 * z[0], 2 * z[1]]])))
        res = solve(spec, SolverOptions(), np.array([0.5, -0.2]))
        assert res.converged
        root = -math.sqrt(0.5)
        assert np.allclose(res.z, [root, root], atol=1e-6)

    def test_minimin_reformulation(self):
        # branch 0: z^2 with minimum 0; branch 1: (z-1)^2 + 0.5. The convex
        # combination must land on w = (1, 0), z = 0 with value 0.
        def objective(v):
            return v[1] * v[0] ** 2 + v[2] * ((v[0] - 1) ** 2 + 0.5)

        def gradient(v):
            return np.array([2 * v[0] * v[1] + 2 * (v[0] - 1) * v[2],
                             v[0] ** 2, (v[0] - 1) ** 2 + 0.5])

        spec = NlpSpec(3, objective, gradient,
                       lambda v: (np.array([v[1] + v[2] - 1.0]), np.zeros(0)),
                       lambda v: (np.array([[0.0, 1.0, 1.0]]), np.zeros((0, 3))),
                       lower=np.array([-np.inf, 0.0, 0.0]),
                       upper=np.array([np.inf, 1.0, 1.0]))
        res = solve(spec, SolverOptions(), np.array([0.3, 0.6, 0.4]))
        assert res.converged
        assert res.objective == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(res.z, [0.0, 1.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize("spec, z0", [
        # z^2 + 1 <= 0 linearizes at z = 0 to the row 0 d + 1 <= 0
        pytest.param(NlpSpec(1, lambda z: 0.0, lambda z: np.zeros(1),
                             lambda z: (np.zeros(0),
                                        np.array([z[0] ** 2 + 1.0])),
                             lambda z: (np.zeros((0, 1)),
                                        np.array([[2.0 * z[0]]]))),
                     np.zeros(1), id="square_plus_one"),
        # |z1| >= 1 linearizes at z1 = 0 to the same row; with only a lower
        # bound on z0
        pytest.param(NlpSpec(2, lambda z: z[0], lambda z: np.array([1.0, 0.0]),
                             lambda z: (np.zeros(0),
                                        np.array([1.0 - z[1] ** 2])),
                             lambda z: (np.zeros((0, 2)),
                                        np.array([[0.0, -2.0 * z[1]]])),
                             lower=np.array([-0.5, -np.inf])),
                     np.zeros(2), id="lower_bound_only"),
    ])
    def test_infeasible_qp_stalls_after_one_reset(self, caplog, spec, z0):
        # a QP with no feasible point fails with the reset Hessian too, so
        # the start stops where it is, at the first iteration
        with caplog.at_level(logging.DEBUG, logger="cellplace.solver"):
            res = solve(spec, SolverOptions(), z0)
        assert res.status == "stalled"
        assert res.message == "QP subproblem failed"
        assert res.iterations == 1
        assert res.constraint_violation == 1.0
        assert np.array_equal(res.z, z0)
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("hessian reset")] == \
            ["hessian reset at iteration 1"]

    def test_evaluator_failure_carries_iterate(self):
        def bad_objective(z):
            raise RuntimeError("boom")

        spec = NlpSpec(1, bad_objective, lambda z: np.zeros(1),
                       _no_constraints, _no_jacobians(1))
        with pytest.raises(EvaluatorFailure) as info:
            solve(spec, SolverOptions(), np.array([1.5]))
        assert info.value.iterate is not None
        assert info.value.iterate[0] == pytest.approx(1.5)

    def test_non_finite_start_gradient_raises(self):
        # a NaN gradient at the start used to steer a line search of 81
        # objective calls that ended "line search failed"
        z0 = np.array([0.0, 1.0])
        objective_calls = []

        def objective(z):
            objective_calls.append(z.copy())
            return float(z @ z)

        def gradient(z):
            return np.full(2, np.nan) if np.array_equal(z, z0) else 2.0 * z

        spec = NlpSpec(2, objective, gradient, _no_constraints,
                       _no_jacobians(2))
        with pytest.raises(EvaluatorFailure, match="non-finite") as info:
            solve(spec, SolverOptions(), z0)
        assert np.array_equal(info.value.iterate, z0)
        assert len(objective_calls) == 1

    @pytest.mark.parametrize("count, seed, pinned", [
        (2, 402, (3, 5)), (30, 300, None)], ids=["pinned-k2", "squared-k30"])
    def test_no_callback_runs_twice_in_a_row_at_one_point(self, count, seed,
                                                          pinned):
        # the finalize check and the exit ask again for the point just
        # accepted; the evaluator answers from its last point
        import dataclasses
        from cellplace.nlp import BuildOptions, build_problem
        from cellplace.scene import synthesize_scene
        problem = build_problem(synthesize_scene(count=count, seed=seed),
                                BuildOptions(pinned=pinned))
        spec = problem.as_nlp_spec()
        calls = {}

        def recorded(name):
            real = getattr(spec, name)

            def callback(z):
                seen = calls.setdefault(name, [])
                assert not seen or seen[-1] != z.tobytes(), name
                seen.append(z.tobytes())
                return real(z)
            return callback

        names = ("objective", "constraints", "gradient", "jacobians")
        spy = dataclasses.replace(spec, **{n: recorded(n) for n in names})
        result = solve(spy, SolverOptions(), problem.initial_point("scene"))
        assert result.iterations > 1 and set(calls) == set(names)

    def test_non_finite_start_value_raises(self):
        spec = NlpSpec(1, lambda z: 0.0, lambda z: np.zeros(1),
                       lambda z: (np.zeros(0), np.array([np.inf])),
                       _no_jacobians(1))
        with pytest.raises(EvaluatorFailure, match="non-finite"):
            solve(spec, SolverOptions(), np.zeros(1))

    def test_non_finite_jacobian_at_an_accepted_point_raises(self):
        # the first step from z = 2 lands on z = 1 exactly (H0 = 1/2)
        spec = NlpSpec(1, lambda z: (z[0] - 1.0) ** 2,
                       lambda z: np.array([2.0 * (z[0] - 1.0)]),
                       lambda z: (np.zeros(0), np.array([z[0] - 5.0])),
                       lambda z: (np.zeros((0, 1)),
                                  np.array([[np.nan if z[0] < 1.5 else 1.0]])),
                       scales=np.array([math.sqrt(0.5)]))
        with pytest.raises(EvaluatorFailure, match="non-finite") as info:
            solve(spec, SolverOptions(), np.array([2.0]))
        assert info.value.iterate[0] < 1.5

    def test_non_finite_trial_point_only_rejects_the_trial(self):
        # z^4 is NaN below -1; the full first step from 3 lands far below,
        # and the line search must back off instead of failing the start
        trials = []

        def objective(z):
            trials.append(z[0])
            return float(z[0] ** 4) if z[0] >= -1.0 else math.nan

        spec = NlpSpec(1, objective, lambda z: np.array([4.0 * z[0] ** 3]),
                       _no_constraints, _no_jacobians(1))
        res = solve(spec, SolverOptions(max_iterations=3), np.array([3.0]))
        assert min(trials) < -1.0
        assert math.isfinite(res.objective) and res.objective < 81.0

    def test_line_search_failure_after_a_hessian_reset(self, caplog):
        # a gradient of the wrong sign makes every QP step an ascent
        # direction; the retry with a fresh Hessian cannot help, so the
        # start ends "line search failed" after one iteration
        spec = NlpSpec(1, lambda z: float((z[0] - 3.0) ** 2),
                       lambda z: np.array([-2.0 * (z[0] - 3.0)]),
                       _no_constraints, _no_jacobians(1))
        with caplog.at_level(logging.DEBUG, logger="cellplace.solver"):
            res = solve(spec, SolverOptions(), np.zeros(1))
        assert res.status == "stalled"
        assert res.message == "line search failed"
        assert res.iterations == 1
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("hessian reset")] == \
            ["hessian reset at iteration 1"]
        assert res.z[0] == 0.0

    def test_converged_means_tolerances_met(self):
        res = solve(quadratic_bowl(), SolverOptions(), np.array([100.0, -70.0]))
        assert res.converged
        assert res.kkt_residual <= 1e-6
        assert res.constraint_violation <= 1e-8


class TestTextbookSuite:
    """Constrained problems with hand-derived KKT solutions (to 1e-6)."""

    def check(self, spec, z0, z_star, f_star):
        res = solve(spec, SolverOptions(), np.asarray(z0, float))
        assert res.converged
        assert np.allclose(res.z, z_star, atol=1e-6)
        assert res.objective == pytest.approx(f_star, abs=1e-6)
        return res

    def test_projection_onto_line(self):
        # min x^2 + y^2 st x + y = 1 -> (0.5, 0.5), lambda = -1
        spec = NlpSpec(2, lambda z: z[0] ** 2 + z[1] ** 2, lambda z: 2 * z,
                       lambda z: (np.array([z[0] + z[1] - 1.0]), np.zeros(0)),
                       lambda z: (np.array([[1.0, 1.0]]), np.zeros((0, 2))))
        self.check(spec, [3.0, -5.0], [0.5, 0.5], 0.5)

    def test_linear_objective_on_disc(self):
        # min x + y st x^2 + y^2 <= 1 -> (-s, -s), s = sqrt(1/2), lambda = s
        spec = NlpSpec(2, lambda z: z[0] + z[1], lambda z: np.ones(2),
                       lambda z: (np.zeros(0),
                                  np.array([z[0] ** 2 + z[1] ** 2 - 1.0])),
                       lambda z: (np.zeros((0, 2)),
                                  np.array([[2 * z[0], 2 * z[1]]])))
        s = math.sqrt(0.5)
        self.check(spec, [0.2, 0.1], [-s, -s], -2 * s)

    def test_polyhedral_qp(self):
        # min (x-1)^2 + (y-2.5)^2 over three half-planes and x, y >= 0;
        # active row x - 2y + 2 >= 0, KKT multiplier 0.8 -> (1.4, 1.7).
        a = np.array([[-1.0, 2.0], [1.0, 2.0], [1.0, -2.0]])
        b = np.array([2.0, 6.0, 2.0])
        spec = NlpSpec(2, lambda z: (z[0] - 1) ** 2 + (z[1] - 2.5) ** 2,
                       lambda z: np.array([2 * (z[0] - 1), 2 * (z[1] - 2.5)]),
                       lambda z: (np.zeros(0), a @ z - b),
                       lambda z: (np.zeros((0, 2)), a.copy()),
                       lower=np.zeros(2), upper=np.full(2, np.inf))
        self.check(spec, [2.0, 0.0], [1.4, 1.7], 0.8)

    def test_closest_point_on_ball(self):
        # min x^2 + y^2 st (x-1)^2 + y^2 <= 1/4 -> (0.5, 0), lambda = 1
        spec = NlpSpec(2, lambda z: z[0] ** 2 + z[1] ** 2, lambda z: 2 * z,
                       lambda z: (np.zeros(0),
                                  np.array([(z[0] - 1) ** 2 + z[1] ** 2 - 0.25])),
                       lambda z: (np.zeros((0, 2)),
                                  np.array([[2 * (z[0] - 1), 2 * z[1]]])))
        self.check(spec, [2.0, 1.0], [0.5, 0.0], 0.25)

    def test_active_upper_bound(self):
        # min (x-2)^2 st x in [0, 1] -> x = 1, bound multiplier 2
        spec = NlpSpec(1, lambda z: (z[0] - 2.0) ** 2,
                       lambda z: np.array([2 * (z[0] - 2.0)]),
                       _no_constraints, _no_jacobians(1),
                       lower=np.array([0.0]), upper=np.array([1.0]))
        self.check(spec, [0.3], [1.0], 1.0)

    def test_simplex_vertex(self):
        # min w0 f0 + w1 f1 with constants f0 = 2 < f1 = 5 on the simplex
        # -> w = (1, 0), value 2.
        spec = NlpSpec(2, lambda z: 2.0 * z[0] + 5.0 * z[1],
                       lambda z: np.array([2.0, 5.0]),
                       lambda z: (np.array([z[0] + z[1] - 1.0]), np.zeros(0)),
                       lambda z: (np.array([[1.0, 1.0]]), np.zeros((0, 2))),
                       lower=np.zeros(2), upper=np.ones(2))
        self.check(spec, [0.5, 0.5], [1.0, 0.0], 2.0)


class TestHessianConditioning:
    def test_bfgs_hessian_stays_spd_on_nonconvex_problem(self):
        # Track the internal Hessian through a run on a nonconvex objective by
        # re-running the update recurrence via the public result: it suffices
        # that the solve converges, which the damping must allow.
        spec = NlpSpec(2,
                       lambda z: math.cos(z[0]) + 0.5 * z[1] ** 2 + 0.01 * z[0] ** 2,
                       lambda z: np.array([-math.sin(z[0]) + 0.02 * z[0], z[1]]),
                       _no_constraints, _no_jacobians(2))
        res = solve(spec, SolverOptions(max_iterations=200),
                    np.array([2.0, 1.0]))
        assert res.converged


def dense_damped_bfgs(b0, pairs):
    """Reference: the damped BFGS updates applied one at a time to diag(b0)."""
    h = np.diag(b0)
    for s, y in pairs:
        hs = h @ s
        shs = float(s @ hs)
        sy = float(s @ y)
        if shs > 1e-14:
            if sy < 0.2 * shs:
                theta = 0.8 * shs / (shs - sy)
                y = theta * y + (1.0 - theta) * hs
                sy = float(s @ y)
            if sy > 1e-14:
                h = h - np.outer(hs, hs) / shs + np.outer(y, y) / sy
                h = 0.5 * (h + h.T)
    return h


class TestRows:
    """solver.Rows against its dense form, and the QP on either form."""

    @staticmethod
    def random_rows(rng, r, n, p, t):
        """Rows with a random (r, p) block and t tail entries per row past
        the block, about a third of them padding (value 0 at any column);
        with p = n every tail entry pads."""
        cols = rng.integers(min(p, n - 1), n, size=(r, t))
        vals = rng.normal(size=(r, t))
        pad = (rng.random((r, t)) < 1.0 / 3.0) | (p == n)
        vals[pad] = 0.0
        cols[pad] = rng.integers(0, n, size=int(pad.sum()))
        return solver.Rows(rng.normal(size=(r, p)), cols, vals, n)

    @pytest.mark.parametrize("p, t", [(6, 1), (6, 3), (10, 0), (10, 2)],
                             ids=["block-6-tail-1", "block-6-tail-3",
                                  "dense", "dense-with-padding"])
    def test_products_and_subsets_match_the_dense_form(self, p, t):
        # n = 10: p = n is a plain array's shape; its tail can only pad
        rng = np.random.default_rng(11)
        for r in (0, 1, 7, 40):
            rows = self.random_rows(rng, r, 10, p, t)
            a = rows.dense()
            assert a.shape == rows.shape == (r, 10)
            x, y = rng.normal(size=10), rng.normal(size=r)
            # relative to the magnitudes each product sums
            bound = np.max(np.abs(a) @ np.abs(x), initial=1.0)
            np.testing.assert_allclose(rows.dot(x), a @ x, rtol=0.0,
                                       atol=1e-12 * bound)
            bound = np.max(np.abs(y) @ np.abs(a), initial=1.0)
            np.testing.assert_allclose(rows.tdot(y), a.T @ y, rtol=0.0,
                                       atol=1e-12 * bound)
            for pick in (rng.random(r) < 0.5, rng.permutation(r)[:r // 2]):
                assert np.array_equal(rows[pick].dense(), a[pick])
            for i in range(r):
                assert np.array_equal(rows.row(i), a[i])
            assert np.array_equal(solver.Rows.of(a, 10, p).dense(), a)
            assert np.array_equal((-rows).dense(), -a)

    def test_plain_arrays_are_the_full_block(self):
        a = np.arange(12.0).reshape(3, 4)
        rows = solver.Rows.of(a, 4)
        assert np.shares_memory(rows.block, a) and rows.t == 0
        assert solver.Rows.of(rows, 4) is rows

    def test_qp_takes_the_same_path_on_either_form(self):
        # placement-like QPs: rows over 6 leading columns plus one -1 in a
        # slack column, simplex-like equality rows over other columns, and
        # a compact H with pairs; the structured and the dense form end
        # with the same active set and step
        rng = np.random.default_rng(13)
        for _ in range(30):
            n_x, n_w, n_s = 6, 6, 8
            n = n_x + n_w + n_s
            h = DampedBfgs(10.0 ** rng.uniform(-1, 1, size=n))
            for s, y in TestCompactHessian().random_pairs(
                    rng, n, int(rng.integers(0, 4))):
                h.update(s, y)
            r = int(rng.integers(5, 40))
            a_in = solver.Rows(
                rng.normal(size=(r, n_x)),
                rng.integers(n_x + n_w, n, size=(r, 1)), -np.ones((r, 1)), n)
            a_eq = solver.Rows(
                np.zeros((2, n_x)), n_x + np.arange(n_w).reshape(2, 3),
                np.ones((2, 3)), n)
            lower = np.r_[np.full(n_x, -1.0), np.zeros(n_w + n_s)]
            upper = np.r_[np.full(n_x, 1.0), np.full(n_w + n_s, np.inf)]
            d0 = np.r_[rng.uniform(-0.5, 0.5, n_x), rng.uniform(0, 1, n_w),
                       rng.uniform(0, 2, n_s)]
            b_in = a_in.dot(d0) + rng.uniform(0.0, 0.5, r)
            b_eq = a_eq.dot(d0)
            g = 3.0 * rng.normal(size=n)
            results = [solve_qp(h.compact(), g, eq, b_eq, ineq, b_in,
                                lower, upper)
                       for eq, ineq in ((a_eq, a_in),
                                        (a_eq.dense(), a_in.dense()))]
            for field in ("eq_multipliers", "in_multipliers",
                          "lower_multipliers", "upper_multipliers"):
                support = [np.flatnonzero(getattr(res, field))
                           for res in results]
                assert np.array_equal(*support)
            structured, plain = (res.step for res in results)
            assert np.linalg.norm(structured - plain) <= \
                1e-10 * np.linalg.norm(plain)
            assert results[0].iterations == results[1].iterations


class TestQpMemo:
    """solver.QpMemo keys on the exact bytes of every QP input."""

    @staticmethod
    def placement_like_qp():
        """(hessian, g, a_eq, b_eq, a_in, b_in, lower, upper) of a
        placement-like QP with a compact H with pairs, tails on both row
        sets, and finite values throughout, so that flipping the last bit of
        any array's last entry leaves a valid QP (an even first tail column
        keeps a flipped column in the tail range)."""
        rng = np.random.default_rng(17)
        n_x, n_w, n_s = 6, 6, 8
        n = n_x + n_w + n_s
        h = DampedBfgs(10.0 ** rng.uniform(-1, 1, size=n))
        for s, y in TestCompactHessian().random_pairs(rng, n, 3):
            h.update(s, y)
        a_in = solver.Rows(rng.normal(size=(12, n_x)),
                           rng.integers(n_x + n_w, n, size=(12, 1)),
                           -np.ones((12, 1)), n)
        a_eq = solver.Rows(np.zeros((2, n_x)),
                           n_x + np.arange(n_w).reshape(2, 3),
                           np.ones((2, 3)), n)
        d0 = np.r_[rng.uniform(-0.5, 0.5, n_x), rng.uniform(0, 1, n_w),
                   rng.uniform(0, 2, n_s)]
        lower = np.r_[np.full(n_x, -1.0), np.zeros(n_w + n_s)]
        upper = np.full(n, 10.0)
        return (h.compact(), 3.0 * rng.normal(size=n), a_eq, a_eq.dot(d0),
                a_in, a_in.dot(d0) + rng.uniform(0.0, 0.5, 12), lower, upper)

    def test_a_flipped_last_bit_in_any_input_misses(self):
        qp = self.placement_like_qp()
        hessian, g, a_eq, b_eq, a_in, b_in, lower, upper = qp
        inputs = {"b0": hessian[0], "U": hessian[1], "sign": hessian[2],
                  "g": g, "b_eq": b_eq, "b_in": b_in, "lower": lower,
                  "upper": upper}
        for name, rows in (("eq", a_eq), ("in", a_in)):
            for part in ("block", "cols", "vals"):
                inputs[f"{name}.{part}"] = getattr(rows, part)
        memo = solver.QpMemo()
        memo.solve(*qp)
        for name, a in inputs.items():
            bits = a.view(f"u{a.itemsize}").reshape(-1)
            bits[-1] ^= 1
            misses = memo.misses
            memo.solve(*qp)
            assert memo.misses == misses + 1 and memo.hits == 0, name
            bits[-1] ^= 1
        memo.solve(*qp)
        assert memo.hits == 1

    def test_a_hit_is_read_only_and_equals_a_fresh_solve(self):
        qp = self.placement_like_qp()
        memo = solver.QpMemo()
        first = memo.solve(*qp)
        assert memo.solve(*qp) is first
        assert (memo.hits, memo.misses) == (1, 1)
        fresh = solve_qp(*qp)
        assert first.iterations == fresh.iterations
        for field in ("step", "eq_multipliers", "in_multipliers",
                      "lower_multipliers", "upper_multipliers"):
            kept = getattr(first, field)
            assert not kept.flags.writeable, field
            assert np.array_equal(kept, getattr(fresh, field)), field

    def test_memo_is_bounded(self):
        memo = solver.QpMemo()
        hessian = dense(np.eye(2))
        gs = [np.array([float(i), -1.0])
              for i in range(solver.QP_MEMO_SIZE + 1)]
        for g in gs:
            memo.solve(hessian, g)
            assert len(memo) <= solver.QP_MEMO_SIZE
        assert memo.misses == solver.QP_MEMO_SIZE + 1
        memo.solve(hessian, gs[-1])
        assert memo.hits == 1
        memo.solve(hessian, gs[0])  # the least recently used QP was dropped
        assert memo.misses == solver.QP_MEMO_SIZE + 2

    def test_a_raising_qp_is_not_kept(self):
        memo = solver.QpMemo()
        infeasible = (dense(np.eye(1)), np.zeros(1), None, None,
                      np.array([[1.0], [-1.0]]), np.array([-2.0, 1.0]))
        for _ in range(2):
            with pytest.raises(InfeasibleSubproblem):
                memo.solve(*infeasible)
        assert (len(memo), memo.hits, memo.misses) == (0, 0, 2)


class TestCompactHessian:
    def random_pairs(self, rng, n, r):
        """Secant pairs of a random SPD curvature, some of them nonconvex."""
        root = rng.normal(size=(n, n))
        curvature = root @ root.T / n + 0.1 * np.eye(n)
        pairs = []
        for _ in range(r):
            s = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 1)
            y = curvature @ s + 0.1 * rng.normal(size=n) * np.linalg.norm(s)
            if rng.uniform() < 0.2:
                y = -y  # negative curvature: the update must damp it
            pairs.append((s, y))
        return pairs

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 41))
            r = int(rng.integers(1, 2 * n + 1))
            b0 = 10.0 ** rng.uniform(-2, 2, size=n)
            pairs = self.random_pairs(rng, n, r)
            h = DampedBfgs(b0)
            for s, y in pairs:
                h.update(s, y)
            dense_h = dense_damped_bfgs(b0, pairs)
            block = rng.normal(size=(n, 3))
            want = np.linalg.solve(dense_h, block)
            got = inverse(h, block)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            v = block[:, 0]
            assert np.linalg.norm(inverse(h, v) - want[:, 0]) <= \
                1e-10 * np.linalg.norm(want[:, 0])
            back = h.times(inverse(h, v))
            assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)

    def test_reset_returns_b0(self):
        rng = np.random.default_rng(9)
        b0 = 10.0 ** rng.uniform(-2, 2, size=6)
        h = DampedBfgs(b0)
        for s, y in self.random_pairs(rng, 6, 4):
            h.update(s, y)
        v = rng.normal(size=6)
        assert not np.allclose(h.times(v), b0 * v)
        h.reset()
        assert np.array_equal(h.times(v), b0 * v)
        assert np.array_equal(inverse(h, v), v / b0)

    def test_pair_below_the_curvature_floor_is_skipped(self):
        # s'Bs / s's = 1e-12 against |B| = 1: below CURVATURE_FLOOR, though
        # above the absolute test
        h = DampedBfgs(np.array([1.0, 1e-12]))
        h.update(np.array([0.0, 1.0]), np.array([0.0, 5e-13]))
        assert h.compact()[1].shape == (2, 0)
        h.update(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
        assert h.compact()[1].shape == (2, 2)

    def test_tiny_step_is_skipped(self):
        h = DampedBfgs(np.ones(3))
        h.update(np.full(3, 1e-9), np.ones(3))
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(inverse(h, v), v)


class TestMultistart:
    def two_basin_spec(self):
        # f(z) = (z^2 - 1)^2 + 0.05 (z - 1)^2: basins near -1 and +1, the
        # right one is global.
        return NlpSpec(
            1, lambda z: (z[0] ** 2 - 1.0) ** 2 + 0.05 * (z[0] - 1.0) ** 2,
            lambda z: np.array([4 * z[0] * (z[0] ** 2 - 1.0)
                                + 0.1 * (z[0] - 1.0)]),
            _no_constraints, _no_jacobians(1),
            lower=np.array([-2.0]), upper=np.array([2.0]))

    def test_single_start_equals_solve(self):
        spec = self.two_basin_spec()
        opts = SolverOptions(multistart=1, seed=0)
        direct = solve(spec, opts, np.array([-1.5]))
        multi = multistart(spec, opts, lambda i, rng: np.array([-1.5]))
        assert multi.z[0] == direct.z[0]
        assert multi.objective == direct.objective

    def test_finds_global_basin(self):
        spec = self.two_basin_spec()
        opts = SolverOptions(multistart=8, seed=3)
        res = multistart(spec, opts,
                         lambda i, rng: rng.uniform(-2.0, 2.0, size=1))
        assert res.converged
        assert res.z[0] == pytest.approx(1.0, abs=0.02)

    def test_fixed_seed_repeats_bit_identically(self):
        spec = self.two_basin_spec()
        opts = SolverOptions(multistart=6, seed=11)
        sampler = lambda i, rng: rng.uniform(-2.0, 2.0, size=1)
        first = multistart(spec, opts, sampler)
        second = multistart(spec, opts, sampler)
        assert first.z[0] == second.z[0]
        assert first.objective == second.objective
        assert first.start_index == second.start_index

    def test_failed_start_stays_local(self):
        # the objective raises at start 1's point only; starts 0 and 2 solve
        spec = self.two_basin_spec()
        objective = spec.objective

        def fragile(z):
            if z[0] == 1.75:
                raise RuntimeError("boom")
            return objective(z)

        spec.objective = fragile
        starts = [-1.5, 1.75, 1.25]
        opts = SolverOptions(multistart=3, seed=0)
        res = multistart(spec, opts, lambda i, rng: np.array([starts[i]]))
        assert res.converged
        assert res.start_index == 2
        assert res.z[0] == pytest.approx(1.0, abs=0.02)

    def test_non_finite_start_fails_and_never_wins(self):
        # z^4 is NaN above 4; start 0 used to end "stalled" with objective
        # NaN and win, because NaN never compares smaller than 0.0198
        def objective(z):
            return float(z[0] ** 4) if z[0] <= 4.0 else math.nan

        spec = NlpSpec(1, objective, lambda z: np.array([4.0 * z[0] ** 3]),
                       _no_constraints, _no_jacobians(1))
        starts = [5.0, 3.0]
        opts = SolverOptions(multistart=2, max_iterations=1)
        res = multistart(spec, opts, lambda i, rng: np.array([starts[i]]))
        assert res.start_index == 1
        assert res.status == "max_iterations"
        assert res.objective == pytest.approx(0.0198, abs=1e-4)
        with pytest.raises(EvaluatorFailure):
            solve(spec, opts, np.array([5.0]))

    def test_every_start_failed_raises_the_first_failure(self):
        def bad_objective(z):
            raise RuntimeError(f"boom at {z[0]}")

        spec = NlpSpec(1, bad_objective, lambda z: np.zeros(1),
                       _no_constraints, _no_jacobians(1))
        opts = SolverOptions(multistart=3, seed=0)
        with pytest.raises(EvaluatorFailure, match="boom at 0.0"):
            multistart(spec, opts, lambda i, rng: np.array([float(i)]))
