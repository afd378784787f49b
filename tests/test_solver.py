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
    """The QP's H^-1 operator for a dense positive definite H."""
    return lambda v: np.linalg.solve(h, v)


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
        # the blocked install refuses the singular N H^-1 N^T, so the rows
        # go in one at a time and the copy is left out as dependent
        fallbacks = []
        real_install = solver._ActiveSet.batch_init_equalities

        def install(*args):
            try:
                return real_install(*args)
            except InfeasibleSubproblem:
                fallbacks.append(True)
                raise

        monkeypatch.setattr(solver._ActiveSet, "batch_init_equalities",
                            install)
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        g = np.array([1.0, -2.0])
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        b = np.array([1.0, 2.0])
        res = solve_qp(dense(h), g, a, b)
        assert fallbacks
        kkt = np.linalg.solve(np.block([[h, a[:1].T], [a[:1], np.zeros((1, 1))]]),
                              np.concatenate([-g, b[:1]]))
        assert np.allclose(res.step, kkt[:2], atol=1e-10)
        assert np.max(np.abs(h @ res.step + g + a.T @ res.eq_multipliers)) < 1e-10

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

    def test_each_step_projects_its_row_once(self):
        # the unconstrained optimum (1, 1, 1, 1) violates three orthogonal
        # rows (two general rows and an upper bound); each enters with one
        # step and none is dropped, so H^-1 is applied to g and then once
        # per row: the step's projection also serves the row's addition
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        calls = []

        def hinv(v):
            calls.append(v.shape)
            return np.linalg.solve(h, v)

        a_in = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        g = -h @ np.ones(4)
        upper = np.array([np.inf, np.inf, 0.5, np.inf])
        res = solve_qp(hinv, g, a_in=a_in, b_in=np.array([0.5, 0.5]),
                       upper=upper)
        assert np.allclose(res.step, [0.5, 0.5, 0.5, 1.0], atol=1e-12)
        assert np.all(res.in_multipliers > 0.0)
        assert res.upper_multipliers[2] > 0.0
        k = 3
        assert len(calls) == 1 + k


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

    def test_evaluator_failure_carries_iterate(self):
        def bad_objective(z):
            raise RuntimeError("boom")

        spec = NlpSpec(1, bad_objective, lambda z: np.zeros(1),
                       _no_constraints, _no_jacobians(1))
        with pytest.raises(EvaluatorFailure) as info:
            solve(spec, SolverOptions(), np.array([1.5]))
        assert info.value.iterate is not None
        assert info.value.iterate[0] == pytest.approx(1.5)

    def test_elastic_step_keeps_lower_bound_without_upper(self):
        # |z1| >= 1 linearizes to an infeasible row at z1 = 0, so the first
        # step comes from the elastic QP; with no upper bounds given it must
        # still keep z0 >= -0.5 in every point it tries
        seen = []

        def objective(z):
            seen.append(z.copy())
            return z[0]

        spec = NlpSpec(2, objective, lambda z: np.array([1.0, 0.0]),
                       lambda z: (np.zeros(0), np.array([1.0 - z[1] ** 2])),
                       lambda z: (np.zeros((0, 2)),
                                  np.array([[0.0, -2.0 * z[1]]])),
                       lower=np.array([-0.5, -np.inf]))
        solve(spec, SolverOptions(max_iterations=3), np.zeros(2))
        assert min(z[0] for z in seen) >= -0.5 - 1e-9

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
            got = h.solve(block)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            v = block[:, 0]
            assert np.linalg.norm(h.solve(v) - want[:, 0]) <= \
                1e-10 * np.linalg.norm(want[:, 0])
            back = h.times(h.solve(v))
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
        assert np.array_equal(h.solve(v), v / b0)

    def test_tiny_step_is_skipped(self):
        h = DampedBfgs(np.ones(3))
        h.update(np.full(3, 1e-9), np.ones(3))
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(h.solve(v), v)


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

    def test_every_start_failed_raises_the_first_failure(self):
        def bad_objective(z):
            raise RuntimeError(f"boom at {z[0]}")

        spec = NlpSpec(1, bad_objective, lambda z: np.zeros(1),
                       _no_constraints, _no_jacobians(1))
        opts = SolverOptions(multistart=3, seed=0)
        with pytest.raises(EvaluatorFailure, match="boom at 0.0"):
            multistart(spec, opts, lambda i, rng: np.array([float(i)]))
