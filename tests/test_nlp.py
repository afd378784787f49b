import dataclasses
import json
import logging
import math
import time

import numpy as np
import pytest

from cellplace import nlp, solver
from cellplace.errors import InvalidScene
from cellplace.geometry import Pose, pose_from_frame, rot_x, wrap_angle
from cellplace.kinematics import limit_margins
from cellplace.nlp import (BuildOptions, SolveSettings, build_problem,
                           make_pinned_solver, solve_placement)
from cellplace.oracle import (OUT_OF_WORKSPACE, check_placement,
                              minimin_enumerate, verify_solution)
from cellplace.scene import (PlacementBounds, ProcessPoint, Scene, load_report,
                             save_report, synthesize_scene)

DEG = math.radians


@pytest.fixture(scope="module")
def scene_k1():
    return synthesize_scene(count=1, seed=101)


@pytest.fixture(scope="module")
def scene_k2():
    return synthesize_scene(count=2, seed=102)


@pytest.fixture(scope="module")
def scene_k3_one_segment():
    return synthesize_scene(count=3, seed=103, segment_size=3)


class TestLayout:
    def test_k1_squared_counts(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions(mode="squared"))
        assert p.n_vars == 6 + 8 + 8 == 22
        assert p.n_eq == 1
        assert p.n_ineq == 48  # one row per (configuration, axis)

    def test_abs_mode_adds_split_variables(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions(mode="abs"))
        assert p.n_vars == 22 + 16
        assert p.n_eq == 1 + 8

    def test_shared_segment_shrinks_slack_block(self, scene_k3_one_segment):
        p = build_problem(scene_k3_one_segment, BuildOptions(mode="squared"))
        # one declared segment for all three points: slack block is 8, not 24
        assert p.n_segments == 1
        assert p.n_vars == 6 + 24 + 8
        assert p.n_ineq == 48 * 3

    def test_every_point_gets_one_simplex_row(self, scene_k2):
        p = build_problem(scene_k2, BuildOptions(mode="squared"))
        z = p.initial_point("scene")
        j_eq, _ = p.eval_jacobians(z)
        for k in range(2):
            row = j_eq[k]
            assert np.count_nonzero(row) == 8
            assert np.all(row[p.off_w + 8 * k:p.off_w + 8 * (k + 1)] == 1.0)

    def test_empty_scene_rejected(self, scene_k1):
        empty = Scene(robot=scene_k1.robot, points=(),
                      bounds=scene_k1.bounds)
        with pytest.raises(InvalidScene):
            build_problem(empty, BuildOptions())

    def test_bad_bounds_rejected(self, scene_k1):
        bad = Scene(robot=scene_k1.robot, points=scene_k1.points,
                    bounds=PlacementBounds(np.full(6, 1.0), np.full(6, -1.0)))
        with pytest.raises(InvalidScene):
            build_problem(bad, BuildOptions())


class TestObjective:
    def test_zero_at_reachable_placement_with_zero_slacks(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions(mode="squared"))
        gt = scene_k1.metadata["ground_truth"]
        x = Pose.from_degrees(gt["x"], gt["y"], gt["z"], gt["a"], gt["b"],
                              gt["c"]).as_array()
        z = np.zeros(p.n_vars)
        z[:6] = x
        z[p.off_w:p.off_w + 8] = 1.0 / 8.0
        v = p.kinematic_values(x).v
        if np.all(v == 0.0):  # fully reachable both families: objective 0
            assert p.eval_objective(z) == pytest.approx(0.0, abs=1e-12)

    def test_unit_weight_squared_value(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions(mode="squared"))
        z = p.initial_point("scene")
        x = z[:6]
        v = p.kinematic_values(x).v
        config = 3
        z[p.off_w:p.off_w + 8] = 0.0
        z[p.off_w + config] = 1.0
        z[p.off_m:p.off_m + 8] = 0.0
        assert p.eval_objective(z) == pytest.approx(v[0, config] ** 2, rel=1e-12)

    def test_abs_mode_uses_split_sum(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions(mode="abs"))
        z = np.zeros(p.n_vars)
        z[:6] = p.x0
        config = 2
        z[p.off_w + config] = 1.0
        z[p.off_vp + config] = 10.0  # v+ = 10, v- = 0 -> contribution 10
        assert p.eval_objective(z) == pytest.approx(10.0, rel=1e-12)


class TestConstraints:
    def test_uniform_weights_satisfy_simplex(self, scene_k2):
        p = build_problem(scene_k2, BuildOptions(mode="squared"))
        z = p.initial_point("scene")
        eq, _ = p.eval_constraints(z)
        assert np.max(np.abs(eq[:2])) < 1e-15

    def test_hinge_value_for_axis2_at_50deg(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions(mode="squared"))
        z = p.initial_point("scene")
        values = p.kinematic_values(z[:6])
        # put point 0, config 0, axis 2 at 50 deg, 5 deg past its upper limit
        theta = values.joints.copy()
        theta[0, 0, 1] = DEG(50)
        # a fresh problem, so that no cached record hides the edited table
        p = build_problem(scene_k1, BuildOptions(mode="squared"))
        p._kinematics = lambda xs: (theta[None], values.v[None])
        row = (0 * 8 + 0) * 6 + 1
        z[p.off_m:p.off_m + 8] = 0.0
        _, ineq = p.eval_constraints(z)
        assert ineq[row] == pytest.approx(DEG(5), abs=1e-12)
        z[p.off_m + 0] = DEG(5)
        _, ineq = p.eval_constraints(z)
        assert ineq[row] == pytest.approx(0.0, abs=1e-12)
        # every row is -margin - m of the deepest representative
        _, margins = limit_margins(theta, *scene_k1.robot.limits)
        m = np.repeat(p.m_of(z), 6, axis=1)
        assert np.array_equal(ineq, (-margins[0] - m[0].reshape(8, 6)).ravel())

    def test_initial_point_satisfies_all_inequalities(self, scene_k2):
        for mode in ("squared", "abs"):
            p = build_problem(scene_k2, BuildOptions(mode=mode))
            z = p.initial_point("scene")
            eq, ineq = p.eval_constraints(z)
            assert ineq.max() <= 1e-12
            assert np.max(np.abs(eq)) <= 1e-12  # abs split exact at start

    def test_abs_split_is_complementary_at_start(self, scene_k2):
        p = build_problem(scene_k2, BuildOptions(mode="abs"))
        z = p.initial_point("scene")
        vp, vm = p.vplus_of(z), p.vminus_of(z)
        assert np.all(vp * vm == 0.0)
        assert np.all(vp >= 0.0) and np.all(vm >= 0.0)


class TestJacobians:
    def test_analytic_blocks_match_fd(self, scene_k2):
        # w/m/v blocks of objective gradient and constraint Jacobians are
        # analytic; verify them against a full finite difference of the
        # assembled functions.
        for mode in ("squared", "abs"):
            p = build_problem(scene_k2, BuildOptions(mode=mode))
            rng = np.random.default_rng(5)
            z = p.initial_point("scene")
            z[6:] += rng.uniform(0.01, 0.2, size=p.n_vars - 6)
            grad = p.eval_gradient(z)
            h = 1e-7
            for col in range(6, p.n_vars):
                zp, zm = z.copy(), z.copy()
                zp[col] += h
                zm[col] -= h
                fd = (p.eval_objective(zp) - p.eval_objective(zm)) / (2 * h)
                assert grad[col] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_constraint_jacobian_x_block_matches_fd(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions(mode="squared"))
        z = p.initial_point("scene")
        _, j_in = p.eval_jacobians(z)
        h = 1e-5
        rng = np.random.default_rng(9)
        rows = rng.integers(0, p.n_ineq, size=20)
        for col in range(6):
            zp, zm = z.copy(), z.copy()
            zp[col] += h * max(1.0, abs(z[col]))
            zm[col] -= h * max(1.0, abs(z[col]))
            _, ip = p.eval_constraints(zp)
            _, im = p.eval_constraints(zm)
            fd = (ip - im) / (2 * h * max(1.0, abs(z[col])))
            for row in rows:
                assert j_in[row, col] == pytest.approx(fd[row], rel=2e-3,
                                                       abs=2e-4)

    def test_simplex_rows_have_no_x_dependence(self, scene_k2):
        p = build_problem(scene_k2, BuildOptions(mode="squared"))
        z = p.initial_point("scene")
        j_eq, _ = p.eval_jacobians(z)
        assert np.all(j_eq[:2, :6] == 0.0)

    def test_fd_jacobian_across_the_pi_seam(self, scene_k1):
        # one joint angle is wrap(pi - 1e-7 + x0): at x0 = 0 the two probes
        # x0 +- 1e-6 straddle the seam, and without wrapping their difference
        # the derivative would be near -2pi / 2e-6
        p = build_problem(scene_k1, BuildOptions(mode="squared"))

        def seam(xs):
            joints = np.zeros((len(xs), p.K, p.C, 6))
            joints[:, 0, 0, 0] = wrap_angle(np.pi - 1e-7 + xs[:, 0])
            return joints, np.zeros((len(xs), p.K, p.C))

        p._kinematics = seam
        dtheta, _ = p.fd_kinematic_jacobians(np.zeros(6))
        assert dtheta[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-6)
        assert np.count_nonzero(dtheta) == 1

    def test_richardson_step_halving(self, scene_k1):
        # central differences: halving the step shrinks the truncation error
        # by 4; the ratio of successive difference norms must sit near 4 and
        # the two estimates agree to about the truncation level.
        p = build_problem(scene_k1, BuildOptions(mode="squared"))
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(20):
            x = rng.uniform(scene_k1.bounds.lower, scene_k1.bounds.upper)
            base = 1e-3
            j1 = np.concatenate([a.ravel() for a in
                                 p.fd_kinematic_jacobians(x, base)])
            j2 = np.concatenate([a.ravel() for a in
                                 p.fd_kinematic_jacobians(x, base / 2)])
            j4 = np.concatenate([a.ravel() for a in
                                 p.fd_kinematic_jacobians(x, base / 4)])
            rel = np.abs(j1 - j2) / np.maximum(np.abs(j2), 1e-3)
            assert np.median(rel) <= 1e-4  # typical-entry consistency
            num = np.abs(j1 - j2)
            den = np.abs(j2 - j4)
            mask = (den > 1e-10) & (num > 4e-10)
            if mask.sum() < 10:
                continue
            ratio = np.median(num[mask] / den[mask])
            assert 3.5 <= ratio <= 4.5
            checked += 1
        assert checked >= 10


class TestInitialPoint:
    def test_scene_strategy_uses_scene_x0(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions())
        z = p.initial_point("scene")
        assert np.allclose(z[:6], scene_k1.initial.as_array(), atol=0)

    def test_random_strategy_respects_bounds(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions())
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = p.initial_point("random", rng)
            assert np.all(z[:6] >= scene_k1.bounds.lower)
            assert np.all(z[:6] <= scene_k1.bounds.upper)

    def test_unknown_strategy_rejected(self, scene_k1):
        p = build_problem(scene_k1, BuildOptions())
        with pytest.raises(ValueError):
            p.initial_point("warmstart")


class TestExtractSolution:
    def test_argmax_and_tie_break(self, scene_k2):
        p = build_problem(scene_k2, BuildOptions(mode="squared"))
        z = p.initial_point("scene")
        w = p.w_of(z)
        w[0] = 0.0
        w[0, 3] = 1.0
        w[1] = 0.0
        w[1, 0] = 0.5
        w[1, 1] = 0.5  # tie: smallest index wins
        configs = p.chosen_configurations(z)
        assert configs[0] == 3
        assert configs[1] == 0

    def test_feasible_solve_verdict(self, scene_k2):
        report = solve_placement(scene_k2, SolveSettings(
            mode="squared", multistart=4, seed=0, early_stop_objective=1e-12))
        assert report.objective <= 1e-8
        assert report.verdict == "feasible"
        assert report.diagnostics["polish_iterations"] == 0
        ok, diffs = verify_solution(scene_k2, report)
        assert ok and diffs == []

    def test_polished_report_keeps_multistart_diagnostics(self, scene_k2,
                                                           monkeypatch):
        # the multistart result ends 1e-9 rad outside one axis range, so the
        # pipeline polishes; the report must still describe the multistart
        # result and time the whole pipeline, not only the polish
        solved = []
        real_multistart = solver.multistart

        def record(*args):
            solved.append(real_multistart(*args))
            return solved[-1]

        monkeypatch.setattr(solver, "multistart", record)
        first = solve_placement(scene_k2, SolveSettings(mode="squared"))
        assert first.verdict == "feasible"
        # shrink the tightest axis range until that joint sits 1e-9 outside
        k, j = np.unravel_index(
            np.argmin([p.axis_margins for p in first.points]), (2, 6))
        joint = first.points[k].joints[j]
        robot = scene_k2.robot
        lo, hi = robot.limits[0][j], robot.limits[1][j]
        edge = ({"lo": joint + 1e-9} if joint - lo < hi - joint
                else {"hi": joint - 1e-9})
        rows = list(robot.rows)
        row_index = robot.rows.index(robot.rotational_rows[j])
        rows[row_index] = dataclasses.replace(rows[row_index], **edge)
        scene = dataclasses.replace(scene_k2, robot=dataclasses.replace(
            robot, rows=tuple(rows)))
        result = solved[0]
        monkeypatch.setattr(solver, "multistart", lambda *args: result)
        started = time.perf_counter()
        report = solve_placement(scene, SolveSettings(mode="squared"))
        wall = time.perf_counter() - started
        assert report.verdict == "feasible"
        polish = report.diagnostics["polish_iterations"]
        assert polish > 0
        assert report.diagnostics == {
            "status": result.status, "iterations": result.iterations,
            "kkt_residual": result.kkt_residual,
            "constraint_violation": result.constraint_violation,
            "start_index": result.start_index, "polish_iterations": polish,
            "degenerate_retries": 0}
        assert report.diagnostics["status"] == "converged"
        assert 0.5 * wall <= report.elapsed_s <= wall

    def test_settings_reach_the_solver_as_given(self, scene_k2, monkeypatch):
        # the caller's settings object is the multistart's options; the
        # polish re-solve keeps every setting but the iteration limit
        settings = SolveSettings(mode="squared", seed=3, kkt_tolerance=1e-7,
                                 constraint_tolerance=1e-9)
        seen, results = [], []
        real_multistart, real_solve = solver.multistart, solver.solve

        def multistart(spec, options, sampler):
            seen.append(options)
            results.append(real_multistart(spec, options, sampler))
            return results[-1]

        def solve(spec, options, z0):
            seen.append(options)
            return real_solve(spec, options, z0)

        monkeypatch.setattr(solver, "multistart", multistart)
        solve_placement(scene_k2, settings)
        assert len(seen) == 1 and seen[0] is settings
        monkeypatch.setattr(solver, "solve", solve)
        nlp._polish(scene_k2, settings, results[0])
        assert seen[1] == dataclasses.replace(settings, max_iterations=100)


def _without_elapsed(report):
    raw = dataclasses.asdict(report)
    raw.pop("elapsed_s")
    return json.dumps(raw, sort_keys=True, default=float)


class TestDeterminism:
    def test_seeded_solve_repeats_bit_for_bit(self):
        scene = synthesize_scene(count=5, seed=111)
        for mode in ("squared", "abs"):
            settings = SolveSettings(mode=mode, multistart=3, seed=7)
            first = solve_placement(scene, settings)
            again = solve_placement(scene, settings)
            assert _without_elapsed(again) == _without_elapsed(first)

    def test_point_order_keeps_feasible_verdict(self):
        rng = np.random.default_rng(112)
        for seed in (113, 114):
            scene = synthesize_scene(count=6, seed=seed)
            order = rng.permutation(scene.K)
            shuffled = dataclasses.replace(
                scene, points=tuple(scene.points[i] for i in order))
            for sc in (scene, shuffled):
                report = solve_placement(sc, SolveSettings(
                    mode="squared", multistart=4, seed=0,
                    early_stop_objective=1e-12))
                assert report.verdict == "feasible"
                assert [p.id for p in report.points] == \
                    [p.id for p in sc.points]


class TestLemmaEquivalenceSmall:
    def test_free_w_equals_pinned_enumeration(self, scene_k1):
        # both directions of the equivalence, on a K = 1 instance:
        free = solve_placement(scene_k1, SolveSettings(
            mode="squared", multistart=4, seed=1, early_stop_objective=1e-14))
        pinned = make_pinned_solver(mode="squared", multistart=2, seed=1,
                                    early_stop_objective=1e-14)
        best, assignment, payload = minimin_enumerate(scene_k1, pinned)
        # (a) a unit-weight point achieves the free optimum
        assert free.objective <= best + 1e-6
        # (b) no admissible pair beats the best fixed assignment
        assert best <= free.objective + 1e-6

    def test_pinned_layout(self, scene_k2):
        # a one-column configuration table: one weight per point, fixed at 1
        # by its bounds (no simplex rows), and one slack per segment
        p = build_problem(scene_k2, BuildOptions(mode="squared",
                                                 pinned=(2, 5)))
        assert p.n_vars == 6 + 2 + 2
        assert p.n_ineq == 12
        assert p.n_eq == 0
        lower, upper = p.variable_bounds()
        assert np.array_equal(lower[p.off_w:p.off_m], np.ones(2))
        assert np.array_equal(upper[p.off_w:p.off_m], np.ones(2))
        z = p.initial_point("scene")
        assert np.array_equal(p.w_of(z), np.ones((2, 1)))
        eq, ineq = p.eval_constraints(z)
        assert ineq.max() <= 1e-12
        assert eq.shape == (0,)
        assert p.eval_jacobians(z)[0].shape == (0, p.n_vars)
        assert list(p.chosen_configurations(z)) == [2, 5]

    def test_pinned_abs_layout(self, scene_k2):
        p = build_problem(scene_k2, BuildOptions(mode="abs", pinned=(2, 5)))
        assert p.n_vars == 6 + 2 + 2 + 4
        assert p.n_eq == 2  # the v-split rows only

    def test_pinned_rows_are_the_free_rows_of_its_configurations(self,
                                                                 scene_k2):
        for mode in ("squared", "abs"):
            free = build_problem(scene_k2, BuildOptions(mode=mode))
            pinned = build_problem(scene_k2, BuildOptions(mode=mode,
                                                          pinned=(2, 5)))
            z_free = free.initial_point("scene")
            z_pin = pinned.initial_point("scene")
            _, in_free = free.eval_constraints(z_free)
            _, in_pin = pinned.eval_constraints(z_pin)
            rows = in_free.reshape(2, 8, 6)[[0, 1], [2, 5]]
            assert np.array_equal(in_pin, rows.ravel())
            _, j_free = free.eval_jacobians(z_free)
            _, j_pin = pinned.eval_jacobians(z_pin)
            assert np.array_equal(j_pin[:, :6],
                                  j_free[:, :6].reshape(2, 8, 6, 6)[
                                      [0, 1], [2, 5]].reshape(12, 6))


class TestSegmentSemantics:
    def test_selected_branch_feasible_for_whole_segment(self, robot):
        # The shared slack makes every positively weighted branch absorb the
        # worst violation across its segment, so at a zero objective each
        # chosen configuration must be in-limits for every point of its
        # segment, not just its own.
        from cellplace.oracle import IN_LIMITS, check_placement
        from cellplace.geometry import frame_from_pose
        for seed in (61, 62, 63):
            scene = synthesize_scene(robot, count=4, seed=seed, segment_size=2)
            report = solve_placement(scene, SolveSettings(
                mode="squared", multistart=4, seed=0,
                early_stop_objective=1e-12))
            assert report.objective <= 1e-8
            table = check_placement(scene, frame_from_pose(report.placement))
            _, seg_of = scene.segment_map()
            for k, point_result in enumerate(report.points):
                mates = [j for j in range(scene.K) if seg_of[j] == seg_of[k]]
                for j in mates:
                    outcome = table.outcome[j, point_result.config]
                    assert outcome == IN_LIMITS, (seed, k, j)

    def test_solve_defaults_from_scene_options(self, robot):
        scene = synthesize_scene(robot, count=1, seed=64)
        report = solve_placement(scene)  # settings from scene.solve_options
        assert report.mode == scene.solve_options["mode"]
        assert report.verdict == "feasible"


class TestOptions:
    def test_degenerate_target_retried_with_shift(self, robot):
        # the evaluator must log-and-retry with a 1e-9 shift instead of failing
        p = build_problem(_axis1_line_scene(robot), BuildOptions(mode="squared"))
        values = p.kinematic_values(np.zeros(6))
        assert p.degenerate_retries == 1
        assert all(np.all(np.isfinite(a)) for a in values)

    def test_degenerate_retries_reach_the_report(self, robot, scene_k1):
        report = solve_placement(_axis1_line_scene(robot),
                                 SolveSettings(mode="squared"))
        assert report.diagnostics["degenerate_retries"] >= 1
        report = solve_placement(scene_k1, SolveSettings(mode="squared"))
        assert report.diagnostics["degenerate_retries"] == 0

    # the quasi-Newton matrix of start 2 reaches the edge of definiteness
    # (the FOUND line on DampedBfgs.update in CHANGES.md), where the QP's
    # algebra may overflow before the reset takes over
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_hessian_reset_on_a_placement_solve(self, caplog):
        # the retry with a fresh Hessian fires on real placement programs:
        # one of this solve's later starts needs it (once with one BLAS
        # thread, twice with two), and start 0, which needs none, wins
        scene = synthesize_scene(count=3, seed=506)
        with caplog.at_level(logging.DEBUG, logger="cellplace.solver"):
            report = solve_placement(scene, SolveSettings(
                mode="abs", multistart=4, seed=506))
        messages = [r.getMessage() for r in caplog.records]
        resets = [i for i, m in enumerate(messages)
                  if m.startswith("hessian reset")]
        start_0 = next(i for i, m in enumerate(messages)
                       if m.startswith("start 0:"))
        assert resets and min(resets) > start_0
        assert report.verdict == "feasible"
        assert report.diagnostics["start_index"] == 0
        assert report.diagnostics["iterations"] == 7


class TestDegenerateTarget:
    """A target on the axis-1 line: the kernel masks it, so the oracle
    marks it out of the workspace in every configuration."""

    def test_table_marks_every_configuration(self, robot):
        table = check_placement(_axis1_line_scene(robot), np.eye(4))
        assert not table.feasible
        assert np.all(table.outcome == OUT_OF_WORKSPACE)
        assert np.all(table.v == math.inf)
        assert np.all(table.margins == -math.inf)
        assert np.all(np.isnan(table.joints))

    def test_report_verifies_and_round_trips(self, robot, tmp_path):
        scene = _axis1_line_scene(robot)
        problem = build_problem(scene, BuildOptions(mode="squared"))
        report = problem.extract_solution(np.zeros(problem.n_vars))
        assert report.placement == Pose()
        assert report.verdict == "infeasible"
        point = report.points[0]
        assert point.outcome == OUT_OF_WORKSPACE and point.joints is None
        assert point.v_mm == math.inf
        assert point.axis_margins == [-math.inf] * 6
        ok, diffs = verify_solution(scene, report)
        assert not ok
        assert diffs == [{"point": "p1", "config": point.config,
                          "outcome": OUT_OF_WORKSPACE, "v_mm": math.inf,
                          "axis_violations_rad": [0.0] * 6}]
        save_report(report, tmp_path / "report.json")
        assert load_report(tmp_path / "report.json") == report


def _axis1_line_scene(robot):
    """One point whose wrist centre lands exactly on the axis-1 line at the
    initial placement."""
    target = np.eye(4)
    target[:3, 3] = (0.0, 0.0, 80.0 - 400.0)  # wrist centre on the line
    target = rot_x(math.pi) @ target
    return Scene(robot=robot,
                 points=(ProcessPoint("p1", pose_from_frame(target)),),
                 bounds=PlacementBounds(np.full(6, -10.0), np.full(6, 10.0)),
                 initial=Pose())
