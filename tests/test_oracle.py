import dataclasses
import math

import numpy as np
import pytest

from cellplace.errors import GridTooLarge
from cellplace.geometry import Pose, frame_from_pose, pose_from_frame
from cellplace.kinematics import forward6
from cellplace.nlp import SolveSettings, make_pinned_solver, solve_placement
from cellplace.oracle import (GridSpec, IN_LIMITS, OUT_OF_LIMITS,
                              OUT_OF_WORKSPACE, POINTS_MISMATCH,
                              check_placement, grid_search,
                              minimin_enumerate, placement_score,
                              verify_solution)
from cellplace.scene import ProcessPoint, Scene, synthesize_scene

DEG = math.radians


def ground_truth_pose(scene) -> Pose:
    gt = scene.metadata["ground_truth"]
    return Pose.from_degrees(gt["x"], gt["y"], gt["z"], gt["a"], gt["b"],
                             gt["c"])


@pytest.fixture(scope="module")
def scene(robot):
    return synthesize_scene(robot, count=3, seed=77)


class TestCheckPlacement:
    def test_constructed_scene_is_feasible_at_ground_truth(self, scene):
        table = check_placement(scene, frame_from_pose(ground_truth_pose(scene)))
        assert table.feasible
        assert table.outcome.shape == table.v.shape == (3, 8)
        assert table.joints.shape == table.margins.shape == (3, 8, 6)

    def test_far_points_all_out_of_workspace(self, scene):
        far = frame_from_pose(Pose(x=10_000.0))
        table = check_placement(scene, far)
        assert not table.feasible
        assert np.all(table.outcome == OUT_OF_WORKSPACE)
        assert np.all(table.v != 0.0)

    def test_in_limits_rows_have_exact_zero_slack(self, scene):
        table = check_placement(scene, frame_from_pose(ground_truth_pose(scene)))
        lo, hi = scene.robot.limits
        in_limits = table.outcome == IN_LIMITS
        assert in_limits.any()
        assert np.all(table.v[in_limits] == 0.0)
        assert np.all(table.margins[in_limits] >= 0.0)
        assert np.all(table.joints[in_limits] >= lo)
        assert np.all(table.joints[in_limits] <= hi)

    def test_limit_violation_classified_with_zero_v(self, robot):
        # forward pose with axis 2 beyond its +45 deg limit: position is
        # reachable (v = 0) but that branch is out of limits.
        theta = np.array([0.1, DEG(60), 1.2, 0.4, 0.8, -0.2])
        frame, config = forward6(robot, theta)
        scene = Scene(robot=robot, points=(
            ProcessPoint("p1", pose_from_frame(frame)),),
            bounds=_unit_bounds())
        table = check_placement(scene, np.eye(4))
        assert table.outcome[0, config] == OUT_OF_LIMITS
        assert table.v[0, config] == 0.0
        assert table.margins[0, config, 1] < 0.0


def _unit_bounds():
    from cellplace.scene import PlacementBounds
    return PlacementBounds(np.zeros(6), np.zeros(6))


class TestGridSearch:
    def test_grid_containing_ground_truth_ranks_it_first(self, scene):
        gt = ground_truth_pose(scene).as_array()
        axes = tuple((gt[i] - 40.0, gt[i] + 40.0, 3) if i < 3
                     else (gt[i], gt[i], 1) for i in range(6))
        # center cell of the 3x3x3 grid sits exactly on the ground truth
        cells = grid_search(scene, GridSpec(axes))
        assert len(cells) == 27
        assert cells[0].score == 0.0
        assert cells[0].feasible

    def test_one_cell_grid_matches_check_placement(self, scene):
        gt = ground_truth_pose(scene).as_array()
        spec = GridSpec(tuple((gt[i], gt[i], 1) for i in range(6)))
        cells = grid_search(scene, spec)
        assert len(cells) == 1
        table = check_placement(scene, frame_from_pose(ground_truth_pose(scene)))
        assert cells[0].feasible == table.feasible
        assert cells[0].score == placement_score(
            scene, frame_from_pose(ground_truth_pose(scene)))

    def test_score_zero_iff_feasible(self, scene):
        gt = ground_truth_pose(scene).as_array()
        axes = tuple((gt[i] - 400.0, gt[i] + 400.0, 3) if i < 2
                     else (gt[i], gt[i], 1) for i in range(6))
        for cell in grid_search(scene, GridSpec(axes)):
            table = check_placement(
                scene, frame_from_pose(Pose.from_array(cell.pose)))
            assert (cell.score == 0.0) == table.feasible

    def test_infeasible_scene_has_no_zero_cell(self, robot):
        # two points 10 m apart can never both be inside a < 2 m workspace
        points = (ProcessPoint("a", Pose(0.0, 0.0, 0.0)),
                  ProcessPoint("b", Pose(10_000.0, 0.0, 0.0)))
        from cellplace.scene import PlacementBounds
        scene = Scene(robot=robot, points=points, bounds=PlacementBounds(
            np.array([-500.0, -500, -500, 0, 0, 0]),
            np.array([500.0, 500, 500, 0, 0, 0])))
        axes = ((-500.0, 500.0, 5), (-500.0, 500.0, 5), (-500.0, 500.0, 3),
                (0.0, 0.0, 1), (0.0, 0.0, 1), (0.0, 0.0, 1))
        cells = grid_search(scene, GridSpec(axes))
        assert all(not cell.feasible for cell in cells)
        assert all(cell.score > 0.0 for cell in cells)

    def test_cell_cap(self, scene):
        axes = tuple((0.0, 1.0, 101) for _ in range(3)) + \
            tuple((0.0, 0.0, 1) for _ in range(3))
        with pytest.raises(GridTooLarge):
            grid_search(scene, GridSpec(axes))

    @pytest.mark.parametrize("lo, hi", [(0.0, math.nan), (math.nan, 1.0),
                                        (-math.inf, 1.0), (0.0, math.inf)])
    def test_non_finite_range_rejected(self, lo, hi):
        # hi < lo is False for NaN, so a NaN range used to pass
        with pytest.raises(ValueError, match="finite"):
            GridSpec(((lo, hi, 3),) + ((0.0, 0.0, 1),) * 5)

    def test_deterministic(self, scene):
        gt = ground_truth_pose(scene).as_array()
        axes = tuple((gt[i] - 50.0, gt[i] + 50.0, 2) if i < 3
                     else (gt[i], gt[i], 1) for i in range(6))
        first = grid_search(scene, GridSpec(axes))
        second = grid_search(scene, GridSpec(axes))
        for a, b in zip(first, second):
            assert np.array_equal(a.pose, b.pose)
            assert a.score == b.score


class TestMiniminEnumerate:
    def test_k1_reachable_best_is_zero(self, robot):
        scene = synthesize_scene(robot, count=1, seed=55)
        pinned = make_pinned_solver(multistart=2, seed=0,
                                    early_stop_objective=1e-14)
        best, assignment, _ = minimin_enumerate(scene, pinned)
        assert best == pytest.approx(0.0, abs=1e-10)
        assert len(assignment) == 1

    def test_matches_free_w_on_k2(self, robot):
        scene = synthesize_scene(robot, count=2, seed=56)
        pinned = make_pinned_solver(multistart=2, seed=0,
                                    early_stop_objective=1e-14)
        best, _, _ = minimin_enumerate(scene, pinned)
        free = solve_placement(scene, SolveSettings(
            multistart=4, seed=0, early_stop_objective=1e-14))
        assert abs(best - free.objective) <= 1e-6

    def test_mixed_scene_needs_distinct_configs(self, robot):
        # the nonnegativity short-circuit keeps this from solving all 64
        # assignments; the first one to certify 0 must already be mixed.
        scene = synthesize_scene(robot, count=2, seed=57, mixed_config=True)
        pinned = make_pinned_solver(multistart=2, seed=0,
                                    early_stop_objective=1e-14)
        best, assignment, _ = minimin_enumerate(scene, pinned, stop_at=0.0)
        assert best == pytest.approx(0.0, abs=1e-8)
        assert assignment[0] != assignment[1]

    def test_segment_count_cap(self, robot):
        scene = synthesize_scene(robot, count=4, seed=58)
        with pytest.raises(ValueError):
            minimin_enumerate(scene, lambda s, a: (0.0, None))


class TestVerifySolution:
    def test_success_case_empty_diff(self, scene):
        report = solve_placement(scene, SolveSettings(
            multistart=4, seed=2, early_stop_objective=1e-12))
        ok, diffs = verify_solution(scene, report)
        assert ok and diffs == []
        assert report.verdict == "feasible"

    def test_corrupted_config_is_flagged(self, robot):
        # mixed scene: the two points' in-limit sets are disjoint, so each
        # point is guaranteed to have a corruptible configuration.
        scene = synthesize_scene(robot, count=2, seed=57, mixed_config=True)
        report = solve_placement(scene, SolveSettings(
            multistart=4, seed=2, early_stop_objective=1e-12))
        assert report.verdict == "feasible"
        table = check_placement(scene, frame_from_pose(report.placement))
        target_point = report.points[0]
        in_limit = set(np.flatnonzero(table.outcome[0] == IN_LIMITS).tolist())
        target_point.config = next(c for c in range(8) if c not in in_limit)
        ok, diffs = verify_solution(scene, report)
        assert not ok
        assert len(diffs) == 1
        assert diffs[0]["point"] == target_point.id
        assert diffs[0]["config"] == target_point.config

    def test_boundary_shift_flags_binding_axis(self, robot):
        # place a point whose axis-2 value sits exactly on the +45 deg limit,
        # then shift the placement so that exactly that axis is violated.
        theta = np.array([0.2, DEG(45.0), 1.1, 0.3, 0.7, -0.5])
        frame, config = forward6(robot, theta)
        from cellplace.scene import PlacementBounds
        scene = Scene(robot=robot,
                      points=(ProcessPoint("p1", pose_from_frame(frame)),),
                      bounds=PlacementBounds(np.full(6, -10.0), np.full(6, 10.0)))
        report = solve_placement(scene, SolveSettings(multistart=1, seed=0))
        report_at_identity = report
        report_at_identity.placement = Pose(0.0, 0.0, 1.0)  # raise workpiece 1 mm
        report_at_identity.points[0].config = config
        ok, diffs = verify_solution(scene, report_at_identity)
        if not ok:  # direction of violation depends on the arm posture
            violations = diffs[0]["axis_violations_rad"]
            assert np.argmax(violations) == 1


class TestVerifyPointsMatchScene:
    """The report's points must be the scene's, by id and in order."""

    @pytest.fixture(scope="class")
    def shifted(self, robot):
        # a report moved 5 m off the solution: no point is reachable
        scene = synthesize_scene(robot, count=3, seed=402)
        report = solve_placement(scene, SolveSettings(
            multistart=4, seed=0, early_stop_objective=1e-12))
        placement = dataclasses.replace(report.placement,
                                        x=report.placement.x + 5000.0)
        return scene, dataclasses.replace(report, placement=placement)

    def test_full_report_is_rejected(self, shifted):
        scene, report = shifted
        ok, diffs = verify_solution(scene, report)
        assert not ok
        assert [d["point"] for d in diffs] == [p.id for p in scene.points]

    def test_report_without_points_is_rejected(self, shifted):
        scene, report = shifted
        ok, diffs = verify_solution(scene, dataclasses.replace(report,
                                                               points=[]))
        assert not ok
        assert diffs == [{"outcome": POINTS_MISMATCH,
                          "scene_ids": [p.id for p in scene.points],
                          "report_ids": []}]

    def test_report_with_an_extra_point_is_rejected(self, shifted):
        scene, report = shifted
        extra = dataclasses.replace(report.points[0], id="extra")
        ok, diffs = verify_solution(scene, dataclasses.replace(
            report, points=list(report.points) + [extra]))
        assert not ok
        assert len(diffs) == 1 and diffs[0]["outcome"] == POINTS_MISMATCH
        assert diffs[0]["report_ids"][-1] == "extra"

    def test_reordered_points_are_rejected(self, shifted):
        scene, report = shifted
        ok, diffs = verify_solution(scene, dataclasses.replace(
            report, points=list(reversed(report.points))))
        assert not ok
        assert len(diffs) == 1 and diffs[0]["outcome"] == POINTS_MISMATCH
