import copy
import json
import math

import numpy as np
import pytest

from cellplace.errors import ParseError, ValidationError
from cellplace.geometry import Pose, frame_from_pose
from cellplace.oracle import IN_LIMITS, check_placement
from cellplace.scene import (PointResult, SolutionReport, load_report,
                             load_scene, save_report, save_scene,
                             synthesize_scene)

MINIMAL = {
    "format_version": 1,
    "robot": "kr6r900",
    "points": [{"id": "p1", "pose": {"x": 100.0, "y": 0.0, "z": 50.0}}],
}

# the builtin kr6r900 written as an inline DH table
INLINE_ROBOT = {
    "name": "custom",
    "base": {"c": 180.0},
    "rows": [
        {"type": "R", "d": -400, "a": 25, "alpha": 90,
         "theta_min": -170, "theta_max": 170},
        {"type": "R", "a": 455, "theta_min": -190, "theta_max": 45},
        {"type": "R", "a": 35, "alpha": 90, "phi": -90,
         "theta_min": -120, "theta_max": 156},
        {"type": "P"},
        {"type": "R", "d": -420, "alpha": -90,
         "theta_min": -185, "theta_max": 185},
        {"type": "R", "alpha": 90, "theta_min": -120, "theta_max": 120},
        {"type": "R", "d": -80, "alpha": 180,
         "theta_min": -350, "theta_max": 350},
    ],
}


def write_scene(tmp_path, payload, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadScene:
    def test_minimal_scene(self, tmp_path):
        scene = load_scene(write_scene(tmp_path, MINIMAL))
        assert scene.K == 1
        assert scene.robot.name == "kr6r900"
        assert scene.points[0].id == "p1"
        # default bounds kick in
        assert scene.bounds.lower[0] == -1500.0

    def test_huge_point_angle_loads_in_range(self, tmp_path):
        payload = copy.deepcopy(MINIMAL)
        # the ceil rule alone, without fmod first, gives -57.7 rad here
        payload["points"][0]["pose"]["a"] = 2.684e19  # degrees
        pose = load_scene(write_scene(tmp_path, payload)).points[0].pose
        assert -math.pi < pose.a <= math.pi

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scene(path)

    def test_duplicate_point_id_named(self, tmp_path):
        payload = dict(MINIMAL)
        payload["points"] = [
            {"id": "p1", "pose": {"x": 1.0}},
            {"id": "p1", "pose": {"x": 2.0}},
        ]
        with pytest.raises(ValidationError) as info:
            load_scene(write_scene(tmp_path, payload))
        assert any("duplicate id 'p1'" in m for m in info.value.messages)

    def test_all_violations_reported_together(self, tmp_path):
        payload = {
            "format_version": 2,  # wrong version
            "robot": "unknown-bot",  # unknown builtin
            "points": [{"id": "p1", "pose": {"x": 1.0}, "bogus": 3}],
            "mystery_field": True,  # unknown top-level key
        }
        with pytest.raises(ValidationError) as info:
            load_scene(write_scene(tmp_path, payload))
        text = "\n".join(info.value.messages)
        assert "format_version" in text
        assert "unknown-bot" in text
        assert "bogus" in text
        assert "mystery_field" in text

    def test_unknown_solve_option_rejected(self, tmp_path):
        payload = dict(MINIMAL)
        payload["solve"] = {"mode": "squared", "multistrat": 3}  # typo
        with pytest.raises(ValidationError) as info:
            load_scene(write_scene(tmp_path, payload))
        assert any("multistrat" in m for m in info.value.messages)

    def test_mistyped_solve_option_rejected(self, tmp_path):
        payload = dict(MINIMAL)
        payload["solve"] = {"multistart": 2.0, "seed": True,
                            "kkt_tolerance": 0.0, "constraint_tolerance": "1e-8"}
        with pytest.raises(ValidationError) as info:
            load_scene(write_scene(tmp_path, payload))
        for key in ("multistart", "seed", "kkt_tolerance",
                    "constraint_tolerance"):
            assert any(f"solve.{key}" in m for m in info.value.messages), key

    @pytest.mark.parametrize("key, value", [
        ("multistart", 0), ("multistart", -2), ("seed", -1),
        ("max_iterations", -3)])
    def test_out_of_range_solve_option_rejected(self, tmp_path, key, value):
        # the solver would raise a bare ValueError at multistart 0 or a
        # negative seed, and silently run a negative iteration count as 0
        payload = dict(MINIMAL)
        payload["solve"] = {key: value}
        with pytest.raises(ValidationError) as info:
            load_scene(write_scene(tmp_path, payload))
        assert any(f"solve.{key}" in m for m in info.value.messages)

    def test_smallest_solve_options_accepted(self, tmp_path):
        payload = dict(MINIMAL)
        payload["solve"] = {"multistart": 1, "seed": 0, "max_iterations": 0}
        assert load_scene(write_scene(tmp_path, payload)).solve_options == \
            payload["solve"]

    def test_non_finite_pose_values_rejected(self, tmp_path):
        payload = dict(MINIMAL)
        payload["tool"] = {"z": math.inf}
        payload["points"] = [{"id": "p1", "pose": {"x": math.nan}}]
        payload["initial_placement"] = {"a": -math.inf}
        with pytest.raises(ValidationError) as info:
            load_scene(write_scene(tmp_path, payload))
        for field in ("tool.z", "points[0].pose.x", "initial_placement.a"):
            assert any(m.startswith(f"{field}: expected a finite number")
                       for m in info.value.messages), field

    def test_non_finite_robot_row_rejected(self, tmp_path):
        payload = dict(MINIMAL)
        payload["robot"] = copy.deepcopy(INLINE_ROBOT)
        payload["robot"]["rows"][0]["theta_max"] = math.nan
        with pytest.raises(ValidationError) as info:
            load_scene(write_scene(tmp_path, payload))
        assert "robot.rows[0]: expected finite numbers" in info.value.messages

    @pytest.mark.parametrize("row, key, value, message", [
        (4, "d", "-420", "expected a number"),
        (0, "theta_max", True, "expected a number"),
        (2, "theta_min", 10 ** 400, "expected a finite number"),
    ], ids=("string", "bool", "overflow"))
    def test_mistyped_robot_row_rejected(self, tmp_path, row, key, value,
                                         message):
        payload = dict(MINIMAL)
        payload["robot"] = copy.deepcopy(INLINE_ROBOT)
        payload["robot"]["rows"][row][key] = value
        with pytest.raises(ValidationError) as info:
            load_scene(write_scene(tmp_path, payload))
        assert f"robot.rows[{row}].{key}: {message}" in info.value.messages

    def test_angle_wrapped_on_load(self, tmp_path):
        payload = dict(MINIMAL)
        payload["points"] = [{"id": "p1", "pose": {"x": 1.0, "a": 190.0}}]
        scene = load_scene(write_scene(tmp_path, payload))
        assert scene.points[0].pose.a == pytest.approx(math.radians(-170.0))

    def test_fixed_bound_component(self, tmp_path):
        payload = dict(MINIMAL)
        payload["placement_bounds"] = {"x": [0, 500], "z": 250.0}
        scene = load_scene(write_scene(tmp_path, payload))
        assert scene.bounds.lower[2] == scene.bounds.upper[2] == 250.0

    def test_initial_placement_outside_bounds_rejected(self, tmp_path):
        payload = dict(MINIMAL)
        payload["placement_bounds"] = {"x": [0, 100]}
        payload["initial_placement"] = {"x": 500.0}
        with pytest.raises(ValidationError):
            load_scene(write_scene(tmp_path, payload))

    def test_inline_robot_table(self, tmp_path):
        payload = dict(MINIMAL)
        payload["robot"] = INLINE_ROBOT
        scene = load_scene(write_scene(tmp_path, payload))
        assert scene.robot.name == "custom"
        # matches the builtin geometry
        from cellplace.kinematics import builtin_kr6r900, forward6
        theta = np.array([0.3, -1.2, 1.0, 0.5, -0.6, 0.9])
        inline_frame, _ = forward6(scene.robot, theta)
        builtin_frame, _ = forward6(builtin_kr6r900(), theta)
        assert np.allclose(inline_frame, builtin_frame, atol=1e-9)


class TestSceneRoundTrip:
    def test_save_load_structural_equality(self, tmp_path, robot):
        scene = synthesize_scene(robot, count=3, seed=5, segment_size=2)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        again = load_scene(path)
        assert again.K == scene.K
        assert [p.id for p in again.points] == [p.id for p in scene.points]
        assert [p.segment for p in again.points] == \
            [p.segment for p in scene.points]
        for a, b in zip(again.points, scene.points):
            # degree-file conversion costs at most a couple of ulp
            assert np.allclose(a.pose.as_array(), b.pose.as_array(),
                               rtol=1e-14, atol=1e-12)
        assert np.allclose(again.bounds.lower, scene.bounds.lower,
                           rtol=1e-14, atol=1e-12)
        assert again.solve_options == scene.solve_options
        assert again.metadata == scene.metadata

    def test_save_is_stable_after_first_round_trip(self, tmp_path, robot):
        scene = synthesize_scene(robot, count=2, seed=6)
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_scene(scene, path_a)
        save_scene(load_scene(path_a), path_b)
        first = path_a.read_text()
        second = path_b.read_text()
        # numeric drift across one save/load cycle stays below 1e-12 relative
        assert json.loads(first).keys() == json.loads(second).keys()


class TestReportRoundTrip:
    def make_report(self):
        return SolutionReport(
            placement=Pose(317.25, -42.5, 410.0, 0.7853981633974483,
                           -0.1234567890123456, 0.3), mode="abs",
            points=[
                PointResult(id="p1", config=5, v_mm=0.0,
                            joints=[0.1, -1.2, 1.3, 0.25, -0.5, 2.75],
                            axis_margins=[0.5, 0.25, 1.0, 2.0, 1.5, 3.0],
                            outcome=IN_LIMITS),
                PointResult(id="p2", config=0, v_mm=12.345678901234567,
                            joints=None,
                            axis_margins=[0.1] * 6,
                            outcome="out_of_workspace"),
            ],
            objective=1.2345678901234567e-11, verdict="infeasible",
            diagnostics={"iterations": 17, "status": "converged"},
            elapsed_s=0.125)

    def test_lossless_numeric_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        save_report(report, path)
        again = load_report(path)
        assert again.placement == report.placement  # bit-exact radians
        assert again.objective == report.objective
        assert again.elapsed_s == report.elapsed_s
        for a, b in zip(again.points, report.points):
            assert a.id == b.id and a.config == b.config
            assert a.v_mm == b.v_mm
            assert a.joints == b.joints
            assert a.axis_margins == b.axis_margins
            assert a.outcome == b.outcome
        assert again.diagnostics == report.diagnostics
        assert again.verdict == report.verdict

    def test_degenerate_point_round_trips_as_strict_json(self, tmp_path):
        report = self.make_report()
        report.points[1].v_mm = math.inf
        report.points[1].axis_margins = [-math.inf] * 6
        path = tmp_path / "report.json"
        save_report(report, path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        raw = json.loads(path.read_text(), parse_constant=reject)
        assert raw["points"][1]["v_mm"] is None
        assert raw["points"][1]["axis_margins_rad"] == [None] * 6
        assert raw["points"][1]["axis_margins_deg"] == [None] * 6
        again = load_report(path)
        assert again.points == report.points

    def test_missing_field_is_validation_error(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(self.make_report(), path)
        raw = json.loads(path.read_text())
        del raw["points"][0]["v_mm"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as info:
            load_report(path)
        assert "v_mm" in info.value.messages[0]

    def test_config_bit_string(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        save_report(report, path)
        raw = json.loads(path.read_text())
        assert raw["points"][0]["config_bits"] == "B101"
        assert raw["points"][1]["config_bits"] == "B000"

    def test_verdict_is_stable_string_enum(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        save_report(report, path)
        assert json.loads(path.read_text())["verdict"] in \
            ("feasible", "infeasible")


def _set(path, value):
    """Mutation of a saved report dict: set the value at a key path."""
    def mutate(raw):
        obj = raw
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return mutate


class TestReportIngest:
    """load_report rejects what the file format does not allow."""

    @pytest.mark.parametrize("mutate, field", [
        (_set(["colour"], "red"), "colour"),
        (_set(["points", 0, "extra"], 1), "extra"),
        (_set(["points", 0, "config"], "3"), "points[0].config"),
        (_set(["points", 0, "config"], 9), "points[0].config"),
        (_set(["verdict"], "maybe"), "verdict"),
        (_set(["mode"], "cubic"), "mode"),
        (_set(["points", 1, "outcome"], "reachable"), "points[1].outcome"),
        (_set(["points", 0, "axis_margins_rad"], [0.5]),
         "points[0].axis_margins_rad"),
        (_set(["placement", "x"], "1"), "placement.x"),
    ], ids=["unknown_key", "unknown_point_key", "config_string",
            "config_out_of_range", "verdict_maybe", "mode_unknown",
            "outcome_unknown", "short_margins", "x_string"])
    def test_malformed_report_rejected(self, tmp_path, mutate, field):
        path = tmp_path / "report.json"
        save_report(TestReportRoundTrip().make_report(), path)
        raw = json.loads(path.read_text())
        mutate(raw)
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as info:
            load_report(path)
        assert any(field in message for message in info.value.messages)

    def test_json_list_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            load_report(path)


class TestSynthesize:
    def test_k1_feasible_at_ground_truth(self, robot):
        scene = synthesize_scene(robot, count=1, seed=9)
        gt = scene.metadata["ground_truth"]
        pose = Pose.from_degrees(gt["x"], gt["y"], gt["z"], gt["a"], gt["b"],
                                 gt["c"])
        assert check_placement(scene, frame_from_pose(pose)).feasible

    def test_mixed_config_sets_disjoint(self, robot):
        scene = synthesize_scene(robot, count=2, seed=21, mixed_config=True)
        gt = scene.metadata["ground_truth"]
        pose = Pose.from_degrees(gt["x"], gt["y"], gt["z"], gt["a"], gt["b"],
                                 gt["c"])
        table = check_placement(scene, frame_from_pose(pose))
        sets = [set(np.flatnonzero(row).tolist())
                for row in table.outcome == IN_LIMITS]
        assert sets[0] and sets[1]
        assert not (sets[0] & sets[1])

    def test_fixed_seed_identical_bytes(self, tmp_path, robot):
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(synthesize_scene(robot, count=3, seed=33), path_a)
        save_scene(synthesize_scene(robot, count=3, seed=33), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_segment_grouping(self, robot):
        scene = synthesize_scene(robot, count=4, seed=12, segment_size=2)
        n_segments, seg_of = scene.segment_map()
        assert n_segments == 2
        assert list(seg_of) == [0, 0, 1, 1]

    def test_ground_truth_inside_bounds(self, robot):
        for seed in range(5):
            scene = synthesize_scene(robot, count=2, seed=seed)
            gt = scene.metadata["ground_truth"]
            pose = Pose.from_degrees(gt["x"], gt["y"], gt["z"], gt["a"],
                                     gt["b"], gt["c"])
            assert np.all(pose.as_array() >= scene.bounds.lower - 1e-9)
            assert np.all(pose.as_array() <= scene.bounds.upper + 1e-9)
