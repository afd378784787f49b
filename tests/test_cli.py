import io
import json

import numpy as np
import pytest

from cellplace.cli import main
from cellplace.geometry import Pose
from cellplace.kinematics import backward7_all, builtin_kr6r900
from cellplace.scene import load_report, save_scene, synthesize_scene


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def gt_pose_text(scene):
    gt = scene.metadata["ground_truth"]
    return ",".join(str(gt[k]) for k in ("x", "y", "z", "a", "b", "c"))


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory, robot):
    path = tmp_path_factory.mktemp("scenes") / "scene.json"
    save_scene(synthesize_scene(robot, count=2, seed=64), path)
    return path


@pytest.fixture(scope="module")
def scene_obj(robot):
    return synthesize_scene(robot, count=2, seed=64)


class TestSolveCommand:
    def test_feasible_scene_exit_zero(self, scene_path, tmp_path):
        report_path = tmp_path / "report.json"
        code, text = run_cli("solve", str(scene_path), "--out",
                             str(report_path))
        assert code == 0
        assert "verdict=feasible" in text
        report = load_report(report_path)
        assert report.verdict == "feasible"

    def test_impossible_scene_exit_one(self, tmp_path, robot):
        from cellplace.scene import PlacementBounds, ProcessPoint, Scene
        scene = Scene(robot=robot, points=(
            ProcessPoint("a", Pose(0.0, 0.0, 0.0)),
            ProcessPoint("b", Pose(10_000.0, 0.0, 0.0))),
            bounds=PlacementBounds(
                np.array([-500.0, -500, -500, 0, 0, 0]),
                np.array([500.0, 500, 500, 0, 0, 0])),
            solve_options={"multistart": 2, "seed": 0})
        path = tmp_path / "impossible.json"
        save_scene(scene, path)
        code, text = run_cli("solve", str(path))
        assert code == 1
        assert "verdict=infeasible" in text
        assert "objective=" in text

    def test_scene_solve_options_reach_the_solver(self, tmp_path, robot,
                                                  monkeypatch):
        # every key of the scene's "solve" object is honoured; flags override
        from cellplace import nlp
        scene = synthesize_scene(robot, count=2, seed=64)
        scene.solve_options.update(kkt_tolerance=1e-5, max_iterations=40,
                                   constraint_tolerance=1e-7, multistart=3)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        seen = []
        solve_placement = nlp.solve_placement

        def spy(sc, settings=None):
            seen.append(settings)
            return solve_placement(sc, settings)

        monkeypatch.setattr(nlp, "solve_placement", spy)
        code, _ = run_cli("solve", str(path), "--seed", "5")
        assert code == 0
        assert seen == [nlp.SolveSettings(
            mode="squared", multistart=3, seed=5, max_iterations=40,
            kkt_tolerance=1e-5, constraint_tolerance=1e-7,
            early_stop_objective=1e-12)]

    def test_missing_file_exit_two(self):
        code, _ = run_cli("solve", "/nonexistent/nowhere.json")
        assert code == 2

    def test_non_finite_scene_exit_two(self, scene_path, tmp_path, capsys):
        raw = json.loads(scene_path.read_text())
        raw["points"][0]["pose"]["y"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(raw))
        code, _ = run_cli("solve", str(path))
        assert code == 2
        assert "points[0].pose.y: expected a finite number" in \
            capsys.readouterr().err

    def test_mistyped_robot_row_exit_two(self, scene_path, tmp_path, capsys):
        raw = json.loads(scene_path.read_text())
        # a valid DH table but for the quoted d of axis 1
        raw["robot"] = {"name": "custom", "rows": [
            {"type": "R", "d": "-400", "a": 25, "alpha": 90},
            {"type": "R", "a": 455},
            {"type": "R", "a": 35, "alpha": 90, "phi": -90},
            {"type": "P"},
            {"type": "R", "d": -420, "alpha": -90},
            {"type": "R", "alpha": 90},
            {"type": "R", "d": -80, "alpha": 180}]}
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(raw))
        code, _ = run_cli("solve", str(path))
        assert code == 2
        assert "robot.rows[0].d: expected a number" in capsys.readouterr().err

    def test_bad_flag_exit_two(self, scene_path):
        code, _ = run_cli("solve", str(scene_path), "--mode", "cubic")
        assert code == 2


class TestCheckCommand:
    def test_ground_truth_placement_feasible(self, scene_path, scene_obj):
        code, text = run_cli("check", str(scene_path), "--placement",
                             gt_pose_text(scene_obj))
        assert code == 0
        assert "verdict: feasible" in text

    def test_far_placement_all_out_of_workspace(self, scene_path):
        code, text = run_cli("check", str(scene_path), "--placement",
                             "20000,0,0,0,0,0")
        assert code == 1
        assert "verdict: infeasible" in text
        assert "ok:" not in text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_placement_exit_two(self, scene_path, value, capsys):
        # a NaN target used to read as "lim: 0.00" in every branch
        code, text = run_cli("check", str(scene_path), "--placement",
                             f"420,-80,{value},35,-8,-1")
        assert code == 2
        assert text == ""
        assert "--placement" in capsys.readouterr().err

    def test_eight_columns_per_point(self, scene_path, scene_obj):
        code, text = run_cli("check", str(scene_path), "--placement",
                             gt_pose_text(scene_obj))
        header = next(line for line in text.splitlines() if "c0" in line)
        assert all(f"c{c}" in header for c in range(8))


class TestGridCommand:
    def test_grid_covering_ground_truth(self, scene_path, scene_obj, tmp_path):
        gt = scene_obj.metadata["ground_truth"]
        csv_path = tmp_path / "grid.csv"
        spec = (f"x={gt['x'] - 30}:{gt['x'] + 30}:3,"
                f"y={gt['y'] - 30}:{gt['y'] + 30}:3,"
                f"z={gt['z']},a={gt['a']},b={gt['b']},c={gt['c']}")
        code, text = run_cli("grid", str(scene_path), "--grid", spec,
                             "--out", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,y,z,a,b,c,score,feasible"
        assert len(lines) == 1 + 9
        assert all(len(line.split(",")) == 8 for line in lines[1:])
        # first data row is the best; center cell scores exactly zero
        best = lines[1].split(",")
        assert float(best[6]) == 0.0
        assert best[7] == "1"

    def test_single_cell(self, scene_path, scene_obj, tmp_path):
        gt = scene_obj.metadata["ground_truth"]
        csv_path = tmp_path / "one.csv"
        spec = ",".join(f"{k}={gt[k]}" for k in ("x", "y", "z", "a", "b", "c"))
        code, _ = run_cli("grid", str(scene_path), "--grid", spec,
                          "--out", str(csv_path))
        assert code == 0
        assert len(csv_path.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize("spec", ["x=300:nan:3", "x=-inf:300:3",
                                      "y=nan", "z=inf"])
    def test_non_finite_grid_exit_two(self, scene_path, spec, capsys):
        # x=300:nan:3 used to exit 0 with NaN poses and scores
        code, text = run_cli("grid", str(scene_path), "--grid", spec)
        assert code == 2
        assert text == ""
        assert f"--grid {spec}" in capsys.readouterr().err

    def test_too_large_grid_exit_two(self, scene_path):
        code, _ = run_cli("grid", str(scene_path), "--grid",
                          "x=0:1:200,y=0:1:200,z=0:1:200")
        assert code == 2


class TestFkIkCommands:
    def test_fk_home_matches_frozen_regression(self):
        code, text = run_cli("fk", "--joints", "0,-90,90,0,0,0")
        assert code == 0
        # frozen from the independent matrix oracle: flange (525, 0, 890),
        # orientation Rz(180) Ry(-90) in the Z-Y-X convention
        assert "x=  525.000" in text
        assert "z=  890.000" in text
        assert "a= 180.000" in text
        assert "b= -90.000" in text
        assert "configuration: 0 (B000)" in text

    def test_ik_round_trips_fk(self):
        code, text = run_cli("ik", "--pose", "525,0,890,180,-90,0",
                             "--config", "0")
        assert code == 0
        line = next(l for l in text.splitlines()
                    if l.startswith("configuration 0 joints"))
        values = [float(tok) for tok in line.split(":")[1].split()]
        assert values == pytest.approx([0.0, -90.0, 90.0, 0.0, 0.0, 0.0],
                                       abs=1e-7)

    def test_ik_unreachable_pose_all_branches_elongated(self):
        code, text = run_cli("ik", "--pose", "1200,0,900,0,90,0")
        assert code == 0
        robot = builtin_kr6r900()
        from cellplace.geometry import frame_from_pose
        q_all = backward7_all(robot, frame_from_pose(
            Pose.from_degrees(1200, 0, 900, 0, 90, 0)))
        assert np.all(np.abs(q_all[:, 3]) > 0.0)
        body = [l for l in text.splitlines() if l.strip().startswith(tuple("01234567"))]
        assert all("no" in line for line in body)

    def test_ik_runs_one_backward_transform(self, monkeypatch):
        from cellplace import cli, kinematics
        calls = []
        real = kinematics.backward7_all

        def counted(robot, target):
            calls.append(1)
            return real(robot, target)

        monkeypatch.setattr(kinematics, "backward7_all", counted)
        monkeypatch.setattr(cli, "backward7_all", counted)
        code, text = run_cli("ik", "--pose", "525,0,890,180,-90,0",
                             "--config", "0")
        assert code == 0 and "configuration 0 joints" in text
        assert len(calls) == 1

    def test_fk_malformed_joints_exit_two(self):
        code, _ = run_cli("fk", "--joints", "1,2,3")
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fk_non_finite_joints_exit_two(self, value, capsys):
        code, text = run_cli("fk", "--joints", f"0,-90,{value},0,0,0")
        assert code == 2
        assert text == ""
        assert "--joints" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_ik_non_finite_pose_exit_two(self, value, capsys):
        code, text = run_cli("ik", "--pose", f"525,0,890,{value},-90,0")
        assert code == 2
        assert text == ""
        assert "--pose" in capsys.readouterr().err


class TestPlotCommand:
    def test_deterministic_bytes(self, scene_path, scene_obj, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        placement = gt_pose_text(scene_obj)
        assert run_cli("plot", str(scene_path), "--placement", placement,
                       "--out", str(a))[0] == 0
        assert run_cli("plot", str(scene_path), "--placement", placement,
                       "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_feasible_placement_has_no_virtual_axis_segments(
            self, scene_path, scene_obj, tmp_path):
        svg = tmp_path / "ok.svg"
        run_cli("plot", str(scene_path), "--placement", gt_pose_text(scene_obj),
                "--out", str(svg))
        content = svg.read_text()
        assert "virtual-axis" not in content
        assert content.count('class="process-point"') == 2 * scene_obj.K

    def test_unreachable_point_draws_v_segment(self, scene_path, scene_obj,
                                               tmp_path):
        svg = tmp_path / "far.svg"
        run_cli("plot", str(scene_path), "--placement", "2500,0,200,0,0,0",
                "--out", str(svg))
        content = svg.read_text()
        assert 'class="virtual-axis"' in content
        # the encoded v value matches the backward transform's minimal |v|
        from cellplace.geometry import frame_from_pose
        placement = frame_from_pose(Pose.from_degrees(2500, 0, 200, 0, 0, 0))
        robot = scene_obj.robot
        target = placement @ scene_obj.target_frames()[0]
        v_min = min(abs(v) for v in backward7_all(robot, target)[:, 3])
        first = next(l for l in content.splitlines() if "virtual-axis" in l
                     and 'data-point="p1"' in l)
        encoded = float(first.split('data-v="')[1].split('"')[0])
        assert encoded == pytest.approx(v_min, rel=1e-12)

    def test_unwritable_path_exit_three(self, scene_path, scene_obj):
        code, _ = run_cli("plot", str(scene_path), "--placement",
                          gt_pose_text(scene_obj), "--out",
                          "/nonexistent-dir/x.svg")
        assert code == 3

    def test_non_finite_placement_exit_two(self, scene_path, tmp_path, capsys):
        svg = tmp_path / "nan.svg"
        code, _ = run_cli("plot", str(scene_path), "--placement",
                          "420,-80,180,nan,0,0", "--out", str(svg))
        assert code == 2
        assert not svg.exists()
        assert "--placement" in capsys.readouterr().err
