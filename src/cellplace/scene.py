"""Scene data model, file ingestion, report serialization, scene synthesis.

Scene files are strict JSON: angles in degrees, lengths in millimetres,
unknown keys rejected so that typos in option names fail loudly. See
docs/file_formats.md in the repository root for the annotated schema. Inside
the process everything is radians and millimetres.

Report files also use JSON. Angle fields are written twice: a `_rad` field
holding the exact binary value (these round-trip losslessly through JSON's
shortest-repr float rendering) and a `_deg` rendering for human readers.
Loading uses only the `_rad` fields.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import ParseError, SynthesisFailed, ValidationError
from .geometry import (Pose, frame_from_pose, frames_from_poses, invert,
                       pose_from_frame)
from .kinematics import (JointRow, RobotModel, _wrist_plane, builtin_kr6r900,
                         config_label, forward6)

FORMAT_VERSION = 1

_BUILTIN_ROBOTS = {"kr6r900": builtin_kr6r900}

_POSE_KEYS = ("x", "y", "z", "a", "b", "c")
_DEFAULT_BOUNDS = {
    "x": (-1500.0, 1500.0), "y": (-1500.0, 1500.0), "z": (-1500.0, 1500.0),
    "a": (-180.0, 180.0), "b": (-180.0, 180.0), "c": (-180.0, 180.0),
}
# DH fields of a rotational row (mm and degrees) and their defaults
_ROW_DEFAULTS = {"d": 0.0, "a": 0.0, "alpha": 0.0, "phi": 0.0,
                 "theta_min": -180.0, "theta_max": 180.0}
_SOLVE_KEYS = {"mode", "multistart", "seed", "max_iterations",
               "kkt_tolerance", "constraint_tolerance"}


@dataclass(frozen=True)
class ProcessPoint:
    id: str
    pose: Pose  # relative to the workpiece frame
    segment: str | None = None


@dataclass(frozen=True)
class PlacementBounds:
    lower: np.ndarray  # (6,) mm / rad
    upper: np.ndarray

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


@dataclass
class Scene:
    robot: RobotModel
    points: tuple[ProcessPoint, ...]
    bounds: PlacementBounds
    tool: Pose = field(default_factory=Pose)
    initial: Pose | None = None
    solve_options: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    robot_name: str | None = None

    @property
    def K(self) -> int:
        return len(self.points)

    def target_frames(self) -> np.ndarray:
        """The points' frames in workpiece coordinates, shape (K, 4, 4)."""
        return frames_from_poses(
            np.array([p.pose.as_array() for p in self.points]).reshape(-1, 6))

    def segment_map(self) -> tuple[int, np.ndarray]:
        """(segment count, segment index per point).

        Points without a segment id each form their own segment; declared ids
        group by value in order of first appearance.
        """
        ids = {}
        seg_of = np.empty(self.K, dtype=int)
        for k, point in enumerate(self.points):
            key = ("#anon", k) if point.segment is None else ("seg", point.segment)
            if key not in ids:
                ids[key] = len(ids)
            seg_of[k] = ids[key]
        return len(ids), seg_of


@dataclass
class PointResult:
    id: str
    config: int
    v_mm: float
    joints: list[float] | None  # radians, in-limit representatives
    axis_margins: list[float]  # radians, positive inside the range
    outcome: str

    @property
    def config_bits(self) -> str:
        return config_label(self.config)


@dataclass
class SolutionReport:
    placement: Pose
    points: list[PointResult]
    objective: float
    mode: str
    verdict: str  # "feasible" | "infeasible"
    diagnostics: dict = field(default_factory=dict)
    elapsed_s: float = 0.0


# ---------------------------------------------------------------------------
# strict-JSON helpers
# ---------------------------------------------------------------------------

def _expect_keys(obj: dict, where: str, required: set, optional: set, errors: list):
    unknown = set(obj) - required - optional
    for key in sorted(unknown):
        errors.append(f"{where}: unknown field {key!r}")
    for key in sorted(required - set(obj)):
        errors.append(f"{where}: missing field {key!r}")


def _number(raw, where: str, errors: list) -> float | None:
    """raw as a float, or None with an error naming ``where`` unless raw is a
    finite JSON number (bools and numeric strings are not numbers)."""
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        errors.append(f"{where}: expected a number")
        return None
    try:
        value = float(raw)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        errors.append(f"{where}: expected a finite number")
        return None
    return value


def _parse_pose_deg(obj, where: str, errors: list, wrap: bool = True) -> Pose | None:
    if not isinstance(obj, dict):
        errors.append(f"{where}: pose must be an object with keys x..c")
        return None
    _expect_keys(obj, where, set(), set(_POSE_KEYS), errors)
    values = []
    for key in _POSE_KEYS:
        value = _number(obj.get(key, 0.0), f"{where}.{key}", errors)
        if value is None:
            return None
        values.append(value)
    pose = Pose.from_degrees(*values)
    return pose.wrapped() if wrap else pose


def _pose_to_deg_dict(pose: Pose) -> dict:
    a, b, c = pose.angles_deg()
    return {"x": pose.x, "y": pose.y, "z": pose.z, "a": a, "b": b, "c": c}


def _parse_bounds(obj, errors: list) -> PlacementBounds:
    lower = np.empty(6)
    upper = np.empty(6)
    obj = obj if obj is not None else {}
    if not isinstance(obj, dict):
        errors.append("placement_bounds: must be an object")
        obj = {}
    _expect_keys(obj, "placement_bounds", set(), set(_POSE_KEYS), errors)
    for i, key in enumerate(_POSE_KEYS):
        raw = obj.get(key, list(_DEFAULT_BOUNDS[key]))
        if isinstance(raw, list) and len(raw) == 2:
            lo = _number(raw[0], f"placement_bounds.{key}[0]", errors)
            hi = _number(raw[1], f"placement_bounds.{key}[1]", errors)
        elif isinstance(raw, list):
            errors.append(f"placement_bounds.{key}: expected number or [lo, hi]")
            continue
        else:
            lo = hi = _number(raw, f"placement_bounds.{key}", errors)
        if lo is None or hi is None:
            continue
        if lo > hi:
            errors.append(f"placement_bounds.{key}: lo {lo} exceeds hi {hi}")
        if i >= 3:  # angular components arrive in degrees
            lo, hi = math.radians(lo), math.radians(hi)
        lower[i], upper[i] = lo, hi
    return PlacementBounds(lower, upper)


def _parse_robot(obj, errors: list) -> tuple[RobotModel | None, str | None]:
    if isinstance(obj, str):
        maker = _BUILTIN_ROBOTS.get(obj)
        if maker is None:
            errors.append(f"robot: unknown builtin {obj!r} "
                          f"(have: {sorted(_BUILTIN_ROBOTS)})")
            return None, None
        return maker(), obj
    if not isinstance(obj, dict):
        errors.append("robot: expected a builtin name or an inline DH table")
        return None, None
    _expect_keys(obj, "robot", {"name", "rows"}, {"base"}, errors)
    rows_raw = obj.get("rows")
    if not isinstance(rows_raw, list) or len(rows_raw) != 7:
        errors.append("robot.rows: expected 7 rows (6 rotational + virtual axis)")
        return None, None
    rows = []
    for i, raw in enumerate(rows_raw):
        where = f"robot.rows[{i}]"
        if not isinstance(raw, dict):
            errors.append(f"{where}: expected an object")
            return None, None
        _expect_keys(raw, where, {"type"}, set(_ROW_DEFAULTS), errors)
        kind = raw.get("type")
        if kind == "P":
            rows.append(JointRow("prism"))
            continue
        if kind != "R":
            errors.append(f"{where}.type: expected 'R' or 'P'")
            return None, None
        d, a, alpha, phi, lo, hi = (
            _number(raw.get(key, default), f"{where}.{key}", errors)
            for key, default in _ROW_DEFAULTS.items())
        if None in (d, a, alpha, phi, lo, hi):
            errors.append(f"{where}: expected finite numbers")
            return None, None
        rows.append(JointRow("rot", d=d, a=a, alpha=math.radians(alpha),
                             phi=math.radians(phi), lo=math.radians(lo),
                             hi=math.radians(hi)))
    base_pose = _parse_pose_deg(obj.get("base", {}), "robot.base", errors)
    if base_pose is None:
        return None, None
    try:
        model = RobotModel(name=str(obj.get("name", "inline")), rows=tuple(rows),
                           base=frame_from_pose(base_pose), tool=np.eye(4))
    except ValueError as exc:
        errors.append(f"robot: {exc}")
        return None, None
    return model, None


def load_scene(path) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scene_from_dict(raw)


def scene_from_dict(raw: dict) -> Scene:
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ValidationError(["top level: expected a JSON object"])
    _expect_keys(raw, "top level", {"format_version", "robot", "points"},
                 {"tool", "placement_bounds", "initial_placement", "solve",
                  "metadata"}, errors)
    if raw.get("format_version") != FORMAT_VERSION:
        errors.append(f"format_version: expected {FORMAT_VERSION}")

    robot, robot_name = _parse_robot(raw.get("robot"), errors)

    tool = _parse_pose_deg(raw.get("tool", {}), "tool", errors) or Pose()
    if robot is not None and raw.get("tool"):
        robot = dataclasses.replace(robot, tool=frame_from_pose(tool))

    points = []
    seen_ids = set()
    raw_points = raw.get("points", [])
    if not isinstance(raw_points, list) or not raw_points:
        errors.append("points: expected a non-empty list")
        raw_points = []
    for i, raw_point in enumerate(raw_points):
        where = f"points[{i}]"
        if not isinstance(raw_point, dict):
            errors.append(f"{where}: expected an object")
            continue
        _expect_keys(raw_point, where, {"id", "pose"}, {"segment"}, errors)
        pid = raw_point.get("id")
        if not isinstance(pid, str) or not pid:
            errors.append(f"{where}.id: expected a non-empty string")
            pid = f"#{i}"
        if pid in seen_ids:
            errors.append(f"{where}.id: duplicate id {pid!r}")
        seen_ids.add(pid)
        pose = _parse_pose_deg(raw_point.get("pose", {}), f"{where}.pose", errors)
        segment = raw_point.get("segment")
        if segment is not None and not isinstance(segment, str):
            errors.append(f"{where}.segment: expected a string")
            segment = None
        if pose is not None:
            points.append(ProcessPoint(id=pid, pose=pose, segment=segment))

    bounds = _parse_bounds(raw.get("placement_bounds"), errors)

    initial = None
    if "initial_placement" in raw:
        initial = _parse_pose_deg(raw["initial_placement"], "initial_placement",
                                  errors, wrap=False)
    if initial is not None:
        inside = np.all(initial.as_array() >= bounds.lower - 1e-12) and \
            np.all(initial.as_array() <= bounds.upper + 1e-12)
        if not inside:
            errors.append("initial_placement: outside placement_bounds")

    solve_options = raw.get("solve", {})
    if not isinstance(solve_options, dict):
        errors.append("solve: expected an object")
        solve_options = {}
    _expect_keys(solve_options, "solve", set(), _SOLVE_KEYS, errors)
    if "mode" in solve_options and solve_options["mode"] not in ("squared", "abs"):
        errors.append("solve.mode: expected 'squared' or 'abs'")
    # the values go to SolveSettings as they are, so they must meet the
    # limits the solver enforces
    for key, least in (("multistart", 1), ("seed", 0), ("max_iterations", 0)):
        value = solve_options.get(key, least)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"solve.{key}: expected an integer")
        elif value < least:
            errors.append(f"solve.{key}: expected an integer >= {least}")
    for key in ("kkt_tolerance", "constraint_tolerance"):
        value = _number(solve_options.get(key, 1.0), f"solve.{key}", errors)
        if value is not None and value <= 0:
            errors.append(f"solve.{key}: expected a positive number")

    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        errors.append("metadata: expected an object")
        metadata = {}

    if errors:
        raise ValidationError(errors)
    return Scene(robot=robot, points=tuple(points), bounds=bounds, tool=tool,
                 initial=initial, solve_options=dict(solve_options),
                 metadata=dict(metadata), robot_name=robot_name)


def scene_to_dict(scene: Scene) -> dict:
    raw: dict = {"format_version": FORMAT_VERSION}
    if scene.robot_name is not None:
        raw["robot"] = scene.robot_name
    else:
        base = pose_from_frame(scene.robot.base)
        raw["robot"] = {
            "name": scene.robot.name,
            "base": _pose_to_deg_dict(base),
            "rows": [
                {"type": "P"} if row.kind == "prism" else {
                    "type": "R", "d": row.d, "a": row.a,
                    "alpha": math.degrees(row.alpha),
                    "phi": math.degrees(row.phi),
                    "theta_min": math.degrees(row.lo),
                    "theta_max": math.degrees(row.hi),
                }
                for row in scene.robot.rows
            ],
        }
    raw["tool"] = _pose_to_deg_dict(scene.tool)
    raw["points"] = []
    for point in scene.points:
        entry = {"id": point.id, "pose": _pose_to_deg_dict(point.pose)}
        if point.segment is not None:
            entry["segment"] = point.segment
        raw["points"].append(entry)
    bounds = {}
    for i, key in enumerate(_POSE_KEYS):
        lo, hi = scene.bounds.lower[i], scene.bounds.upper[i]
        if i >= 3:
            lo, hi = math.degrees(lo), math.degrees(hi)
        bounds[key] = lo if lo == hi else [lo, hi]
    raw["placement_bounds"] = bounds
    if scene.initial is not None:
        raw["initial_placement"] = _pose_to_deg_dict(scene.initial)
    if scene.solve_options:
        raw["solve"] = scene.solve_options
    if scene.metadata:
        raw["metadata"] = scene.metadata
    return raw


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scene_to_dict(scene), handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

_REPORT_PLACEMENT_KEYS = ("x", "y", "z", "a_rad", "b_rad", "c_rad")
_OUTCOMES = (oracle.IN_LIMITS, oracle.OUT_OF_LIMITS, oracle.OUT_OF_WORKSPACE)


def _pose_to_report_dict(pose: Pose) -> dict:
    a_deg, b_deg, c_deg = pose.angles_deg()
    return {"x": pose.x, "y": pose.y, "z": pose.z,
            "a_rad": pose.a, "b_rad": pose.b, "c_rad": pose.c,
            "a_deg": a_deg, "b_deg": b_deg, "c_deg": c_deg}


def _null_if_not_finite(value):
    """Strict-JSON form: every non-finite float, however nested, is None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _null_if_not_finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_null_if_not_finite(item) for item in value]
    return value


def report_to_dict(report: SolutionReport) -> dict:
    """The JSON document of a report; non-finite numbers become None."""
    raw = {
        "format_version": FORMAT_VERSION,
        "verdict": report.verdict,
        "mode": report.mode,
        "objective": report.objective,
        "elapsed_s": report.elapsed_s,
        "placement": _pose_to_report_dict(report.placement),
        "diagnostics": report.diagnostics,
        "points": [
            {
                "id": p.id,
                "config": p.config,
                "config_bits": p.config_bits,
                "outcome": p.outcome,
                "v_mm": p.v_mm,
                "joints_rad": p.joints,
                "joints_deg": None if p.joints is None else
                    [math.degrees(j) for j in p.joints],
                "axis_margins_rad": p.axis_margins,
                "axis_margins_deg": [math.degrees(m) for m in p.axis_margins],
            }
            for p in report.points
        ],
    }
    return _null_if_not_finite(raw)


def save_report(report: SolutionReport, path) -> None:
    """Write a report as strict JSON; non-finite numbers become null."""
    raw = report_to_dict(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=2, allow_nan=False)
        handle.write("\n")


def load_report(path) -> SolutionReport:
    """Read a report; a null v_mm or objective is +inf, a null margin -inf."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return _report_from_dict(raw)


def _six(raw, where: str, errors: list, null: float | None = None) -> list:
    """Six finite numbers; with ``null`` given, a JSON null reads as it."""
    if not isinstance(raw, list) or len(raw) != 6:
        errors.append(f"{where}: expected a list of 6 numbers")
        return []
    return [null if value is None and null is not None
            else _number(value, f"{where}[{j}]", errors)
            for j, value in enumerate(raw)]


def _report_from_dict(raw) -> SolutionReport:
    """Strict report ingest; as for scenes, every problem is reported. The
    ``*_deg`` fields and ``config_bits`` are known keys that loading ignores.
    """
    if not isinstance(raw, dict):
        raise ValidationError(["top level: expected a JSON object"])
    errors: list[str] = []
    _expect_keys(raw, "top level", {"format_version", "verdict", "mode",
                                    "objective", "placement", "points"},
                 {"elapsed_s", "diagnostics"}, errors)
    if raw.get("format_version") != FORMAT_VERSION:
        errors.append(f"format_version: expected {FORMAT_VERSION}")
    for key, allowed in (("verdict", ("feasible", "infeasible")),
                         ("mode", ("squared", "abs"))):
        if raw.get(key) not in allowed:
            errors.append(f"{key}: expected one of {', '.join(allowed)}")
    objective = math.inf if raw.get("objective") is None else \
        _number(raw["objective"], "objective", errors)
    elapsed_s = _number(raw.get("elapsed_s", 0.0), "elapsed_s", errors)
    diagnostics = raw.get("diagnostics", {})
    if not isinstance(diagnostics, dict):
        errors.append("diagnostics: expected an object")

    placement = raw.get("placement")
    if not isinstance(placement, dict):
        errors.append("placement: expected an object")
        placement = {}
    _expect_keys(placement, "placement", set(_REPORT_PLACEMENT_KEYS),
                 {"a_deg", "b_deg", "c_deg"}, errors)
    pose = [_number(placement.get(key, 0.0), f"placement.{key}", errors)
            for key in _REPORT_PLACEMENT_KEYS]

    raw_points = raw.get("points")
    if not isinstance(raw_points, list):
        errors.append("points: expected a list")
        raw_points = []
    points = []
    for i, p in enumerate(raw_points):
        where = f"points[{i}]"
        if not isinstance(p, dict):
            errors.append(f"{where}: expected an object")
            continue
        _expect_keys(p, where, {"id", "config", "outcome", "v_mm", "joints_rad",
                                "axis_margins_rad"},
                     {"config_bits", "joints_deg", "axis_margins_deg"}, errors)
        if not isinstance(p.get("id"), str) or not p["id"]:
            errors.append(f"{where}.id: expected a non-empty string")
        config = p.get("config")
        if not isinstance(config, int) or isinstance(config, bool) \
                or not 0 <= config <= 7:
            errors.append(f"{where}.config: expected an integer in 0..7")
        if p.get("outcome") not in _OUTCOMES:
            errors.append(f"{where}.outcome: expected one of "
                          f"{', '.join(_OUTCOMES)}")
        v_mm = math.inf if p.get("v_mm") is None else \
            _number(p["v_mm"], f"{where}.v_mm", errors)
        joints = p.get("joints_rad")
        if joints is not None:
            joints = _six(joints, f"{where}.joints_rad", errors)
        margins = _six(p.get("axis_margins_rad"), f"{where}.axis_margins_rad",
                       errors, null=-math.inf)
        points.append(PointResult(id=p.get("id"), config=config, v_mm=v_mm,
                                  joints=joints, axis_margins=margins,
                                  outcome=p.get("outcome")))
    if errors:
        raise ValidationError(errors)
    return SolutionReport(placement=Pose(*pose), points=points,
                          objective=objective, mode=raw["mode"],
                          verdict=raw["verdict"], diagnostics=diagnostics,
                          elapsed_s=elapsed_s)


# ---------------------------------------------------------------------------
# scene synthesis
# ---------------------------------------------------------------------------

_SAMPLE_LIMIT_MARGIN = 0.15  # rad kept to the axis limits by sampled joints
_MIXED_PAIR_ATTEMPTS = 400  # TCPs drawn per search for a mixed pair


def _sample_joints(robot: RobotModel, rng: np.random.Generator) -> np.ndarray:
    """In-limit, canonically wrapped, branch-robust joint vector.

    Keeps a margin to the limits, to the wrist singularity and to the
    shoulder/elbow branch boundaries so that small placement perturbations
    cannot flip the configuration.
    """
    lo, hi = robot.limits
    lo = np.maximum(lo + _SAMPLE_LIMIT_MARGIN, -math.pi + 1e-6)
    hi = np.minimum(hi - _SAMPLE_LIMIT_MARGIN, math.pi)
    while True:
        theta = rng.uniform(lo, hi)
        if abs(theta[4]) < 0.2:
            continue
        radial, cross = _wrist_plane(robot, theta)
        if abs(radial) < 60.0:
            continue  # too close to the shoulder branch boundary
        # cross / a2 is the wrist centre's distance from the elbow line (mm)
        if abs(cross) < 20.0 * robot._arm["a2"]:
            continue  # too close to the elbow branch boundary
        return theta


def _config_sets(scene_robot, targets, placement, margin_rad, margin_mm):
    """Per-target sets of robustly-in-limit configurations.

    Returns (robust_in, loose_in): configurations whose worst margin clears
    +margin, and configurations not ruled out by at least the same margin.
    Any configuration in loose_in \\ robust_in is borderline. A degenerate
    target has both sets empty.
    """
    table = oracle.reachability_table(scene_robot,
                                      placement @ np.array(targets))
    worst = table.margins.min(axis=-1)
    v = np.abs(table.v)
    robust_in = (v == 0.0) & (worst >= margin_rad)
    loose_in = (v <= margin_mm) & (worst >= -margin_rad)
    return ([set(np.flatnonzero(row).tolist()) for row in robust_in],
            [set(np.flatnonzero(row).tolist()) for row in loose_in])


def synthesize_scene(robot: RobotModel | None = None, count: int = 1,
                     seed: int = 0, mixed_config: bool = False,
                     segment_size: int | None = None) -> Scene:
    """Generate a scene with a known-feasible placement embedded as metadata.

    Process points come from forward kinematics of sampled in-limit joint
    vectors, expressed relative to a sampled workpiece frame; the placement
    bounds box contains that frame off-centre. With mixed_config=True the
    first two points are forced to admit in-limit solutions only in disjoint
    configuration sets at the ground-truth placement (verified before
    emission), so any feasible assignment must mix configurations.
    """
    robot = robot or builtin_kr6r900()
    if count < 1:
        raise ValueError("count must be >= 1")
    if mixed_config and count < 2:
        raise ValueError("mixed_config needs at least 2 points")
    if mixed_config and segment_size is not None and segment_size > 1:
        raise ValueError("mixed_config requires per-point segments")
    rng = np.random.default_rng(seed)

    for _ in range(400):
        placement_pose = Pose(
            x=rng.uniform(250.0, 550.0), y=rng.uniform(-300.0, 300.0),
            z=rng.uniform(150.0, 500.0), a=rng.uniform(-math.pi, math.pi),
            b=rng.uniform(-0.3, 0.3), c=rng.uniform(-0.3, 0.3))
        placement = frame_from_pose(placement_pose)
        placement_inv = invert(placement)

        tcps = []
        if mixed_config:
            pair = _sample_mixed_pair(robot, placement, rng)
            if pair is None:
                continue
            tcps.extend(pair)
        while len(tcps) < count:
            frame, _ = forward6(robot, _sample_joints(robot, rng))
            tcps.append(frame)

        points = []
        for k, tcp in enumerate(tcps):
            pose = pose_from_frame(placement_inv @ tcp)
            segment = None
            if segment_size is not None and segment_size > 1:
                segment = f"s{k // segment_size}"
            points.append(ProcessPoint(id=f"p{k + 1}", pose=pose, segment=segment))

        span = np.array([60.0, 60.0, 40.0, math.radians(8), math.radians(5),
                         math.radians(5)]) if mixed_config else \
            np.array([300.0, 300.0, 200.0, math.radians(40), math.radians(20),
                      math.radians(20)])
        offset = rng.uniform(0.3, 0.7, size=6)
        lower = placement_pose.as_array() - offset * span
        upper = lower + span
        bounds = PlacementBounds(lower, upper)

        scene = Scene(
            robot=robot, points=tuple(points), bounds=bounds,
            initial=Pose.from_array(bounds.midpoint()),
            solve_options={"mode": "squared", "multistart": 4, "seed": seed},
            metadata={
                "generator": "synthesize_scene",
                "seed": seed,
                "mixed_config": mixed_config,
                "ground_truth": _pose_to_deg_dict(placement_pose),
            },
            robot_name=robot.name if robot.name in _BUILTIN_ROBOTS else None)

        if not oracle.check_placement(scene, placement).feasible:
            continue
        if mixed_config:
            robust, loose = _config_sets(robot, scene.target_frames()[:2],
                                         placement, math.radians(5), 5.0)
            if not robust[0] or not robust[1] or (loose[0] & loose[1]):
                continue
        return scene
    raise SynthesisFailed(f"no valid scene after 400 attempts (seed {seed})")


def _sample_mixed_pair(robot, placement, rng):
    """Two TCPs whose robust in-limit configuration sets are disjoint."""
    targets_a = []
    sets_a = []
    for _ in range(_MIXED_PAIR_ATTEMPTS):
        frame, _ = forward6(robot, _sample_joints(robot, rng))
        robust, loose = _config_sets(
            robot, [invert(placement) @ frame], placement,
            math.radians(5), 5.0)
        if not robust[0]:
            continue
        if targets_a:
            for frame_a, loose_a in zip(targets_a, sets_a):
                if not (loose_a & loose[0]):
                    return [frame_a, frame]
        if len(loose[0]) <= 4:  # keep candidates with few viable branches
            targets_a.append(frame)
            sets_a.append(loose[0])
    return None
