"""Brute-force ground truth for reachability and placement quality.

Everything here re-derives its answers from the kinematics alone: no shared
caches, no finite differences, no solver state. The optimizer is validated
against this module, never the other way around. All functions are pure
and deterministic; cells and (point, configuration) pairs are independent.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooLarge
from .geometry import frame_from_pose, frames_from_poses
from .kinematics import (RobotModel, backward7_batch, deepest_margins,
                         limit_margins, limit_violation)

IN_LIMITS = "in_limits"
OUT_OF_LIMITS = "out_of_limits"
OUT_OF_WORKSPACE = "out_of_workspace"
POINTS_MISMATCH = "points_mismatch"


@dataclass
class BranchResult:
    outcome: str
    joints: np.ndarray | None  # in-limit representatives when available
    v: float


@dataclass
class ReachabilityTable:
    """Per (point, configuration) classification of one placement."""

    rows: list[list[BranchResult]] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return all(any(b.outcome == IN_LIMITS for b in row) for row in self.rows)


def _classify_joint_rows(robot: RobotModel, q: np.ndarray
                         ) -> tuple[list[BranchResult], np.ndarray]:
    """One BranchResult per virtual-robot solution row of q, shape (n, 7),
    and the rows' per-axis limit margins, shape (n, 6)."""
    reps, margins = limit_margins(q[:, [0, 1, 2, 4, 5, 6]], *robot.limits)
    in_limits = margins.min(axis=1) >= 0.0
    branches = []
    for v, joints, ok in zip(q[:, 3].tolist(), reps, in_limits):
        if v != 0.0:
            branches.append(BranchResult(OUT_OF_WORKSPACE, None, v))
        elif ok:
            branches.append(BranchResult(IN_LIMITS, joints, 0.0))
        else:
            branches.append(BranchResult(OUT_OF_LIMITS, None, 0.0))
    return branches, margins


def _world_targets(scene, placements: np.ndarray) -> np.ndarray:
    """Target frames at each placement: (..., 4, 4) -> (..., K, 4, 4)."""
    return placements[..., None, :, :] @ scene.target_frames()


def classify_targets(robot: RobotModel, targets: np.ndarray, configs) -> list:
    """(outcome, joints-or-None, v, margins) of each target frame, shape
    (K, 4, 4), in its configuration, from one batched backward transform.

    ``margins`` are the signed per-axis limit margins (rad) of the best
    2pi-representative: positive means inside the range with that much room,
    negative is the distance by which every representative misses the range.
    A target that backward7_batch masks as degenerate is out of the
    workspace in every configuration, with v = inf and margins -inf.
    """
    q_all, degenerate = backward7_batch(robot, targets)
    q = q_all[np.arange(len(q_all)), np.asarray(configs, dtype=int)]
    branches, margins = _classify_joint_rows(robot, q)
    return [(OUT_OF_WORKSPACE, None, math.inf, [-math.inf] * 6) if bad else
            (branch.outcome, branch.joints, branch.v, row)
            for branch, row, bad in zip(branches, margins.tolist(), degenerate)]


def check_placement(scene, placement: np.ndarray) -> ReachabilityTable:
    """Classify every (point, configuration) pair at a candidate placement."""
    q_all, degenerate = backward7_batch(scene.robot,
                                        _world_targets(scene, placement))
    branches, _ = _classify_joint_rows(scene.robot, q_all.reshape(-1, 7))
    table = ReachabilityTable()
    for k, bad in enumerate(degenerate):
        table.rows.append([BranchResult(OUT_OF_WORKSPACE, None, math.inf)
                           for _ in range(8)] if bad else
                          branches[8 * k:8 * k + 8])
    return table


# ---------------------------------------------------------------------------
# placement grid search
# ---------------------------------------------------------------------------

@dataclass
class GridSpec:
    """Axis-aligned grid over the six placement components.

    Each component is (lo, hi, count); count == 1 pins the component at lo.
    """

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        if len(self.axes) != 6:
            raise ValueError("grid needs exactly 6 components")
        for lo, hi, count in self.axes:
            if count < 1:
                raise ValueError("grid step count must be >= 1")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("grid range must be finite")
            if hi < lo:
                raise ValueError("grid range must have hi >= lo")

    @property
    def total_cells(self) -> int:
        return int(np.prod([count for _, _, count in self.axes]))

    def component_values(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, count) if count > 1 else np.array([lo])
                for lo, hi, count in self.axes]


@dataclass
class GridCell:
    pose: np.ndarray  # 6 placement components
    score: float
    feasible: bool


# targets per batched backward transform in grid_search; bounds its memory
GRID_BATCH_TARGETS = 960
# most cells one grid_search scans
GRID_CELL_CAP = 1_000_000


def _placement_scores(scene, placements: np.ndarray) -> np.ndarray:
    """placement_score of each of a stack of placements, shape (m, 4, 4)."""
    q_all, degenerate = backward7_batch(scene.robot,
                                        _world_targets(scene, placements))
    margins = deepest_margins(q_all[..., [0, 1, 2, 4, 5, 6]],
                              *scene.robot.limits)
    # the worst axis is the one with the least margin
    worst = limit_violation(margins.min(axis=-1))
    penalty = np.where(degenerate, math.inf,
                       np.min(q_all[..., 3] ** 2 + worst ** 2, axis=-1))
    # cumsum adds the points in order, as a running total would
    return np.cumsum(penalty, axis=-1)[:, -1]


def placement_score(scene, placement: np.ndarray) -> float:
    """Sum over points of the best-configuration penalty v^2 + violation^2."""
    return float(_placement_scores(scene, placement[None])[0])


def grid_search(scene, grid: GridSpec) -> list[GridCell]:
    """Exhaustive placement scan, sorted by ascending score (ties by order).

    Cells are scored in chunks of about GRID_BATCH_TARGETS targets.
    """
    if grid.total_cells > GRID_CELL_CAP:
        raise GridTooLarge(
            f"{grid.total_cells} cells exceed the cap of {GRID_CELL_CAP}")
    poses = np.array(list(itertools.product(*grid.component_values())))
    chunk = max(1, GRID_BATCH_TARGETS // scene.K)
    scores = []
    for start in range(0, len(poses), chunk):
        placements = frames_from_poses(poses[start:start + chunk])
        scores.extend(_placement_scores(scene, placements).tolist())
    cells = [GridCell(pose=pose, score=score, feasible=score == 0.0)
             for pose, score in zip(poses, scores)]
    order = sorted(range(len(cells)), key=lambda i: (cells[i].score, i))
    return [cells[i] for i in order]


# ---------------------------------------------------------------------------
# exhaustive configuration enumeration
# ---------------------------------------------------------------------------

def minimin_enumerate(scene, solve_pinned, stop_at: float | None = None):
    """Best fixed-configuration value over all per-segment assignments.

    ``solve_pinned(scene, assignment) -> (value, payload)`` solves the smooth
    problem with the weights pinned to that assignment. Returns
    (best value, best assignment, payload of the best solve).

    The placement objective is nonnegative by construction, so a caller that
    only needs the minimum may pass ``stop_at=0.0`` to skip the remaining
    assignments once that bound is reached; enumeration order is fixed, so
    the result stays deterministic.
    """
    n_segments, _ = scene.segment_map()
    if 8 ** n_segments > 512:
        raise ValueError("enumeration limited to 8^3 = 512 assignments")
    best_value, best_assignment, best_payload = math.inf, None, None
    for assignment in itertools.product(range(8), repeat=n_segments):
        value, payload = solve_pinned(scene, assignment)
        if value < best_value:
            best_value, best_assignment, best_payload = value, assignment, payload
        if stop_at is not None and best_value <= stop_at:
            break
    return best_value, best_assignment, best_payload


# ---------------------------------------------------------------------------
# report verification
# ---------------------------------------------------------------------------

def verify_solution(scene, report):
    """Re-derive the report's claims from scratch.

    Returns (feasible, diffs); each diff names the point, its configuration
    and the per-axis violations (rad) or virtual excursion that disqualify it.
    A report whose point ids are not the scene's, in order, is rejected with
    one diff of outcome POINTS_MISMATCH that lists both id sequences.
    """
    scene_ids = [p.id for p in scene.points]
    report_ids = [p.id for p in report.points]
    if report_ids != scene_ids:
        return False, [{"outcome": POINTS_MISMATCH, "scene_ids": scene_ids,
                        "report_ids": report_ids}]
    targets = _world_targets(scene, frame_from_pose(report.placement))
    classified = classify_targets(scene.robot, targets,
                                  [p.config for p in report.points])
    diffs = []
    for point_result, (outcome, _, v, margins) in zip(report.points,
                                                      classified):
        config = point_result.config
        if outcome == IN_LIMITS:
            continue
        violations = [0.0] * 6
        if outcome == OUT_OF_LIMITS:
            violations = limit_violation(np.array(margins)).tolist()
        diffs.append({
            "point": point_result.id, "config": config, "outcome": outcome,
            "v_mm": v, "axis_violations_rad": violations,
        })
    return len(diffs) == 0, diffs
