"""Brute-force ground truth for reachability and placement quality.

Everything here re-derives its answers from the kinematics alone: no shared
caches, no finite differences, no solver state. The optimizer is validated
against this module, never the other way around. All functions are pure
and deterministic; cells and (point, configuration) pairs are independent.

Reachability has one rule and one table. A virtual-robot row is reachable
when its excursion v is 0 and every signed limit margin of its deepest
2pi-representative is >= 0. reachability_table applies the rule to every
configuration of a stack of targets at once and keeps the arrays it used:
outcome, v, representatives and margins. check_placement, verify_solution,
the report extraction, the CLI, the SVG and scene synthesis all read that
table. The grid keeps its own margins-only score (_placement_scores): a cell
needs one number, not a table, and a scan of up to 10^6 cells should not pay
for representatives and outcome strings that no score reads.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge
from .geometry import frame_from_pose, frames_from_poses
from .kinematics import (RobotModel, backward7_batch, deepest_margins,
                         limit_margins, limit_violation)

IN_LIMITS = "in_limits"
OUT_OF_LIMITS = "out_of_limits"
OUT_OF_WORKSPACE = "out_of_workspace"
POINTS_MISMATCH = "points_mismatch"


@dataclass(frozen=True)
class ReachabilityTable:
    """Every configuration of K targets classified, as (K, 8) arrays.

    ``outcome`` holds IN_LIMITS, OUT_OF_LIMITS or OUT_OF_WORKSPACE; ``v`` the
    virtual excursion (mm); ``joints`` (K, 8, 6) the deepest
    2pi-representatives (rad); ``margins`` (K, 8, 6) their signed limit
    margins (rad), positive inside the range with that much room, negative
    by how far every representative misses it. A target the kernel masks as
    degenerate is out of the workspace in every configuration, with v = inf,
    margins -inf and NaN joints.
    """

    outcome: np.ndarray
    v: np.ndarray
    joints: np.ndarray
    margins: np.ndarray

    @property
    def feasible(self) -> bool:
        """Whether every target has an in-limit configuration."""
        return bool((self.outcome == IN_LIMITS).any(axis=-1).all())


def reachability_table(robot: RobotModel, targets=None, *,
                       joint_rows=None) -> ReachabilityTable:
    """Classify every configuration of a (..., 4, 4) stack of target frames.

    The frames go through one batched backward transform. A caller that
    already holds the backward7 rows, shape (..., 8, 7), of targets that are
    not degenerate passes them as ``joint_rows`` instead.
    """
    if joint_rows is None:
        joint_rows, degenerate = backward7_batch(robot, targets)
    else:
        degenerate = np.zeros(joint_rows.shape[:-2], dtype=bool)
    joints, margins = limit_margins(joint_rows[..., [0, 1, 2, 4, 5, 6]],
                                    *robot.limits)
    v = np.where(degenerate[..., None], math.inf, joint_rows[..., 3])
    margins = np.where(degenerate[..., None, None], -math.inf, margins)
    outcome = np.where(v != 0.0, OUT_OF_WORKSPACE,
                       np.where(margins.min(axis=-1) >= 0.0, IN_LIMITS,
                                OUT_OF_LIMITS))
    return ReachabilityTable(outcome, v, joints, margins)


def _world_targets(scene, placements: np.ndarray) -> np.ndarray:
    """Target frames at each placement: (..., 4, 4) -> (..., K, 4, 4)."""
    return placements[..., None, :, :] @ scene.target_frames()


def check_placement(scene, placement: np.ndarray) -> ReachabilityTable:
    """The reachability table of the scene's points at a placement."""
    return reachability_table(scene.robot, _world_targets(scene, placement))


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
    table = check_placement(scene, frame_from_pose(report.placement))
    diffs = []
    for k, point_result in enumerate(report.points):
        config = point_result.config
        outcome = str(table.outcome[k, config])
        if outcome == IN_LIMITS:
            continue
        violations = [0.0] * 6
        if outcome == OUT_OF_LIMITS:
            violations = limit_violation(table.margins[k, config]).tolist()
        diffs.append({
            "point": point_result.id, "config": config, "outcome": outcome,
            "v_mm": float(table.v[k, config]),
            "axis_violations_rad": violations,
        })
    return len(diffs) == 0, diffs
