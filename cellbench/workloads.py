"""Benchmark inputs, operations and result checks for each workload.

Every workload runs fixed synthesized scenes; the workload seed only permutes
each scene's point order, so one seed always gives the same input files and
the work per input barely depends on the seed. The operations call public
functions of cellplace through their module attributes (``nlp.solve_placement``
rather than a name bound here), so the tracer sees every call.

Importing this module needs ``src`` on ``sys.path``.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from cellplace import errors, geometry, kinematics, nlp, oracle, scene

# Objective below which a report claims a feasible placement.
ZERO_OBJECTIVE = 1e-10
# Criterion 4: |enumerated optimum - free-weight optimum| bound.
ENUMERATION_GAP = 1e-6
# Points per axis of grid_scan's x-y grid.
GRID_STEPS = 10
# Grid cells whose score is re-derived and whose feasibility is re-checked
# with oracle.check_placement, by rank after sorting. On scenes 301 and 302
# ranks 0 and 1 are feasible cells; every other rank checked is infeasible.
SPOT_CHECK_RANKS = (0, 1, 33, 66, -1)


@dataclasses.dataclass(frozen=True)
class Family:
    """Scenes synthesized with ``synthesize_scene(count=count, seed=s)``."""

    count: int
    scene_seeds: tuple[int, ...]


def canonical_report(report, keep_elapsed: bool = True) -> str:
    """Exact text form of a report; floats keep every digit via repr."""
    raw = dataclasses.asdict(report)
    if not keep_elapsed:
        raw.pop("elapsed_s")
    return json.dumps(raw, sort_keys=True, default=float)


def scene_files(directory: Path) -> list[Path]:
    return sorted(Path(directory).glob("scene_*.json"))


class SolveWorkload:
    """load_scene -> solve_placement -> verify_solution -> save_report."""

    def __init__(self, family: Family, mode: str):
        self.family = family
        self.mode = mode

    def prepare(self, path: Path, work: Path):
        return path, work / f"report_{path.stem}.json"

    def run(self, inp):
        scene_path, report_path = inp
        sc = scene.load_scene(scene_path)
        report = nlp.solve_placement(sc, nlp.SolveSettings(
            mode=self.mode, multistart=8, seed=0, early_stop_objective=1e-12))
        accepted, _ = oracle.verify_solution(sc, report)
        scene.save_report(report, report_path)
        return report, accepted

    def check(self, inp, out) -> list[str]:
        report, accepted = out
        problems = []
        if report.verdict != "feasible":
            problems.append(f"no feasible placement (objective "
                            f"{report.objective!r})")
        if (report.objective <= ZERO_OBJECTIVE or report.verdict == "feasible") \
                and not accepted:
            problems.append("false positive: oracle rejects the report")
        loaded = scene.load_report(inp[1])
        if canonical_report(loaded) != canonical_report(report):
            problems.append("save_report/load_report round trip differs")
        return problems

    def fingerprint(self, out) -> str:
        report, accepted = out
        return f"{accepted}|{canonical_report(report, keep_elapsed=False)}"

    def note(self, out) -> str:
        report, _ = out
        return f"objective {report.objective:.3g}, verdict {report.verdict}"


def reference_score(sc, pose: np.ndarray) -> float:
    """placement_score of one grid pose, re-derived from backward7_all and
    axis_violation, so that a rewrite of the oracle's scan is checked
    against the definition rather than against itself."""
    placement = geometry.frame_from_pose(geometry.Pose.from_array(pose))
    lo, hi = sc.robot.limits
    total = 0.0
    for target in sc.target_frames():
        try:
            q_all = kinematics.backward7_all(sc.robot, placement @ target)
        except errors.DegenerateTarget:
            return math.inf
        penalties = []
        for q in q_all:
            theta = q[[0, 1, 2, 4, 5, 6]]
            worst = max(kinematics.axis_violation(float(theta[i]), lo[i], hi[i])
                        for i in range(6))
            penalties.append(float(q[3]) ** 2 + worst ** 2)
        total += min(penalties)
    return total


class GridWorkload:
    """grid_search over a GRID_STEPS x GRID_STEPS x-y grid, other components
    at the bounds' midpoint."""

    def __init__(self, family: Family):
        self.family = family

    def prepare(self, path: Path, work: Path):
        sc = scene.load_scene(path)
        lo, hi = sc.bounds.lower, sc.bounds.upper
        mid = sc.bounds.midpoint()
        axes = ((lo[0], hi[0], GRID_STEPS), (lo[1], hi[1], GRID_STEPS)) + \
            tuple((mid[i], mid[i], 1) for i in range(2, 6))
        return sc, oracle.GridSpec(axes=axes)

    def run(self, inp):
        sc, grid = inp
        return oracle.grid_search(sc, grid)

    def check(self, inp, cells) -> list[str]:
        sc, grid = inp
        poses = sorted(tuple(c.pose.tolist()) for c in cells)
        if poses != sorted(itertools.product(*grid.component_values())):
            return ["the cells' poses are not the grid's"]
        scores = [c.score for c in cells]
        problems = []
        if not all(score >= 0.0 for score in scores):
            problems.append("a score is negative or NaN")
        if any(a > b for a, b in zip(scores, scores[1:])):
            problems.append("cells are not in ascending score order")
        if any(c.feasible != (c.score == 0.0) for c in cells):
            problems.append("a cell's feasible flag disagrees with its score")
        # every infinite score is re-derived too: only a degenerate target
        # may give one
        ranks = sorted({r % len(cells) for r in SPOT_CHECK_RANKS} |
                       {r for r, score in enumerate(scores) if math.isinf(score)})
        for rank in ranks:
            cell = cells[rank]
            expected = reference_score(sc, cell.pose)
            if not (cell.score == expected or
                    math.isclose(cell.score, expected, rel_tol=1e-9,
                                 abs_tol=1e-12)):
                problems.append(f"cell rank {rank}: score {float(cell.score)!r}, "
                                f"re-derived {float(expected)!r}")
            frame = geometry.frame_from_pose(geometry.Pose.from_array(cell.pose))
            if oracle.check_placement(sc, frame).feasible != cell.feasible:
                problems.append(f"cell rank {rank}: grid says feasible="
                                f"{cell.feasible}, check_placement disagrees")
        return problems

    def fingerprint(self, cells) -> str:
        return json.dumps([[c.pose.tolist(), float(c.score), bool(c.feasible)]
                           for c in cells])

    def note(self, cells) -> str:
        feasible = sum(c.feasible for c in cells)
        return (f"{feasible}/{len(cells)} cells feasible, best score "
                f"{cells[0].score:.6g}")


class EnumerateWorkload:
    """minimin_enumerate over all 64 assignments plus the free solve."""

    def __init__(self, family: Family):
        self.family = family

    def prepare(self, path: Path, work: Path):
        return scene.load_scene(path)

    def run(self, sc):
        pinned = nlp.make_pinned_solver("squared", multistart=2, seed=0,
                                        early_stop_objective=1e-14)
        best, assignment, _ = oracle.minimin_enumerate(sc, pinned)
        free = nlp.solve_placement(sc, nlp.SolveSettings(
            mode="squared", multistart=4, seed=0, early_stop_objective=1e-14))
        return best, assignment, free

    def check(self, sc, out) -> list[str]:
        best, _, free = out
        problems = []
        gap = abs(best - free.objective)
        if not gap <= ENUMERATION_GAP:
            problems.append(f"|enumerated - free| = {gap!r} > {ENUMERATION_GAP}")
        if free.verdict != "feasible":
            problems.append(f"free solve found no feasible placement "
                            f"(objective {free.objective!r})")
        if (free.objective <= ZERO_OBJECTIVE or free.verdict == "feasible") \
                and not oracle.verify_solution(sc, free)[0]:
            problems.append("false positive: oracle rejects the free report")
        return problems

    def fingerprint(self, out) -> str:
        best, assignment, free = out
        return (f"{best!r}|{assignment}|"
                f"{canonical_report(free, keep_elapsed=False)}")

    def note(self, out) -> str:
        best, _, free = out
        return (f"enumerated {best:.3g}, free {free.objective:.3g}, "
                f"gap {abs(best - free.objective):.3g}")


# Seeds and sizes were chosen so that every input takes 0.5-3.5 s with one
# BLAS thread: slower scenes (abs 301/306/308, enumeration 408/409) would let
# one input dominate a run and leave too few repeats for a steady median.
WORKLOADS = {
    "solve_squared": SolveWorkload(Family(30, (300, 301, 302, 303, 304)),
                                   "squared"),
    "solve_abs": SolveWorkload(Family(16, (304, 305, 309, 310, 311)), "abs"),
    "grid_scan": GridWorkload(Family(30, (300, 301, 302, 303, 304))),
    "enumerate_pinned": EnumerateWorkload(Family(2, (402, 406, 407, 410))),
}


def permuted(sc, rng: np.random.Generator):
    order = rng.permutation(sc.K)
    return dataclasses.replace(sc, points=tuple(sc.points[i] for i in order))


def write_inputs(name: str, seed: int, out_dir: Path) -> float:
    """Synthesize the workload's scenes, permute them by seed, write them.

    Returns the seconds spent in ``synthesize_scene``.
    """
    family = WORKLOADS[name].family
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    robot = kinematics.builtin_kr6r900()
    synth_s = 0.0
    for scene_seed in family.scene_seeds:
        started = time.perf_counter()
        sc = scene.synthesize_scene(robot, count=family.count, seed=scene_seed)
        synth_s += time.perf_counter() - started
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, scene_seed])
        scene.save_scene(permuted(sc, rng), out_dir / f"scene_{scene_seed}.json")
    return synth_s

