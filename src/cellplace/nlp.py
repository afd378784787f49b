"""Assembly of the placement problem as a smooth constrained program.

The program is built over a configuration table ``configs`` of shape (S, C):
row s lists the configurations admissible for segment s, and every point
inherits the row of its segment. The free program admits all eight
configurations (C = 8). A pinned program admits one fixed configuration per
segment (C = 1); it is the subproblem the brute-force enumeration oracle
solves. Below, (k, c) is point k's c-th admissible configuration.

Decision vector layout:

    z = [ x (6)       workpiece pose: x, y, z, A, B, C
          w (K*C)     per-point configuration weights, row-major (k, c)
          m (S*C)     per-segment axis-violation slacks, (s, c)
          t (K*C)     epigraph variables t >= |v|, only in "abs" mode ]

The objective sums w[k,c] * (f[k,c] + m[seg(k),c]) where f is the squared
virtual-axis excursion v^2 (mode "squared") or t (mode "abs").
Equality rows: one weight-simplex row per point. With C = 1 there are none:
the weights' bounds fix each at 1, and the solver's QP takes such a variable
as fixed.
Inequality rows (convention g <= 0): one per point, configuration and axis,
-margin - m <= 0, where margin is the signed limit margin of the axis angle's
deepest 2pi-representative (kinematics.limit_margins). The opposite limit
needs no row of its own: it lies the whole axis range away. In abs mode two
epigraph rows follow, v - t <= 0 for every (k, c), then -v - t <= 0.
x enters every row through the kinematics, and nothing else enters any row
nonlinearly, so eval_jacobians returns solver.Rows: a (rows x 6) block of
x-derivatives (zero for the simplex rows), and a tail built once per
program, read-only and the same on every call: each limit or epigraph row's
-1 in its slack or t column, and each simplex row's ones over its point's
weights.

Everything kinematic depends on z only through x, and one backward transform
yields all eight configurations. So the kinematics live in one
SceneKinematics object per scene, which the programs of that scene share
(the free program and its polish; the pinned programs of one enumeration).
Its backward method is the one call into kinematics.backward7_batch, which
retries a degenerate placement once at x + 1e-9. It memoizes, per placement,
the (K, 8, 7) joint rows and the central differences of 12 probes over all
eight configurations, for the last KINEMATIC_MEMO_SIZE placements. Each
program slices its admissible columns from these tables; slicing commutes
with the elementwise kernel and differences, so the bits do not depend on
the sharing. kinematic_values keeps the program's own KinematicValues record
at the last x, because the margins depend on the program's limits. Neither
cache is thread safe; the problem is immutable.

The pinned programs of one enumeration also share their QP subproblems, through
one solver.QpMemo: a point whose rows stay outside the QP's working set never
reaches the QP, so assignments that differ only in its configuration solve the
very same QPs.
"""
from __future__ import annotations

import logging
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import oracle, scene as scene_mod, solver
from .errors import DegenerateTarget, InvalidScene
from .geometry import Pose, frame_from_pose, frames_from_poses, wrap_angle
from .kinematics import backward7_batch, limit_margins, limit_violation

logger = logging.getLogger(__name__)

# relative central-difference step of the kinematic Jacobians
FD_STEP = 1e-6
# when a solve ends a hair outside the strict-feasibility set (squared mode's
# flat gradients stop just short of the zero plateau), it is re-solved once
# with the axis ranges shrunk by this margin (rad), warm-started
POLISH_MARGIN = 1e-5
PINNED_MAX_ITERATIONS = 300  # SQP iterations per pinned-assignment solve
# placements a SceneKinematics memoizes, least recently used first out; a K=30
# record holds 13 KB of joint rows and 80 KB of Jacobians
KINEMATIC_MEMO_SIZE = 32
# the six axis columns of a backward7_batch row; column 3 is the excursion v
_AXES = [0, 1, 2, 4, 5, 6]


@dataclass
class BuildOptions:
    mode: str = "squared"  # "squared" or "abs"
    pinned: tuple[int, ...] | None = None  # one configuration per segment
    # shrink the axis ranges by this much (rad) inside the problem only; a
    # zero objective then certifies strict interior feasibility
    limit_margin: float = 0.0

    def __post_init__(self):
        if self.mode not in ("squared", "abs"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.limit_margin < 0.0:
            raise ValueError("limit_margin must be nonnegative")


class KinematicValues(NamedTuple):
    """The backward transform at one placement, per admissible (k, c)."""
    joints: np.ndarray  # (K, C, 6) axes 1-6
    v: np.ndarray  # (K, C) virtual-axis excursions
    reps: np.ndarray  # (K, C, 6) deepest 2pi-representatives of the joints
    margins: np.ndarray  # (K, C, 6) their signed limit margins


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SceneKinematics:
    """The backward transform of one scene's targets, memoized per placement.

    rows(x) and jacobians(x) return read-only (K, 8, ...) tables over all
    eight configurations; the memo keeps the last KINEMATIC_MEMO_SIZE
    placements. degenerate_retries counts the placements retried past a
    degenerate target.
    """

    def __init__(self, scene):
        self.robot = scene.robot
        self.targets = scene.target_frames()
        self.degenerate_retries = 0
        # x.tobytes() -> [rows or None, (dtheta, dv) or None]
        self._memo: OrderedDict[bytes, list] = OrderedDict()

    def backward(self, xs: np.ndarray) -> np.ndarray:
        """Joint rows (P, K, 8, 7) at placements xs (P, 6), laid out as
        backward7_batch's. A degenerate placement is retried once at
        x + 1e-9; DegenerateTarget is raised if it still fails."""
        q, degenerate = backward7_batch(
            self.robot, frames_from_poses(xs)[:, None] @ self.targets)
        for i in np.flatnonzero(degenerate.any(axis=1)):
            self.degenerate_retries += 1
            logger.warning("degenerate target at x=%s; retrying with 1e-9 shift",
                           xs[i])
            q[i], still = backward7_batch(
                self.robot, frames_from_poses(xs[i] + 1e-9) @ self.targets)
            if still.any():
                raise DegenerateTarget(f"degenerate target at x={xs[i]}")
        return q

    def fd_jacobians(self, x: np.ndarray, fd_step: float | None = None):
        """Central-difference d(joints)/dx (K,8,6,6) and dv/dx (K,8,6).

        The step is relative, FD_STEP unless given. Angle differences are
        wrapped into (-pi, pi] before dividing so that a canonical-wrap jump
        between the two probes does not pollute the derivative.
        """
        step = FD_STEP if fd_step is None else fd_step
        h = step * np.maximum(1.0, np.abs(x))
        # probes x + h_j e_j (rows 0..5) and x - h_j e_j (rows 6..11)
        probes = np.tile(x, (12, 1))
        probes[np.arange(6), np.arange(6)] += h
        probes[6 + np.arange(6), np.arange(6)] -= h
        q = self.backward(probes)
        diff = wrap_angle(q[:6, ..., _AXES] - q[6:, ..., _AXES])
        dtheta = np.moveaxis(diff, 0, -1) / (2.0 * h)
        dv = np.moveaxis(q[:6, ..., 3] - q[6:, ..., 3], 0, -1) / (2.0 * h)
        return dtheta, dv

    def _record(self, x: np.ndarray) -> list:
        key = x.tobytes()
        record = self._memo.get(key)
        if record is None:
            record = self._memo[key] = [None, None]
            if len(self._memo) > KINEMATIC_MEMO_SIZE:
                self._memo.popitem(last=False)
        else:
            self._memo.move_to_end(key)
        return record

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The (K, 8, 7) joint rows at x, memoized."""
        record = self._record(x)
        if record[0] is None:
            record[0] = _read_only(self.backward(x[None])[0])
        return record[0]

    def jacobians(self, x: np.ndarray):
        """fd_jacobians(x) at the default step, memoized."""
        record = self._record(x)
        if record[1] is None:
            record[1] = tuple(map(_read_only, self.fd_jacobians(x)))
        return record[1]


def build_problem(scene: "scene_mod.Scene", options: BuildOptions | None = None,
                  kinematics: SceneKinematics | None = None
                  ) -> "PlacementProblem":
    return PlacementProblem(scene, options or BuildOptions(), kinematics)


class PlacementProblem:
    """Variable layout, evaluators and derivatives for one scene.

    kinematics is the scene's shared SceneKinematics; a fresh one when None.
    """

    def __init__(self, scene, options: BuildOptions,
                 kinematics: SceneKinematics | None = None):
        if scene.K < 1:
            raise InvalidScene("scene has no process points")
        lo, hi = scene.bounds.lower, scene.bounds.upper
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvalidScene("placement bounds must be finite")
        if np.any(lo > hi):
            raise InvalidScene("placement bounds have lo > hi components")

        self.scene = scene
        self.robot = scene.robot
        self.mode = options.mode
        self.kinematics = kinematics or SceneKinematics(scene)
        self.K = scene.K
        self.n_segments, self.seg_of = scene.segment_map()
        if options.pinned is None:
            self.configs = np.tile(np.arange(8), (self.n_segments, 1))
        else:
            if len(options.pinned) != self.n_segments:
                raise InvalidScene("pinned assignment length != segment count")
            if any(not 0 <= c <= 7 for c in options.pinned):
                raise InvalidScene("pinned configurations must be in 0..7")
            self.configs = np.array(options.pinned, dtype=int)[:, None]
        self.C = self.configs.shape[1]
        self.configs_of_k = self.configs[self.seg_of]  # (K, C)
        # index of the admissible (k, c) entries in a (K, 8, ...) table
        self._admissible = (np.arange(self.K)[:, None], self.configs_of_k)

        k, s, c = self.K, self.n_segments, self.C
        self.abs_mode = self.mode == "abs"
        self.off_w = 6
        self.off_m = 6 + k * c
        self.off_t = self.off_m + s * c
        self.n_vars = self.off_t + (k * c if self.abs_mode else 0)
        self.n_eq = k if c > 1 else 0  # the weight-simplex rows
        self.n_ineq = (8 if self.abs_mode else 6) * k * c
        # the rows' constant parts (module docstring); a limit row's slack
        # is its (k, c)'s, repeated per axis
        kc = np.arange(k * c)
        self._j_eq = solver.Rows(
            _read_only(np.zeros((self.n_eq, 6))),
            _read_only((self.off_w + kc).reshape(k, c)[:self.n_eq]),
            _read_only(np.ones((self.n_eq, c))), self.n_vars)
        in_cols = np.repeat(
            (self.off_m + c * self.seg_of[:, None] + np.arange(c)).ravel(), 6)
        if self.abs_mode:
            in_cols = np.concatenate([in_cols, self.off_t + np.tile(kc, 2)])
        self._in_tail = (_read_only(in_cols[:, None]),
                         _read_only(np.full((self.n_ineq, 1), -1.0)))

        self.limits_lo, self.limits_hi = self.robot.limits
        if options.limit_margin:
            self.limits_lo = self.limits_lo + options.limit_margin
            self.limits_hi = self.limits_hi - options.limit_margin
        self.x0 = scene.initial.as_array() if scene.initial is not None else \
            0.5 * (lo + hi)
        self._values_at: bytes | None = None
        self._values: KinematicValues | None = None

    # ------------------------------------------------------------------
    # kinematic evaluation and cache
    # ------------------------------------------------------------------

    @property
    def degenerate_retries(self) -> int:
        """Degenerate-target retries of the shared kinematics."""
        return self.kinematics.degenerate_retries

    def kinematic_values(self, x: np.ndarray) -> KinematicValues:
        """The record every evaluator reads at x, cached for the last x."""
        x = np.asarray(x, float)
        key = x.tobytes()
        if key != self._values_at:
            rows = self.kinematics.rows(x)[self._admissible]
            joints = rows[..., _AXES]
            self._values = KinematicValues(joints, rows[..., 3], *limit_margins(
                joints, self.limits_lo, self.limits_hi))
            self._values_at = key
        return self._values

    def fd_kinematic_jacobians(self, x: np.ndarray, fd_step: float | None = None):
        """SceneKinematics.fd_jacobians over the admissible (k, c), uncached:
        d(joints)/dx (K,C,6,6) and dv/dx (K,C,6)."""
        dtheta, dv = self.kinematics.fd_jacobians(np.asarray(x, float), fd_step)
        return dtheta[self._admissible], dv[self._admissible]

    def kinematic_jacobians(self, x: np.ndarray):
        """fd_kinematic_jacobians at the default step, from the shared memo."""
        dtheta, dv = self.kinematics.jacobians(np.asarray(x, float))
        return dtheta[self._admissible], dv[self._admissible]

    # ------------------------------------------------------------------
    # variable block views
    # ------------------------------------------------------------------

    def x_of(self, z):
        return z[:6]

    def w_of(self, z):
        return z[self.off_w:self.off_m].reshape(self.K, self.C)

    def m_of(self, z):
        return z[self.off_m:self.off_t].reshape(self.n_segments, self.C)

    def _f(self, z, v):
        """Per-(k, c) excursion penalty: v^2, or t >= |v| in abs mode."""
        if self.abs_mode:
            return z[self.off_t:].reshape(self.K, self.C)
        return v ** 2

    # ------------------------------------------------------------------
    # objective, constraints, derivatives
    # ------------------------------------------------------------------

    def eval_objective(self, z) -> float:
        v = self.kinematic_values(self.x_of(z)).v
        return float(np.sum(self.w_of(z) *
                            (self._f(z, v) + self.m_of(z)[self.seg_of])))

    def eval_gradient(self, z) -> np.ndarray:
        x = self.x_of(z)
        v = self.kinematic_values(x).v
        w = self.w_of(z)
        grad = np.zeros(self.n_vars)
        if self.abs_mode:
            grad[self.off_t:] = w.ravel()
        else:
            _, dv = self.kinematic_jacobians(x)
            grad[:6] = np.einsum("kc,kc,kcj->j", w, 2.0 * v, dv)
        grad[self.off_w:self.off_m] = \
            (self._f(z, v) + self.m_of(z)[self.seg_of]).ravel()
        m_grad = np.zeros((self.n_segments, self.C))
        np.add.at(m_grad, self.seg_of, w)
        grad[self.off_m:self.off_t] = m_grad.ravel()
        return grad

    def eval_constraints(self, z):
        values = self.kinematic_values(self.x_of(z))
        ineq = (-values.margins - self.m_of(z)[self.seg_of][..., None]).ravel()
        eq = self.w_of(z).sum(axis=1)[:self.n_eq] - 1.0
        if self.abs_mode:
            v, t = values.v.ravel(), z[self.off_t:]
            ineq = np.concatenate([ineq, v - t, -v - t])
        return eq, ineq

    def eval_jacobians(self, z):
        """(J_eq, J_in) as solver.Rows: a block over x, which only the limit
        and epigraph rows fill, and the constant tails built with the
        program."""
        x = self.x_of(z)
        dtheta, dv = self.kinematic_jacobians(x)
        # -margin is lo - t on the lower-limit side and t - hi on the upper
        reps = self.kinematic_values(x).reps
        lower_side = (reps - self.limits_lo <= self.limits_hi - reps)[..., None]
        block = np.where(lower_side, -dtheta, dtheta).reshape(-1, 6)
        if self.abs_mode:
            dv = dv.reshape(-1, 6)
            block = np.concatenate([block, dv, -dv])
        return self._j_eq, solver.Rows(block, *self._in_tail, self.n_vars)

    # ------------------------------------------------------------------
    # bounds, starts, solver adapter
    # ------------------------------------------------------------------

    def variable_bounds(self):
        """Placement box; slacks, t and weights nonnegative, and with
        C = 1 each weight fixed at 1. The simplex rows and w >= 0 already
        keep the weights of a wider table at most 1."""
        lower = np.zeros(self.n_vars)
        upper = np.full(self.n_vars, np.inf)
        lower[:6] = self.scene.bounds.lower
        upper[:6] = self.scene.bounds.upper
        if self.C == 1:
            lower[self.off_w:self.off_m] = upper[self.off_w:self.off_m] = 1.0
        return lower, upper

    def initial_point(self, strategy: str = "scene",
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Feasible-by-construction start.

        x comes from the scene (or uniformly from the bounds), weights start
        uniform, and repair_slacks sets each slack to the largest violation it
        must absorb and t to |v|, so every inequality and every equality
        holds at the initial point.
        """
        if strategy not in ("scene", "random"):
            raise ValueError(f"unknown start strategy {strategy!r}")
        if strategy == "random":
            if rng is None:
                raise ValueError("random strategy needs a generator")
            x = rng.uniform(self.scene.bounds.lower, self.scene.bounds.upper)
        else:
            x = self.x0.copy()
        z = np.zeros(self.n_vars)
        z[:6] = x
        z[self.off_w:self.off_m] = 1.0 / self.C
        return self.repair_slacks(z)

    def repair_slacks(self, z: np.ndarray) -> np.ndarray:
        """Snap m and t to their closed-form optima for the given x.

        For fixed x and weights, the optimal slack is exactly the worst
        violation it must absorb, and the optimal t is |v|. The solver
        applies this after each accepted step (guarded by the merit
        function), which removes second-order feasibility dust in rows that
        are linear in the auxiliaries.
        """
        values = self.kinematic_values(z[:6])
        m = np.zeros((self.n_segments, self.C))
        np.maximum.at(m, self.seg_of, limit_violation(values.margins).max(axis=2))
        z[self.off_m:self.off_t] = m.ravel()
        if self.abs_mode:
            z[self.off_t:] = np.abs(values.v).ravel()
        # renormalize the weights: partial steps leave (1 - alpha)-sized
        # simplex residues; scaling each row back keeps it in the box
        w = self.w_of(z)
        sums = w.sum(axis=1)
        safe = sums > 0.5
        w[safe] = w[safe] / sums[safe, None]
        return z

    def snap_weights(self, z: np.ndarray) -> np.ndarray:
        """Move each point's weights onto its cheapest branch, at fixed x.

        For any admissible point, putting all weight on a per-point argmin of
        f + m never increases the objective (the constructive half of the
        minimin equivalence), so this is applied once at solver exit to shed
        residual weight dust. Ties resolve to the smallest configuration.
        """
        v = self.kinematic_values(z[:6]).v
        # abs mode: |v| is the optimal t for the current x
        f = np.abs(v) if self.abs_mode else v ** 2
        best = np.argmin(f + self.m_of(z)[self.seg_of], axis=1)
        w = np.zeros((self.K, self.C))
        w[np.arange(self.K), best] = 1.0
        z[self.off_w:self.off_m] = w.ravel()
        return z

    def finalize_point(self, z: np.ndarray) -> np.ndarray:
        return self.snap_weights(self.repair_slacks(z))

    def variable_scales(self) -> np.ndarray:
        """Typical magnitudes: placement spans for x, mm for t."""
        scales = np.ones(self.n_vars)
        span = self.scene.bounds.upper - self.scene.bounds.lower
        scales[:6] = np.clip(span, 1.0, 1000.0)
        if self.abs_mode:
            scales[self.off_t:] = 100.0
        return scales

    def as_nlp_spec(self) -> solver.NlpSpec:
        lower, upper = self.variable_bounds()
        return solver.NlpSpec(
            n=self.n_vars, objective=self.eval_objective,
            gradient=self.eval_gradient, constraints=self.eval_constraints,
            jacobians=self.eval_jacobians, lower=lower, upper=upper,
            repair=self.repair_slacks,
            finalize=self.finalize_point, objective_lower_bound=0.0,
            scales=self.variable_scales())

    # ------------------------------------------------------------------
    # solution extraction
    # ------------------------------------------------------------------

    def chosen_configurations(self, z) -> np.ndarray:
        # argmax returns the first maximum, which is the smallest c on ties
        best = np.argmax(self.w_of(z), axis=1)
        return self.configs_of_k[np.arange(self.K), best]

    def extract_solution(self, z, result: solver.SolverResult | None = None
                         ) -> "scene_mod.SolutionReport":
        """Turn a solver iterate into a report, re-verified by the oracle."""
        z = np.asarray(z, float)
        pose = Pose.from_array(z[:6]).wrapped()
        placement = frame_from_pose(pose)
        configs = self.chosen_configurations(z)
        table = oracle.check_placement(self.scene, placement)
        points = []
        for k, (point, config) in enumerate(zip(self.scene.points,
                                                configs.tolist())):
            outcome = str(table.outcome[k, config])
            points.append(scene_mod.PointResult(
                id=point.id, config=config, v_mm=float(table.v[k, config]),
                joints=table.joints[k, config].tolist()
                if outcome == oracle.IN_LIMITS else None,
                axis_margins=table.margins[k, config].tolist(),
                outcome=outcome))
        all_ok = all(p.outcome == oracle.IN_LIMITS for p in points)
        diagnostics = {}
        objective = self.eval_objective(z)
        if result is not None:
            diagnostics = {
                "status": result.status, "iterations": result.iterations,
                "kkt_residual": result.kkt_residual,
                "constraint_violation": result.constraint_violation,
                "start_index": result.start_index,
            }
        return scene_mod.SolutionReport(
            placement=pose, points=points, objective=objective,
            mode=self.mode, verdict="feasible" if all_ok else "infeasible",
            diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass
class SolveSettings(solver.SolverOptions):
    mode: str = "squared"


def _multistart(problem: PlacementProblem, options: solver.SolverOptions,
                memo: solver.QpMemo | None = None) -> solver.SolverResult:
    """Start 0 from the scene's placement, later ones from random ones."""
    def sampler(index, rng):
        if index == 0:
            return problem.initial_point("scene")
        return problem.initial_point("random", rng)

    return solver.multistart(problem.as_nlp_spec(), options, sampler, memo)


def solve_placement(scene, settings: SolveSettings | None = None
                    ) -> "scene_mod.SolutionReport":
    """build -> multistart solve -> extract (-> polish), the whole pipeline.

    The polish shares the program's SceneKinematics, so the placements the
    solve reached are not transformed again. The report's diagnostics
    describe the multistart result, count the SQP iterations of the polish
    re-solve (0 when none ran) and the placements retried past a degenerate
    target, polish included; elapsed_s covers the whole call.
    """
    started = time.perf_counter()
    settings = settings or SolveSettings(**scene.solve_options)
    problem = build_problem(scene, BuildOptions(mode=settings.mode))
    result = _multistart(problem, settings)
    report = problem.extract_solution(result.z, result)
    polish_iterations = 0
    if report.verdict != "feasible" and report.objective <= 1e-6:
        polished = _polish(scene, settings, result, problem.kinematics)
        polish_iterations = polished.iterations
        # report against the true limits: snap slacks, then extract
        candidate = problem.extract_solution(
            problem.repair_slacks(polished.z.copy()), result)
        if candidate.verdict == "feasible":
            report = candidate
    report.diagnostics["polish_iterations"] = polish_iterations
    report.diagnostics["degenerate_retries"] = problem.degenerate_retries
    report.elapsed_s = time.perf_counter() - started
    return report


def _polish(scene, settings, result,
            kinematics: SceneKinematics | None = None) -> solver.SolverResult:
    """Push a near-feasible iterate strictly inside the axis ranges.

    Re-solves from the found point with the limit rows tightened by a small
    margin; a zero objective there implies real margins of at least that
    size, so the strict oracle accepts.
    """
    tightened = build_problem(scene, BuildOptions(
        mode=settings.mode, limit_margin=POLISH_MARGIN), kinematics)
    z0 = tightened.repair_slacks(result.z.copy())
    polished = solver.solve(tightened.as_nlp_spec(), replace(
        settings, max_iterations=100), z0)
    logger.debug("polish: %s objective %.3e", polished.status,
                 polished.objective)
    return polished


def make_pinned_solver(mode: str = "squared", multistart: int = 1, seed: int = 0,
                       early_stop_objective: float | None = None):
    """Callable solving the problem with one fixed configuration per segment.

    Handed to the enumeration oracle; returns (optimal value, solver result).
    The callable keeps one SceneKinematics and one solver.QpMemo for the
    scene it was last called with, so the pinned programs of one enumeration
    share their backward transforms and their QP subproblems: assignments
    that differ only in a point whose rows stay out of the QP's working set
    solve the very same QPs. Nothing outlives the callable.
    """
    options = solver.SolverOptions(
        max_iterations=PINNED_MAX_ITERATIONS, multistart=multistart, seed=seed,
        early_stop_objective=early_stop_objective)
    shared = None  # (scene, its SceneKinematics, its QpMemo)

    def solve_pinned(scene, assignment):
        nonlocal shared
        if shared is None or shared[0] is not scene:
            shared = (scene, SceneKinematics(scene), solver.QpMemo())
        problem = build_problem(scene, BuildOptions(
            mode=mode, pinned=tuple(assignment)), shared[1])
        result = _multistart(problem, options, shared[2])
        return result.objective, result

    return solve_pinned
