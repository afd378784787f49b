"""Which cellplace functions the traced run wraps, and the per-layer metrics.

Importing this module needs ``src`` on ``sys.path``.
"""
from __future__ import annotations

import json
from pathlib import Path

from cellplace import kinematics, nlp, oracle, scene, solver

from tracer import Stat, Tracer


def traced_functions() -> dict:
    """Stat key -> (module or class, attribute) for every wrapped function.

    All solver callbacks of ``PlacementProblem`` are wrapped, even those no
    metric reports, so that their self time is not billed to ``solver.solve``.
    """
    problem = nlp.PlacementProblem
    return {
        "kinematics.backward7_all": (kinematics, "backward7_all"),
        "nlp.build_problem": (nlp, "build_problem"),
        "nlp.solve_placement": (nlp, "solve_placement"),
        "nlp.kinematic_values": (problem, "kinematic_values"),
        "nlp.kinematic_jacobians": (problem, "kinematic_jacobians"),
        "nlp.eval_objective": (problem, "eval_objective"),
        "nlp.eval_gradient": (problem, "eval_gradient"),
        "nlp.eval_constraints": (problem, "eval_constraints"),
        "nlp.eval_jacobians": (problem, "eval_jacobians"),
        "nlp.repair_slacks": (problem, "repair_slacks"),
        "nlp.finalize_point": (problem, "finalize_point"),
        "nlp.initial_point": (problem, "initial_point"),
        "nlp.extract_solution": (problem, "extract_solution"),
        "solver.solve_qp": (solver, "solve_qp"),
        "solver.solve": (solver, "solve"),
        "solver.multistart": (solver, "multistart"),
        "oracle.verify_solution": (oracle, "verify_solution"),
        "oracle.placement_score": (oracle, "placement_score"),
        "oracle.grid_search": (oracle, "grid_search"),
        "oracle.minimin_enumerate": (oracle, "minimin_enumerate"),
        "scene.load_scene": (scene, "load_scene"),
        "scene.save_report": (scene, "save_report"),
    }


def _observe_solve(result, stat: Stat) -> None:
    stat.observed["iterations"] += result.iterations
    stat.observed["converged"] += int(result.converged)


def make_tracer() -> Tracer:
    return Tracer(traced_functions(), hooks={"solver.solve": _observe_solve})


# per-layer metrics that run.py measures itself rather than from a trace
SETUP_AND_OVERHEAD = ("scene.synthesize_scene.s", "trace.overhead_frac")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in BENCHMARK.json's order."""
    spec = json.loads((Path(__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def layer_values(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass: every metric of
    ``per_layer_units()`` but ``SETUP_AND_OVERHEAD``, which the caller
    measures."""
    s = tracer.stats
    b7 = s["kinematics.backward7_all"]
    values = s["nlp.kinematic_values"]
    qp = s["solver.solve_qp"]
    sqp = s["solver.solve"]
    iterations = sqp.observed["iterations"]
    evals = s["nlp.eval_objective"].calls + s["nlp.eval_constraints"].calls
    # a kinematic_values call that ran no backward transform was a cache hit
    kin_misses = values.calls_with_children
    return {
        "kinematics.backward7_all.calls": b7.calls,
        "kinematics.backward7_all.self_s": b7.self_s,
        "kinematics.backward7_all.us_per_call": 1e6 * _ratio(b7.self_s, b7.calls),
        "kinematics.degenerate_raised": b7.raised["DegenerateTarget"],
        "nlp.kinematic_jacobians.calls": s["nlp.kinematic_jacobians"].calls,
        "nlp.kinematic_jacobians.self_s": s["nlp.kinematic_jacobians"].self_s,
        "nlp.kinematic_jacobians.wall_s": s["nlp.kinematic_jacobians"].wall_s,
        "nlp.build_problem.calls": s["nlp.build_problem"].calls,
        "nlp.build_problem.self_s": s["nlp.build_problem"].self_s,
        # solve_placement builds once; every further build inside it is a polish
        "nlp.polish_runs": (tracer.edges["nlp.solve_placement", "nlp.build_problem"]
                            - s["nlp.solve_placement"].calls),
        "nlp.kinematic_values.calls": values.calls,
        "nlp.kin_cache_hit_frac": _ratio(values.calls - kin_misses, values.calls),
        "nlp.evals": evals,
        "nlp.evals_per_sqp_iteration": _ratio(evals, iterations),
        "nlp.eval_jacobians.self_s": s["nlp.eval_jacobians"].self_s,
        "nlp.extract_solution.self_s": s["nlp.extract_solution"].self_s,
        "solver.solve_qp.calls": qp.calls,
        "solver.solve_qp.self_s": qp.self_s,
        "solver.solve_qp.ms_per_call": 1e3 * _ratio(qp.self_s, qp.calls),
        "solver.solve.self_s": sqp.self_s,
        "solver.solve.calls": sqp.calls,
        "solver.sqp_iterations": iterations,
        "solver.qp_calls_per_sqp_iteration": _ratio(qp.calls, iterations),
        "solver.starts_converged_frac": _ratio(sqp.observed["converged"], sqp.calls),
        "solver.evaluator_failures": sqp.raised["EvaluatorFailure"],
        "oracle.verify_solution.calls": s["oracle.verify_solution"].calls,
        "oracle.verify_solution.self_s": s["oracle.verify_solution"].self_s,
        "oracle.placement_score.calls": s["oracle.placement_score"].calls,
        "oracle.placement_score.self_s": s["oracle.placement_score"].self_s,
        "oracle.grid_search.self_s": s["oracle.grid_search"].self_s,
        "oracle.minimin_enumerate.self_s": s["oracle.minimin_enumerate"].self_s,
        "scene.load_scene.self_s": s["scene.load_scene"].self_s,
        "scene.save_report.self_s": s["scene.save_report"].self_s,
    }
