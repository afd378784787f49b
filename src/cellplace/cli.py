"""Command-line front end.

Subcommands: solve, check, grid, fk, ik, plot. Angles are degrees at this
boundary. Exit codes: 0 success (and feasible where that applies), 1 solved
but infeasible, 2 usage error (bad flags, unreadable input, oversized grid),
3 runtime error (I/O failures).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import nlp, oracle, plot, scene as scene_mod
from .errors import (CellplaceError, GridTooLarge, ParseError, ValidationError)
from .geometry import Pose, frame_from_pose, pose_from_frame
from .kinematics import backward7_all, builtin_kr6r900, config_label, forward6

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _parse_numbers(text: str, count: int, what: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != count:
        raise ValueError(f"{what}: expected {count} numbers, got {len(parts)}")
    values = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what}: expected finite numbers, got {text!r}")
    return values


def _parse_pose_arg(text: str, what: str) -> Pose:
    values = _parse_numbers(text, 6, what)
    return Pose.from_degrees(*values)


def _load_scene_checked(path: str) -> scene_mod.Scene:
    if not os.path.exists(path):
        raise _UsageError(f"scene file not found: {path}")
    try:
        return scene_mod.load_scene(path)
    except (ParseError, ValidationError) as exc:
        raise _UsageError(f"invalid scene file: {exc}") from exc


class _UsageError(Exception):
    pass


def _fmt_deg(rad: float) -> str:
    return f"{math.degrees(rad):9.3f}"


def _print_pose(pose: Pose, out) -> None:
    a, b, c = pose.angles_deg()
    print(f"  x={pose.x:9.3f} y={pose.y:9.3f} z={pose.z:9.3f} "
          f"a={a:8.3f} b={b:8.3f} c={c:8.3f}  (mm, deg)", file=out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args, out) -> int:
    scene = _load_scene_checked(args.scene)
    flags = {name: getattr(args, name) for name in ("mode", "multistart", "seed")
             if getattr(args, name) is not None}
    settings = nlp.SolveSettings(**{**scene.solve_options, **flags},
                                 early_stop_objective=1e-12)
    report = nlp.solve_placement(scene, settings)

    print(f"mode={report.mode} objective={report.objective:.6e} "
          f"verdict={report.verdict}", file=out)
    print("placement:", file=out)
    _print_pose(report.placement, out)
    print(f"{'point':>8s} {'config':>6s} {'bits':>5s} {'v (mm)':>12s} "
          f"{'worst margin (deg)':>18s} {'outcome':>16s}", file=out)
    for p in report.points:
        worst = min(p.axis_margins)
        print(f"{p.id:>8s} {p.config:>6d} {p.config_bits:>5s} {p.v_mm:>12.4f} "
              f"{math.degrees(worst):>18.3f} {p.outcome:>16s}", file=out)
    if args.out:
        scene_mod.save_report(report, args.out)
        print(f"report written to {args.out}", file=out)
    return EXIT_OK if report.verdict == "feasible" else EXIT_INFEASIBLE


def cmd_check(args, out) -> int:
    scene = _load_scene_checked(args.scene)
    pose = _parse_pose_arg(args.placement, "--placement")
    table = oracle.check_placement(scene, frame_from_pose(pose))
    print("placement:", file=out)
    _print_pose(pose, out)
    legend = {oracle.IN_LIMITS: "ok", oracle.OUT_OF_LIMITS: "lim",
              oracle.OUT_OF_WORKSPACE: "ws"}
    header = " ".join(f"{f'c{c}':>12s}" for c in range(8))
    print(f"{'point':>8s} {header}", file=out)
    for point, outcomes, vs in zip(scene.points, table.outcome.tolist(),
                                   table.v.tolist()):
        cells = [f"{legend[outcome]}:{v:8.2f}" if math.isfinite(v)
                 else f"{legend[outcome]}:     inf"
                 for outcome, v in zip(outcomes, vs)]
        print(f"{point.id:>8s} " + " ".join(f"{cell:>12s}" for cell in cells),
              file=out)
    verdict = "feasible" if table.feasible else "infeasible"
    print(f"verdict: {verdict}", file=out)
    return EXIT_OK if table.feasible else EXIT_INFEASIBLE


def _parse_grid(text: str, scene) -> oracle.GridSpec:
    axes = {key: None for key in ("x", "y", "z", "a", "b", "c")}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"grid chunk {chunk!r}: expected key=spec")
        key, spec = chunk.split("=", 1)
        key = key.strip().lower()
        if key not in axes:
            raise ValueError(f"grid key {key!r}: expected one of x,y,z,a,b,c")
        fields = spec.split(":")
        if len(fields) == 1:
            lo = hi = float(fields[0])
            count = 1
        elif len(fields) == 3:
            lo, hi, count = float(fields[0]), float(fields[1]), int(fields[2])
        else:
            raise ValueError(f"grid spec {spec!r}: expected value or lo:hi:n")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"--grid {key}={spec}: expected finite numbers")
        axes[key] = (lo, hi, count)
    resolved = []
    for i, key in enumerate(("x", "y", "z", "a", "b", "c")):
        if axes[key] is None:
            mid = float(scene.bounds.midpoint()[i])
            if i >= 3:
                mid = math.degrees(mid)
            axes[key] = (mid, mid, 1)
        lo, hi, count = axes[key]
        if i >= 3:
            lo, hi = math.radians(lo), math.radians(hi)
        resolved.append((lo, hi, count))
    return oracle.GridSpec(tuple(resolved))


def cmd_grid(args, out) -> int:
    scene = _load_scene_checked(args.scene)
    try:
        grid = _parse_grid(args.grid, scene)
        cells = oracle.grid_search(scene, grid)
    except GridTooLarge as exc:
        raise _UsageError(str(exc)) from exc
    lines = ["x,y,z,a,b,c,score,feasible"]
    for cell in cells:
        pose_deg = list(cell.pose[:3]) + [math.degrees(v) for v in cell.pose[3:]]
        lines.append(",".join(repr(float(v)) for v in pose_deg)
                     + f",{cell.score!r},{int(cell.feasible)}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
        print(f"{len(cells)} cells written to {args.out}", file=out)
    else:
        out.write(csv_text)
    print("best cells:", file=out)
    for cell in cells[:5]:
        print(f"  score={cell.score:12.6g} feasible={int(cell.feasible)} "
              f"pose={np.round(cell.pose, 4)}", file=out)
    return EXIT_OK


def cmd_fk(args, out) -> int:
    robot = builtin_kr6r900()
    joints_deg = _parse_numbers(args.joints, 6, "--joints")
    theta = np.radians(joints_deg)
    frame, config = forward6(robot, theta)
    pose = pose_from_frame(frame)
    print("tcp pose:", file=out)
    _print_pose(pose, out)
    print(f"configuration: {config} ({config_label(config)})", file=out)
    return EXIT_OK


def cmd_ik(args, out) -> int:
    robot = builtin_kr6r900()
    pose = _parse_pose_arg(args.pose, "--pose")
    target = frame_from_pose(pose)
    try:
        q_all = backward7_all(robot, target)
    except CellplaceError as exc:
        print(f"degenerate target: {exc}", file=out)
        return EXIT_INFEASIBLE
    table = oracle.reachability_table(robot, joint_rows=q_all)
    reachable = table.outcome == oracle.IN_LIMITS
    print(f"{'c':>2s} {'bits':>5s} {'v (mm)':>12s} {'in-limits':>9s}  joints (deg)",
          file=out)
    for c in range(8):
        status = "yes" if reachable[c] else "no"
        joints = " ".join(_fmt_deg(t) for t in q_all[c, [0, 1, 2, 4, 5, 6]])
        print(f"{c:>2d} {config_label(c):>5s} {q_all[c, 3]:>12.4f} {status:>9s}  "
              f"[{joints}]", file=out)
    if args.config is not None:
        if not reachable[args.config]:
            print(f"configuration {args.config}: unreachable", file=out)
            return EXIT_INFEASIBLE
        joints = " ".join(_fmt_deg(t) for t in table.joints[args.config])
        print(f"configuration {args.config} joints (deg): {joints}", file=out)
    return EXIT_OK


def cmd_plot(args, out) -> int:
    scene = _load_scene_checked(args.scene)
    pose = _parse_pose_arg(args.placement, "--placement")
    try:
        plot.write_scene_svg(scene, pose, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=out)
        return EXIT_RUNTIME
    print(f"svg written to {args.out}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 without argparse's SystemExit noise
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cellplace",
                     description="Workpiece placement and robot configuration "
                                 "selection for 6R industrial robots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimize a workpiece placement")
    p_solve.add_argument("scene", help="scene file (JSON)")
    p_solve.add_argument("--mode", choices=("squared", "abs"), default=None,
                         help="virtual-axis penalty form")
    p_solve.add_argument("--multistart", type=int, default=None,
                         help="number of solver starts")
    p_solve.add_argument("--seed", type=int, default=None,
                         help="random seed for multistart sampling")
    p_solve.add_argument("--out", default=None, help="report output path")

    p_check = sub.add_parser("check", help="classify reachability at a placement")
    p_check.add_argument("scene")
    p_check.add_argument("--placement", required=True,
                         help="pose 'x,y,z,a,b,c' (mm and degrees)")

    p_grid = sub.add_parser("grid", help="exhaustive placement grid scan")
    p_grid.add_argument("scene")
    p_grid.add_argument("--grid", required=True,
                        help="axes spec, e.g. 'x=200:600:9,y=-300:300:7,z=250'; "
                             "angles in degrees")
    p_grid.add_argument("--out", default=None, help="CSV output path")

    p_fk = sub.add_parser("fk", help="forward transform of the builtin robot")
    p_fk.add_argument("--joints", required=True,
                      help="six joint angles in degrees, comma separated")

    p_ik = sub.add_parser("ik", help="backward transform, all 8 branches")
    p_ik.add_argument("--pose", required=True,
                      help="pose 'x,y,z,a,b,c' (mm and degrees)")
    p_ik.add_argument("--config", type=int, default=None, choices=range(8),
                      help="also report the in-limit solution for this branch")

    p_plot = sub.add_parser("plot", help="render a scene at a placement as SVG")
    p_plot.add_argument("scene")
    p_plot.add_argument("--placement", required=True,
                        help="pose 'x,y,z,a,b,c' (mm and degrees)")
    p_plot.add_argument("--out", required=True, help="SVG output path")
    return parser


_COMMANDS = {
    "solve": cmd_solve, "check": cmd_check, "grid": cmd_grid,
    "fk": cmd_fk, "ik": cmd_ik, "plot": cmd_plot,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except CellplaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
