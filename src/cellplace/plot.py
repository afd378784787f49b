"""Deterministic SVG rendering of a scene at a candidate placement.

Two schematic panels: a top view (world x-y) and a side view (radial distance
from axis 1 against world z). Both show the wrist-centre reach annulus derived
from the link lengths, the process points coloured by reachability, and a red
segment per unreachable point whose length is the smallest virtual-axis
excursion over the eight configurations. Output contains no timestamps or
random identifiers, so identical inputs give byte-identical files.
"""
from __future__ import annotations

import math

import numpy as np

from . import oracle
from .geometry import Pose, frame_from_pose

_GREEN = "#2e8b57"   # at least one configuration inside the limits
_AMBER = "#d88a22"   # positionally reachable, but every branch out of limits
_RED = "#c0392b"     # outside the positional workspace (v > 0)

_PANEL = 400.0
_MARGIN = 40.0
_GAP = 60.0
_HEIGHT = 520.0


def _fmt(value: float) -> str:
    if abs(value) < 5e-4:
        value = 0.0
    return f"{value:.3f}"


class _Panel:
    """Linear world-to-pixel map for one square panel."""

    def __init__(self, x_px, world_x, world_y):
        self.x_px = x_px
        self.y_px = _MARGIN + 30.0
        self.world_x = world_x
        self.world_y = world_y
        self.scale = min(_PANEL / (world_x[1] - world_x[0]),
                         _PANEL / (world_y[1] - world_y[0]))

    def px(self, wx, wy):
        cx = self.x_px + _PANEL / 2.0
        cy = self.y_px + _PANEL / 2.0
        mx = 0.5 * (self.world_x[0] + self.world_x[1])
        my = 0.5 * (self.world_y[0] + self.world_y[1])
        return cx + (wx - mx) * self.scale, cy - (wy - my) * self.scale


def render_scene_svg(scene, placement_pose: Pose) -> str:
    placement = frame_from_pose(placement_pose)
    table = oracle.check_placement(scene, placement)
    robot = scene.robot
    arm = robot._arm
    reach_out = arm["a2"] + arm["l3_zero"]
    reach_in = abs(arm["a2"] - arm["l3_zero"])
    shoulder_r = arm["a1"]
    shoulder_z = float((robot.base @ np.array(
        [arm["a1"], 0.0, arm["d1"], 1.0]))[2])

    top = _Panel(_MARGIN, (-1100.0, 1100.0), (-1100.0, 1100.0))
    side = _Panel(_MARGIN + _PANEL + _GAP, (0.0, 1100.0), (-500.0, 1300.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{int(2 * _MARGIN + 2 * _PANEL + _GAP)}" height="{int(_HEIGHT)}" '
        f'font-family="monospace" font-size="12">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    for panel, title in ((top, "top view (x-y, mm)"),
                         (side, "side view (r-z, mm)")):
        parts.append(
            f'<rect x="{_fmt(panel.x_px)}" y="{_fmt(panel.y_px)}" '
            f'width="{_fmt(_PANEL)}" height="{_fmt(_PANEL)}" fill="none" '
            'stroke="#888" stroke-width="1"/>')
        parts.append(
            f'<text x="{_fmt(panel.x_px)}" y="{_fmt(panel.y_px - 8)}" '
            f'fill="#333">{title}</text>')

    # Reach annulus, top view: circles centred on axis 1.
    cx, cy = top.px(0.0, 0.0)
    for radius, dash in ((shoulder_r + reach_out, "6 4"),
                         (max(reach_in - shoulder_r, 0.0), "3 3")):
        if radius > 0.0:
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(radius * top.scale)}" fill="none" stroke="#99c" '
                f'stroke-dasharray="{dash}"/>')
    parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5" fill="#333"/>')

    # Reach annulus, side view: circles centred on the shoulder point.
    sx, sy = side.px(shoulder_r, shoulder_z)
    for radius, dash in ((reach_out, "6 4"), (reach_in, "3 3")):
        parts.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
            f'r="{_fmt(radius * side.scale)}" fill="none" stroke="#99c" '
            f'stroke-dasharray="{dash}"/>')
    parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="4" fill="#333"/>')

    # Workpiece frame marker.
    fx, fy = placement_pose.x, placement_pose.y
    fr = math.hypot(fx, fy)
    for panel, px, py in ((top,) + top.px(fx, fy),
                          (side,) + side.px(fr, placement_pose.z)):
        parts.append(
            f'<rect x="{_fmt(px - 4)}" y="{_fmt(py - 4)}" width="8" height="8" '
            'fill="none" stroke="#06c" stroke-width="2"/>')

    # Process points plus virtual-axis segments for the unreachable ones.
    targets = scene.target_frames()
    for k, point in enumerate(scene.points):
        world = placement @ targets[k]
        wx, wy, wz = world[:3, 3]
        if (table.outcome[k] == oracle.IN_LIMITS).any():
            color, v_best = _GREEN, 0.0
        elif (table.v[k] == 0.0).any():
            color, v_best = _AMBER, 0.0
        else:
            color = _RED
            v_best = float(np.abs(table.v[k]).min())
        wr = math.hypot(wx, wy)
        for panel, anchor in ((top, (0.0, 0.0)), (side, (shoulder_r, shoulder_z))):
            coords = (wx, wy) if panel is top else (wr, wz)
            px, py = panel.px(*coords)
            if color == _RED and math.isfinite(v_best) and v_best > 0.0:
                # Segment of length |v| pointing back toward the reach centre.
                ax, ay = anchor
                dx, dy = ax - coords[0], ay - coords[1]
                norm = math.hypot(dx, dy) or 1.0
                ex_, ey_ = panel.px(coords[0] + dx / norm * v_best,
                                    coords[1] + dy / norm * v_best)
                parts.append(
                    f'<line x1="{_fmt(px)}" y1="{_fmt(py)}" x2="{_fmt(ex_)}" '
                    f'y2="{_fmt(ey_)}" stroke="{_RED}" stroke-width="2.5" '
                    f'class="virtual-axis" data-point="{point.id}" '
                    f'data-v="{v_best!r}"/>')
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="{color}" '
                f'class="process-point" data-point="{point.id}"/>')

    a_deg, b_deg, c_deg = placement_pose.angles_deg()
    summary = (f'placement x={_fmt(placement_pose.x)} y={_fmt(placement_pose.y)} '
               f'z={_fmt(placement_pose.z)} a={_fmt(a_deg)} b={_fmt(b_deg)} '
               f'c={_fmt(c_deg)} deg; {"feasible" if table.feasible else "infeasible"}')
    parts.append(
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_HEIGHT - 16)}" fill="#333">'
        f'{summary}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def write_scene_svg(scene, placement_pose: Pose, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_scene_svg(scene, placement_pose))
