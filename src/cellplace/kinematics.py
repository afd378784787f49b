"""Forward and analytic backward transforms for 6R spherical-wrist robots.

The supported robot class is the KR6R900-style chain: six rotational joints
with twists alpha = (pi/2, 0, pi/2, -pi/2, pi/2, pi), a shoulder offset a1,
upper arm a2, elbow offset a3 and forearm d4, plus a flange offset d6. A
virtual prismatic joint sits between axes 3 and 4; its excursion v is the
minimal elongation (in absolute value) of the forearm that brings a target
wrist centre into the positional workspace, so v == 0 exactly on reachable
targets. Backward transforms are indexed by a 3-bit configuration:

    bit 0  wrist centre behind axis 1 (negative radial coordinate in the
           shoulder-azimuth frame),
    bit 1  wrist centre below the line through the axis-2 and axis-3 origins
           (negative planar cross product),
    bit 2  axis 5 negative.

The backward transform has two kernels with one closed form and the same
bits. backward7_all solves one frame with scalar math and raises
DegenerateTarget; it serves the single-frame API (backward7, backward6,
``cellplace ik``) and is the reference the other is tested against.
backward7_batch solves a stack of frames with array code and returns a
degenerate mask instead; it serves every caller with many targets (grid
scans, finite-difference sweeps, oracle checks). Each wins on its own input
size: on a 2-core x86-64 host with numpy 2.4, one frame takes ~130 us in the
scalar kernel and ~400 us as a batch of one (numpy's per-call overhead),
while a batch of hundreds of frames costs ~13 us per frame.

Robot models are immutable after construction and all operations are pure,
so concurrent use needs no coordination.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTarget, SingularConfiguration
from .geometry import dh_transform, invert, rot_x, wrap_angle

# Branch boundaries thinner than this count as singular.
SINGULARITY_EPS = 1e-8

_TWO_PI = 2.0 * math.pi

_ALPHA_PATTERN = (math.pi / 2, 0.0, math.pi / 2, -math.pi / 2, math.pi / 2, math.pi)


@dataclass(frozen=True)
class JointRow:
    """One Denavit-Hartenberg row; limits apply to rotational rows only."""

    kind: str  # "rot" or "prism"
    d: float = 0.0
    a: float = 0.0
    alpha: float = 0.0
    phi: float = 0.0
    lo: float = 0.0
    hi: float = 0.0


@dataclass(frozen=True, eq=False)
class RobotModel:
    """DH table (7 rows, virtual prismatic row at index 3) plus base and tool."""

    name: str
    rows: tuple[JointRow, ...]
    base: np.ndarray
    tool: np.ndarray

    def __post_init__(self):
        if len(self.rows) != 7:
            raise ValueError("expected 7 joint rows (6 rotational + virtual axis)")
        kinds = [r.kind for r in self.rows]
        if kinds != ["rot", "rot", "rot", "prism", "rot", "rot", "rot"]:
            raise ValueError("virtual prismatic row must sit between axes 3 and 4")
        prism = self.rows[3]
        if (prism.d, prism.a, prism.alpha, prism.phi) != (0.0, 0.0, 0.0, 0.0):
            raise ValueError("virtual row must have all DH constants zero")
        rot_rows = self.rotational_rows
        for i, row in enumerate(rot_rows):
            if abs(row.alpha - _ALPHA_PATTERN[i]) > 1e-9:
                raise ValueError(
                    f"axis {i + 1}: twist {row.alpha} outside the supported class")
            if row.lo >= row.hi:
                raise ValueError(f"axis {i + 1}: empty limit range")
        # Zero pattern required by the closed-form solution.
        if any(rot_rows[i].d != 0.0 for i in (1, 2, 4)):
            raise ValueError("d2, d3, d5 must be zero in the supported class")
        if any(rot_rows[i].a != 0.0 for i in (3, 4, 5)):
            raise ValueError("a4, a5, a6 must be zero in the supported class")
        if rot_rows[3].phi != 0.0 or rot_rows[4].phi != 0.0:
            raise ValueError("phi4 and phi5 must be zero in the supported class")
        if rot_rows[1].a <= 0.0:
            raise ValueError("upper-arm length a2 must be positive")

    @cached_property
    def rotational_rows(self) -> tuple[JointRow, ...]:
        return tuple(r for r in self.rows if r.kind == "rot")

    @cached_property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        rows = self.rotational_rows
        return (np.array([r.lo for r in rows]), np.array([r.hi for r in rows]))

    @cached_property
    def _arm(self) -> dict:
        rows = self.rotational_rows
        d4 = rows[3].d
        consts = {
            "a1": rows[0].a, "d1": rows[0].d, "a2": rows[1].a,
            "a3": rows[2].a, "d4": d4, "d6": rows[5].d,
            "phi": np.array([r.phi for r in rows]),
            "l3_zero": math.hypot(rows[2].a, d4),
            "d4_sign": -1.0 if d4 < 0.0 else 1.0,
            "base_inv": invert(self.base),
            "tool_inv": invert(self.tool),
        }
        # Offset from flange origin back to the wrist centre, in flange axes.
        consts["wrist_offset"] = (rot_x(-rows[5].alpha)[:3, :3] @
                                  np.array([0.0, 0.0, rows[5].d]))
        return consts


def builtin_kr6r900() -> RobotModel:
    """KUKA KR6 R900 data-sheet model; axis 1 points down, hence the Rx(pi) base."""
    deg = math.radians
    rows = (
        JointRow("rot", d=-400.0, a=25.0, alpha=math.pi / 2, phi=0.0,
                 lo=deg(-170), hi=deg(170)),
        JointRow("rot", d=0.0, a=455.0, alpha=0.0, phi=0.0,
                 lo=deg(-190), hi=deg(45)),
        JointRow("rot", d=0.0, a=35.0, alpha=math.pi / 2, phi=-math.pi / 2,
                 lo=deg(-120), hi=deg(156)),
        JointRow("prism"),
        JointRow("rot", d=-420.0, a=0.0, alpha=-math.pi / 2, phi=0.0,
                 lo=deg(-185), hi=deg(185)),
        JointRow("rot", d=0.0, a=0.0, alpha=math.pi / 2, phi=0.0,
                 lo=deg(-120), hi=deg(120)),
        JointRow("rot", d=-80.0, a=0.0, alpha=math.pi, phi=0.0,
                 lo=deg(-350), hi=deg(350)),
    )
    return RobotModel(name="kr6r900", rows=rows, base=rot_x(math.pi), tool=np.eye(4))


# ---------------------------------------------------------------------------
# configuration bits
# ---------------------------------------------------------------------------

def config_bits(config: int) -> tuple[int, int, int]:
    """(bit0, bit1, bit2) of a configuration code in {0..7}."""
    if not 0 <= config <= 7:
        raise ValueError(f"configuration {config} outside 0..7")
    return (config & 1, (config >> 1) & 1, (config >> 2) & 1)


def config_from_bits(bit0: int, bit1: int, bit2: int) -> int:
    return bit0 + 2 * bit1 + 4 * bit2


def config_label(config: int) -> str:
    """KRL-style status string, e.g. 5 -> 'B101'."""
    if not 0 <= config <= 7:
        raise ValueError(f"configuration {config} outside 0..7")
    return f"B{config:03b}"


def _wrist_plane(robot: RobotModel, theta: np.ndarray) -> tuple[float, float]:
    """(radial, cross) of the wrist centre, the two arm branch predicates.

    radial is the wrist centre's signed distance from the axis-1 line; cross
    is a2 times its signed distance from the line through the axis-2 and
    axis-3 origins. Both are in the azimuth plane of axis 1.
    """
    arm = robot._arm
    psi = theta + arm["phi"]
    # Wrist centre in the azimuth plane of axis 1: u radial, w along base z.
    c3, s3 = math.cos(psi[2]), math.sin(psi[2])
    ex = arm["a3"] * c3 + arm["d4"] * s3
    ey = arm["a3"] * s3 - arm["d4"] * c3
    c2, s2 = math.cos(psi[1]), math.sin(psi[1])
    u = c2 * (arm["a2"] + ex) - s2 * ey
    w = s2 * (arm["a2"] + ex) + c2 * ey
    return u + arm["a1"], arm["a2"] * (c2 * w - s2 * u)


def config_of(robot: RobotModel, theta, strict: bool = False) -> int:
    """Configuration code of a joint vector.

    The three predicates are evaluated from the arm geometry, not from joint
    signs: the shoulder offset a1 and elbow offset a3 shift the boundaries away
    from zero angles. With strict=True the call refuses joint vectors on a
    branch boundary (wrist centre on the axis-1 line, or axis 5 at zero);
    otherwise ties resolve to the 0 bit.
    """
    theta = np.asarray(theta, dtype=float)
    radial, cross = _wrist_plane(robot, theta)
    theta5 = wrap_angle(theta[4])
    if strict:
        if abs(radial) <= SINGULARITY_EPS:
            raise SingularConfiguration("wrist centre on the axis-1 line")
        if abs(theta5) <= SINGULARITY_EPS:
            raise SingularConfiguration("axis 5 at zero (wrist singularity)")
    return config_from_bits(int(radial < 0.0), int(cross < 0.0), int(theta5 < 0.0))


# ---------------------------------------------------------------------------
# forward transforms
# ---------------------------------------------------------------------------

def forward7(robot: RobotModel, q) -> np.ndarray:
    """Tool frame of the 7-axis virtual robot for q = (t1, t2, t3, v, t4, t5, t6)."""
    q = np.asarray(q, dtype=float)
    frame = robot.base
    for row, value in zip(robot.rows, q):
        if row.kind == "rot":
            frame = frame @ dh_transform(value, row.d, row.a, row.alpha, row.phi)
        else:
            frame = frame @ dh_transform(0.0, value, 0.0, 0.0)
    return frame @ robot.tool


def forward6(robot: RobotModel, theta) -> tuple[np.ndarray, int]:
    """Tool frame and configuration code of the 6R robot."""
    theta = np.asarray(theta, dtype=float)
    q = np.insert(theta, 3, 0.0)
    return forward7(robot, q), config_of(robot, theta)


def wrist_center(tcp: np.ndarray, robot: RobotModel) -> np.ndarray:
    """World position of the spherical-wrist centre for a TCP frame.

    Removes the tool transform, then walks back from the flange by the d6
    offset. Invariant under changes of the three wrist joints.
    """
    arm = robot._arm
    flange = tcp @ arm["tool_inv"]
    return flange[:3, 3] - flange[:3, :3] @ arm["wrist_offset"]


# ---------------------------------------------------------------------------
# backward transforms
# ---------------------------------------------------------------------------

def _wrist_zyz(n: np.ndarray, sign: float, phi4: float, phi6: float):
    """Angles of N = Rz(p4) Ry(p5) Rz(p6) with sin(p5) carrying the given sign."""
    s5 = math.hypot(n[0, 2], n[1, 2])
    if s5 > SINGULARITY_EPS:
        psi5 = math.atan2(s5, n[2, 2]) * sign
        psi4 = math.atan2(sign * n[1, 2], sign * n[0, 2])
        psi6 = math.atan2(sign * n[2, 1], -sign * n[2, 0])
        return wrap_angle(psi4 - phi4), psi5, wrap_angle(psi6 - phi6)
    # Wrist singularity: fold the whole rotation into axis 6.
    if n[2, 2] > 0.0:
        return 0.0, 0.0, wrap_angle(math.atan2(n[1, 0], n[0, 0]) - phi6)
    return 0.0, math.pi, wrap_angle(math.atan2(n[0, 1], n[1, 1]) - phi6)


def backward7_all(robot: RobotModel, target: np.ndarray) -> np.ndarray:
    """All eight virtual-robot solutions for a target TCP frame, as an (8, 7) array.

    Row c holds (t1, t2, t3, v, t4, t5, t6) for configuration c. The virtual
    excursion v is zero exactly when the wrist centre is positionally reachable
    for the shoulder branch of c; otherwise it is the minimal |v| restoring the
    planar triangle. Axis limits are deliberately not applied here.

    Raises DegenerateTarget when the wrist centre lies on the axis-1 line (both
    shoulder branches undefined) or collapses onto the shoulder point of
    either shoulder branch.
    """
    arm = robot._arm
    flange = arm["base_inv"] @ target @ arm["tool_inv"]
    rot_f = flange[:3, :3]
    pw = flange[:3, 3] - rot_f @ arm["wrist_offset"]

    rho = math.hypot(pw[0], pw[1])
    if rho <= SINGULARITY_EPS:
        raise DegenerateTarget("wrist centre on the axis-1 line")
    azimuth = math.atan2(pw[1], pw[0])

    a1, a2, a3, d4 = arm["a1"], arm["a2"], arm["a3"], arm["d4"]
    phi = arm["phi"]
    out = np.empty((8, 7))

    for bit0 in (0, 1):
        psi1 = azimuth if bit0 == 0 else wrap_angle(azimuth + math.pi)
        theta1 = wrap_angle(psi1 - phi[0])
        u = (rho if bit0 == 0 else -rho) - a1
        w = pw[2] - arm["d1"]
        dist = math.hypot(u, w)
        if dist <= SINGULARITY_EPS:
            raise DegenerateTarget("wrist centre coincides with the shoulder")

        # Minimal-|v| forearm stretch: clamp the natural link-3 length into
        # the interval where the planar triangle (dist, a2, l3) closes.
        l3_lo = max(a3, abs(dist - a2))
        l3_hi = dist + a2
        if l3_lo <= arm["l3_zero"] <= l3_hi:
            l3, g, v = arm["l3_zero"], d4, 0.0
            sin_elbow = (dist * dist - a2 * a2 - l3 * l3) / (2.0 * a2 * l3)
            sin_elbow = min(1.0, max(-1.0, sin_elbow))
        else:
            l3 = min(max(arm["l3_zero"], l3_lo), l3_hi)
            g = arm["d4_sign"] * math.sqrt(max(l3 * l3 - a3 * a3, 0.0))
            v = g - d4
            # the clamped triangle is flat: the elbow is exactly straight or
            # folded, so both elbow branches get the same (rounding-free) row
            sin_elbow = math.copysign(1.0, dist * dist - a2 * a2 - l3 * l3)
        cos_mag = math.sqrt(max(1.0 - sin_elbow * sin_elbow, 0.0))
        delta = math.atan2(a3, g)
        azim_uw = math.atan2(w, u)

        for bit1 in (0, 1):
            cos_elbow = cos_mag if bit1 == 1 else -cos_mag
            psi3 = wrap_angle(math.atan2(sin_elbow, cos_elbow) - delta)
            theta3 = wrap_angle(psi3 - phi[2])
            ex = a3 * math.cos(psi3) + g * math.sin(psi3)
            ey = a3 * math.sin(psi3) - g * math.cos(psi3)
            psi2 = wrap_angle(azim_uw - math.atan2(ey, a2 + ex))
            theta2 = wrap_angle(psi2 - phi[1])

            # Orientation remainder N = R3^T R_flange Rx(-alpha6) is a plain
            # Z-Y-Z rotation in the wrist angles.
            c1, s1 = math.cos(psi1), math.sin(psi1)
            c23 = math.cos(psi2 + psi3)
            s23 = math.sin(psi2 + psi3)
            # R3 columns in root coordinates (alpha1 = alpha3 = pi/2 exactly).
            r3 = np.array([
                [c1 * c23, s1, c1 * s23],
                [s1 * c23, -c1, s1 * s23],
                [s23, 0.0, -c23],
            ])
            n = r3.T @ rot_f @ rot_x(-robot.rotational_rows[5].alpha)[:3, :3]
            for bit2 in (0, 1):
                theta4, theta5, theta6 = _wrist_zyz(
                    n, 1.0 if bit2 == 0 else -1.0, phi[3], phi[5])
                out[config_from_bits(bit0, bit1, bit2)] = (
                    theta1, theta2, theta3, v, theta4, theta5, theta6)
    return out


def _wrap(theta: np.ndarray) -> np.ndarray:
    """geometry.wrap_angle elementwise, with the same arithmetic."""
    wrapped = theta - _TWO_PI * np.ceil((theta - math.pi) / _TWO_PI)
    return np.where(wrapped <= -math.pi, wrapped + _TWO_PI, wrapped)


# math.atan2 and math.hypot elementwise. numpy's arctan2 and hypot differ
# from them in the last bit on some inputs, and the batched kernel must give
# the scalar kernel's bits: the placement program's finite-difference
# Jacobians pass those bits on to the SQP path.
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)
_HYPOT = np.frompyfunc(math.hypot, 2, 1)


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _ATAN2(y, x).astype(float)


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _HYPOT(x, y).astype(float)


def backward7_batch(robot: RobotModel, targets) -> tuple[np.ndarray, np.ndarray]:
    """backward7_all over a (..., 4, 4) stack of target TCP frames.

    Returns the joint rows, shape (..., 8, 7), and a degenerate mask, shape
    (...), set exactly where backward7_all raises DegenerateTarget; the rows
    of a masked target are NaN. The closed form and every rounding step are
    backward7_all's, so the rows agree with it bit for bit. It is written as
    array code over the targets and the three configuration bits (axes bit2,
    bit1, bit0, which flatten to the configuration code), with the
    wrist-singular fold as a select.
    """
    arm = robot._arm
    targets = np.asarray(targets, dtype=float)
    batch = targets.shape[:-2]
    flange = arm["base_inv"] @ targets.reshape(-1, 4, 4) @ arm["tool_inv"]
    rot_f = flange[:, :3, :3]
    pw = flange[:, :3, 3] - rot_f @ arm["wrist_offset"]
    a1, a2, a3, d4 = arm["a1"], arm["a2"], arm["a3"], arm["d4"]
    phi = arm["phi"]

    # shoulder branches on the last axis: (m, bit0)
    rho = _hypot(pw[:, 0], pw[:, 1])
    azimuth = _atan2(pw[:, 1], pw[:, 0])
    psi1 = np.stack([azimuth, _wrap(azimuth + math.pi)], axis=-1)
    u = np.stack([rho, -rho], axis=-1) - a1
    w = (pw[:, 2] - arm["d1"])[:, None]
    dist = _hypot(u, w)
    degenerate = (rho <= SINGULARITY_EPS) | np.any(dist <= SINGULARITY_EPS,
                                                    axis=-1)

    l3_zero = arm["l3_zero"]
    l3_lo = np.maximum(a3, np.abs(dist - a2))
    l3_hi = dist + a2
    stretched = (l3_zero < l3_lo) | (l3_zero > l3_hi)
    l3 = np.where(stretched, np.minimum(np.maximum(l3_zero, l3_lo), l3_hi),
                  l3_zero)
    g = np.where(stretched, arm["d4_sign"] * np.sqrt(
        np.maximum(l3 * l3 - a3 * a3, 0.0)), d4)
    v = np.where(stretched, g - d4, 0.0)
    numerator = dist * dist - a2 * a2 - l3 * l3
    sin_elbow = np.where(stretched, np.copysign(1.0, numerator),
                         np.clip(numerator / (2.0 * a2 * l3), -1.0, 1.0))
    cos_mag = np.sqrt(np.maximum(1.0 - sin_elbow * sin_elbow, 0.0))

    # elbow branches: (m, bit1, bit0)
    cos_elbow = np.array([[-1.0], [1.0]]) * cos_mag[:, None]
    psi3 = _wrap(_atan2(sin_elbow[:, None], cos_elbow)
                 - _atan2(a3, g)[:, None])
    g = g[:, None]
    ex = a3 * np.cos(psi3) + g * np.sin(psi3)
    ey = a3 * np.sin(psi3) - g * np.cos(psi3)
    psi2 = _wrap(_atan2(w, u)[:, None] - _atan2(ey, a2 + ex))

    # N = R3^T R_flange Rx(-alpha6), as in backward7_all
    c1, s1 = np.cos(psi1)[:, None], np.sin(psi1)[:, None]
    c23, s23 = np.cos(psi2 + psi3), np.sin(psi2 + psi3)
    r3_t = np.zeros(psi2.shape + (3, 3))
    r3_t[..., 0, 0], r3_t[..., 0, 1], r3_t[..., 0, 2] = c1 * c23, s1 * c23, s23
    r3_t[..., 1, 0], r3_t[..., 1, 1] = s1, -c1
    r3_t[..., 2, 0], r3_t[..., 2, 1], r3_t[..., 2, 2] = c1 * s23, s1 * s23, -c23
    n = (r3_t @ rot_f[:, None, None]
         @ rot_x(-robot.rotational_rows[5].alpha)[:3, :3])

    # wrist branches: (m, bit2, bit1, bit0); at the wrist singularity axis 6
    # takes the whole rotation, from other entries of N
    n = n[:, None]
    sign = np.array([1.0, -1.0])[:, None, None]
    s5 = _hypot(n[..., 0, 2], n[..., 1, 2])
    regular = s5 > SINGULARITY_EPS
    up = n[..., 2, 2] > 0.0
    q = np.empty((len(pw), 2, 2, 2, 7))
    q[..., 0] = _wrap(psi1 - phi[0])[:, None, None]
    q[..., 1] = _wrap(psi2 - phi[1])[:, None]
    q[..., 2] = _wrap(psi3 - phi[2])[:, None]
    q[..., 3] = v[:, None, None]
    q[..., 4] = np.where(regular, _wrap(_atan2(sign * n[..., 1, 2],
                                               sign * n[..., 0, 2]) - phi[3]),
                         0.0)
    q[..., 5] = np.where(regular, _atan2(s5, n[..., 2, 2]) * sign,
                         np.where(up, 0.0, math.pi))
    q[..., 6] = _wrap(_atan2(
        np.where(regular, sign * n[..., 2, 1],
                 np.where(up, n[..., 1, 0], n[..., 0, 1])),
        np.where(regular, -sign * n[..., 2, 0],
                 np.where(up, n[..., 0, 0], n[..., 1, 1]))) - phi[5])
    q = q.reshape(-1, 8, 7)
    q[degenerate] = np.nan
    return q.reshape(batch + (8, 7)), degenerate.reshape(batch)


def backward7(robot: RobotModel, target: np.ndarray, config: int) -> np.ndarray:
    """Row ``config`` of backward7_all, so it raises DegenerateTarget also
    when only the other shoulder branch is degenerate."""
    if not 0 <= config <= 7:
        raise ValueError(f"configuration {config} outside 0..7")
    return backward7_all(robot, target)[config]


def backward6(robot: RobotModel, target: np.ndarray, config: int,
              ignore_limits: bool = False):
    """6R backward transform for one configuration.

    Returns the joint vector, or None when the target is unreachable with this
    configuration: either the wrist centre is outside the positional workspace
    (the virtual axis would have to stretch) or no 2pi-representative of some
    joint fits its limit range. Each joint is the representative deepest
    inside its range (see limit_margins), which is the canonical one for any
    symmetric or sub-2pi range. With ignore_limits=True only the workspace
    test applies and joints come back canonically wrapped. Like backward7 it
    raises DegenerateTarget also when only the other shoulder branch is
    degenerate.
    """
    q = backward7(robot, target, config)
    if q[3] != 0.0:
        return None
    theta = q[[0, 1, 2, 4, 5, 6]]
    if ignore_limits:
        return theta
    reps, margins = limit_margins(theta, *robot.limits)
    return None if margins.min() < 0.0 else reps


def axis_violation(theta: float, theta_min: float, theta_max: float) -> float:
    """Distance (rad) from the nearest in-limit 2pi-representative of theta.

    Scalar reference definition; limit_margins computes max(0, -margin) with
    the same value bit for bit.
    """
    best = math.inf
    for k in (-1.0, 0.0, 1.0):
        candidate = theta + k * _TWO_PI
        hinge = max(theta_min - candidate, candidate - theta_max, 0.0)
        best = min(best, hinge)
    return best


# canonical first, so that the first maximum margin prefers it on ties
_SHIFTS = np.array([0.0, -_TWO_PI, _TWO_PI])


def limit_margins(theta, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """2pi-representative and signed limit margin of each joint angle.

    theta broadcasts against lo and hi along its last axes. The margin of a
    representative t is min(t - lo, hi - t): positive inside the range with
    that much room, negative by how far it misses. The representative is the
    one deepest inside the range (the canonical one on ties), so for any
    symmetric or sub-2pi range it is the canonical angle whenever that fits.
    limit_violation turns the margins into violations.
    """
    theta = np.asarray(theta, dtype=float)
    cands = theta[..., None] + _SHIFTS
    margins = np.minimum(cands - np.asarray(lo, dtype=float)[..., None],
                         np.asarray(hi, dtype=float)[..., None] - cands)
    return theta + _SHIFTS[margins.argmax(axis=-1)], margins.max(axis=-1)


def limit_violation(margins) -> np.ndarray:
    """Violation max(0, -margin) of limit_margins' margins, in rad.

    Written so that an in-limit entry gives +0.0 (np.maximum may return -0.0
    for a zero margin): the result equals axis_violation bit for bit.
    """
    return 0.0 - np.minimum(margins, 0.0)
