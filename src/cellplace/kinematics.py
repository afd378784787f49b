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

The backward transform has one kernel. backward7_batch solves a stack of
frames with array code and returns a degenerate mask; it serves every
caller with many targets (grid scans, finite-difference sweeps, oracle
checks). backward7_all is its one-frame entry, a batch of one that raises
DegenerateTarget where the mask is set, and backward7, backward6 and
``cellplace ik`` go through it. The kernel's atan2 and hypot are numpy's,
whose last bit can differ from the math module's and between numpy builds
or CPU instruction sets, so its bits are reproducible on one machine with
one numpy, not across machines. On a 2-core x86-64 host with numpy 2.4, a
batch of one frame costs ~100 us and a batch of 960 frames ~2.5 us per
frame.

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

# the configuration bits in backward7_batch: bit 0 turns axis 1 by pi and
# negates the radial coordinate, bit 1 negates cos(elbow), bit 2 negates
# axis 5 and turns axes 4 and 6 by pi; shaped for its (m, bit0),
# (m, bit1, bit0) and (m, bit2, bit1, bit0) axes
_SHOULDER_TURN = np.array([0.0, math.pi])
_SHOULDER_SIGN = np.array([1.0, -1.0])
_ELBOW_SIGN = np.array([[-1.0], [1.0]])
_WRIST_SIGN = np.array([1.0, -1.0])[:, None, None]
_WRIST_TURN = np.array([0.0, math.pi])[:, None, None]


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
        a3, d4 = rows[2].a, rows[3].d
        phi = np.array([r.phi for r in rows])
        l3_zero = math.hypot(a3, d4)
        d4_sign = -1.0 if d4 < 0.0 else 1.0
        tool_inv = invert(self.tool)
        rx6 = rot_x(-rows[5].alpha)[:3, :3]
        # Offset from flange origin back to the wrist centre, in flange axes.
        wrist_offset = rx6 @ np.array([0.0, 0.0, rows[5].d])
        # base_inv @ tcp @ wrist_of_tcp holds R_flange Rx(-alpha6) in its
        # rotation block and the wrist centre in its last column
        wrist_of_tcp = np.eye(4)
        wrist_of_tcp[:, :3] = tool_inv[:, :3] @ rx6
        wrist_of_tcp[:, 3] = tool_inv @ np.append(-wrist_offset, 1.0)
        return {
            "a1": rows[0].a, "d1": rows[0].d, "a2": rows[1].a, "a3": a3,
            "d4": d4, "d4_sign": d4_sign, "phi": phi,
            # joint offsets in backward7_batch's row layout
            "phi7": np.insert(phi, 3, 0.0),
            "l3_zero": l3_zero, "l3_floor": max(l3_zero, a3),
            # the forearm length backward7_batch computes at l3_zero
            "g_zero": d4_sign * math.sqrt(max(l3_zero * l3_zero - a3 * a3,
                                              0.0)),
            "base_inv": invert(self.base), "tool_inv": tool_inv,
            "wrist_offset": wrist_offset, "wrist_of_tcp": wrist_of_tcp,
        }


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

def backward7_batch(robot: RobotModel, targets) -> tuple[np.ndarray, np.ndarray]:
    """All eight virtual-robot solutions of each of a (..., 4, 4) stack of
    target TCP frames.

    Returns the joint rows, shape (..., 8, 7), and a degenerate mask, shape
    (...). Row c holds (t1, t2, t3, v, t4, t5, t6) for configuration c. The
    virtual excursion v is zero exactly when the wrist centre is positionally
    reachable for the shoulder branch of c; otherwise it is the minimal |v|
    restoring the planar triangle. Axis limits are deliberately not applied
    here. A target is masked, its rows NaN, when its wrist centre lies on the
    axis-1 line (both shoulder branches undefined) or collapses onto the
    shoulder point of either shoulder branch.

    The closed form is array code over the targets and the three
    configuration bits (axes bit2, bit1, bit0, which flatten to the
    configuration code). Intermediate angles stay unwrapped; one wrap at the
    end maps every angle column into (-pi, pi].
    """
    arm = robot._arm
    targets = np.asarray(targets, dtype=float)
    batch = targets.shape[:-2]
    # rot = R_flange Rx(-alpha6) and the wrist centre pw, in root coordinates
    wrist = arm["base_inv"] @ targets.reshape(-1, 4, 4) @ arm["wrist_of_tcp"]
    rot, pw = wrist[:, :3, :3], wrist[:, :3, 3]
    a1, a2, a3 = arm["a1"], arm["a2"], arm["a3"]

    # shoulder branches on the last axis: (m, bit0)
    px, py = pw[:, :1], pw[:, 1:2]
    rho = np.hypot(px, py)
    psi1 = np.arctan2(py, px) + _SHOULDER_TURN
    u = rho * _SHOULDER_SIGN - a1
    w = pw[:, 2:] - arm["d1"]
    dist = np.hypot(u, w)
    near = np.minimum(rho, dist)
    degenerate = np.minimum(near[:, 0], near[:, 1]) <= SINGULARITY_EPS

    # Minimal-|v| forearm stretch: clamp the natural link-3 length into the
    # interval where the planar triangle (dist, a2, l3) closes. A clamped
    # triangle is flat: the elbow is exactly straight or folded, so both
    # elbow branches get the same (rounding-free) row.
    # g is the forearm length along axis 4; at l3 == l3_zero it is g_zero,
    # d4 up to rounding, so v = g - g_zero is exactly 0 on reachable targets
    l3 = np.minimum(np.maximum(arm["l3_floor"], np.abs(dist - a2)), dist + a2)
    g = arm["d4_sign"] * np.sqrt(np.maximum(l3 * l3 - a3 * a3, 0.0))
    numerator = dist * dist - a2 * a2 - l3 * l3
    sin_elbow = np.minimum(np.maximum(numerator / (2.0 * a2 * l3), -1.0), 1.0)
    np.copysign(1.0, numerator, out=sin_elbow, where=l3 != arm["l3_zero"])
    cos_mag = np.sqrt(1.0 - sin_elbow * sin_elbow)  # |sin_elbow| <= 1

    # elbow branches: (m, bit1, bit0). In the arm plane the forearm, of
    # length l3, points along (sin_elbow, -cos_elbow) from the elbow.
    sin_elbow, l3 = sin_elbow[:, None], l3[:, None]
    cos_elbow = cos_mag[:, None] * _ELBOW_SIGN
    psi3 = np.arctan2(sin_elbow, cos_elbow) - np.arctan2(a3, g)[:, None]
    psi2 = np.arctan2(w, u)[:, None] - np.arctan2(-l3 * cos_elbow,
                                                   a2 + l3 * sin_elbow)

    # Orientation remainder N = R3^T rot, a plain Z-Y-Z rotation in the
    # wrist angles. R3's columns in root coordinates are (c1 c23, s1 c23,
    # s23), (s1, -c1, 0) and (c1 s23, s1 s23, -c23).
    r0, r1, r2 = rot[:, None, 0], rot[:, None, 1], rot[:, None, None, 2]
    c1, s1 = np.cos(psi1)[..., None], np.sin(psi1)[..., None]
    along = (c1 * r0 + s1 * r1)[:, None]
    psi23 = psi2 + psi3
    c23, s23 = np.cos(psi23)[..., None], np.sin(psi23)[..., None]
    # rows of N with the wrist axis added: (m, bit2, bit1, bit0, 3)
    n0 = (c23 * along + s23 * r2)[:, None]
    n1 = (s1 * r0 - c1 * r1)[:, None, None]
    n2 = (s23 * along - c23 * r2)[:, None]

    # wrist branches: (m, bit2, bit1, bit0). Flipping the sign of axis 5
    # turns axes 4 and 6 by pi: Rz(a) Ry(b) Rz(c) = Rz(a+pi) Ry(-b) Rz(c+pi).
    s5 = np.hypot(n0[..., 2], n1[..., 2])
    q = np.zeros((len(pw), 2, 2, 2, 7))
    q[..., 0] = psi1[:, None, None]
    q[..., 1] = psi2[:, None]
    q[..., 2] = psi3[:, None]
    q[..., 4] = np.arctan2(n1[..., 2], n0[..., 2]) + _WRIST_TURN
    q[..., 5] = np.arctan2(s5, n2[..., 2]) * _WRIST_SIGN
    q[..., 6] = np.arctan2(n2[..., 1], -n2[..., 0]) + _WRIST_TURN
    singular = s5 <= SINGULARITY_EPS
    if singular.any():
        # at the wrist singularity axis 6 takes the whole rotation, from
        # other entries of N
        up = n2[..., 2] > 0.0
        q[..., 4] = np.where(singular, 0.0, q[..., 4])
        q[..., 5] = np.where(singular, np.where(up, 0.0, math.pi), q[..., 5])
        q[..., 6] = np.where(singular, np.arctan2(
            np.where(up, n1[..., 0], n0[..., 1]),
            np.where(up, n0[..., 0], n1[..., 1])), q[..., 6])
    # every angle column at once; axis 5 is in (-pi, pi] already
    q = wrap_angle(q - arm["phi7"])
    q[..., 3] = (g - arm["g_zero"])[:, None, None]
    q = q.reshape(-1, 8, 7)
    q[degenerate] = np.nan
    return q.reshape(batch + (8, 7)), degenerate.reshape(batch)


def backward7_all(robot: RobotModel, target: np.ndarray) -> np.ndarray:
    """backward7_batch of one target frame: its (8, 7) rows, or
    DegenerateTarget where it masks the target."""
    q, degenerate = backward7_batch(robot, target)
    if degenerate:
        raise DegenerateTarget(
            "wrist centre on the axis-1 line or at a shoulder point")
    return q


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


def _candidate_margins(theta, lo, hi):
    """Signed limit margins of theta's 2pi-representatives theta,
    theta - 2pi and theta + 2pi, and the largest of the three."""
    theta = np.asarray(theta, dtype=float)
    margins = [np.minimum(t - lo, hi - t)
               for t in (theta, theta - _TWO_PI, theta + _TWO_PI)]
    return margins, np.maximum(np.maximum(margins[0], margins[1]), margins[2])


def limit_margins(theta, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """2pi-representative and signed limit margin of each joint angle.

    theta broadcasts against lo and hi. The margin of a representative t is
    min(t - lo, hi - t): positive inside the range with that much room,
    negative by how far it misses. The representative is the one deepest
    inside the range (the canonical one on ties, then theta - 2pi), so for
    any symmetric or sub-2pi range it is the canonical angle whenever that
    fits. limit_violation turns the margins into violations.
    """
    theta = np.asarray(theta, dtype=float)
    (canonical, below, _), best = _candidate_margins(theta, lo, hi)
    shift = np.where(canonical == best, 0.0,
                     np.where(below == best, -_TWO_PI, _TWO_PI))
    return theta + shift, best


def deepest_margins(theta, lo, hi) -> np.ndarray:
    """The margins of limit_margins without the representatives."""
    return _candidate_margins(theta, lo, hi)[1]


def limit_violation(margins) -> np.ndarray:
    """Violation max(0, -margin) of limit_margins' margins, in rad.

    Written so that an in-limit entry gives +0.0 (np.maximum may return -0.0
    for a zero margin): the result equals axis_violation bit for bit.
    """
    return 0.0 - np.minimum(margins, 0.0)
