"""Rigid-body frames, Euler poses, and elementary DH transforms.

Conventions used throughout the package: lengths in millimetres, angles in
radians (degrees appear only at file and CLI boundaries). A frame is a plain
4x4 numpy array, homogeneous-transform layout. Euler angles follow the
industrial Z-Y-X intrinsic convention: A about z, then B about the rotated y,
then C about the twice-rotated x. Everything here is a pure function of
plain values, safe for unrestricted concurrent use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Map an angle, or an array of them, to its representative in (-pi, pi].

    The quotient's rounding can leave theta - 2pi ceil((theta - pi) / 2pi)
    one turn outside the range on either side, so one more turn corrects it.
    For |theta| < 15 pi every other step is exact, and the result is
    theta - 2pi n exactly for the one integer n that lands in the range. Up
    to |theta| = 2^52 the rounded product 2pi n stays within a turn, so the
    result is still in the range. A scalar, which may come from a file at
    any size, first has whole turns taken off exactly by fmod, so it lands
    in the range at any size. Arrays skip that step: the kernel's angles
    stay within a few turns, where it changes no bit, and fmod over them
    doubled the kernel's wrap time.
    -0.0 comes back as 0.0 and an infinity as nan.
    """
    if not np.ndim(theta):
        theta = np.fmod(theta, _TWO_PI)
    wrapped = np.asarray(theta - _TWO_PI * np.ceil((theta - math.pi)
                                                   / _TWO_PI))
    np.subtract(wrapped, _TWO_PI, out=wrapped, where=wrapped > math.pi)
    np.add(wrapped, _TWO_PI, out=wrapped, where=wrapped <= -math.pi)
    return wrapped if np.ndim(theta) else float(wrapped)


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, c, -s, 0.0],
        [0.0, s, c, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([
        [c, 0.0, s, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-s, 0.0, c, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([
        [c, -s, 0.0, 0.0],
        [s, c, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def dh_transform(theta: float, d: float, a: float, alpha: float,
                 phi: float = 0.0) -> np.ndarray:
    """Joint transform Rz(theta+phi) . Tz(d) . Tx(a) . Rx(alpha), closed form."""
    q = theta + phi
    cq, sq = math.cos(q), math.sin(q)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array([
        [cq, -sq * ca, sq * sa, a * cq],
        [sq, cq * ca, -cq * sa, a * sq],
        [0.0, sa, ca, d],
        [0.0, 0.0, 0.0, 1.0],
    ])


def compose(*frames: np.ndarray) -> np.ndarray:
    """Product of frames, applied left to right."""
    out = np.eye(4)
    for f in frames:
        out = out @ f
    return out


def invert(frame: np.ndarray) -> np.ndarray:
    """Rigid inverse (R^T, -R^T t); cheaper and exacter than a general inverse."""
    rot = frame[:3, :3]
    out = np.eye(4)
    out[:3, :3] = rot.T
    out[:3, 3] = -rot.T @ frame[:3, 3]
    return out


def frame_is_valid(frame: np.ndarray, tol: float = 1e-9) -> bool:
    """Check the frame invariants: orthonormal rotation, det > 0, exact bottom row."""
    if frame.shape != (4, 4):
        return False
    if not np.array_equal(frame[3], np.array([0.0, 0.0, 0.0, 1.0])):
        return False
    rot = frame[:3, :3]
    if np.max(np.abs(rot.T @ rot - np.eye(3))) > tol:
        return False
    return float(np.linalg.det(rot)) > 0.0


@dataclass(frozen=True)
class Pose:
    """Position plus Z-Y-X Euler angles: x, y, z in mm; a, b, c in radians."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    @classmethod
    def from_array(cls, values) -> "Pose":
        x, y, z, a, b, c = (float(v) for v in values)
        return cls(x, y, z, a, b, c)

    @classmethod
    def from_degrees(cls, x, y, z, a, b, c) -> "Pose":
        return cls(float(x), float(y), float(z),
                   math.radians(a), math.radians(b), math.radians(c))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.a, self.b, self.c])

    def angles_deg(self) -> tuple[float, float, float]:
        return (math.degrees(self.a), math.degrees(self.b), math.degrees(self.c))

    def wrapped(self) -> "Pose":
        return Pose(self.x, self.y, self.z,
                    wrap_angle(self.a), wrap_angle(self.b), wrap_angle(self.c))


def frames_from_poses(poses) -> np.ndarray:
    """frame_from_pose over a (..., 6) stack of x, y, z, a, b, c rows."""
    poses = np.asarray(poses, dtype=float)
    cos, sin = np.cos(poses[..., 3:]), np.sin(poses[..., 3:])
    ca, cb, cc = cos[..., 0], cos[..., 1], cos[..., 2]
    sa, sb, sc = sin[..., 0], sin[..., 1], sin[..., 2]
    ca_sb, sa_sb = ca * sb, sa * sb
    frames = np.zeros(poses.shape[:-1] + (4, 4))
    frames[..., 0, 0] = ca * cb
    frames[..., 0, 1] = ca_sb * sc - sa * cc
    frames[..., 0, 2] = ca_sb * cc + sa * sc
    frames[..., 1, 0] = sa * cb
    frames[..., 1, 1] = sa_sb * sc + ca * cc
    frames[..., 1, 2] = sa_sb * cc - ca * sc
    frames[..., 2, 0] = -sb
    frames[..., 2, 1] = cb * sc
    frames[..., 2, 2] = cb * cc
    frames[..., :3, 3] = poses[..., :3]
    frames[..., 3, 3] = 1.0
    return frames


def frame_from_pose(pose: Pose) -> np.ndarray:
    """T(x,y,z) . Rz(a) . Ry(b) . Rx(c)."""
    return frames_from_poses(pose.as_array())


def pose_from_frame(frame: np.ndarray) -> Pose:
    """Inverse of frame_from_pose.

    At the Euler singularity (|cos b| <= 1e-12) the c angle is fixed to 0 and
    the remaining rotation folded into a, which keeps the extraction total and
    deterministic.
    """
    rot = frame[:3, :3]
    x, y, z = frame[:3, 3]
    cos_b = math.hypot(rot[0, 0], rot[1, 0])
    if cos_b <= 1e-12:
        b = math.pi / 2 if rot[2, 0] < 0.0 else -math.pi / 2
        if rot[2, 0] < 0.0:
            a = math.atan2(rot[1, 2], rot[0, 2])
        else:
            a = math.atan2(-rot[1, 2], -rot[0, 2])
        return Pose(x, y, z, a, b, 0.0)
    a = math.atan2(rot[1, 0], rot[0, 0])
    b = math.atan2(-rot[2, 0], cos_b)
    c = math.atan2(rot[2, 1], rot[2, 2])
    return Pose(x, y, z, a, b, c)
