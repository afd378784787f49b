import math

import numpy as np
import pytest

from cellplace.errors import DegenerateTarget, SingularConfiguration
from cellplace.geometry import (Pose, frame_from_pose, frame_is_valid, invert,
                                rot_x)
from cellplace.kinematics import (JointRow, RobotModel, axis_violation,
                                  backward6, backward7, backward7_all,
                                  backward7_batch, config_bits,
                                  config_from_bits, config_label, config_of,
                                  forward6, forward7, limit_margins,
                                  limit_violation, wrist_center)
from cellplace.scene import synthesize_scene
from conftest import sample_joints_canonical

HOME = np.array([0.0, -math.pi / 2, math.pi / 2, 0.0, 0.0, 0.0])
HOME_CONFIG = 0  # frozen regression value, from the three geometric predicates

DEG = math.radians


def oracle_fk(theta, v=0.0, tool=None):
    """Independent forward-transform oracle: composes the seven matrices from
    the data-sheet constants directly, sharing no code with the package."""
    def mat(q, d, a, al):
        cq, sq, ca, sa = math.cos(q), math.sin(q), math.cos(al), math.sin(al)
        return np.array([[cq, -sq * ca, sq * sa, a * cq],
                         [sq, cq * ca, -cq * sa, a * sq],
                         [0.0, sa, ca, d],
                         [0.0, 0.0, 0.0, 1.0]])
    frame = np.diag([1.0, -1.0, -1.0, 1.0])  # Rx(pi) base flip
    frame = frame @ mat(theta[0], -400.0, 25.0, math.pi / 2)
    frame = frame @ mat(theta[1], 0.0, 455.0, 0.0)
    frame = frame @ mat(theta[2] - math.pi / 2, 0.0, 35.0, math.pi / 2)
    frame = frame @ mat(0.0, v, 0.0, 0.0)
    frame = frame @ mat(theta[3], -420.0, 0.0, -math.pi / 2)
    frame = frame @ mat(theta[4], 0.0, 0.0, math.pi / 2)
    frame = frame @ mat(theta[5], -80.0, 0.0, math.pi)
    return frame if tool is None else frame @ tool


def random_rotation(rng):
    """A rotation matrix from a random unit quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def frame_with_wrist_center(pw_root, rotation=None):
    """Target flange frame (world) whose wrist centre lands at pw_root."""
    rotation = np.eye(3) if rotation is None else rotation
    offset = np.array([0.0, 0.0, 80.0])  # Rx(-pi) @ (0, 0, d6) for d6 = -80
    target = np.eye(4)
    target[:3, :3] = rotation
    target[:3, 3] = np.asarray(pw_root) + rotation @ offset
    return rot_x(math.pi) @ target


class TestBuiltinModel:
    def test_row2(self, robot):
        row = robot.rotational_rows[1]
        assert (row.d, row.a) == (0.0, 455.0)
        assert (row.lo, row.hi) == (DEG(-190), DEG(45))

    def test_row6(self, robot):
        row = robot.rotational_rows[5]
        assert row.d == -80.0
        assert row.alpha == math.pi
        assert (row.lo, row.hi) == (DEG(-350), DEG(350))

    def test_virtual_row(self, robot):
        row = robot.rows[3]
        assert row.kind == "prism"
        assert (row.d, row.a, row.alpha, row.phi) == (0.0, 0.0, 0.0, 0.0)

    def test_base_flip(self, robot):
        assert np.allclose(robot.base, rot_x(math.pi), atol=0)

    def test_class_validation_rejects_wrong_alpha(self, robot):
        rows = list(robot.rows)
        rows[0] = JointRow("rot", d=-400, a=25, alpha=0.3, lo=-1, hi=1)
        with pytest.raises(ValueError, match="supported class"):
            RobotModel("bad", tuple(rows), robot.base, robot.tool)


class TestForward:
    def test_home_matches_oracle(self, robot):
        frame, config = forward6(robot, HOME)
        assert np.allclose(frame, oracle_fk(HOME), atol=1e-12)
        # KR6 R900 data sheet: flange at (525, 0, 890) in the home position
        assert np.allclose(frame[:3, 3], [525.0, 0.0, 890.0], atol=1e-9)
        assert config == HOME_CONFIG

    def test_random_matches_oracle(self, robot):
        rng = np.random.default_rng(12)
        for theta in sample_joints_canonical(robot, rng, 300):
            frame, _ = forward6(robot, theta)
            assert np.allclose(frame, oracle_fk(theta), atol=1e-9)
            assert frame_is_valid(frame)

    def test_tool_composes_on_the_right(self, robot):
        import dataclasses
        tool = np.eye(4)
        tool[2, 3] = 50.0
        with_tool = dataclasses.replace(robot, tool=tool)
        theta = np.array([0.3, -1.0, 1.2, 0.4, -0.8, 2.0])
        plain, _ = forward6(robot, theta)
        tooled, _ = forward6(with_tool, theta)
        assert np.allclose(tooled, plain @ tool, atol=1e-12)

    def test_forward7_zero_elongation_equals_forward6(self, robot):
        theta = np.array([0.5, -1.3, 0.9, -0.2, 0.7, -1.0])
        q = np.insert(theta, 3, 0.0)
        frame6, _ = forward6(robot, theta)
        assert np.allclose(forward7(robot, q), frame6, atol=1e-12)

    def test_forward7_elongation_moves_along_forearm(self, robot):
        theta = np.array([0.5, -1.3, 0.9, -0.2, 0.7, -1.0])
        q0 = np.insert(theta, 3, 0.0)
        q1 = np.insert(theta, 3, 100.0)
        f0, f1 = forward7(robot, q0), forward7(robot, q1)
        delta = f1[:3, 3] - f0[:3, 3]
        assert np.linalg.norm(delta) == pytest.approx(100.0, abs=1e-9)
        assert np.allclose(f0[:3, :3], f1[:3, :3], atol=1e-12)
        assert np.allclose(f1, oracle_fk(theta, v=100.0), atol=1e-9)


class TestWristCenter:
    def test_invariant_under_wrist_joints(self, robot):
        rng = np.random.default_rng(21)
        base = np.array([0.4, -1.1, 1.3, 0.0, 0.0, 0.0])
        reference = None
        for _ in range(50):
            theta = base.copy()
            theta[3:] = rng.uniform(-2.0, 2.0, size=3)
            frame, _ = forward6(robot, theta)
            point = wrist_center(frame, robot)
            if reference is None:
                reference = point
            assert np.allclose(point, reference, atol=1e-9)

    def test_offset_magnitude_from_flange(self, robot):
        frame, _ = forward6(robot, HOME)
        point = wrist_center(frame, robot)
        assert np.linalg.norm(frame[:3, 3] - point) == pytest.approx(80.0,
                                                                     abs=1e-9)

    def test_matches_ik_internal_wrist_center(self, robot):
        # Home: shoulder at world (25, 0, 400), arm up 455, elbow offset 35,
        # forearm 420 horizontal -> wrist centre (445, 0, 890).
        frame, _ = forward6(robot, HOME)
        assert np.allclose(wrist_center(frame, robot), [445.0, 0.0, 890.0],
                           atol=1e-9)


class TestConfigBits:
    def test_bit_packing(self):
        for c in range(8):
            assert config_from_bits(*config_bits(c)) == c
        assert config_label(5) == "B101"
        assert config_label(0) == "B000"

    def test_home_value_frozen(self, robot):
        assert config_of(robot, HOME) == HOME_CONFIG

    def test_wrist_flip_toggles_bit2_only(self, robot):
        rng = np.random.default_rng(31)
        for theta in sample_joints_canonical(robot, rng, 100):
            flipped = theta.copy()
            flipped[3] = _wrap(theta[3] + math.pi)
            flipped[4] = -theta[4]
            flipped[5] = _wrap(theta[5] + math.pi)
            f0, c0 = forward6(robot, theta)
            f1, c1 = forward6(robot, flipped)
            assert np.allclose(f0, f1, atol=1e-9)  # same tool frame
            assert c1 == c0 ^ 4

    def test_bit0_is_not_sign_of_theta1(self, robot):
        # Upright-ish posture: the wrist centre sits at radial +445 even for
        # slightly negative theta1, so bit0 stays 0 where sign(theta1) flips.
        theta = HOME.copy()
        theta[4] = 0.3
        for theta1 in (-0.05, -0.01, 0.01, 0.05):
            theta[0] = theta1
            assert config_bits(config_of(robot, theta))[0] == 0
        # Counterexample by the brute-force predicate: fold the arm so the
        # wrist centre crosses behind axis 1 while theta1 == 0.
        folded = np.array([0.0, DEG(-170), DEG(-60), 0.2, 0.4, 0.0])
        radial = _radial_coordinate(robot, folded)
        assert radial < 0.0
        assert config_bits(config_of(robot, folded))[0] == 1

    def test_strict_raises_at_wrist_singularity(self, robot):
        with pytest.raises(SingularConfiguration):
            config_of(robot, HOME, strict=True)
        # non-strict resolves the tie deterministically
        assert config_of(robot, HOME) == HOME_CONFIG


def _wrap(angle):
    from cellplace.geometry import wrap_angle
    return wrap_angle(angle)


def _radial_coordinate(robot, theta):
    """Brute-force bit-0 predicate: wrist-centre x in the theta1-rotated frame."""
    frame, _ = forward6(robot, theta)
    pw_world = wrist_center(frame, robot)
    pw_root = (invert(robot.base) @ np.append(pw_world, 1.0))[:3]
    c1, s1 = math.cos(theta[0]), math.sin(theta[0])
    return c1 * pw_root[0] + s1 * pw_root[1]


class TestBackward:
    def test_round_trip_small_sweep(self, robot):
        rng = np.random.default_rng(40)
        for theta in sample_joints_canonical(robot, rng, 500):
            frame, config = forward6(robot, theta)
            back = backward6(robot, frame, config)
            assert back is not None, (theta, config)
            assert np.max(np.abs(back - theta)) < 1e-9

    def test_far_target_unreachable_for_all_configs(self, robot):
        target = np.eye(4)
        target[:3, 3] = (10_000.0, 0.0, 0.0)
        for config in range(8):
            assert backward6(robot, target, config) is None

    def test_limit_violation_is_unreachable(self, robot):
        theta = np.array([0.2, DEG(60), 1.1, 0.5, 0.9, -0.4])  # axis 2 > 45 deg
        frame, config = forward6(robot, theta)
        assert backward6(robot, frame, config) is None
        ignoring = backward6(robot, frame, config, ignore_limits=True)
        assert np.max(np.abs(ignoring - theta)) < 1e-9

    def test_noncanonical_limit_representative(self, robot):
        theta = np.array([0.2, DEG(-185), 1.1, 0.5, 0.9, -0.4])  # in [-190, 45]
        frame, config = forward6(robot, theta)
        back = backward6(robot, frame, config)
        assert back is not None
        assert back[1] == pytest.approx(DEG(-185), abs=1e-9)

    def test_branch_completeness(self, robot):
        # Distinctness of all 8 branches needs the target inside the
        # positional workspace of BOTH shoulder families: at a stretched
        # forearm (v != 0) the two elbow branches coincide by construction.
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 50:
            theta = sample_joints_canonical(robot, rng, 1)[0]
            frame, _ = forward6(robot, theta)
            q_all = backward7_all(robot, frame)
            if np.any(q_all[:, 3] != 0.0):
                continue
            checked += 1
            for c in range(8):
                assert np.allclose(forward7(robot, q_all[c]), frame, atol=1e-6)
                assert config_of(robot, q_all[c, [0, 1, 2, 4, 5, 6]]) == c
            for c in range(8):
                for d in range(c + 1, 8):
                    assert np.max(np.abs(q_all[c] - q_all[d])) > 1e-6

    def test_elongated_branches_collapse_in_elbow_pairs(self, robot):
        # Documented geometric fact: when a shoulder family needs elongation,
        # its two elbow branches return the same stretched solution, in both
        # kernels and without rounding noise between the pair.
        target = frame_with_wrist_center([1025.0, 0.0, -400.0])
        q_all = backward7_all(robot, target)
        assert q_all[0, 3] != 0.0
        for bit0 in (0, 1):
            for bit2 in (0, 1):
                a = config_from_bits(bit0, 0, bit2)
                b = config_from_bits(bit0, 1, bit2)
                assert np.allclose(q_all[a], q_all[b], atol=1e-12)
        rng = np.random.default_rng(43)
        frames = [frame_with_wrist_center(rng.uniform([-1400, -1400, -1800],
                                                      [1400, 1400, 1000]),
                                          random_rotation(rng))
                  for _ in range(400)]
        stretched_pairs = 0
        for q_all in (*(backward7_all(robot, f) for f in frames),
                      *backward7_batch(robot, np.array(frames))[0]):
            for bit0 in (0, 1):
                if q_all[bit0, 3] == 0.0:
                    continue
                for bit2 in (0, 1):
                    a = config_from_bits(bit0, 0, bit2)
                    b = config_from_bits(bit0, 1, bit2)
                    assert np.array_equal(q_all[a], q_all[b])
                    stretched_pairs += 1
        assert stretched_pairs > 200

    def test_degenerate_target_raises(self, robot):
        target = frame_with_wrist_center([0.0, 0.0, -400.0])
        with pytest.raises(DegenerateTarget):
            backward7_all(robot, target)

    def test_one_degenerate_shoulder_branch_raises_for_every_config(self, robot):
        # the wrist centre sits on the front shoulder point only; the back
        # branches (odd configurations) are defined, yet every single-branch
        # call raises, as backward7_all does
        target = frame_with_wrist_center([25.0, 0.0, -400.0])
        for config in (1, 3, 5, 7):
            with pytest.raises(DegenerateTarget):
                backward7(robot, target, config)
        with pytest.raises(DegenerateTarget):
            backward6(robot, target, 1)

    def test_elongation_value_at_planar_distance_1000(self, robot):
        # Wrist centre 1000 mm from the shoulder in the arm plane: the forearm
        # must stretch so that l3 = 1000 - 455, i.e.
        # |v| = sqrt(545^2 - 35^2) - 420.
        target = frame_with_wrist_center([1025.0, 0.0, -400.0])
        expected = math.sqrt(545.0 ** 2 - 35.0 ** 2) - 420.0
        for config in (0, 2, 4, 6):  # front-shoulder branches see D = 1000
            q = backward7(robot, target, config)
            assert abs(q[3]) == pytest.approx(expected, abs=1e-9)
            assert np.allclose(forward7(robot, q), target, atol=1e-6)

    def test_v_zero_iff_backward6_ignoring_limits(self, robot):
        rng = np.random.default_rng(42)
        hits = {True: 0, False: 0}
        for _ in range(200):
            pw = rng.uniform([-900, -900, -1300], [900, 900, 500])
            if math.hypot(pw[0], pw[1]) < 5.0:
                continue
            target = frame_with_wrist_center(pw)
            try:
                q_all = backward7_all(robot, target)
            except DegenerateTarget:
                continue
            for config in range(8):
                v_zero = q_all[config, 3] == 0.0
                solvable = backward6(robot, target, config,
                                     ignore_limits=True) is not None
                assert v_zero == solvable
                hits[v_zero] += 1
        assert hits[True] > 0 and hits[False] > 0

    def test_wrist_singular_target_resolved_deterministically(self, robot):
        frame, _ = forward6(robot, HOME)  # theta5 = 0 at home
        q = backward7(robot, frame, 0)
        assert q[4] == 0.0 and q[5] == 0.0  # theta4 := 0 convention
        assert np.allclose(forward7(robot, q), frame, atol=1e-9)


# criterion 1's tolerance, here on every entry of a frame (mm and unitless)
ROUND_TRIP_TOL = 1e-9


def _dh_stack(q, d, a, alpha):
    """oracle_fk's matrix for an array of joint values, shape q.shape+(4, 4)."""
    cq, sq, ca, sa = np.cos(q), np.sin(q), math.cos(alpha), math.sin(alpha)
    m = np.zeros(np.shape(q) + (4, 4))
    m[..., 0, :] = np.stack([cq, -sq * ca, sq * sa, a * cq], axis=-1)
    m[..., 1, :] = np.stack([sq, cq * ca, -cq * sa, a * sq], axis=-1)
    m[..., 2, 1:] = sa, ca, 0.0
    m[..., 2, 3] = d
    m[..., 3, 3] = 1.0
    return m


def oracle_fk_rows(q):
    """oracle_fk over a stack of virtual-robot rows (t1, t2, t3, v, t4, t5,
    t6), shape (..., 7) -> (..., 4, 4)."""
    frame = np.diag([1.0, -1.0, -1.0, 1.0])
    for column, (offset, d, a, alpha) in enumerate((
            (0.0, -400.0, 25.0, math.pi / 2), (0.0, 0.0, 455.0, 0.0),
            (-math.pi / 2, 0.0, 35.0, math.pi / 2), (None, 0.0, 0.0, 0.0),
            (0.0, -420.0, 0.0, -math.pi / 2), (0.0, 0.0, 0.0, math.pi / 2),
            (0.0, -80.0, 0.0, math.pi))):
        if offset is None:  # the virtual prismatic axis
            frame = frame @ _dh_stack(np.zeros_like(q[..., 3]), q[..., 3],
                                      0.0, 0.0)
        else:
            frame = frame @ _dh_stack(q[..., column] + offset, d, a, alpha)
    return frame


def degenerate_by_definition(robot, frames):
    """Targets whose wrist centre lies on the axis-1 line or on either
    shoulder point (a1 = 25 mm, d1 = -400 mm), in scalar math."""
    base_inv = invert(robot.base)
    mask = []
    for frame in frames:
        px, py, pz = base_inv[:3, :3] @ wrist_center(frame, robot) + \
            base_inv[:3, 3]
        rho = math.hypot(px, py)
        mask.append(min(rho, math.hypot(rho - 25.0, pz + 400.0),
                        math.hypot(-rho - 25.0, pz + 400.0)) <= 1e-8)
    return np.array(mask)


def _assert_round_trip(robot, frames):
    """Every row of every target reproduces the target through the
    independent forward transform; the mask is exactly the definition's, the
    masked rows are NaN and every angle of the others is in (-pi, pi]."""
    frames = np.asarray(frames)
    q, mask = backward7_batch(robot, frames)
    assert np.array_equal(mask, degenerate_by_definition(robot, frames))
    assert np.isnan(q[mask]).all() and not np.isnan(q[~mask]).any()
    angles = q[~mask][..., [0, 1, 2, 4, 5, 6]]
    assert np.all((angles > -math.pi) & (angles <= math.pi))
    error = np.abs(oracle_fk_rows(q[~mask]) - frames[~mask][:, None])
    assert error.max() <= ROUND_TRIP_TOL
    return q, mask


class TestBatchKernel:
    """backward7_batch against the independent forward transform: every one
    of the eight rows of a target reproduces it to criterion 1's tolerance,
    stretched rows (v != 0) included."""

    def test_round_trip_samples(self, robot):
        # criterion 1's samples; each row of its own configuration is the
        # sampled joint vector
        rng = np.random.default_rng(1001)
        thetas = sample_joints_canonical(robot, rng, 10_000)
        frames, configs = zip(*(forward6(robot, theta) for theta in thetas))
        q, _ = _assert_round_trip(robot, frames)
        recovered = q[np.arange(len(q)), configs][:, [0, 1, 2, 4, 5, 6]]
        assert np.max(np.abs(recovered - np.array(thetas))) <= ROUND_TRIP_TOL

    def test_grid_targets_of_the_k30_scenes(self, robot):
        # the 10 x 10 x-y grid of the benchmark's grid scan, scenes 300-304
        frames = []
        for seed in range(300, 305):
            scene = synthesize_scene(robot, count=30, seed=seed)
            targets = np.array(scene.target_frames())
            lo, hi = scene.bounds.lower, scene.bounds.upper
            for x in np.linspace(lo[0], hi[0], 10):
                for y in np.linspace(lo[1], hi[1], 10):
                    pose = scene.bounds.midpoint()
                    pose[:2] = x, y
                    frames.extend(frame_from_pose(Pose.from_array(pose))
                                  @ targets)
        q, _ = _assert_round_trip(robot, frames)
        assert np.any(q[..., 3] != 0.0) and np.any(q[..., 3] == 0.0)

    def test_wrist_singular_and_degenerate_targets(self, robot):
        frames = [forward6(robot, HOME)[0],  # theta5 = 0
                  frame_with_wrist_center([0.0, 0.0, -400.0]),  # axis-1 line
                  frame_with_wrist_center([25.0, 0.0, -400.0]),  # shoulder
                  frame_with_wrist_center([1025.0, 0.0, -400.0])]  # v != 0
        q, mask = _assert_round_trip(robot, frames)
        assert mask.tolist() == [False, True, True, False]
        assert np.all(q[3, :, 3] != 0.0)
        # the first wrap left axis 4 at pi + 1 ulp on two of this
        # unreachable target's rows
        _assert_round_trip(robot, [frame_from_pose(
            Pose.from_degrees(1200.0, 0.0, 900.0, 0.0, 90.0, 0.0))])
        # the stacked oracle is oracle_fk, stretched rows included
        for row in q[[0, 3]].reshape(-1, 7):
            assert np.allclose(oracle_fk_rows(row),
                               oracle_fk(row[[0, 1, 2, 4, 5, 6]], row[3]),
                               rtol=0.0, atol=1e-12)

    def test_one_frame_entry_is_a_batch_of_one(self, robot):
        # backward7_all returns the batch's row bit for bit and raises
        # exactly where the batch masks, also when only the front shoulder
        # branch is degenerate
        rng = np.random.default_rng(12)
        frames = [forward6(robot, theta)[0]
                  for theta in sample_joints_canonical(robot, rng, 20)]
        frames += [forward6(robot, HOME)[0],
                   frame_with_wrist_center([0.0, 0.0, -400.0]),
                   frame_with_wrist_center([25.0, 0.0, -400.0]),
                   frame_with_wrist_center([1025.0, 0.0, -400.0])]
        q, mask = backward7_batch(robot, np.array(frames))
        assert mask.tolist() == [False] * 21 + [True, True, False]
        for frame, rows, masked in zip(frames, q, mask):
            if masked:
                with pytest.raises(DegenerateTarget):
                    backward7_all(robot, frame)
            else:
                assert np.array_equal(backward7_all(robot, frame), rows)

    def test_input_shapes(self, robot):
        rng = np.random.default_rng(7)
        frames = np.array([forward6(robot, theta)[0] for theta in
                           sample_joints_canonical(robot, rng, 6)])
        frames[5] = frame_with_wrist_center([0.0, 0.0, -400.0])
        flat, flat_mask = backward7_batch(robot, frames)
        assert flat.shape == (6, 8, 7) and flat_mask.shape == (6,)
        grid, grid_mask = backward7_batch(robot, frames.reshape(2, 3, 4, 4))
        assert grid.shape == (2, 3, 8, 7) and grid_mask.shape == (2, 3)
        assert np.array_equal(grid.reshape(6, 8, 7), flat, equal_nan=True)
        assert np.array_equal(grid_mask.ravel(), flat_mask)
        one, one_mask = backward7_batch(robot, frames[0])
        assert one.shape == (8, 7) and one_mask.shape == ()
        assert np.array_equal(one, flat[0]) and not one_mask


class TestAxisViolation:
    def test_inside_is_zero(self):
        assert axis_violation(0.0, DEG(-190), DEG(45)) == 0.0

    def test_hinge_distance(self):
        assert axis_violation(DEG(50), DEG(-190), DEG(45)) == \
            pytest.approx(DEG(5), abs=1e-12)

    def test_wrap_candidate_rescues(self):
        # 170 deg is out of [-190, 45] but its -360 shift (-190) is inside.
        assert axis_violation(DEG(170), DEG(-190), DEG(45)) == 0.0

    def test_vector_version(self, robot):
        theta = np.array([0.0, DEG(50), 0.0, 0.0, 0.0, 0.0])
        _, margins = limit_margins(theta, *robot.limits)
        violations = limit_violation(margins)
        assert violations[1] == pytest.approx(DEG(5), abs=1e-12)
        assert np.count_nonzero(violations) == 1


def _three_shift_margin(theta, lo, hi):
    """Signed margin of the best 2pi-representative, as a scalar loop."""
    best = -math.inf
    for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
        t = float(theta) + shift
        best = max(best, min(t - lo, hi - t))
    return best


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestLimitMargins:
    @pytest.fixture(scope="class")
    def angles(self, robot):
        # random canonical angles, every limit and its 2pi images exactly,
        # and the +-pi ties
        lo, hi = robot.limits
        rng = np.random.default_rng(2024)
        rows = [rng.uniform(-math.pi, math.pi, size=6) for _ in range(400)]
        rows += [rng.uniform(-3 * math.pi, 3 * math.pi, size=6)
                 for _ in range(100)]
        for edge in (lo, hi):
            for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                rows.append(edge + shift)
        rows += [np.full(6, math.pi), np.full(6, -math.pi), np.zeros(6)]
        return np.array(rows)

    def test_violation_bit_equal_to_axis_violation(self, robot, angles):
        lo, hi = robot.limits
        _, margins = limit_margins(angles, lo, hi)
        expected = [[axis_violation(float(t), lo[i], hi[i])
                     for i, t in enumerate(row)] for row in angles]
        assert np.array_equal(_bits(limit_violation(margins)),
                              _bits(expected))

    def test_margin_bit_equal_to_three_shift_loop(self, robot, angles):
        lo, hi = robot.limits
        _, margins = limit_margins(angles, lo, hi)
        expected = [[_three_shift_margin(t, lo[i], hi[i])
                     for i, t in enumerate(row)] for row in angles]
        assert np.array_equal(_bits(margins), _bits(expected))

    def test_representative_is_deepest_and_canonical_on_ties(self, robot,
                                                             angles):
        lo, hi = robot.limits
        reps, margins = limit_margins(angles, lo, hi)
        turns = (reps - angles) / (2.0 * math.pi)
        assert np.all(np.isin(turns, (-1.0, 0.0, 1.0)))
        assert np.array_equal(margins, np.minimum(reps - lo, hi - reps))
        canonical = np.minimum(angles - lo, hi - angles)
        assert np.all(reps[canonical == margins] == angles[canonical == margins])

    def test_deepest_not_first_in_limit(self):
        # axis 6 of the builtin robot spans +-350 deg: 20 deg has two
        # in-limit representatives, and the canonical one is the deeper
        reps, margins = limit_margins(np.array([DEG(20), DEG(-20)]),
                                      DEG(-350), DEG(350))
        assert np.array_equal(reps, [DEG(20), DEG(-20)])
        assert margins == pytest.approx([DEG(330)] * 2, abs=1e-12)
        # a range wider than 2pi off-centre: the shifted angle is deeper
        rep, margin = limit_margins(DEG(170), DEG(-350), DEG(175))
        assert rep == pytest.approx(DEG(-190), abs=1e-12)
        assert margin == pytest.approx(DEG(160), abs=1e-12)
