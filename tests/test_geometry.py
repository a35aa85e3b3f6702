import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlugrasp.camera import back_project, default_camera
from occlugrasp.completion import MirrorCompleter, completion_ground_truth
from occlugrasp.errors import InputError, _rng
from occlugrasp.geometry import (
    Pose,
    PointCloud,
    Quaternion,
    _compose,
    _from_matrix,
    _hamilton,
    _inverse,
    _matrix,
    _rotate,
    _rotate_x,
    orthonormal_tangents,
    quaternion_about_axis,
)
from occlugrasp.meshes import (
    TriMesh,
    _ray_triangles,
    make_box,
    make_cylinder,
    make_hex_prism,
    make_sphere,
    ray_cast,
    surface_sample,
)

from . import corpus


def ray_cast_brute(mesh: TriMesh, origin, direction) -> tuple[float, int]:
    """All-triangle nearest intersection: (t, face index) or (inf, -1)."""
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    v1 = mesh.vertices[mesh.triangles[:, 1]]
    v2 = mesh.vertices[mesh.triangles[:, 2]]
    t = _ray_triangles(np.asarray(origin, float), np.asarray(direction, float), v0, v1, v2)
    idx = int(np.argmin(t))
    return float(t[idx]), (idx if np.isfinite(t[idx]) else -1)


def rotation_equal(a: Quaternion, b: Quaternion, tol: float = 1e-9) -> bool:
    """Equality as rotations, within `tol`: q and -q compare equal."""
    dot = a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z
    return abs(abs(dot) - 1.0) <= tol


def random_quat(rng) -> Quaternion:
    v = rng.normal(size=4)
    return Quaternion(*v).normalized()


unit_quats = st.builds(
    lambda a, b, c, d: Quaternion(a, b, c, d).normalized(),
    *[st.floats(-1, 1).filter(lambda x: abs(x) > 1e-3) for _ in range(4)],
)


class TestQuaternion:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_rejected(self, bad):
        # such a rotation would turn every rotated vector into NaN
        for k in range(4):
            a = [1.0, 0.0, 0.0, 0.0]
            a[k] = bad
            with pytest.raises(InputError):
                Quaternion.from_array(a)
            with pytest.raises(InputError):
                Quaternion(*a)

    def test_non_number_component_rejected(self):
        with pytest.raises(InputError):
            Quaternion("1", 0.0, 0.0, 0.0)

    def test_identity_about_axis(self):
        q = quaternion_about_axis((0, 0, 1), 0.0)
        assert rotation_equal(q, Quaternion.identity())

    def test_half_turn(self):
        q = quaternion_about_axis((0, 0, 1), math.pi)
        assert np.allclose(q.as_array(), [0, 0, 0, 1], atol=1e-12)

    def test_quarter_turn_z(self):
        # w = cos(theta/2), z = sin(theta/2)
        q = quaternion_about_axis((0, 0, 1), math.pi / 2)
        assert np.allclose(q.as_array(), [0.70711, 0, 0, 0.70711], atol=1e-5)

    def test_rotates_perpendicular_vector_by_angle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-math.pi, math.pi)
            q = quaternion_about_axis(axis, angle)
            # test vector perpendicular to the axis
            v = np.cross(axis, rng.normal(size=3))
            v /= np.linalg.norm(v)
            got = q.rotate(v)
            cos_a = float(np.clip(np.dot(got, v), -1, 1))
            assert abs(math.acos(cos_a) - abs(angle)) < 1e-9

    def test_zero_axis_rejected(self):
        with pytest.raises(InputError):
            quaternion_about_axis((0, 0, 0), 1.0)

    @pytest.mark.parametrize("m", [np.zeros((3, 3)), np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3), -np.eye(3),
                                   np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                                   np.eye(3) + np.diag([2e-6, 0.0, 0.0])])
    def test_from_matrix_needs_a_rotation(self, m):
        # zeros gave (0, 0, 0, 1), and diag(1, 1, -1) and 2 I the identity
        with pytest.raises(InputError, match="orthonormal"):
            Quaternion.from_matrix(m)

    def test_from_matrix_accepts_a_rotation_within_tolerance(self):
        m = quaternion_about_axis((0.0, 0.0, 1.0), 0.7).as_matrix() + np.diag([5e-7, 0.0, 0.0])
        assert rotation_equal(Quaternion.from_matrix(m), quaternion_about_axis((0.0, 0.0, 1.0), 0.7), tol=1e-6)

    def test_norm_after_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = random_quat(rng)
            assert abs(q.norm() - 1.0) <= 1e-9

    def test_rotation_round_trip_1000(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            q = random_quat(rng)
            v = rng.normal(size=3)
            back = Pose(q).inverse().rotation.rotate(q.rotate(v))
            assert np.abs(back - v).max() < 1e-9

    def test_q_vs_minus_q_rotate_exactly_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = random_quat(rng)
            nq = Quaternion(-q.w, -q.x, -q.y, -q.z)
            v = rng.normal(size=3)
            assert np.array_equal(q.rotate(v), nq.rotate(v))

    def test_canonical_w_nonnegative(self):
        q = Quaternion(-0.5, 0.5, 0.5, -0.5)
        c = q.canonical()
        assert c.w >= 0
        assert rotation_equal(q, c)

    @given(unit_quats, unit_quats)
    @settings(max_examples=50)
    def test_matrix_round_trip(self, a, b):
        ab = reference_quaternion_mul(a, b)
        back = Quaternion.from_matrix(ab.as_matrix())
        assert rotation_equal(back, ab, tol=1e-9)

    def test_matrix_matches_rotate(self):
        rng = np.random.default_rng(5)
        q = random_quat(rng)
        v = rng.normal(size=3)
        assert np.allclose(q.as_matrix() @ v, q.rotate(v), atol=1e-12)


def reference_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rotation formula with `np.cross`, row by row: q (n, 4) as (w, x, y, z), v (n, 3)."""
    u = q[:, 1:]
    uv = np.cross(u, v)
    uuv = np.cross(u, uv)
    return v + 2.0 * (q[:, :1] * uv + uuv)


def reference_orthonormal_tangents(axis):
    a = np.asarray(axis, dtype=float)
    helper = np.array([0.0, 0.0, 1.0]) if abs(a[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(a, helper)
    u /= np.linalg.norm(u)
    v = np.cross(a, u)
    return u, v


def random_pairs(rng, n):
    """n unit quaternions and n vectors spanning nine orders of magnitude, plus special rows."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-6, 4, size=(n, 1))
    q[:4] = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.5, -0.5]]
    v[:8] = [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0], [1e300, -1e300, 1.0], [5e-324, 0.0, -5e-324], [-1.0, 2.0, -3.0]]
    return q, v


class TestRotateMatchesCross:
    """`Quaternion.rotate` equals the `np.cross` formula bit for bit."""

    def test_single_vectors(self):
        q, v = random_pairs(np.random.default_rng(21), 60_000)
        expected = reference_rotate(q, v)
        got = np.array([Quaternion(*qi).rotate(vi) for qi, vi in zip(q.tolist(), v)])
        assert got.tobytes() == expected.tobytes()

    def test_stacked_vectors(self):
        rng = np.random.default_rng(22)
        q, v = random_pairs(rng, 800)
        for qi in q:
            vs = np.vstack([v[:8], rng.normal(size=(42, 3)) * 10.0 ** rng.integers(-6, 4, size=(42, 1))])
            got = Quaternion(*qi).rotate(vs)
            assert got.shape == vs.shape and got.flags.c_contiguous
            assert got.tobytes() == reference_rotate(np.tile(qi, (len(vs), 1)), vs).tobytes()

    def test_list_input_and_shapes(self):
        q, v = random_pairs(np.random.default_rng(23), 100)
        for qi, vi in zip(q, v):
            quat = Quaternion(*qi)
            expected = reference_rotate(qi[None], vi[None])
            assert quat.rotate(vi.tolist()).tobytes() == expected[0].tobytes()
            assert quat.rotate([vi.tolist()]).tobytes() == expected.tobytes()
        quat = Quaternion(*q[5])
        assert quat.rotate(np.zeros((0, 3))).shape == (0, 3)
        ints = [[1, 2, 3], [4, 5, 6]]
        assert quat.rotate(ints).tobytes() == reference_rotate(np.tile(q[5], (2, 1)), np.array(ints, float)).tobytes()

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (-2.0, 0.0, 0.0), (0.6, 0.8, 2e-3)])
    def test_orthonormal_tangents_need_a_unit_axis(self, axis):
        # the zero axis gave NaN, and (0, 0, 2) a v of (-2, 0, 0)
        with pytest.raises(InputError, match="unit length"):
            orthonormal_tangents(axis)

    def test_orthonormal_tangents(self):
        rng = np.random.default_rng(24)
        axes = rng.normal(size=(2000, 3))
        axes[:1000, :2] *= 0.05  # near z: the other helper vector
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        for a in axes:
            got, expected = orthonormal_tangents(a), reference_orthonormal_tangents(a)
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()


# The bodies of `Quaternion.__mul__`, `Quaternion.inverse`, `Pose.__mul__`,
# `Pose.inverse`, `Quaternion.as_matrix` and `Quaternion.from_matrix` before
# they were built on `_hamilton`, `_compose`, `_inverse`, `_matrix` and
# `_from_matrix`, verbatim; the two products and `Quaternion.inverse` have
# since left the package, as nothing in it called them.


def reference_quaternion_mul(self: Quaternion, other: Quaternion) -> Quaternion:
    """Hamilton product; (a * b).rotate(v) == a.rotate(b.rotate(v))."""
    w1, x1, y1, z1 = self.w, self.x, self.y, self.z
    w2, x2, y2, z2 = other.w, other.x, other.y, other.z
    return Quaternion(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def reference_quaternion_inverse(self: Quaternion) -> Quaternion:
    # unit quaternion: inverse == conjugate
    return Quaternion(self.w, -self.x, -self.y, -self.z)


def reference_pose_mul(self: Pose, other: Pose) -> Pose:
    """Compose: (a * b).transform(p) == a.transform(b.transform(p))."""
    return Pose(reference_quaternion_mul(self.rotation, other.rotation),
                self.rotation.rotate(other.translation) + self.translation)


def reference_pose_inverse(self: Pose) -> Pose:
    rinv = reference_quaternion_inverse(self.rotation)
    return Pose(rinv, -rinv.rotate(self.translation))


def reference_as_matrix(self: Quaternion) -> np.ndarray:
    w, x, y, z = self.w, self.x, self.y, self.z
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ],
        dtype=float,
    )


def reference_from_matrix(m) -> Quaternion:
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = (0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s)
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = ((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = ((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s)
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = ((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s)
    return Quaternion(*q).normalized()


def from_matrix_branch(m) -> int:
    """Which of the four branches of `reference_from_matrix` a matrix takes."""
    if np.trace(m) > 0.0:
        return 0
    if m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        return 1
    return 2 if m[1, 1] > m[2, 2] else 3


def quaternion_bits(q: Quaternion) -> bytes:
    return np.array([q.w, q.x, q.y, q.z]).tobytes()


def pose_bits(pose: Pose) -> bytes:
    """The exact components of a pose; -0.0 and 0.0 differ."""
    r = pose.rotation
    return np.array([r.w, r.x, r.y, r.z, *pose.translation]).tobytes()


def random_poses(rng, n) -> list[Pose]:
    """n poses with translations over nine orders of magnitude, plus special rows."""
    q, _ = random_pairs(rng, n)
    t = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-6, 3, size=(n, 1))
    t[:4] = [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, -2.0, 3.0], [5e-324, 0.0, -5e-324]]
    return [Pose(Quaternion(*qi), ti) for qi, ti in zip(q.tolist(), t)]


def parts(pose: Pose) -> tuple:
    r = pose.rotation
    return (r.w, r.x, r.y, r.z), pose.translation.tolist()


def stacked(poses: list[Pose]) -> tuple:
    """The components of `poses` as (m, 1) arrays."""
    q = np.array([[p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z] for p in poses])
    t = np.array([p.translation for p in poses])
    return tuple(q.T[:, :, None]), tuple(t.T[:, :, None])


def row_pose(parts: tuple, i: int) -> Pose:
    q, t = parts
    return Pose(Quaternion(*(float(c[i, 0]) for c in q)), np.array([c[i, 0] for c in t]))


def compose(a: Pose, b: Pose) -> Pose:
    """The pose `_compose` makes of `a` and `b`."""
    q, t = _compose(parts(a), b)
    return Pose(Quaternion(*q), np.array(t))


class TestComponentFunctions:
    """`_hamilton`, `_compose`, `_inverse`, `_matrix` and `_from_matrix` give
    the bits of the reference bodies above, on float components and on (m, 1)
    components ((m,) for `_from_matrix`), and so do the `Pose` and
    `Quaternion` methods built on them."""

    def test_hamilton(self):
        rng = np.random.default_rng(30)
        a, b = random_pairs(rng, 400)[0], random_pairs(rng, 400)[0][::-1]
        pairs = list(zip(a.tolist(), b.tolist()))
        want = [quaternion_bits(reference_quaternion_mul(Quaternion(*qa), Quaternion(*qb))) for qa, qb in pairs]
        assert [quaternion_bits(Quaternion(*_hamilton(qa, qb))) for qa, qb in pairs] == want
        got = _hamilton(tuple(a.T[:, :, None]), tuple(b.T[:, :, None]))
        assert [quaternion_bits(Quaternion(*(float(c[i, 0]) for c in got))) for i in range(len(pairs))] == want

    def test_compose(self):
        rng = np.random.default_rng(31)
        poses = random_poses(rng, 400)
        others = random_poses(rng, 400)[::-1]
        for a, b in zip(poses, others):
            want = pose_bits(reference_pose_mul(a, b))
            assert pose_bits(compose(a, b)) == want
        b = others[7]
        got = _compose(stacked(poses), b)
        for i, a in enumerate(poses):
            assert pose_bits(row_pose(got, i)) == pose_bits(reference_pose_mul(a, b))

    def test_inverse(self):
        poses = random_poses(np.random.default_rng(32), 400)
        for p in poses:
            want = pose_bits(reference_pose_inverse(p))
            q, t = _inverse(*parts(p))
            assert pose_bits(Pose(Quaternion(*q), np.array(t))) == want
            assert pose_bits(p.inverse()) == want
        got = _inverse(*stacked(poses))
        for i, p in enumerate(poses):
            assert pose_bits(row_pose(got, i)) == pose_bits(reference_pose_inverse(p))

    def test_matrix(self):
        poses = random_poses(np.random.default_rng(33), 400)
        for p in poses:
            want = reference_as_matrix(p.rotation).tobytes()
            assert np.array(_matrix(parts(p)[0]), dtype=float).tobytes() == want
            assert p.rotation.as_matrix().tobytes() == want
        rows = _matrix(stacked(poses)[0])
        for i, p in enumerate(poses):
            got = np.array([[c[i, 0] for c in row] for row in rows])
            assert got.tobytes() == reference_as_matrix(p.rotation).tobytes()

    def test_from_matrix(self):
        rng = np.random.default_rng(34)
        q, _ = random_pairs(rng, 20_000)
        exact = [reference_as_matrix(Quaternion(*qi)) for qi in q.tolist()]
        # near-orthonormal matrices, as frames built from rounded axes are
        noisy = [m + rng.normal(scale=1e-9, size=(3, 3)) for m in exact[:500]]
        # one per branch, then ties between the diagonal entries: 180-degree turns
        # about (1, 1, 0), (0, 1, 1), (1, 0, 1) and (1, 1, 1)
        special = [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0]),
                   np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
                   np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                   np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]),
                   np.array([[-1.0, 2.0, 2.0], [2.0, -1.0, 2.0], [2.0, 2.0, -1.0]]) / 3.0]
        mats = special + noisy + exact
        assert collections.Counter(map(from_matrix_branch, special)) == {0: 1, 1: 1, 2: 2, 3: 4}
        assert set(map(from_matrix_branch, exact)) == {0, 1, 2, 3}
        want = [quaternion_bits(reference_from_matrix(m)) for m in mats]
        assert [quaternion_bits(Quaternion.from_matrix(m)) for m in mats[:3000]] == want[:3000]
        got = _from_matrix(np.transpose(mats, (1, 2, 0)))
        assert [quaternion_bits(Quaternion(*(float(c[i]) for c in got))) for i in range(len(mats))] == want

    def test_rotate_x(self):
        q, v = random_pairs(np.random.default_rng(35), 5000)
        want = reference_rotate(q, v)[:, 0]
        assert _rotate_x(tuple(q.T), tuple(v.T)).tobytes() == want.tobytes()
        assert _rotate(tuple(q.T), tuple(v.T))[0].tobytes() == want.tobytes()
        for qi, vi in zip(q[:200].tolist(), v[:200].tolist()):
            assert _rotate_x(qi, vi) == _rotate(qi, vi)[0]


class TestPose:
    def test_pose_owns_its_translation(self):
        # keyed by identity in the render and grasp slots, a pose must not change
        t = np.array([0.1, 0.2, 0.3])
        pose = Pose(Quaternion.identity(), t)
        t[0] = 9.0
        assert pose.translation.tolist() == [0.1, 0.2, 0.3]
        assert not pose.translation.flags.writeable

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = Pose(random_quat(rng), rng.normal(size=3))
            ident = compose(p, p.inverse())
            assert rotation_equal(ident.rotation, Quaternion.identity(), tol=1e-9)
            assert np.linalg.norm(ident.translation) < 1e-9

    def test_composition_associative(self):
        rng = np.random.default_rng(4)
        a, b, c = (Pose(random_quat(rng), rng.normal(size=3)) for _ in range(3))
        p1 = compose(compose(a, b), c)
        p2 = compose(a, compose(b, c))
        v = rng.normal(size=3)
        assert np.allclose(p1.transform(v), p2.transform(v), atol=1e-12)

    def test_equality(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            q, t = random_quat(rng), rng.normal(size=3)
            p = Pose(q, t)
            assert p == Pose(Quaternion(q.w, q.x, q.y, q.z), t.copy())
            assert p == Pose(Quaternion(-q.w, -q.x, -q.y, -q.z), t)
            assert p == Pose.from_7floats(p.as_7floats())
            assert p != Pose(q, t + [0.0, 0.0, 1e-3])
            assert p != Pose(q, np.nextafter(t, np.inf))
            assert p != Pose(Quaternion(q.w, -q.x, -q.y, -q.z), t)
            assert p != p.as_7floats()
        assert Pose.identity() == Pose.identity()

    def test_equal_poses_hash_equal(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            q, t = random_quat(rng), rng.normal(size=3)
            p = Pose(q, t)
            equal = [Pose(Quaternion(q.w, q.x, q.y, q.z), t.copy()),
                     Pose(Quaternion(-q.w, -q.x, -q.y, -q.z), t),
                     Pose.from_7floats(p.as_7floats())]
            for other in equal:
                assert other == p and hash(other) == hash(p)
            assert len({p, *equal}) == 1
        zero = Pose.identity()
        assert Pose(Quaternion(-1.0, -0.0, -0.0, -0.0), -np.zeros(3)) == zero
        assert hash(Pose(Quaternion(-1.0, -0.0, -0.0, -0.0), -np.zeros(3))) == hash(zero)

    def test_7floats_round_trip(self):
        rng = np.random.default_rng(9)
        p = Pose(random_quat(rng), rng.normal(size=3))
        back = Pose.from_7floats(p.as_7floats())
        assert rotation_equal(back.rotation, p.rotation)
        assert np.allclose(back.translation, p.translation)

    @pytest.mark.parametrize("translation", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf],
                                             [0.0, 0.0], [0.0] * 4, ["x", 0.0, 0.0], None])
    def test_translation_must_be_three_finite_numbers(self, translation):
        with pytest.raises(InputError, match="translation"):
            Pose(Quaternion.identity(), translation)

    @pytest.mark.parametrize("rotation", [(1.0, 0.0, 0.0, 0.0), np.array([1.0, 0.0, 0.0, 0.0]), np.eye(3), None, "identity"])
    def test_rotation_must_be_a_quaternion(self, rotation):
        with pytest.raises(InputError, match="Quaternion"):
            Pose(rotation, np.zeros(3))

    @pytest.mark.parametrize("values", [[1.0, 0.0, 0.0, 0.0, 0.1, 0.1], [1.0] * 8, []])
    def test_7floats_needs_seven(self, values):
        with pytest.raises(InputError, match="7 floats"):
            Pose.from_7floats(values)

    def test_7floats_non_finite_translation_rejected(self):
        with pytest.raises(InputError, match="finite"):
            Pose.from_7floats([1.0, 0.0, 0.0, 0.0, math.nan, 0.1, 0.0])


class TestPointCloud:
    def test_rejects_nan(self):
        with pytest.raises(InputError):
            PointCloud(np.array([[0.0, np.nan, 0.0]]), np.array([[0.0, 0.0, 1.0]]))

    def test_rejects_non_unit_normals(self):
        with pytest.raises(InputError):
            PointCloud(np.zeros((1, 3)), np.array([[2.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("normals", [None, np.zeros((0, 3)), np.tile([0.0, 0.0, 1.0], (3, 1)), [0.0, 0.0, 1.0, 0.0],
                                         [[0.0, math.nan, 1.0], [0.0, 0.0, 1.0]]])
    def test_every_point_needs_a_unit_normal(self, normals):
        with pytest.raises(InputError, match="normals"):
            PointCloud(np.zeros((2, 3)), normals)

    @pytest.mark.parametrize("points, normals", [
        ([0.0, 1.0], [0.0, 1.0]),
        ([[0.0, 0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        ([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0], [1.0]]),
        ([["a", "b", "c"]], [[0.0, 0.0, 1.0]]),
        (object(), [[0.0, 0.0, 1.0]]),
    ], ids=["two_numbers", "ragged_points", "ragged_normals", "strings", "object"])
    def test_points_and_normals_must_be_arrays_of_numbers(self, points, normals):
        # each raised a bare ValueError or TypeError from the conversion
        with pytest.raises(InputError, match="arrays of numbers"):
            PointCloud(points, normals)

    def test_empty_cloud_has_empty_normals(self):
        cloud = PointCloud.empty()
        assert len(cloud) == 0 and cloud.normals.shape == (0, 3)
        moved = cloud.transformed(Pose(quaternion_about_axis((0.0, 0.0, 1.0), 0.3), (1.0, 2.0, 3.0)))
        assert moved.points.shape == moved.normals.shape == (0, 3)

    @pytest.mark.parametrize("shape", [(4, 3)], ids=["rows"])
    def test_cloud_owns_its_arrays(self, shape):
        # a view of the caller's array would let a later write change the cloud
        points = np.arange(12, dtype=float).reshape(shape)
        normals = np.tile([0.0, 0.0, 1.0], 4).reshape(shape)
        cloud = PointCloud(points, normals)
        points[0] = 5.0
        normals[0] = 0.0
        assert np.array_equal(cloud.points, np.arange(12, dtype=float).reshape(4, 3))
        assert np.array_equal(cloud.normals, np.tile([0.0, 0.0, 1.0], (4, 1)))
        assert not cloud.points.flags.writeable and not cloud.normals.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 6), (12,)], ids=["rows_of_six", "flat"])
    def test_arrays_of_another_layout_rejected(self, shape):
        # each was reshaped to 4 points; `TriMesh` refuses the same layouts
        points = np.arange(12, dtype=float).reshape(shape)
        normals = np.tile([0.0, 0.0, 1.0], 4).reshape(shape)
        with pytest.raises(InputError, match="arrays of numbers"):
            PointCloud(points, normals)


def package_made_clouds():
    """The clouds package code computes, of the `episode` and dense corpora at
    640x480: each target's partial and mirror-completed cloud, its ground truth,
    and the surface sample that truth moves, with each producer's name."""
    cam = default_camera()
    for count_range, seeds in ((corpus.EPISODE_OBJECTS, range(0, 16, 5)), (corpus.DENSE_OBJECTS, range(0, 40, 13))):
        for seed in seeds:
            scene = corpus.scene(count_range, seed)
            partial = back_project(corpus.frame(count_range, seed), scene.target_index)
            yield "back_project", partial
            yield "MirrorCompleter", MirrorCompleter()(partial, scene, cam)
            yield "surface_sample", surface_sample(scene.target.mesh, 2048, seed)
            yield "transformed", completion_ground_truth(scene)


class TestPackageMadeClouds:
    def test_equal_to_the_checked_constructor(self):
        # each cloud skipped the copy and the checks of `PointCloud(...)`, which
        # the same arrays pass, giving the same bytes
        seen = collections.Counter()
        for producer, cloud in package_made_clouds():
            checked = PointCloud(cloud.points, cloud.normals)
            for got, want in ((cloud.points, checked.points), (cloud.normals, checked.normals)):
                assert got.dtype == np.float64 and got.flags.c_contiguous and not got.flags.writeable, producer
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), producer
            seen[producer] += len(cloud) > 0
        assert seen == dict.fromkeys(("back_project", "MirrorCompleter", "surface_sample", "transformed"), 8)

    def test_computed_cloud_holds_the_arrays_it_is_given(self):
        points, normals = np.zeros((4, 3)), np.tile([0.0, 0.0, 1.0], (4, 1))
        cloud = PointCloud._computed(points, normals)
        assert cloud.points is points and cloud.normals is normals
        assert not points.flags.writeable and not normals.flags.writeable

    def test_transformed_keeps_the_normals_unit(self):
        cloud = PointCloud([[0.1, 0.2, 0.3]], [[0.0, 0.0, 1.0]])
        with pytest.raises(InputError, match="unit quaternion"):
            cloud.transformed(Pose(Quaternion(2.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        with pytest.raises(InputError, match="pose must be a Pose"):
            cloud.transformed("pose")
        moved = cloud.transformed(Pose(Quaternion(0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
        assert moved.points.tolist() == [[1.1, -0.2, -0.3]] and moved.normals.tolist() == [[0.0, 0.0, -1.0]]


class TestPrimitives:
    @pytest.mark.parametrize(
        "mesh",
        [make_box(0.05, 0.07, 0.1), make_cylinder(0.03, 0.1), make_sphere(0.03), make_hex_prism(0.04, 0.08)],
        ids=["box", "cylinder", "sphere", "hexprism"],
    )
    def test_watertight_and_resting(self, mesh):
        assert mesh.is_closed_outward
        assert abs(mesh.vertices[:, 2].min()) < 1e-9

    @pytest.mark.parametrize(
        "triangles",
        [
            make_box(0.05, 0.07, 0.1).triangles[1:],                          # open: one face missing
            make_box(0.05, 0.07, 0.1).triangles[:, ::-1],                     # flipped: negative volume
            np.vstack([make_box(0.05, 0.07, 0.1).triangles, [[0, 2, 1]]]),    # a face listed twice
            np.zeros((0, 3), dtype=int),                                      # no faces
        ],
        ids=["open", "flipped", "duplicated_face", "empty"],
    )
    def test_not_closed_outward(self, triangles):
        assert not TriMesh(make_box(0.05, 0.07, 0.1).vertices, triangles).is_closed_outward

    def test_triangle_indices_in_range(self):
        with pytest.raises(InputError):
            TriMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vertices_finite(self, bad):
        # a NaN vertex made `surface_sample` raise a bare ValueError, and `render` and `ray_cast` drop the mesh
        vertices = np.eye(3)
        vertices[1, 2] = bad
        with pytest.raises(InputError, match="finite"):
            TriMesh(vertices, [[0, 1, 2]])

    @pytest.mark.parametrize("triangles", [[[0, 1, 2.5]], [[0, 1, np.nan]], [[0, 1, np.inf]]])
    def test_triangle_indices_whole_numbers(self, triangles):
        # [[0, 1, 2.5]] was truncated to [[0, 1, 2]]
        with pytest.raises(InputError):
            TriMesh(np.eye(3), triangles)
        assert TriMesh(np.eye(3), [[0.0, 1.0, 2.0]]).triangles.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("vertices", [[[0, 1]], [[0, 1, 2], [3, 4]], [[0, 1, "a"]], "abc", None, {"x": 1}])
    def test_vertices_are_numbers_in_threes(self, vertices):
        with pytest.raises(InputError, match="numbers"):
            TriMesh(vertices, np.zeros((0, 3)))

    @pytest.mark.parametrize("vertices, triangles", [
        (np.arange(12.0).reshape(2, 6), [[0, 1, 2]]), (np.arange(9.0), [[0, 1, 2]]),
        (np.eye(3)[None], [[0, 1, 2]]), (np.eye(3), [0, 1, 2]), (np.eye(3), [[0, 1, 2, 0, 1, 2]])],
        ids=["rows_of_six", "flat_vertices", "three_dims", "flat_triangles", "triangle_rows_of_six"])
    def test_arrays_of_another_layout_rejected(self, vertices, triangles):
        # a (2, 6) array was reshaped to 4 vertices and built a mesh
        with pytest.raises(InputError, match="numbers"):
            TriMesh(vertices, triangles)

    def test_mesh_owns_its_arrays(self):
        # the render and grasp slots key meshes by identity, so no caller's array may change one
        box = make_box(0.05, 0.07, 0.1)
        vertices, triangles = box.vertices.copy(), box.triangles.astype(np.int32)
        mesh = TriMesh(vertices, triangles)
        vertices[0] = 9.0
        triangles[0] = 0
        assert np.array_equal(mesh.vertices, box.vertices) and np.array_equal(mesh.triangles, box.triangles)
        assert not mesh.vertices.flags.writeable and not mesh.triangles.flags.writeable


class TestRayCast:
    def cube_at_origin(self):
        # unit cube centered at the origin
        m = make_box(1.0, 1.0, 1.0)
        return m, Pose(Quaternion.identity(), np.array([0.0, 0.0, -0.5]))

    def test_axis_aligned_hit(self):
        mesh, pose = self.cube_at_origin()
        hit = ray_cast([(mesh, pose)], (0, 0, 2), (0, 0, -1))
        assert hit is not None
        assert abs(hit.distance - 1.5) < 1e-9
        assert hit.instance_index == 0

    def test_miss_returns_none(self):
        mesh, pose = self.cube_at_origin()
        assert ray_cast([(mesh, pose)], (0, 0, 2), (0, 0, 1)) is None

    def test_non_unit_direction_rejected(self):
        mesh, pose = self.cube_at_origin()
        with pytest.raises(InputError):
            ray_cast([(mesh, pose)], (0, 0, 2), (0, 0, -2))

    @pytest.mark.parametrize(
        "origin, direction",
        [((np.nan, 0, 2), (0, 0, -1)), ((0, np.inf, 2), (0, 0, -1)), ((0, 0, 2), (np.nan, 0, -1)),
         ((0, 0), (0, 0, -1))],
        ids=["nan_origin", "inf_origin", "nan_direction", "short_origin"],
    )
    def test_bad_ray_rejected(self, origin, direction):
        mesh, pose = self.cube_at_origin()
        with pytest.raises(InputError):
            ray_cast([(mesh, pose)], origin, direction)

    @pytest.mark.parametrize("mesh_set", ["ab", 5, [], [("m", Pose.identity())], [(make_box(1.0, 1.0, 1.0), None)],
                                          [make_box(1.0, 1.0, 1.0)]])
    def test_mesh_set_must_hold_meshes_and_poses(self, mesh_set):
        # "ab" raised a bare ValueError, and ("m", pose) a bare AttributeError
        with pytest.raises(InputError, match="mesh_set"):
            ray_cast(mesh_set, (0, 0, 2), (0, 0, -1))

    def test_stacked_cubes_nearest_instance(self):
        cube = make_box(1.0, 1.0, 1.0)
        lower = Pose(Quaternion.identity(), np.zeros(3))
        upper = Pose(Quaternion.identity(), np.array([0.0, 0.0, 1.0]))
        hit = ray_cast([(cube, lower), (cube, upper)], (0.1, 0.1, 5.0), (0, 0, -1))
        assert hit is not None
        assert hit.instance_index == 1
        assert abs(hit.distance - 3.0) < 1e-9

    def test_matches_brute_force(self):
        # each ray against one mesh under a random pose, then with a small box
        # placed nearer or farther along it, listed before or after the mesh
        rng = np.random.default_rng(21)
        meshes = [make_sphere(0.05), make_box(0.06, 0.04, 0.1), make_cylinder(0.03, 0.08), make_hex_prism(0.04, 0.05)]
        small = make_box(0.01, 0.01, 0.01)
        seen = collections.Counter()
        for k in range(400):
            mesh = meshes[k % 4]
            lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
            kind = ("inside", "aimed", "away", "zeros", "random")[k % 5]
            if kind == "zeros":
                # identity rotation, so the mesh frame keeps the zero components
                pose = Pose(Quaternion.identity(), rng.uniform(-0.1, 0.1, size=3))
                o_local = rng.uniform(lo - 0.1, hi + 0.1)
                d_local = rng.uniform(lo, hi) - o_local
                d_local[rng.choice(3, size=1 + k % 2, replace=False)] = 0.0
            else:
                pose = Pose(random_quat(rng), rng.uniform(-0.1, 0.1, size=3))
                o_local = rng.uniform(lo, hi) if kind == "inside" else rng.uniform(lo - 0.1, hi + 0.1)
                if kind == "aimed":
                    d_local = rng.uniform(lo, hi) - o_local
                elif kind == "away":
                    o_local = hi + rng.uniform(0.01, 0.1, size=3)
                    d_local = o_local - lo + rng.uniform(0.0, 0.01, size=3)
                else:
                    d_local = rng.normal(size=3)
            origin = pose.transform(o_local)
            d = pose.rotation.rotate(d_local / np.linalg.norm(d_local))
            d /= np.linalg.norm(d)
            t, _ = self.brute_hit(mesh, pose, origin, d)
            seen[kind, math.isfinite(t)] += 1
            self.assert_matches_brute_force([(mesh, pose)], origin, d)
            if math.isfinite(t):
                for along, order in ((0.5 * t, 1), (t + 0.02, -1)):
                    center = origin + along * d
                    small_pose = Pose(Quaternion.identity(), center - np.array([0.0, 0.0, 0.005]))
                    mesh_set = [(mesh, pose), (small, small_pose)][::order]
                    hit = self.assert_matches_brute_force(mesh_set, origin, d)
                    seen["small box", mesh_set[hit.instance_index][0] is small] += 1
        for kind in ("inside", "aimed", "zeros", "random"):
            assert seen[kind, True] > 0 and (kind == "inside" or seen[kind, False] > 0), kind
        assert seen["away", True] == 0 and seen["away", False] == 80
        assert seen["small box", True] > 0 and seen["small box", False] > 0

    @staticmethod
    def brute_hit(mesh, pose, origin, d):
        inv = pose.inverse()
        return ray_cast_brute(mesh, inv.transform(origin), inv.rotation.rotate(d))

    def assert_matches_brute_force(self, mesh_set, origin, d):
        """`ray_cast` equals the nearest all-triangle hit, the lower index on a tie."""
        best = (math.inf, -1, -1)
        for i, (mesh, pose) in enumerate(mesh_set):
            t, face = self.brute_hit(mesh, pose, origin, d)
            if t < best[0]:
                best = (t, i, face)
        hit = ray_cast(mesh_set, origin, d)
        if math.isinf(best[0]):
            assert hit is None
            return None
        t, i, _ = best
        assert hit is not None
        assert (hit.distance, hit.instance_index) == (t, i)
        return hit

    def test_mesh_without_triangles_is_a_miss(self):
        empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3)))
        mesh, pose = self.cube_at_origin()
        assert ray_cast([(empty, Pose.identity())], (0, 0, 2), (0, 0, -1)) is None
        hit = ray_cast([(empty, Pose.identity()), (mesh, pose)], (0, 0, 2), (0, 0, -1))
        assert hit.instance_index == 1 and hit.distance == 1.5

    def test_ray_cast_consistency_reprojection(self):
        rng = np.random.default_rng(33)
        mesh = make_hex_prism(0.05, 0.12)
        pose = Pose(quaternion_about_axis((0, 0, 1), 0.7), np.array([0.02, -0.01, 0.0]))
        for _ in range(200):
            origin = np.array([0.4, 0.0, 0.2]) + rng.normal(scale=0.05, size=3)
            d = np.array([0.0, 0.0, 0.05]) - origin
            d /= np.linalg.norm(d)
            hit = ray_cast([(mesh, pose)], origin, d)
            if hit is None:
                continue
            p = origin + hit.distance * d
            again = ray_cast([(mesh, pose)], origin, d)
            assert abs(np.linalg.norm(p - origin) - again.distance) < 1e-7


class TestSurfaceSample:
    def test_cube_face_shares(self):
        mesh = make_box(0.08, 0.08, 0.08)
        cloud = surface_sample(mesh, 6000, seed=12)
        # bin points by nearest face of the cube
        p = cloud.points.copy()
        p[:, 2] -= 0.04  # center the cube
        dists = np.stack(
            [
                0.04 - p[:, 0], p[:, 0] + 0.04,
                0.04 - p[:, 1], p[:, 1] + 0.04,
                0.04 - p[:, 2], p[:, 2] + 0.04,
            ]
        )
        face = np.argmin(np.abs(dists), axis=0)
        shares = np.bincount(face, minlength=6) / 6000
        assert np.abs(shares - 1 / 6).max() < 0.03 * (1 / 6)

    def test_points_on_surface(self):
        mesh = make_box(0.05, 0.06, 0.07)
        cloud = surface_sample(mesh, 500, seed=1)
        # every sample lies on one of the box planes
        x, y, z = cloud.points.T
        on = (
            (np.abs(np.abs(x) - 0.025) < 1e-9)
            | (np.abs(np.abs(y) - 0.03) < 1e-9)
            | (np.abs(z) < 1e-9)
            | (np.abs(z - 0.07) < 1e-9)
        )
        assert on.all()

    def test_single_point(self):
        cloud = surface_sample(make_box(0.05, 0.05, 0.05), 1, seed=4)
        assert len(cloud) == 1

    def test_deterministic(self):
        mesh = make_cylinder(0.02, 0.09)
        a = surface_sample(mesh, 333, seed=99)
        b = surface_sample(mesh, 333, seed=99)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)

    @pytest.mark.parametrize("count", [1.5, 0, True, "10"])
    def test_count_must_be_a_positive_integer(self, count):
        with pytest.raises(InputError, match="count"):
            surface_sample(make_box(0.05, 0.05, 0.05), count, seed=0)

    @pytest.mark.parametrize("mesh", ["m", None, np.zeros((8, 3))])
    def test_mesh_must_be_a_trimesh(self, mesh):
        # "m" raised a bare AttributeError: no attribute 'face_areas'
        with pytest.raises(InputError, match="mesh"):
            surface_sample(mesh, 10, seed=1)

    def test_degenerate_mesh_rejected(self):
        flat = TriMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
        with pytest.raises(InputError):
            surface_sample(flat, 10, seed=0)


# ---------------------------------------------------------------------------
# reference sampler: `surface_sample` as a loop over the faces, before the
# samples were built in one array pass; the two must give the same bytes


def reference_surface_sample(mesh: TriMesh, count: int, seed: int) -> PointCloud:
    areas = mesh.face_areas
    total = float(areas.sum())
    quota = areas / total * count
    base = np.floor(quota).astype(int)
    rem = count - int(base.sum())
    if rem > 0:
        frac = quota - base
        extra = np.argsort(-frac, kind="stable")[:rem]
        base[extra] += 1
    rng = _rng(seed)
    pts = np.empty((count, 3))
    nrm = np.empty((count, 3))
    pos = 0
    tv = mesh.vertices[mesh.triangles]
    for f in np.nonzero(base)[0]:
        k = int(base[f])
        r1 = np.sqrt(rng.random(k))
        r2 = rng.random(k)
        a, b, c = tv[f, 0], tv[f, 1], tv[f, 2]
        p = (1 - r1)[:, None] * a + (r1 * (1 - r2))[:, None] * b + (r1 * r2)[:, None] * c
        pts[pos : pos + k] = p
        nrm[pos : pos + k] = mesh.face_normals[f]
        pos += k
    return PointCloud(pts, nrm)


def assert_same_samples(mesh: TriMesh, count: int, seed: int) -> None:
    got, want = surface_sample(mesh, count, seed), reference_surface_sample(mesh, count, seed)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.normals.tobytes() == want.normals.tobytes()


class TestSurfaceSampleMatchesReference:
    # the three uses in the package: contact samples, `completion_ground_truth`
    # and `label_pair`, the last two on the seeds of two scenes
    @pytest.mark.parametrize("count, seed", [(2048, 0x5EED), (2048, 0 ^ 0x6E0C), (2048, 1 ^ 0x6E0C),
                                             (1024, 0 ^ 0x9E3779B9), (1024, 1 ^ 0x9E3779B9)],
                             ids=["contacts", "ground_truth_0", "ground_truth_1", "label_pair_0", "label_pair_1"])
    def test_default_catalog(self, count, seed):
        for obj in corpus.catalog():
            assert_same_samples(obj.mesh, count, seed)

    @pytest.mark.parametrize("count", [1, 2, 17, 351])
    def test_fewer_samples_than_faces(self, count):
        # the sphere has 352 faces, so some faces get no sample
        sphere = make_sphere(0.03)
        assert len(sphere.triangles) == 352
        assert_same_samples(sphere, count, seed=8)

    def test_zero_area_faces(self):
        # a degenerate face first, in the middle and last, each with no sample
        box = make_box(0.05, 0.06, 0.07)
        triangles = np.vstack([[[0, 0, 1]], box.triangles[:6], [[2, 2, 2]], box.triangles[6:], [[3, 4, 3]]])
        mesh = TriMesh(box.vertices, triangles)
        assert np.flatnonzero(mesh.face_areas == 0.0).tolist() == [0, 7, 14]
        for count in (1, 5, 12, 500):
            assert_same_samples(mesh, count, seed=count)
