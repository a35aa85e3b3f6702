"""Rigid-body math: unit quaternions, poses, and point clouds.

All rotations are stored as unit quaternions in (w, x, y, z) order. A
quaternion and its negation describe the same rotation; `canonical()`
picks the w >= 0 representative for hashing and serialization.

The functions on component tuples, `_cross` to `_from_matrix`, are the one
implementation that `Quaternion`, `Pose` and the grasp oracle share, on floats
or on arrays of many poses, so all of them get the same bits.

A cloud owns its KD-tree: `_nearest_distances`, the one tree query of
completion, its metrics and `splat`, builds it at the cloud's first query and
keeps it with the cloud, so every later query of that cloud reuses it. The
first tree loads `scipy.spatial`, never the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, _check_type, _finite_array, _finite_real, _unchecked


def _cross(a, b) -> tuple:
    """Cross product of two 3-vectors given as component triples.

    The components may be floats or arrays that broadcast. Each component is
    `a1 * b2 - a2 * b1` and so on, the operation order of `np.cross`, so the
    result is bit-identical to it.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _hamilton(a, b) -> tuple:
    """Hamilton product of (w, x, y, z) component tuples of floats or arrays."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _flips_sign(w, x, y, z) -> bool:
    """Whether the sign-canonical representative of (w, x, y, z) is its
    negation: the first nonzero component is negative."""
    for c in (w, x, y, z):
        if c > 0.0:
            return False
        if c < 0.0:
            return True
    return False


def _rotate(q, v) -> tuple:
    """v + 2 (w (u x v) + u x (u x v)) with u = (x, y, z), on component
    tuples q = (w, x, y, z) and v = (v0, v1, v2) of floats or arrays."""
    w, x, y, z = q
    u = (x, y, z)
    uv = _cross(u, v)
    uuv = _cross(u, uv)
    return tuple(v[k] + 2.0 * (w * uv[k] + uuv[k]) for k in range(3))


def _rotate_x(q, v):
    """Component 0 of `_rotate(q, v)`, in its arithmetic, without the other two."""
    w, x, y, z = q
    uv = _cross((x, y, z), v)
    return v[0] + 2.0 * (w * uv[0] + (y * uv[2] - z * uv[1]))


def _inverse(q, t) -> tuple:
    """`Pose.inverse` of the pose (q, t): the conjugate of unit q, and -(q^-1 t)."""
    w, x, y, z = q
    q_inv = (w, -x, -y, -z)
    return q_inv, tuple(-c for c in _rotate(q_inv, t))


def _compose(a, pose: "Pose") -> tuple:
    """`a`, a pose as ((w, x, y, z), (t0, t1, t2)), composed with `pose`: `pose` first, then `a`."""
    q, t = a
    r = pose.rotation
    return _hamilton(q, (r.w, r.x, r.y, r.z)), tuple(p + c for p, c in zip(_rotate(q, pose.translation.tolist()), t))


def _matrix(q) -> tuple:
    """The three rows of the rotation matrix of (w, x, y, z)."""
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


# per component (w, x, y, z), the index into `_from_matrix`'s terms in each branch
_BRANCH_TERMS = ((0, 1, 2, 3), (1, 0, 4, 5), (2, 4, 0, 6), (3, 5, 6, 0))


def _from_matrix(m) -> tuple:
    """Unit (w, x, y, z) of rotation matrices given as three rows of (n,) arrays.

    Each of the four branches of the classic trace method is a mask, and each
    row takes the arithmetic of its branch: the trace as `(m00 + m11) + m22`,
    which is `np.trace`'s order, then s, then the four components over s. The
    result is normalised as `Quaternion.normalized` does it, with the norm
    `sqrt(((w**2 + x**2) + y**2) + z**2)`. Python takes `c**2` from libm's
    `pow`, which rounds otherwise than `c * c` on about 1 in 1,300 values
    (glibc x86-64); `np.float_power` calls `pow` too, where `np.power` squares.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    t = (m00 + m11) + m22
    first = t > 0.0
    second = ~first & (m00 > m11) & (m00 > m22)
    third = ~(first | second) & (m11 > m22)
    branch = np.select([first, second, third], [0, 1, 2], 3)
    radicand = np.choose(branch, [t + 1.0, ((1.0 + m00) - m11) - m22,
                                  ((1.0 + m11) - m00) - m22, ((1.0 + m22) - m00) - m11])
    s = np.sqrt(radicand) * 2.0
    # the diagonal term, then the differences and sums over s that each branch reads
    terms = (0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s,
             (m01 + m10) / s, (m02 + m20) / s, (m12 + m21) / s)
    q = [np.choose(branch, [terms[i] for i in row]) for row in _BRANCH_TERMS]
    w, x, y, z = (np.float_power(c, 2.0) for c in q)
    n = np.sqrt(((w + x) + y) + z)
    return tuple(c / n for c in q)


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion (w, x, y, z)."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        # a NaN or infinite component would turn every rotated vector into NaN
        if not all(map(_finite_real, (self.w, self.x, self.y, self.z))):
            raise InputError(f"quaternion components must be finite numbers, got {(self.w, self.x, self.y, self.z)}")

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_array(a) -> "Quaternion":
        q = Quaternion(*_finite_array(a, (4,), "quaternion needs 4 finite components").tolist())
        # keep already-unit inputs bit-exact so serialization round-trips
        return q if abs(q.norm() - 1.0) < 1e-12 else q.normalized()

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise InputError("cannot normalize a zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def canonical(self) -> "Quaternion":
        """Sign-canonical representative: w > 0, ties broken by x, y, z."""
        if _flips_sign(self.w, self.x, self.y, self.z):
            return Quaternion(-self.w, -self.x, -self.y, -self.z)
        return self

    def rotate(self, v) -> np.ndarray:
        """Rotate vector(s) of shape (3,) or (n, 3).

        Computes v + 2 (w (u x v) + u x (u x v)) with u = (x, y, z). The
        cross products are written per component in `np.cross`'s own
        operation order, so the result equals that formula with `np.cross`
        bit for bit, without its per-call argument handling.
        """
        v = np.asarray(v, dtype=float)
        # `_rotate` on the (3, n) transpose, written out: stacking its three
        # rows is about a quarter slower at the 24 to 178 rows the oracle rotates
        u = (self.x, self.y, self.z)
        uv = np.array(_cross(u, v.T))
        uuv = np.array(_cross(u, uv))
        return v + (2.0 * (self.w * uv + uuv)).T

    def as_matrix(self) -> np.ndarray:
        return np.array(_matrix((self.w, self.x, self.y, self.z)), dtype=float)

    @staticmethod
    def from_matrix(m) -> "Quaternion":
        """Rotation matrix to quaternion: `_from_matrix` of one. A matrix that is not
        orthonormal with determinant +1, within 1e-6, raises `InputError`."""
        m = _finite_array(m, (3, 3), "rotation matrix must be 3 x 3 finite numbers")
        if np.abs(m @ m.T - np.eye(3)).max() > 1e-6 or abs(np.linalg.det(m) - 1.0) > 1e-6:
            raise InputError(f"rotation matrix must be orthonormal with determinant +1 within 1e-6, got {m.tolist()}")
        return Quaternion(*(float(c[0]) for c in _from_matrix(m[:, :, None])))


def _unit_axis(axis) -> np.ndarray:
    """`axis` as a checked array; one that is not 3 finite numbers of norm 1 within 1e-6 raises `InputError`."""
    axis = _finite_array(axis, (3,), "axis must be 3 finite numbers")
    n = float(np.linalg.norm(axis))
    if abs(n - 1.0) > 1e-6:
        raise InputError(f"axis must be unit length, norm={n}")
    return axis


def quaternion_about_axis(axis, angle: float) -> Quaternion:
    """Rotation of `angle` radians about a unit `axis`."""
    if not _finite_real(angle):
        raise InputError(f"angle must be a finite number, got {angle!r}")
    axis = _unit_axis(axis)
    h = 0.5 * angle
    s = math.sin(h)
    return Quaternion(math.cos(h), axis[0] * s, axis[1] * s, axis[2] * s)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotate then translate."""

    rotation: Quaternion
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        _check_type(self.rotation, Quaternion, "pose rotation")
        t = _finite_array(self.translation, (3,), "pose translation must be 3 finite numbers")
        object.__setattr__(self, "translation", t)

    def __eq__(self, other) -> bool:
        """Exact equality: equal translations, and rotations equal component
        for component as q or as -q, which describe the same rotation."""
        if not isinstance(other, Pose):
            return NotImplemented
        return (np.array_equal(self.translation, other.translation)
                and self.rotation.canonical() == other.rotation.canonical())

    def __hash__(self) -> int:
        # agrees with `__eq__`: q and -q share one canonical sign, and 0.0 and
        # -0.0 compare equal and hash alike
        return hash(tuple(self.as_7floats()))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Quaternion.identity(), np.zeros(3))

    def transform(self, pts) -> np.ndarray:
        return self.rotation.rotate(pts) + self.translation

    def inverse(self) -> "Pose":
        r = self.rotation
        q, t = _inverse((r.w, r.x, r.y, r.z), self.translation.tolist())
        return Pose(Quaternion(*q), t)

    def as_7floats(self) -> list[float]:
        q = self.rotation.canonical()
        return [q.w, q.x, q.y, q.z, float(self.translation[0]), float(self.translation[1]), float(self.translation[2])]

    @staticmethod
    def from_7floats(v) -> "Pose":
        v = _finite_array(v, (7,), "pose needs 7 floats")
        return Pose(Quaternion.from_array(v[:4]), v[4:])


@dataclass(frozen=True)
class PointCloud:
    """Points in meters, each with its unit normal."""

    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        what = "points and normals must be (n, 3) arrays of numbers"
        pts, nrm = (_finite_array(a, (-1, 3), what) for a in (self.points, self.normals))
        if nrm.shape != pts.shape:
            raise InputError("normals shape must match points")
        lens = np.linalg.norm(nrm, axis=1)
        if len(lens) and np.abs(lens - 1.0).max() > 1e-6:
            raise InputError("normals must be unit length within 1e-6")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nrm)

    @staticmethod
    def _computed(points: np.ndarray, normals: np.ndarray) -> "PointCloud":
        """A cloud of fresh C-contiguous (n, 3) float64 arrays that package code
        computed from checked values, so finite and with unit normals: they are
        made read-only in place, without the copy and the checks of `PointCloud(...)`."""
        points.flags.writeable = False
        normals.flags.writeable = False
        return _unchecked(PointCloud, points=points, normals=normals)

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _tree(self):
        """The KD-tree of the points, built at the cloud's first `_nearest_distances` query and kept with it."""
        from scipy.spatial import cKDTree  # at the first tree, not at import
        return cKDTree(self.points, leafsize=_KD_LEAF_SIZE, balanced_tree=False, compact_nodes=False)

    def transformed(self, pose: Pose) -> "PointCloud":
        """The cloud moved by `pose`. A rotation whose norm is not 1 within
        1e-9 raises `InputError`, as it would not keep the normals unit."""
        _check_type(pose, Pose, "pose")
        if abs(pose.rotation.norm() - 1.0) > 1e-9:
            raise InputError(f"pose rotation must be a unit quaternion, got norm {pose.rotation.norm()}")
        return PointCloud._computed(pose.transform(self.points), pose.rotation.rotate(self.normals))

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))


def orthonormal_tangents(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed (u, v) basis perpendicular to a unit axis."""
    a = _unit_axis(axis).tolist()
    helper = (0.0, 0.0, 1.0) if abs(a[2]) < 0.9 else (1.0, 0.0, 0.0)
    u = np.array(_cross(a, helper))
    u /= np.linalg.norm(u)
    v = np.array(_cross(a, u.tolist()))
    return u, v


# points per leaf of `_nearest_distances`'s tree; 48-64 built and queried fastest on the `episode`
# corpus, on a 2-vCPU x86 VM (mirror dedupe, chamfer and splat 15.8 -> 14.5 ms per scene against
# scipy's default of 16, and the `episode` benchmark's scenes per second +4%)
_KD_LEAF_SIZE = 48


def _nearest_distances(cloud: PointCloud, queries: np.ndarray, reach: float = math.inf) -> np.ndarray:
    """Distance from each of `queries` to its nearest point of `cloud`, or inf where that is beyond `reach`.

    The query runs on the cloud's own tree. An unbalanced tree of `_KD_LEAF_SIZE` points per leaf
    without shrunk node boxes builds and queries faster, and a nearest distance is the same exact
    minimum over the same points in any tree, so one tree serves every query of a cloud. The query's
    bound is exclusive, hence one step above `reach`: a distance of exactly `reach` is returned."""
    return cloud._tree.query(queries, k=1, distance_upper_bound=np.nextafter(reach, np.inf))[0]
