"""Parallel-jaw grasp oracle: candidate sampling, collision checks, and
quasi-static success labels in single and cluttered contexts.

The oracle replaces dynamic physics with a deterministic model: a grasp
succeeds iff the width is within the gripper limit, the swept gripper volume
is collision free, and both extremal contacts inside the finger-pad slab have
surface normals within the friction cone of the closing axis, whose
coefficient is `FRICTION_MU`.

Both oracle drivers, `simulate_grasp` and `_simulate_batch`, rank the tests
in a fixed order, and the first failure decides the result, whose reason
names it (`SimResult.detail` says more):

1. the grasp width against the gripper opening (`WIDTH_EXCEEDED`);
2. the 24 corners of the three gripper boxes against the table plane
   (`TABLE_BLOCK`);
3. each occluder, in index order (`OCCLUDER_COLLISION`);
4. the target body (`ANTIPODAL_FAIL`);
5. the pad contacts and the friction cone (`ANTIPODAL_FAIL`, `_contacts`).

Every mesh test starts with a broad phase: an instance whose world
axis-aligned bounding box lies farther than `BROAD_PHASE_MARGIN` from the box
around the gripper corners is skipped. The skip is conservative. Each gripper
box is the convex hull of its corners, so a gap between the two boxes is a gap
of at least that size between every triangle and every gripper box, and the
exact separating-axis test (`_overlapping_triangles`), which is complete for a
triangle against a box, would clear every triangle too. The margin lies
orders of magnitude above the rounding error of either computation. An
instance that survives is moved into the grasp frame once and tested against
all three boxes (`_mesh_hits`).

Only test 3 sees the clutter; tests 1, 2, 4 and 5 see the target and the
table alone. So the cluttered result is the single-scene result, except that
an occluder hit after tests 1 and 2 pass makes it `OCCLUDER_COLLISION`.
`label_candidates` derives both labels that way from one pass over the
cluttered scene, and cluttered successes are a subset of single-scene
successes by construction. `label_pair` is a surface sample, the candidates
`sample_candidate_grasps` draws from it, and that call. `simulate_grasp`
splits one grasp's tests the same way, in a slot that keeps the result
without the occluders.

`label_candidates` runs each test over all candidates at once
(`_simulate_batch`), in array passes; the one loop over candidates hands out
the results. The widths are compared together, and the 24 corners of every
candidate are rotated in one elementwise pass, in the operation order of
`Quaternion.rotate` (a matrix product would round differently). The broad
phase is one candidates x instances matrix. `_mesh_hits` tests each instance
on all candidates near it at once, the occluders in index order, each on the
candidates no lower one hit: its narrow phase is one separating-axis pass per
distinct box half-extent vector over all (candidate, box) pairs left, since
the radii of one pass are one matrix-vector product with one half vector.
`_contacts` takes all candidates that reach test 5 and decides them with one
reduction per quantity over their pad-slab samples sorted by candidate. Each
row of those products and reductions is computed as on its own, so every
result, detail included, equals `simulate_grasp`'s, which runs `_mesh_hits`
and `_contacts` as a batch of one; at one grasp `_mesh_hits` takes the cheaper
per-box path. The set-up and the broad phase stay separate, as sharing
them costs time (2-vCPU x86 VM): a batch set-up of one grasp took 202 us
against 74 us for the scalar one, and a `label_pair` built on per-grasp calls
37.6 ms per `episode` benchmark scene against 17.2 ms. Both drivers move
meshes into grasp frames with `geometry`'s `_inverse`, `_compose` and
`_matrix`, which `Pose` and `Quaternion` are built on, so the bits are theirs.

Grasp frame: x is the closing axis joining the antipodal pair, z is the
approach (travel) direction, y completes the right-handed frame. The grasp
center is the tool center point between the fingertips; fingers extend
backward along -z.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (InputError, _check_items, _check_type, _finite_array, _finite_non_negative, _finite_positive,
                     _finite_real, _integer, _positive_int, _rng, _seed)
from .geometry import (PointCloud, Pose, Quaternion, _compose, _cross, _flips_sign, _from_matrix, _inverse, _matrix,
                       _rotate, _rotate_x, orthonormal_tangents)
from .meshes import surface_sample
from .scenes import ObjectInstance, Scene

log = logging.getLogger(__name__)

FRICTION_MU = 0.4  # Coulomb friction coefficient of the finger pads
_COS_CONE = math.cos(math.atan(FRICTION_MU))  # cosine of the friction cone's half-angle
APPROACHES_PER_PAIR = 12  # approach directions per antipodal pair, evenly spaced about its axis
# cos and sin of the approach angles 2 pi k / APPROACHES_PER_PAIR, by `math`
_APPROACH_COS, _APPROACH_SIN = (np.array([f(2.0 * math.pi * k / APPROACHES_PER_PAIR)
                                          for k in range(APPROACHES_PER_PAIR)]) for f in (math.cos, math.sin))
PAIR_TOLERANCE = 0.004  # largest distance (m) of an opposing point from the inward-normal ray
CONTACT_BAND = 0.0015  # width (m) of the extremal contact regions along the closing axis
# gap (m) beyond which the broad phase skips an instance's exact mesh test
BROAD_PHASE_MARGIN = 1e-6


class FailureReason(str, Enum):
    NONE = "none"
    TABLE_BLOCK = "table_block"
    WIDTH_EXCEEDED = "width_exceeded"
    OCCLUDER_COLLISION = "occluder_collision"
    ANTIPODAL_FAIL = "antipodal_fail"


@dataclass(frozen=True)
class GripperModel:
    max_width: float = 0.08
    finger_depth: float = 0.05
    finger_thickness: float = 0.01
    palm_clearance: float = 0.005

    def __post_init__(self):
        dims = (self.max_width, self.finger_depth, self.finger_thickness, self.palm_clearance)
        if not all(map(_finite_positive, dims)):
            raise InputError("all gripper dimensions must be finite and positive")


@dataclass(frozen=True)
class Grasp:
    center: np.ndarray
    rotation: Quaternion
    width: float
    quality: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_array(self.center, (3,), "grasp center must be 3 finite numbers"))
        if not _finite_non_negative(self.width):
            raise InputError(f"grasp width must be finite and >= 0, got {self.width!r}")
        _check_type(self.rotation, Quaternion, "grasp rotation")
        if not (_finite_real(self.quality) and 0.0 <= self.quality <= 1.0):
            raise InputError(f"grasp quality must be a number in [0, 1], got {self.quality!r}")

    def __eq__(self, other) -> bool:
        """Exact equality by value; the pose compares as in `Pose.__eq__`."""
        if not isinstance(other, Grasp):
            return NotImplemented
        return (Pose(self.rotation, self.center) == Pose(other.rotation, other.center)
                and self.width == other.width and self.quality == other.quality)

    def __hash__(self) -> int:
        return hash((Pose(self.rotation, self.center), self.width, self.quality))


@dataclass(frozen=True)
class GraspLabel:
    """A grasp's single-scene success and cluttered result; the cluttered
    success follows from `failure_reason`, so the two cannot disagree."""

    grasp: Grasp
    success_single: bool
    failure_reason: FailureReason
    detail: str = ""  # the cluttered result's `SimResult.detail`

    def __post_init__(self):
        _check_type(self.grasp, Grasp, "label grasp")
        _check_type(self.failure_reason, FailureReason, "label failure_reason")
        if type(self.success_single) is not bool:
            raise InputError(f"success flags must be bools, got success_single={self.success_single!r}")
        if self.success_cluttered and not self.success_single:
            raise InputError("cluttered success without single success violates the subset invariant")

    @property
    def success_cluttered(self) -> bool:
        return self.failure_reason is FailureReason.NONE


@dataclass(frozen=True)
class SimResult:
    """One oracle verdict; the grasp succeeds iff `reason` is `NONE`."""

    reason: FailureReason
    detail: str = ""  # the specific cause behind `reason`

    @property
    def success(self) -> bool:
        return self.reason is FailureReason.NONE


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a[i] @ b[i]` of each row of two (m, 3) arrays, with its bits: a batch of
    (1, 3) @ (3, 1) products, each of which NumPy hands to BLAS `dot` as it does
    a product of two vectors. `dot` chains fused multiply-adds: on 20,000 random
    rows an elementwise sum matched it on 67%, and `einsum` on 58% (NumPy 2.4,
    OpenBLAS, x86-64)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _grasp_frames(axes: np.ndarray, approaches: np.ndarray) -> tuple:
    """(w, x, y, z) arrays of the frames of m grasps, from (m, 3) closing axes
    and approach directions: x is the unit axis, z the approach made
    perpendicular to it and unit, and y = z cross x. The arithmetic is the
    one-vector formula's, its dot products and norms `_row_dots`; the matrix
    becomes a quaternion in `geometry._from_matrix`, which
    `Quaternion.from_matrix` shares."""
    x = axes / np.sqrt(_row_dots(axes, axes))[:, None]
    z = approaches - _row_dots(approaches, x)[:, None] * x
    n = np.sqrt(_row_dots(z, z))
    if (n < 1e-9).any():
        raise InputError("approach direction parallel to the grasp axis")
    z /= n[:, None]
    y = _cross(z.T, x.T)
    return _from_matrix(tuple(zip(x.T, y, z.T)))  # the matrix with columns x, y, z


# ---------------------------------------------------------------------------
# gripper volume


def gripper_boxes(width: float, gripper: GripperModel) -> np.ndarray:
    """(3, 2, 3) [lo, hi] corners of finger/finger/palm boxes in the grasp frame.

    Boxes are extended backward along -z by the pre-grasp standoff, one finger
    depth, so the approach sweep is part of the tested volume.
    """
    ft = gripper.finger_thickness
    fd = gripper.finger_depth
    sweep = fd
    hw = width / 2.0
    return np.array(
        [
            [[hw, -ft / 2, -fd - sweep], [hw + ft, ft / 2, 0.0]],
            [[-hw - ft, -ft / 2, -fd - sweep], [-hw, ft / 2, 0.0]],
            [[-hw - ft, -ft / 2, -fd - ft - sweep], [hw + ft, ft / 2, -fd - sweep]],
        ]
    )


_BOX_CORNERS = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])


_NEXT = np.array([1, 2, 0])  # (k + 1) % 3
_AFTER = np.array([2, 0, 1])  # (k + 2) % 3
# The 10 rows of |axis| for one triangle, as flat indices into the 4 x 4 block
# |[edges; normal]| padded with a zero column: the plane normal (row 3), then
# for each edge e and box axis k the row |u_k x e|, which is |e| with
# component k zeroed and the other two swapped.
_RADIUS_INDEX = (4 * np.array([3, 0, 0, 0, 1, 1, 1, 2, 2, 2])[:, None]
                 + np.array([[0, 1, 2]] + 3 * [[3, 2, 1], [2, 3, 0], [1, 0, 3]])).ravel()


def _overlapping_triangles(tri: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Indices of the triangles of `tri` (m, 3 vertices, 3) that overlap the
    box centred at the origin with half-extents `half`, in ascending order.

    The 13-axis separating-axis test in two stages. The three box-face axes
    run on every triangle. The triangle-plane axis and the nine edge axes
    (u_k x e for box axis u_k and triangle edge e) run together, and only on
    the triangles that no face axis separates. A triangle overlaps the box
    iff no axis separates it, so leaving out the triangles a face axis
    already separates changes no decision. The survivors get the projections
    and radii of the full test: an edge axis has a zero component, so each
    projection is its two-term sum, and the radii stay a BLAS matrix-vector
    product, which rounds differently from an explicit sum.
    """
    lo = np.minimum(np.minimum(tri[:, 0], tri[:, 1]), tri[:, 2])
    hi = np.maximum(np.maximum(tri[:, 0], tri[:, 1]), tri[:, 2])
    sep = (lo > half) | (hi < -half)
    keep = np.flatnonzero(~(sep[:, 0] | sep[:, 1] | sep[:, 2]))
    m = len(keep)
    if not m:
        return keep
    tri = tri[keep]
    v0 = tri[:, 0]
    edges = tri.take(_NEXT, axis=1) - tri  # v1 - v0, v2 - v1, v0 - v2
    normal = np.column_stack(_cross(edges[:, 0].T, (tri[:, 2] - v0).T))
    padded = np.zeros((m, 4, 4))
    padded[:, :3, :3] = edges
    padded[:, 3, :3] = normal
    # one matvec of at least 10 rows: a BLAS matvec rounds differently from an
    # explicit sum, and a one-row product differs from a row of a longer one;
    # a product of two or more rows rounds each row alone, so a row's radius
    # does not depend on the other triangles passed with it
    axes = np.abs(padded).reshape(m, 16).take(_RADIUS_INDEX, axis=1)
    r = (axes.reshape(-1, 3) @ half).reshape(m, 10)
    plane_sep = np.abs(np.einsum("ij,ij->i", normal, v0)) > r[:, 0]
    # the projection of vertex v on u_k x e has two non-zero terms,
    # e_(k+1) v_(k+2) - e_(k+2) v_(k+1); p is (vertex, m, edge, k)
    e = edges[None]
    v = tri.transpose(1, 0, 2)[:, :, None, :]
    p = e.take(_NEXT, axis=-1) * v.take(_AFTER, axis=-1) - e.take(_AFTER, axis=-1) * v.take(_NEXT, axis=-1)
    p_lo = np.minimum(np.minimum(p[0], p[1]), p[2]).reshape(m, 9)
    p_hi = np.maximum(np.maximum(p[0], p[1]), p[2]).reshape(m, 9)
    r_edge = r[:, 1:]
    edge_sep = ((p_lo > r_edge) | (p_hi < -r_edge)).any(axis=1)
    return keep[~(plane_sep | edge_sep)]


# ---------------------------------------------------------------------------
# results


# results whose detail does not depend on the grasp, shared by both drivers
_WIDE = SimResult(FailureReason.WIDTH_EXCEEDED, "grasp wider than the gripper opening")
_TABLE = SimResult(FailureReason.TABLE_BLOCK, "gripper hits the table")
_BODY = SimResult(FailureReason.ANTIPODAL_FAIL, "gripper body hits the target")
_SUCCESS = SimResult(FailureReason.NONE)
# the result of test 5 by `_contacts`' outcome code: the first of its checks
# that fails, in their order, or success
_CONTACT_RESULTS = tuple(SimResult(FailureReason.ANTIPODAL_FAIL, why) for why in (
    "no contact in the pad slab", "object does not fit within the jaws",
    "low-side contact outside the friction cone", "high-side contact outside the friction cone")) + (_SUCCESS,)


def _occluder_hit(index: int) -> SimResult:
    return SimResult(FailureReason.OCCLUDER_COLLISION, f"gripper hits occluder {index}")


# The last (grasp, gripper, target) `simulate_grasp` judged, its one key, with
# the set-up (None where the table blocks the grasp) and the result without the
# occluders (`_TABLE`, `_BODY` or test 5's); published once per key.
_slot: tuple = (None, None, None, None, None)


def simulate_grasp(grasp: Grasp, scene: Scene, gripper: GripperModel) -> SimResult:
    """Quasi-static grasp oracle; the first failing test, in the module's order, decides.

    A caller that judges one grasp in a scene and in its single scene, as
    TARGO's paired results do, repeats all but test 3. So a one-grasp slot
    keys the last grasp judged by the grasp object, the gripper by value and
    the target instance object together (a scene and its
    `derive_single_scene` share the target). A call that misses runs tests 2,
    4 and 5 and publishes the slot, once per key: the set-up (the reach box,
    the move into the grasp frame, the box centres and half-extents) and the
    result without the occluders. Every call then tests the occluders alone.
    The identity keys are sound because `Grasp`, `Quaternion`, `Pose`,
    `ObjectInstance` and the mesh arrays are immutable, and because the slot
    holds strong references to the grasp and the target, so no id it keys can
    be reused while it is cached. A concurrent call sees either the old slot
    or the new; each decision is the one the call would compute.
    """
    global _slot
    _check_type(grasp, Grasp, "grasp")
    _check_type(scene, Scene, "scene")
    _check_type(gripper, GripperModel, "gripper")
    if grasp.width > gripper.max_width + 1e-12:
        return _WIDE
    target = scene.target
    slot = _slot
    if slot[0] is not grasp or slot[1] != gripper or slot[2] is not target:
        boxes = gripper_boxes(grasp.width, gripper)
        lo, hi = boxes[:, None, 0], boxes[:, None, 1]
        corners = grasp.rotation.rotate((lo + _BOX_CORNERS * (hi - lo)).reshape(-1, 3)) + grasp.center
        corner_lo = corners.min(axis=0)
        setup, result = None, _TABLE  # the table blocks the grasp
        if not corner_lo[2] < -1e-9:
            r = grasp.rotation
            setup = (corner_lo - BROAD_PHASE_MARGIN, corners.max(axis=0) + BROAD_PHASE_MARGIN,  # the reach box
                     _inverse((r.w, r.x, r.y, r.z), grasp.center.tolist()),  # world to grasp frame
                     (boxes[None, :, 0] + boxes[None, :, 1]) / 2.0, (boxes[None, :, 1] - boxes[None, :, 0]) / 2.0)
            if _hits(target, *setup):
                result = _BODY
            else:
                pose = _compose(setup[2], target.pose)
                result = _CONTACT_RESULTS[_contacts(target.mesh.contact_samples, pose, [grasp.width], gripper)[0]]
        slot = _slot = (grasp, gripper, target, setup, result)
    if slot[3] is not None:
        for i, inst in enumerate(scene.instances):
            if i != scene.target_index and _hits(inst, *slot[3]):
                return _occluder_hit(i)
    return slot[4]


def _hits(inst: ObjectInstance, reach_lo, reach_hi, to_grasp, centers, halves) -> bool:
    """Whether one grasp, by `simulate_grasp`'s set-up, hits `inst`: the broad phase, then `_mesh_hits`."""
    lo, hi = inst.world_aabb
    if (lo > reach_hi).any() or (hi < reach_lo).any():
        return False
    return bool(_mesh_hits(inst, _compose(to_grasp, inst.pose), centers, halves)[0])


# ---------------------------------------------------------------------------
# the batched oracle: every stage over all candidates at once

# candidates per matrix product of the batched contact stage: keeps its
# (candidates, 2, contact samples) temporaries near 0.5 MB
BATCH_CHUNK = 16


def _mesh_hits(inst: ObjectInstance, pose, centers: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """Which of m grasps hit `inst`: the narrow phase of both drivers, past their
    broad phases. `pose` is each grasp's `_compose(to_grasp, inst.pose)`, floats for
    one grasp or (m, 1) arrays, which `np.dstack` both turns into (m, vertices, 3)
    vertices; `centers` and `halves` are the (m, 3, 3) boxes. A box that misses
    the box around the mesh's vertices is skipped.

    One grasp tests its boxes in turn, and the first box that a triangle
    overlaps ends its test. More grasps test all their (grasp, box) pairs that
    are left together: one `_overlapping_triangles` pass over the triangles of
    every pair whose box has the same half-extents, so that the pass's radii
    are one matrix-vector product with that half vector. Each row of such a
    product rounds alone, so every pair gets the decision it gets on its own.
    """
    q, t = pose
    verts = np.dstack([v + c for v, c in zip(_rotate(q, tuple(inst.mesh.vertices.T)), t)])
    # vertex box against centred gripper boxes: min(v) - c == min(v - c), as subtracting keeps the order
    apart = ((verts.min(axis=1)[:, None] - centers > halves)
             | (verts.max(axis=1)[:, None] - centers < -halves)).any(axis=2)
    triangles = inst.mesh.triangles
    if len(verts) == 1:
        tri = verts[0].take(triangles, axis=0)
        return np.array([any(len(_overlapping_triangles(tri - centers[0, b], halves[0, b])) > 0
                             for b in np.flatnonzero(~apart[0]))])
    hit = np.zeros(len(verts), dtype=bool)
    j, b = np.nonzero(~apart)
    if not len(j):
        return hit
    half = halves[j, b]
    # each pair's group: the first pair with its half vector
    group = (half[:, None] == half).all(axis=2).argmax(axis=1)
    for g in np.flatnonzero(group == np.arange(len(group))):
        pairs = np.flatnonzero(group == g)
        rows = j[pairs]
        tri = verts[rows].take(triangles, axis=1) - centers[rows, b[pairs], None, None]
        hit[rows[_overlapping_triangles(tri.reshape(-1, 3, 3), half[g]) // len(triangles)]] = True
    return hit


def _contacts(samples: PointCloud, pose, widths: list[float], gripper: GripperModel) -> np.ndarray:
    """Test 5 of m grasps, each on the samples moved by its pose (floats for one
    grasp, or (m, 1) components): per grasp, the index of its result in
    `_CONTACT_RESULTS`.

    A grasp's contacts are its samples inside the finger-pad slab. It needs
    some, the interval they span along the closing axis must fit within the
    jaws, and the extremal contact regions, within `CONTACT_BAND` of either
    end, must each carry a normal inside the friction cone of the closing
    axis; the first check that fails names the result. Only x of the
    grasp-frame normals enters the cone.

    A matrix product gives every sample's grasp-frame y and z, `BATCH_CHUNK`
    grasps at a time. Only the samples within `BROAD_PHASE_MARGIN` of the pad
    slab are moved exactly and passed on: the product differs from the exact
    transform by far less than the margin, so no sample of the slab is left
    out. The slab samples come sorted by grasp, so each grasp's extremes and
    band maxima are one `reduceat` over all grasps.
    """
    code = np.zeros(len(widths), dtype=np.intp)  # no contact in the pad slab
    if not widths:
        return code
    q, t = pose
    # rows y and z of the rotation matrices, (m, 2, 3), and the y and z shifts, (m, 2, 1)
    rot = np.array(_matrix(q)[1:]).reshape(2, 3, -1).transpose(2, 0, 1)
    shift = np.array(t[1:]).reshape(2, -1, 1).transpose(1, 0, 2)
    pts = samples.points
    half_t = gripper.finger_thickness / 2 + BROAD_PHASE_MARGIN
    z_lo = -gripper.finger_depth - BROAD_PHASE_MARGIN
    grasp_i, sample_i = [], []
    for start in range(0, len(widths), BATCH_CHUNK):
        yz = (rot[start:start + BATCH_CHUNK].reshape(-1, 3) @ pts.T).reshape(-1, 2, len(pts))
        yz += shift[start:start + BATCH_CHUNK]
        g, s = np.nonzero((np.abs(yz[:, 0]) <= half_t) & (yz[:, 1] >= z_lo) & (yz[:, 1] <= BROAD_PHASE_MARGIN))
        grasp_i.append(g + start)
        sample_i.append(s)
    grasp_i, sample_i = np.concatenate(grasp_i), np.concatenate(sample_i)
    q = tuple(np.reshape(c, -1)[grasp_i] for c in q)
    px, py, pz = (a + np.reshape(c, -1)[grasp_i] for a, c in zip(_rotate(q, tuple(pts[sample_i].T)), t))
    slab = (np.abs(py) <= gripper.finger_thickness / 2) & (pz >= -gripper.finger_depth) & (pz <= 0.0)
    g = grasp_i[slab]
    if not len(g):
        return code
    xs = px[slab]
    ns = _rotate_x(q, tuple(samples.normals[sample_i].T))[slab]
    # each grasp's run of slab samples: where it starts, and each sample's run
    first = np.empty(len(g), dtype=bool)
    first[0] = True
    np.not_equal(g[1:], g[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    # per grasp: the ends lo and hi of its contacts along x, and the least
    # normal x in the low band and the greatest in the high band
    lo = np.minimum.reduceat(xs, starts)
    hi = np.maximum.reduceat(xs, starts)
    low = np.minimum.reduceat(np.where(xs <= (lo + CONTACT_BAND)[run], ns, np.inf), starts)
    high = np.maximum.reduceat(np.where(xs >= (hi - CONTACT_BAND)[run], ns, -np.inf), starts)
    touched = g[starts]
    w = np.array(widths)[touched]
    wide = (lo < -w / 2 - 1e-9) | (hi > w / 2 + 1e-9)
    # the first failing check, or success; the low side's cone test reads max(-x) as -min(x)
    code[touched] = np.where(wide, 1, np.where(-low < _COS_CONE, 2, np.where(high < _COS_CONE, 3, 4)))
    return code


def _simulate_batch(grasps: list[Grasp], scene: Scene, gripper: GripperModel) -> list[tuple[SimResult, int | None]]:
    """Per grasp: its result in `scene` without the occluders, and the first
    occluder it hits (None if it hits none, or the width or the table decides)."""
    results = [(_WIDE, None)] * len(grasps)
    idx = [i for i, g in enumerate(grasps) if not g.width > gripper.max_width + 1e-12]
    if not idx:
        return results
    grasps = [grasps[i] for i in idx]
    widths = [g.width for g in grasps]
    # `simulate_grasp`'s set-up, one row per grasp; the grasps of one antipodal
    # pair share their width
    unique, inverse = np.unique(widths, return_inverse=True)
    boxes = np.array([gripper_boxes(w, gripper) for w in unique.tolist()])[inverse]
    lo, hi = boxes[:, :, None, 0], boxes[:, :, None, 1]
    local = (lo + _BOX_CORNERS * (hi - lo)).reshape(len(idx), -1, 3)
    q = tuple(np.array([(r.w, r.x, r.y, r.z) for r in (g.rotation for g in grasps)]).T[:, :, None])
    center = np.array([g.center for g in grasps])
    corners = np.stack(_rotate(q, tuple(local.transpose(2, 0, 1))), axis=-1) + center[:, None]
    corner_lo = corners.min(axis=1)
    reach_lo = corner_lo - BROAD_PHASE_MARGIN
    reach_hi = corners.max(axis=1) + BROAD_PHASE_MARGIN
    table = corner_lo[:, 2] < -1e-9
    to_grasp = _inverse(q, tuple(center.T[:, :, None]))
    centers = (boxes[:, :, 0] + boxes[:, :, 1]) / 2.0
    halves = (boxes[:, :, 1] - boxes[:, :, 0]) / 2.0
    # the broad phase, grasps x instances
    aabb_lo, aabb_hi = (np.array(a) for a in zip(*(inst.world_aabb for inst in scene.instances)))
    near = ~((aabb_lo > reach_hi[:, None]) | (aabb_hi < reach_lo[:, None])).any(axis=2) & ~table[:, None]

    def frames(inst: ObjectInstance, rows: np.ndarray) -> tuple:
        """`to_grasp * inst.pose` of the grasps at `rows`."""
        return _compose(tuple(tuple(c[rows] for c in part) for part in to_grasp), inst.pose)

    def hits(inst: ObjectInstance, rows: np.ndarray) -> np.ndarray:
        return _mesh_hits(inst, frames(inst, rows), centers[rows], halves[rows])

    # occluders in ascending index, each tested only on the grasps no lower one hit
    occluder = np.full(len(idx), -1)
    for k, inst in enumerate(scene.instances):
        rows = np.flatnonzero(near[:, k] & (occluder < 0))
        if k != scene.target_index and len(rows):
            occluder[rows[hits(inst, rows)]] = k
    target = scene.target
    body = np.zeros(len(idx), dtype=bool)
    rows = np.flatnonzero(near[:, scene.target_index])
    body[rows] = hits(target, rows)
    # each grasp's index into `sims`: the table (no grasp it blocks is near the
    # target, so its body entry is 0), the target body, or test 5
    sims = (_TABLE, _BODY, *_CONTACT_RESULTS)
    code = body.astype(np.intp)
    rows = np.flatnonzero(~table & ~body)
    code[rows] = 2 + _contacts(target.mesh.contact_samples, frames(target, rows), [widths[r] for r in rows], gripper)
    for i, c, k in zip(idx, code.tolist(), occluder.tolist()):
        results[i] = sims[c], (k if k >= 0 else None)
    return results


# ---------------------------------------------------------------------------
# candidate sampling


# point indices per draw of `_draws`
_DRAW_BLOCK = 64


def _draws(rng: np.random.Generator, n: int):
    """Point indices below `n`, drawn `_DRAW_BLOCK` at a time: `integers(n, size=k)`
    gives the k values of k scalar draws, and the generator is the caller's
    alone, so the draws left unused change nothing."""
    while True:
        yield from rng.integers(n, size=_DRAW_BLOCK).tolist()


def _unchecked(cls: type, **fields):
    """A `cls`, a frozen dataclass, holding `fields` without running its
    `__post_init__`: for values already checked together."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def sample_candidate_grasps(
    target_cloud: PointCloud,
    gripper: GripperModel,
    count: int,
    seed: int,
) -> list[Grasp]:
    """Antipodal candidates: surface point, inward-normal ray, opposing point.

    The pairs are sampled the way GPD does (ten Pas et al., IJRR 2017): a
    drawn surface point, its inward normal d, and the farthest point that
    faces along d and lies near the inward ray. An attempt takes
    `normals @ d` over the whole cloud, then the offsets and their
    projections on d only on the rows that face along d, and the distance
    from the ray only on the rows ahead of the point; the pair distance is
    the largest projection that passes. Every value is computed per row.
    NumPy hands a product of two or more rows to BLAS `gemv`, which rounds
    each row alone, so a row of the subset has the bits it had in the whole
    cloud; a one-row product goes to BLAS `dot`, which rounds 22% of random
    rows otherwise, so a lone facing row goes in twice. After the attempts,
    the frames of all pairs, `APPROACHES_PER_PAIR` approaches each, are built
    in one pass (`_grasp_frames`), and the centres, widths and frames are
    checked as `Grasp` checks them, once for all; the candidates are then
    built without the per-object check and copy, and the grasps of a pair
    share its read-only centre.

    Candidates whose pair distance exceeds the gripper opening are emitted
    anyway (width > max_width) so downstream labeling can flag them.
    An attempt's outcome depends only on the drawn point index: an index that found no
    opposing point is skipped when drawn again, and sampling stops once all have failed.
    The indices are drawn in blocks (`_draws`), the values of one draw each.
    """
    _check_type(target_cloud, PointCloud, "target_cloud")
    _check_type(gripper, GripperModel, "gripper")
    if not _positive_int(count):
        raise InputError(f"count must be a positive integer, got {count!r}")
    if len(target_cloud) == 0:
        raise InputError("candidate sampling needs a non-empty cloud")
    pts = target_cloud.points
    nrm = target_cloud.normals
    draws = _draws(_rng(seed), len(pts))
    pairs = []  # (center, width, inward axis d, u, v, approaches) per antipodal pair
    found = 0
    failed: set[int] = set()
    attempts = 0
    max_attempts = 50 * count
    while found < count and attempts < max_attempts and len(failed) < len(pts):
        attempts += 1
        i = next(draws)
        if i in failed:
            continue
        p1 = pts[i]
        d = -nrm[i]  # inward
        # only the points whose normal faces along d can oppose p1; a lone one
        # goes in twice, as `@` rounds a one-row product otherwise
        facing = np.flatnonzero(nrm @ d > 0.3)
        rel = pts[np.repeat(facing, 2) if len(facing) == 1 else facing] - p1
        s = rel @ d
        ahead = s > 1e-3
        s = s[ahead]
        s = s[np.linalg.norm(rel[ahead] - s[:, None] * d, axis=1) < PAIR_TOLERANCE]
        if not len(s):
            failed.add(i)
            continue
        pair_dist = float(s.max())
        n = min(APPROACHES_PER_PAIR, count - found)
        center = p1 + 0.5 * pair_dist * d
        center.flags.writeable = False  # the pair's grasps share it
        pairs.append((center, pair_dist + gripper.palm_clearance, d, *orthonormal_tangents(d), n))
        found += n
    out: list[Grasp] = []
    if pairs:
        centers, widths, d, u, v, n = zip(*pairs)
        axis, u, v = (np.repeat(a, n, axis=0) for a in (d, u, v))
        k = np.arange(found) % APPROACHES_PER_PAIR  # every pair but the last has them all
        approach = _APPROACH_COS[k, None] * u + _APPROACH_SIN[k, None] * v
        frames = _grasp_frames(axis, approach)
        # `Grasp.__post_init__`'s checks, once for all candidates
        if not (np.isfinite(centers).all() and np.isfinite(frames).all() and all(map(math.isfinite, widths))
                and min(widths) >= 0):
            raise InputError("candidate centres, widths and rotations must be finite, and widths >= 0")
        rotations = (_unchecked(Quaternion, w=w, x=x, y=y, z=z) for w, x, y, z in zip(*(c.tolist() for c in frames)))
        out = [_unchecked(Grasp, center=center, rotation=next(rotations), width=width, quality=0.0)
               for center, width, m in zip(centers, widths, n) for _ in range(m)]
    if found < count:
        log.warning("candidate sampling: %d of %d grasps after %d attempts", found, count, attempts)
    return out


# ---------------------------------------------------------------------------
# paired labeling


def label_candidates(grasps: list[Grasp], cluttered: Scene, gripper: GripperModel) -> list[GraspLabel]:
    """Label `grasps` in both the derived single scene and the cluttered scene.

    One batched pass over the cluttered scene gives each grasp's
    single-scene result and its first occluder hit (see the module docstring).
    """
    _check_items(grasps, Grasp, "grasps")
    _check_type(cluttered, Scene, "cluttered")
    _check_type(gripper, GripperModel, "gripper")
    labels = []
    for g, (single, hit) in zip(grasps, _simulate_batch(grasps, cluttered, gripper)):
        cluttered_result = single if hit is None else _occluder_hit(hit)
        labels.append(GraspLabel(g, single.success, cluttered_result.reason, cluttered_result.detail))
    return labels


def label_pair(cluttered: Scene, gripper: GripperModel, count: int, seed: int) -> list[GraspLabel]:
    """`label_candidates` of the candidates sampled from the target's surface."""
    _check_type(cluttered, Scene, "cluttered")
    target = cluttered.target
    cloud = surface_sample(target.mesh, 1024, seed=_seed(seed) ^ 0x9E3779B9).transformed(target.pose)
    return label_candidates(sample_candidate_grasps(cloud, gripper, count, seed), cluttered, gripper)


def taxonomy_counts(labels: list[GraspLabel]) -> dict[str, int]:
    """Three-way grasp taxonomy over single/cluttered outcomes."""
    _check_items(labels, GraspLabel, "labels")
    counts = {"fail_fail": 0, "succeed_fail": 0, "succeed_succeed": 0}
    for lab in labels:
        if lab.success_cluttered:
            counts["succeed_succeed"] += 1
        elif lab.success_single:
            counts["succeed_fail"] += 1
        else:
            counts["fail_fail"] += 1
    return counts


# ---------------------------------------------------------------------------
# JSONL serialization


def label_to_record(scene_id: str, target_index: int, label: GraspLabel) -> dict:
    """The JSON record of one label, in the one record layout that
    `write_labels_jsonl` writes; a `scene_id` that is not a str or a
    `target_index` that is not an integer raises `InputError`."""
    _check_type(label, GraspLabel, "label")
    return _label_records(scene_id, target_index, [label])[0]


def _label_records(scene_id: str, target_index: int, labels) -> list[dict]:
    """The JSON records of `labels`, each with its keys in sorted order, so
    that `json.dumps` writes the bytes of `sort_keys=True`. The rotation has
    the sign `Quaternion.canonical` gives, flipped on the stored components
    without building a quaternion per label."""
    _check_type(scene_id, str, "scene_id")
    if not _integer(target_index):
        raise InputError(f"target_index must be an integer, got {target_index!r}")
    target_index = int(target_index)
    records = []
    for label in labels:
        grasp = label.grasp
        q = grasp.rotation
        r = [-q.w, -q.x, -q.y, -q.z] if _flips_sign(q.w, q.x, q.y, q.z) else [q.w, q.x, q.y, q.z]
        records.append({
            "r": r,
            "reason": label.failure_reason.value,
            "scene_id": scene_id,
            "success_cluttered": label.success_cluttered,
            "success_single": label.success_single,
            "t": grasp.center.tolist(),
            "target_index": target_index,
            "w": grasp.width,
        })
    return records


def write_labels_jsonl(path, scene_id: str, target_index: int, labels: list[GraspLabel]) -> None:
    """Write one `label_to_record` record per line, its keys sorted; a bad
    input raises `InputError` before the file is opened, so it leaves none."""
    _check_items(labels, GraspLabel, "labels")
    Path(path).write_text("".join(json.dumps(rec) + "\n" for rec in _label_records(scene_id, target_index, labels)))


def read_labels_jsonl(path) -> list[dict]:
    """The records of a labels file; a line that is not a JSON object raises `InputError`."""
    records = []
    with Path(path).open() as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}: line {number} is not JSON ({exc})") from exc
                if not isinstance(rec, dict):
                    raise InputError(f"{path}: line {number} is not a JSON object")
                records.append(rec)
    return records
