import collections
import gc
import json
import logging
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from occlugrasp import grasping
from occlugrasp.camera import back_project, default_camera, render
from occlugrasp.completion import MirrorCompleter
from occlugrasp.errors import InputError
from occlugrasp.geometry import PointCloud, Pose, Quaternion, _compose, _inverse, _rotate, orthonormal_tangents
from occlugrasp.grasping import (
    BROAD_PHASE_MARGIN,
    FailureReason,
    Grasp,
    GraspLabel,
    GripperModel,
    SimResult,
    _BODY,
    _BOX_CORNERS,
    _SUCCESS,
    _TABLE,
    _WIDE,
    _CONTACT_RESULTS,
    _contacts,
    _grasp_frames,
    _mesh_hits,
    _occluder_hit,
    _overlapping_triangles,
    _simulate_batch,
    gripper_boxes,
    label_candidates,
    label_pair,
    label_to_record,
    read_labels_jsonl,
    sample_candidate_grasps,
    simulate_grasp,
    taxonomy_counts,
    write_labels_jsonl,
)
from occlugrasp.meshes import make_box, make_sphere, surface_sample
from occlugrasp.occlusion import BinScheme, occlusion_levels
from occlugrasp.scenes import (ObjectInstance, Scene, SceneConfig, derive_single_scene, enumerate_targets,
                                generate_packed_scene)

from . import corpus
from .corpus import box_instance, make_scene
from .test_geometry import (
    from_matrix_branch,
    quaternion_bits,
    reference_from_matrix,
    reference_pose_inverse,
    reference_pose_mul,
)

GRIP = GripperModel()


def frame(axis, approach) -> Quaternion:
    """The rotation whose x is the closing axis and z the approach direction:
    `_grasp_frames` of one grasp."""
    rows = (np.asarray(v, dtype=float).reshape(1, 3) for v in (axis, approach))
    return Quaternion(*(float(c[0]) for c in _grasp_frames(*rows)))


def side_grasp(center, axis=(1, 0, 0), approach=(0, 0, -1), width=0.055):
    return Grasp(np.asarray(center, float), frame(axis, approach), width)


def closing_axis(grasp: Grasp) -> np.ndarray:
    """The gripper's closing direction in the world: the grasp frame's x axis."""
    return grasp.rotation.rotate(np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# reference oracle: every gripper box against every instance, each mesh moved
# into the grasp frame once per box, all offenders collected before the reason
# is chosen. The oracle in `grasping` must give the same reasons.

_CORNERS = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])


def reference_tri_aabb_overlap(v0, v1, v2, half):
    """Triangle vs origin-centered AABB: all 13 separating axes on every triangle."""
    sep = np.zeros(len(v0), dtype=bool)
    # box face axes
    for k in range(3):
        lo = np.minimum(np.minimum(v0[:, k], v1[:, k]), v2[:, k])
        hi = np.maximum(np.maximum(v0[:, k], v1[:, k]), v2[:, k])
        sep |= (lo > half[k]) | (hi < -half[k])
    # triangle plane
    n = np.cross(v1 - v0, v2 - v0)
    d = np.einsum("ij,ij->i", n, v0)
    r = np.abs(n) @ half
    sep |= np.abs(d) > r
    # nine edge cross-product axes
    edges = (v1 - v0, v2 - v1, v0 - v2)
    for e in edges:
        for k in range(3):
            a = np.zeros_like(e)
            # u_k x e
            a[:, (k + 1) % 3] = -e[:, (k + 2) % 3]
            a[:, (k + 2) % 3] = e[:, (k + 1) % 3]
            p0 = np.einsum("ij,ij->i", a, v0)
            p1 = np.einsum("ij,ij->i", a, v1)
            p2 = np.einsum("ij,ij->i", a, v2)
            lo = np.minimum(np.minimum(p0, p1), p2)
            hi = np.maximum(np.maximum(p0, p1), p2)
            r = np.abs(a) @ half
            sep |= (lo > r) | (hi < -r)
    return ~sep


def _reference_box_hits_mesh(box, grasp, mesh, pose):
    center_local = (box[0] + box[1]) / 2.0
    half = (box[1] - box[0]) / 2.0
    to_grasp = reference_pose_mul(Pose(grasp.rotation, grasp.center).inverse(), pose)
    verts = to_grasp.transform(mesh.vertices) - center_local
    if (verts.min(axis=0) > half).any() or (verts.max(axis=0) < -half).any():
        return False
    tris = mesh.triangles
    return bool(reference_tri_aabb_overlap(verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]], half).any())


def reference_offenders(grasp, scene, gripper):
    boxes = gripper_boxes(grasp.width, gripper)
    corners = [grasp.rotation.rotate(b[0] + _CORNERS * (b[1] - b[0])) + grasp.center for b in boxes]
    offenders = ["table"] if min(c[:, 2].min() for c in corners) < -1e-9 else []
    for idx, inst in enumerate(scene.instances):
        if any(_reference_box_hits_mesh(b, grasp, inst.mesh, inst.pose) for b in boxes):
            offenders.append(idx)
    return offenders


# `reference_label_pair` asks again for the cluttered offenders `dense_cases`
# found, and two collision tests for those of a grasp on the lone box
shared_offenders = corpus.shared(reference_offenders)


def reference_pad_slab_contacts(points_g, normals_x, width, gripper):
    """Test 5 of one grasp: the extremal contacts along the closing axis inside
    the finger-pad slab, from the (x, y, z) component arrays of the samples in
    the grasp frame and the x components of their normals. Returns (ok, why)."""
    ft = gripper.finger_thickness
    fd = gripper.finger_depth
    px, py, pz = points_g
    in_slab = (np.abs(py) <= ft / 2) & (pz >= -fd) & (pz <= 0.0)
    if not in_slab.any():
        return False, "no contact in the pad slab"
    xs = px[in_slab]
    ns = normals_x[in_slab]
    a, b = float(xs.min()), float(xs.max())
    if a < -width / 2 - 1e-9 or b > width / 2 + 1e-9:
        return False, "object does not fit within the jaws"
    low_band = xs <= a + grasping.CONTACT_BAND
    high_band = xs >= b - grasping.CONTACT_BAND
    if np.max(-ns[low_band]) < grasping._COS_CONE:
        return False, "low-side contact outside the friction cone"
    if np.max(ns[high_band]) < grasping._COS_CONE:
        return False, "high-side contact outside the friction cone"
    return True, ""


def reference_mesh_hits(inst, pose, centers, halves):
    """`_mesh_hits` as a loop over grasps, each testing its boxes in turn until
    one is hit: the arguments and result are `_mesh_hits`'."""
    q, t = pose
    verts = np.dstack([v + c for v, c in zip(_rotate(q, tuple(inst.mesh.vertices.T)), t)])
    apart = ((verts.min(axis=1)[:, None] - centers > halves)
             | (verts.max(axis=1)[:, None] - centers < -halves)).any(axis=2)
    hit = np.zeros(len(verts), dtype=bool)
    for j in np.flatnonzero(~apart.all(axis=1)):
        tri = verts[j].take(inst.mesh.triangles, axis=0)
        hit[j] = any(len(_overlapping_triangles(tri - centers[j, b], halves[j, b])) > 0
                     for b in np.flatnonzero(~apart[j]))
    return hit


def reference_simulate(grasp, scene, gripper):
    if grasp.width > gripper.max_width + 1e-12:
        return FailureReason.WIDTH_EXCEEDED
    offenders = shared_offenders(grasp, scene, gripper)
    if "table" in offenders:
        return FailureReason.TABLE_BLOCK
    if any(o != scene.target_index for o in offenders):
        return FailureReason.OCCLUDER_COLLISION
    if offenders:
        return FailureReason.ANTIPODAL_FAIL
    target = scene.target
    to_grasp = reference_pose_mul(Pose(grasp.rotation, grasp.center).inverse(), target.pose)
    samples = target.mesh.contact_samples
    ok, _ = reference_pad_slab_contacts(tuple(to_grasp.transform(samples.points).T),
                                        to_grasp.rotation.rotate(samples.normals)[:, 0], grasp.width, gripper)
    return FailureReason.NONE if ok else FailureReason.ANTIPODAL_FAIL


def reference_simulate_grasp(grasp: Grasp, scene: Scene, gripper: GripperModel) -> SimResult:
    """`simulate_grasp` before its one-grasp slot: every test on every call."""
    if grasp.width > gripper.max_width + 1e-12:
        return _WIDE
    boxes = gripper_boxes(grasp.width, gripper)
    lo, hi = boxes[:, None, 0], boxes[:, None, 1]
    corners = grasp.rotation.rotate((lo + _BOX_CORNERS * (hi - lo)).reshape(-1, 3)) + grasp.center
    corner_lo = corners.min(axis=0)
    if corner_lo[2] < -1e-9:
        return _TABLE
    reach_lo = corner_lo - BROAD_PHASE_MARGIN
    reach_hi = corners.max(axis=0) + BROAD_PHASE_MARGIN
    r = grasp.rotation
    to_grasp = _inverse((r.w, r.x, r.y, r.z), grasp.center.tolist())
    centers = (boxes[None, :, 0] + boxes[None, :, 1]) / 2.0
    halves = (boxes[None, :, 1] - boxes[None, :, 0]) / 2.0

    def hits(inst: ObjectInstance) -> bool:
        lo, hi = inst.world_aabb
        if (lo > reach_hi).any() or (hi < reach_lo).any():
            return False
        return bool(reference_mesh_hits(inst, _compose(to_grasp, inst.pose), centers, halves)[0])

    hit = next((i for i, inst in enumerate(scene.instances) if i != scene.target_index and hits(inst)), None)
    if hit is not None:
        return _occluder_hit(hit)
    target = scene.target
    if hits(target):
        return _BODY
    samples = target.mesh.contact_samples
    q, t = _compose(to_grasp, target.pose)
    pts_g = np.column_stack([v + c for v, c in zip(_rotate(q, tuple(samples.points.T)), t)])
    nrm_g = np.column_stack(_rotate(q, tuple(samples.normals.T)))
    ok, why = reference_pad_slab_contacts(tuple(pts_g.T), nrm_g[:, 0], grasp.width, gripper)
    if not ok:
        return SimResult(FailureReason.ANTIPODAL_FAIL, why)
    return _SUCCESS


def reference_grasp_frame_matrix(axis, approach):
    """The rotation matrix of `frame`, one grasp at a time, with `np.cross`."""
    x = np.asarray(axis, dtype=float)
    z = np.asarray(approach, dtype=float)
    x = x / np.linalg.norm(x)
    z = z - (z @ x) * x
    z /= np.linalg.norm(z)
    return np.column_stack([x, np.cross(z, x), z])


def reference_grasp_frame(axis, approach):
    return reference_from_matrix(reference_grasp_frame_matrix(axis, approach))


def reference_label_pair(cluttered, gripper, count, seed):
    """`label_pair` as a loop over candidates: one single-scene simulation
    each, then the occluders alone for the cluttered label."""
    target = cluttered.target
    cloud = surface_sample(target.mesh, 1024, seed=seed ^ 0x9E3779B9).transformed(target.pose)
    candidates = sample_candidate_grasps(cloud, gripper, count, seed)
    single = derive_single_scene(cluttered, cluttered.target_index)
    labels = []
    for g in candidates:
        sim_s = simulate_grasp(g, single, gripper)
        reason = sim_s.reason
        if (reason not in (FailureReason.WIDTH_EXCEEDED, FailureReason.TABLE_BLOCK)
                and any(o not in ("table", cluttered.target_index)
                        for o in shared_offenders(g, cluttered, gripper))):
            reason = FailureReason.OCCLUDER_COLLISION
        labels.append(GraspLabel(g, sim_s.success, reason))
    return labels


def batch_results(grasps, scene, gripper):
    """`simulate_grasp`'s result of every grasp from one batched pass: the
    single-scene result, or `_occluder_hit` of the first occluder hit."""
    return [sim if hit is None else _occluder_hit(hit)
            for sim, hit in _simulate_batch(grasps, scene, gripper)]


@pytest.fixture(scope="module")
def dense_cases():
    """20 seeded 8-10 object scenes, 120 candidates each, with reference reasons."""
    cases = []
    for seed in range(20):
        scene = corpus.dense_scene(400 + seed)
        single = derive_single_scene(scene, scene.target_index)
        grasps = [lab.grasp for lab in corpus.pair_labels(corpus.DENSE_OBJECTS, 400 + seed, 120, seed)]
        ref_single = [reference_simulate(g, single, GRIP) for g in grasps]
        ref_cluttered = [reference_simulate(g, scene, GRIP) for g in grasps]
        cases.append((seed, scene, single, grasps, ref_single, ref_cluttered))
    return cases


@pytest.fixture(scope="module")
def episode_cases():
    """The 16 4-6 object scenes of the benchmark's episode corpus, with `label_pair`'s 120 candidates each."""
    cases = []
    for seed in range(16):
        scene = corpus.episode_scene(seed)
        cases.append((seed, scene, [lab.grasp for lab in corpus.pair_labels(corpus.EPISODE_OBJECTS, seed, 120, seed)]))
    return cases


@pytest.fixture(scope="module")
def dense_refs(dense_cases):
    """`reference_simulate_grasp` of every dense case's grasps: (single, cluttered) result lists."""
    return [([reference_simulate_grasp(g, single, GRIP) for g in grasps],
             [reference_simulate_grasp(g, scene, GRIP) for g in grasps])
            for _, scene, single, grasps, _, _ in dense_cases]


@pytest.fixture(scope="module")
def dense_sims(dense_cases):
    """`simulate_grasp` of every dense case's grasps: (single, cluttered) result lists."""
    return [([simulate_grasp(g, single, GRIP) for g in grasps], [simulate_grasp(g, scene, GRIP) for g in grasps])
            for _, scene, single, grasps, _, _ in dense_cases]


# ---------------------------------------------------------------------------
# reference sampler: `sample_candidate_grasps` before it skipped the point
# indices that already found no opposing point, tested every point of the
# cloud on every attempt, and built frames one at a time


def reference_sample(target_cloud, gripper, count, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts, nrm = target_cloud.points, target_cloud.normals
    out = []
    for _ in range(50 * count):
        if len(out) >= count:
            break
        i = int(rng.integers(len(pts)))
        p1 = pts[i]
        d = -nrm[i]
        rel = pts - p1
        s = rel @ d
        perp = np.linalg.norm(rel - s[:, None] * d, axis=1)
        opposing = (s > 1e-3) & (perp < 0.004) & (nrm @ d > 0.3)
        if not opposing.any():
            continue
        j = int(np.nonzero(opposing)[0][np.argmax(s[opposing])])
        pair_dist = float(s[j])
        u, v = orthonormal_tangents(d)
        for k in range(12):
            theta = 2.0 * math.pi * k / 12
            approach = math.cos(theta) * u + math.sin(theta) * v
            out.append(Grasp(p1 + 0.5 * pair_dist * d, reference_grasp_frame(d, approach),
                             pair_dist + gripper.palm_clearance))
            if len(out) >= count:
                break
    return out


def assert_same_grasps(a, b):
    assert len(a) == len(b)
    for ga, gb in zip(a, b):
        assert ga.center.tobytes() == gb.center.tobytes()
        assert quaternion_bits(ga.rotation) == quaternion_bits(gb.rotation)
        assert ga.width == gb.width


def completed_target_cloud(scene, cam):
    partial = back_project(render(scene, cam), scene.target_index)
    return MirrorCompleter()(partial, scene, cam)


def check_frames(axes, approaches) -> collections.Counter:
    """Assert `_grasp_frames` of all rows, and `frame` of each, equal to
    `reference_grasp_frame` bit for bit; count the `from_matrix` branches taken."""
    axes, approaches = np.asarray(axes, dtype=float), np.asarray(approaches, dtype=float)
    want = [quaternion_bits(reference_grasp_frame(a, b)) for a, b in zip(axes, approaches)]
    got = np.column_stack(_grasp_frames(axes, approaches))
    assert [row.tobytes() for row in got] == want
    assert [quaternion_bits(frame(a, b)) for a, b in zip(axes, approaches)] == want
    return collections.Counter(from_matrix_branch(reference_grasp_frame_matrix(a, b)) for a, b in zip(axes, approaches))


def approach_rows(axes):
    """Each axis with the 12 approaches the sampler builds about it."""
    rows = []
    for a in axes:
        u, v = orthonormal_tangents(a)
        for k in range(12):
            theta = 2.0 * math.pi * k / 12
            rows.append((a, math.cos(theta) * u + math.sin(theta) * v))
    axes, approaches = zip(*rows)
    return np.array(axes, dtype=float), np.array(approaches)


class TestTypes:
    def test_gripper_validation(self):
        with pytest.raises(InputError):
            GripperModel(max_width=-0.08)

    @pytest.mark.parametrize("field", ["max_width", "finger_depth", "finger_thickness", "palm_clearance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_gripper_dimensions_finite(self, field, value):
        with pytest.raises(InputError):
            GripperModel(**{field: value})

    def test_grasp_owns_its_center(self):
        # `simulate_grasp`'s slot keys a grasp by identity, so no caller's array may change it
        center = np.array([0.1, 0.2, 0.3])
        g = Grasp(center, Quaternion.identity(), 0.05)
        center[0] = 9.0
        assert g.center.tolist() == [0.1, 0.2, 0.3]
        assert not g.center.flags.writeable

    def test_grasp_quality_range(self):
        with pytest.raises(InputError):
            Grasp(np.zeros(3), Quaternion.identity(), 0.05, quality=1.5)

    @pytest.mark.parametrize("quality", ["a", None, False, np.bool_(True)])  # a bool was accepted
    def test_grasp_quality_must_be_a_number(self, quality):
        with pytest.raises(InputError):
            Grasp(np.zeros(3), Quaternion.identity(), 0.05, quality=quality)

    @pytest.mark.parametrize(
        "center, width",
        [((0.0, 0.0, np.nan), 0.05), ((np.inf, 0.0, 0.0), 0.05), ((0.0, 0.0), 0.05), ((0.0, 0.0, 0.0, 0.0), 0.05),
         ((0.0, 0.0, 0.0), np.nan), ((0.0, 0.0, 0.0), np.inf), ((0.0, 0.0, 0.0), -0.01), ((0.0, 0.0, 0.0), True),
         ((0.0, 0.0, 0.0), np.bool_(True))],
        ids=["nan_center", "inf_center", "two_numbers", "four_numbers", "nan_width", "inf_width", "negative_width",
             "bool_width", "numpy_bool_width"],  # a bool width was accepted
    )
    def test_grasp_center_and_width_checked(self, center, width):
        with pytest.raises(InputError):
            Grasp(np.array(center), Quaternion.identity(), width)

    def test_grasp_rotation_must_be_finite(self):
        with pytest.raises(InputError, match="finite"):
            Grasp(np.zeros(3), Quaternion(float("nan"), 0.0, 0.0, 1.0), 0.05)

    @pytest.mark.parametrize("rotation", [np.array([1.0, 0.0, 0.0, 0.0]), (1.0, 0.0, 0.0, 0.0), None, np.eye(3)])
    def test_grasp_rotation_must_be_a_quaternion(self, rotation):
        # an array in place of the rotation would reach `simulate_grasp`, which
        # fails on it with a bare AttributeError
        with pytest.raises(InputError, match="Quaternion"):
            Grasp(np.array([0.15, 0.15, 0.05]), rotation, 0.05)

    @pytest.mark.parametrize("grasp", ["g", None, np.zeros(3)])
    def test_label_grasp_must_be_a_grasp(self, grasp):
        # a label of a string grasp raised a bare AttributeError in `label_to_record`
        with pytest.raises(InputError, match="grasp"):
            GraspLabel(grasp, True, FailureReason.NONE)

    @pytest.mark.parametrize("reason", ["none", None, 0])
    def test_label_reason_must_be_a_failure_reason(self, reason):
        # "none" equals FailureReason.NONE, a str enum, but has no `.value` for `label_to_record`
        with pytest.raises(InputError, match="failure_reason"):
            GraspLabel(side_grasp((0.15, 0.15, 0.05)), True, reason)

    def test_label_subset_enforced(self):
        g = side_grasp((0.15, 0.15, 0.05))
        with pytest.raises(InputError):
            GraspLabel(g, False, FailureReason.NONE)

    @pytest.mark.parametrize("reason", list(FailureReason))
    def test_success_follows_from_the_reason(self, reason):
        label = GraspLabel(side_grasp((0.15, 0.15, 0.05)), True, reason)
        assert SimResult(reason).success is label.success_cluttered is (reason is FailureReason.NONE)

    def test_grasp_frame_orthonormal(self):
        q = frame((1, 0, 0), (0, 0, -1))
        m = q.as_matrix()
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.allclose(m[:, 0], [1, 0, 0], atol=1e-12)
        assert np.allclose(m[:, 2], [0, 0, -1], atol=1e-12)

    def test_grasp_equality(self):
        g = side_grasp((0.15, 0.15, 0.05))
        q = g.rotation
        assert g == Grasp(g.center.copy(), Quaternion(-q.w, -q.x, -q.y, -q.z), g.width)
        assert g != side_grasp((0.15, 0.15, 0.05), width=0.056)
        assert g != side_grasp((0.15, 0.15, np.nextafter(0.05, 1.0)))
        assert g != side_grasp((0.15, 0.15, 0.05), approach=(0, 1, 0))
        assert g != Grasp(g.center, q, g.width, quality=0.5)
        assert g != (g.center, g.rotation, g.width)

    def test_grasp_frame_matches_cross(self):
        rng = np.random.default_rng(32)
        rows = rng.normal(size=(2000, 2, 3))  # (axis, approach) per row
        branches = check_frames(rows[:, 0], rows[:, 1])
        assert min(branches[b] for b in range(4)) > 200


class TestGraspFrames:
    """`_grasp_frames`, and `frame` as a batch of one, against
    `reference_grasp_frame` bit for bit (seeded random rows are in `TestTypes`)."""

    def test_every_branch(self):
        # the matrices diag(1, 1, 1), diag(1, -1, -1), diag(-1, 1, -1) and
        # diag(-1, -1, 1), then sampler rows about random unit axes
        axes = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        approaches = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
        assert check_frames(axes, approaches) == {0: 1, 1: 1, 2: 1, 3: 1}
        unit = np.random.default_rng(37).normal(size=(40, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        assert set(check_frames(*approach_rows(unit))) == {0, 1, 2, 3}

    def test_coordinate_axes_and_the_tangent_switch(self):
        # +-x, +-y, +-z, and unit axes with |a_z| on both sides of the 0.9 at
        # which `orthonormal_tangents` changes its helper vector
        axes = list(np.vstack([np.eye(3), -np.eye(3)]))
        for az in (np.nextafter(0.9, 0.0), 0.9, np.nextafter(0.9, 1.0), 0.85, 0.95):
            for sign in (1.0, -1.0):
                axes.append(np.array([math.sqrt(1.0 - az * az), 0.0, sign * az]))
                axes.append(np.array([0.0, -math.sqrt(1.0 - az * az), sign * az]))
        check_frames(*approach_rows(axes))

    @pytest.mark.parametrize("approach", [(2.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1.0, 1e-12, 0.0), (0.0, 0.0, 0.0)])
    def test_parallel_approach_rejected(self, approach):
        with pytest.raises(InputError, match="parallel"):
            frame((1.0, 0.0, 0.0), approach)
        # one such row among good ones
        axes = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InputError, match="parallel"):
            _grasp_frames(axes, np.array([[0.0, 0.0, 1.0], approach, [1.0, 0.0, 0.0]]))


class TestSampling:
    def test_box_side_widths(self):
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        cloud = surface_sample(target.mesh, 1024, seed=7).transformed(target.pose)
        cands = sample_candidate_grasps(cloud, GRIP, 200, seed=3)
        across = [c for c in cands if abs(abs(closing_axis(c)[2]) - 0.0) < 0.2 and c.width < 0.08]
        assert across, "expected side candidates across the 0.05 faces"
        for c in across:
            assert abs(c.width - (0.05 + GRIP.palm_clearance)) < 0.004

    def test_wide_box_flagged_width_exceeded(self):
        target = box_instance(0.10, 0.10, 0.06, 0.15, 0.15)
        scene = make_scene([target])
        cloud = surface_sample(target.mesh, 1024, seed=9).transformed(target.pose)
        cands = sample_candidate_grasps(cloud, GRIP, 150, seed=4)
        across = [c for c in cands if abs(closing_axis(c)[2]) < 0.2]  # horizontal closing axis
        assert across
        for c in across:
            assert c.width > GRIP.max_width
            assert simulate_grasp(c, scene, GRIP).reason == FailureReason.WIDTH_EXCEEDED

    def test_sphere_pair_distance(self):
        cloud = surface_sample(make_sphere(0.03), 2048, seed=1)
        cands = sample_candidate_grasps(cloud, GRIP, 72, seed=2)
        pair = np.array([c.width - GRIP.palm_clearance for c in cands])
        assert np.abs(pair - 0.06).max() < 0.003

    def test_empty_cloud_rejected(self):
        with pytest.raises(InputError):
            sample_candidate_grasps(PointCloud.empty(), GRIP, 10, seed=0)

    @pytest.mark.parametrize("bad", ["x", None, np.zeros((64, 3))])
    def test_cloud_and_gripper_must_be_a_cloud_and_a_gripper(self, bad):
        # "x" raised a bare AttributeError: no attribute 'points', or 'palm_clearance'
        with pytest.raises(InputError, match="target_cloud"):
            sample_candidate_grasps(bad, GRIP, 5, seed=1)
        cloud = surface_sample(make_box(0.04, 0.05, 0.06), 64, seed=0)
        with pytest.raises(InputError, match="gripper"):
            sample_candidate_grasps(cloud, bad, 5, seed=1)

    @pytest.mark.parametrize("count", [1.5, -3, 0, True, "4", None, np.float64(4.0)])
    def test_count_must_be_a_positive_integer(self, count):
        # 1.5 gave 2 grasps and -3 gave none
        cloud = surface_sample(make_box(0.04, 0.05, 0.06), 64, seed=0)
        with pytest.raises(InputError, match="count"):
            sample_candidate_grasps(cloud, GRIP, count, seed=0)
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        with pytest.raises(InputError, match="count"):
            label_pair(scene, GRIP, count, seed=1)

    def test_numpy_integer_count_accepted(self):
        cloud = surface_sample(make_sphere(0.03), 512, seed=1)
        assert sample_candidate_grasps(cloud, GRIP, np.int64(6), seed=2) == sample_candidate_grasps(cloud, GRIP, 6, seed=2)

    def test_shortfall_logged(self, caplog):
        # a flat patch has no opposing point for any sample
        pts = np.column_stack([np.random.default_rng(0).uniform(size=(50, 2)), np.zeros(50)])
        cloud = PointCloud(pts, np.tile([0.0, 0.0, 1.0], (50, 1)))
        with caplog.at_level(logging.WARNING, logger="occlugrasp.grasping"):
            assert sample_candidate_grasps(cloud, GRIP, 4, seed=0) == []
        assert [r.getMessage() for r in caplog.records] == ["candidate sampling: 0 of 4 grasps after 200 attempts"]

    @pytest.mark.parametrize("count_range", [(4, 6), (8, 10)])
    def test_matches_reference_on_completed_clouds(self, count_range):
        cam = default_camera(width=320, height=240, focal=270.0)
        found = 0
        for seed in range(16):
            scene = corpus.scene(count_range, seed)
            cloud = completed_target_cloud(scene, cam)
            grasps = sample_candidate_grasps(cloud, GRIP, 120, seed)
            assert_same_grasps(grasps, reference_sample(cloud, GRIP, 120, seed))
            found += len(grasps)
        assert found > 0

    def test_matches_reference_on_surface_samples(self):
        for seed in range(8):
            cloud = surface_sample(make_sphere(0.02 + 0.002 * seed), 256 + 64 * seed, seed=seed)
            assert_same_grasps(sample_candidate_grasps(cloud, GRIP, 60, seed), reference_sample(cloud, GRIP, 60, seed))

    def test_matches_reference_on_the_grasp_clutter_corpus(self):
        # the completed clouds the benchmark samples, at its 640x480 camera
        sizes = []
        for seed in range(16):
            cloud = corpus.clutter_cloud(seed)
            grasps = sample_candidate_grasps(cloud, GRIP, 120, seed)
            assert_same_grasps(grasps, reference_sample(cloud, GRIP, 120, seed))
            sizes.append(len(grasps))
        assert sizes.count(120) >= 12

    def test_matches_reference_on_label_pair_clouds(self):
        # `label_pair`'s 1,024 surface samples of each `episode` corpus target
        for seed in range(16):
            target = corpus.episode_scene(seed).target
            cloud = surface_sample(target.mesh, 1024, seed=seed ^ 0x9E3779B9).transformed(target.pose)
            grasps = sample_candidate_grasps(cloud, GRIP, 120, seed)
            assert len(grasps) == 120
            assert_same_grasps(grasps, reference_sample(cloud, GRIP, 120, seed))

    def test_a_lone_facing_point(self):
        # two points, each the other's only facing point: the pair distance is
        # a row of a two-row product, which `@` rounds otherwise on one row
        rng = np.random.default_rng(38)
        one_row_differs = 0
        for seed in range(200):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            p = rng.uniform(-0.3, 0.3, size=3)
            q = p - rng.uniform(0.01, 0.07) * n + rng.normal(scale=1e-3, size=3)
            cloud = PointCloud([p, q], [n, -n])
            grasps = sample_candidate_grasps(cloud, GRIP, 24, seed)
            assert len(grasps) == 24
            assert_same_grasps(grasps, reference_sample(cloud, GRIP, 24, seed))
            rel, d = cloud.points[1:] - cloud.points[0], -cloud.normals[0]
            one_row_differs += (rel @ d)[0] != (np.vstack([rel, rel]) @ d)[0]
        assert one_row_differs > 0

    def test_matches_reference_when_the_budget_runs_out(self):
        # a flat patch without opposing points and one antipodal pair: the
        # 50 * count attempts end before every index has failed, and some
        # seeds draw one point of the pair in time, some both, some neither
        rng = np.random.default_rng(3)
        patch = np.column_stack([rng.uniform(size=(2000, 2)), np.zeros(2000)])
        pts = np.vstack([patch, [[0.5, 0.5, 0.1], [0.5, 0.5, 0.15]]])
        nrm = np.vstack([np.tile([0.0, 0.0, 1.0], (2000, 1)), [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]])
        cloud = PointCloud(pts, nrm)
        found = set()
        for seed in range(10):
            grasps = sample_candidate_grasps(cloud, GRIP, 24, seed)
            assert_same_grasps(grasps, reference_sample(cloud, GRIP, 24, seed))
            found.add(len(grasps))
        assert found == {0, 12, 24}

    def test_no_opposing_point_stops_early(self, caplog):
        # dense scene seed 1: the completed sphere_011 has no opposing pair
        scene = corpus.dense_scene(1)
        cloud = completed_target_cloud(scene, default_camera())
        assert scene.target.catalog_id == "sphere_011" and len(cloud) == 318
        assert reference_sample(cloud, GRIP, 120, 1) == []
        with caplog.at_level(logging.WARNING, logger="occlugrasp.grasping"):
            assert sample_candidate_grasps(cloud, GRIP, 120, 1) == []
        [message] = [r.getMessage() for r in caplog.records]
        attempts = int(message.split()[-2])
        assert message.startswith("candidate sampling: 0 of 120 grasps after ")
        assert len(cloud) <= attempts < 50 * 120
        assert attempts == 2266

    def test_deterministic(self):
        cloud = surface_sample(make_sphere(0.03), 1024, seed=5)
        a = sample_candidate_grasps(cloud, GRIP, 48, seed=11)
        b = sample_candidate_grasps(cloud, GRIP, 48, seed=11)
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.center, gb.center)
            assert ga.rotation.as_array().tolist() == gb.rotation.as_array().tolist()


def separating_axes(tri, half):
    """Names of the axes of the 13-axis test that separate one triangle (3, 3) from the box."""
    v = np.asarray(tri, dtype=float)
    edges = [v[1] - v[0], v[2] - v[1], v[0] - v[2]]
    axes = {f"face {k}": np.eye(3)[k] for k in range(3)}
    axes["plane"] = np.cross(edges[0], v[2] - v[0])
    axes.update({f"edge {i} x {k}": np.cross(np.eye(3)[k], e) for i, e in enumerate(edges) for k in range(3)})
    names = []
    for name, a in axes.items():
        p, r = v @ a, np.abs(a) @ half
        if p.min() > r or p.max() < -r:
            names.append(name)
    return names


def reference_hits(tri, half):
    return bool(reference_tri_aabb_overlap(tri[:, 0], tri[:, 1], tri[:, 2], half).any())


HALF = np.array([0.5, 1.0, 2.0])
# triangles far outside the box along each face axis, mixed into the special cases
_FAR = np.array([[[9.0, 0.0, 0.0], [9.5, 0.1, 0.0], [9.0, 0.2, 0.3]],
                 [[0.0, -9.0, 0.0], [0.2, -9.5, 0.0], [0.0, -9.0, 0.4]],
                 [[0.0, 0.0, 9.0], [0.3, 0.0, 9.0], [0.0, 0.1, 9.5]]])


class TestStagedSat:
    """The staged separating-axis test decides as the 13-axis reference does."""

    def check(self, tri, expected=None):
        tri = np.asarray(tri, dtype=float)
        for tris in (tri[None], np.concatenate([_FAR[:2], tri[None], _FAR[2:]])):
            got = len(_overlapping_triangles(tris, HALF)) > 0
            assert got == reference_hits(tris, HALF)
            if expected is not None:
                assert got == expected

    def test_random_triangle_sets(self):
        rng = np.random.default_rng(31)
        decided_late = 0
        for trial in range(2000):
            m = int(rng.integers(1, 9))
            half = rng.uniform(0.05, 1.0, size=3)
            tris = rng.normal(size=3) * 0.8 + rng.normal(size=(m, 3, 3)) * rng.uniform(0.02, 1.0)
            got = len(_overlapping_triangles(tris, half)) > 0
            assert got == reference_hits(tris, half), trial
            lo, hi = tris.min(axis=1), tris.max(axis=1)
            face_overlap = ((lo <= half) & (hi >= -half)).all(axis=1)
            decided_late += bool(face_overlap.any() and not got)
            if trial < 200:
                per_triangle = reference_tri_aabb_overlap(tris[:, 0], tris[:, 1], tris[:, 2], half)
                assert [len(_overlapping_triangles(t[None], half)) > 0 for t in tris] == per_triangle.tolist()
        # sets the face axes cannot clear, cleared by the plane or an edge axis
        assert decided_late > 100

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_triangle_on_a_box_face(self, k, sign):
        # a triangle in the plane of the face, inside its rectangle, then just beyond it
        tri = np.zeros((3, 3))
        tri[:, [j for j in range(3) if j != k]] = [[-0.3, -0.4], [0.4, -0.2], [0.1, 0.45]]
        tri[:, k] = sign * HALF[k]
        self.check(tri, expected=True)
        tri[:, k] = sign * (HALF[k] + 1e-12)
        assert f"face {k}" in separating_axes(tri, HALF)
        self.check(tri, expected=False)

    def test_zero_area_triangles(self):
        inside = np.array([0.1, -0.2, 0.3])
        self.check([inside, inside, inside], expected=True)
        self.check([inside + [0.6, 0, 0]] * 3, expected=False)
        # collinear through the box, and a repeated vertex
        self.check([[-1.0, -2.0, -3.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]], expected=True)
        self.check([[-1.0, -2.0, -3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], expected=True)
        # a segment past the box's (x, y) corner: only an edge axis separates it
        seg = [[0.0, 2.5, 0.0], [1.25, 0.0, 0.0], [1.25, 0.0, 0.0]]
        assert separating_axes(seg, HALF) == ["edge 0 x 2", "edge 2 x 2"]
        self.check(seg, expected=False)
        self.check([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0]])  # through the corner

    def test_only_the_plane_axis_separates(self):
        # a triangle cutting off the box's (+, +, +) corner, just beyond it
        tri = 3.3 * np.diag(HALF)
        assert separating_axes(tri, HALF) == ["plane"]
        self.check(tri, expected=False)
        self.check(2.7 * np.diag(HALF), expected=True)
        self.check(3.0 * np.diag(HALF))  # through the corner

    def test_only_an_edge_axis_separates(self):
        # in the box's mid plane, with its long edge passing the (+, +) corner
        tri = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [3.0, 3.0, 0.0]]) * HALF
        assert separating_axes(tri, HALF) == ["edge 0 x 2"]
        self.check(tri, expected=False)
        self.check(np.array([[1.8, 0.0, 0.0], [0.0, 1.8, 0.0], [3.0, 3.0, 0.0]]) * HALF, expected=True)


FREE = SimResult(FailureReason.NONE)
TABLE = SimResult(FailureReason.TABLE_BLOCK, "gripper hits the table")
OCCLUDER_1 = SimResult(FailureReason.OCCLUDER_COLLISION, "gripper hits occluder 1")


class TestCollision:
    """`simulate_grasp` stops at the first offender of the every-box reference."""

    def test_free_top_down(self):
        scene = corpus.lone_box()
        g = side_grasp((0.15, 0.15, 0.05))
        assert simulate_grasp(g, scene, GRIP) == FREE
        assert shared_offenders(g, scene, GRIP) == []

    def test_occluder_flush_against_grasp_face(self):
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        occ = box_instance(0.04, 0.05, 0.1, 0.15 + 0.045 + 1e-4, 0.15)
        scene = make_scene([target, occ], target=0)
        g = side_grasp((0.15, 0.15, 0.05))
        assert simulate_grasp(g, scene, GRIP) == OCCLUDER_1
        assert reference_offenders(g, scene, GRIP) == [1]

    def test_center_below_table(self):
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        g = side_grasp((0.15, 0.15, -0.02), approach=(0, 1, 0))
        assert simulate_grasp(g, scene, GRIP) == TABLE
        assert reference_offenders(g, scene, GRIP) == ["table"]

    def test_all_offenders_reported(self):
        # fingers between two walls, palm down on the target's top, tips below the table
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        walls = [box_instance(0.03, 0.11, 0.12, 0.15 - 0.0452, 0.15),
                 box_instance(0.03, 0.11, 0.12, 0.15 + 0.0452, 0.15)]
        scene = make_scene([target] + walls, target=0)
        g = side_grasp((0.15, 0.15, -0.001))
        assert reference_offenders(g, scene, GRIP) == ["table", 0, 1, 2]
        assert simulate_grasp(g, scene, GRIP) == TABLE
        assert shared_offenders(side_grasp((0.15, 0.15, 0.05)), corpus.lone_box(), GRIP) == []

    @pytest.mark.parametrize("gap,free", [(-1e-5, False), (1e-7, True), (1e-5, True)])
    def test_broad_phase_margin_never_hides_contact(self, gap, free):
        # occluder face `gap` beyond the outer face of the +x finger (negative: overlap)
        outer = 0.15 + 0.055 / 2 + GRIP.finger_thickness
        occ = box_instance(0.04, 0.05, 0.1, outer + gap + 0.02, 0.15)
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15), occ], target=0)
        g = side_grasp((0.15, 0.15, 0.05))
        assert simulate_grasp(g, scene, GRIP) == (FREE if free else OCCLUDER_1)
        assert reference_offenders(g, scene, GRIP) == ([] if free else [1])

    @pytest.mark.parametrize("gap,offenders", [(0.0, (1,)), (2.0 ** -20, ())])
    def test_exact_contact_is_a_hit(self, gap, offenders):
        # dyadic sizes and a half-turn grasp frame keep every coordinate exact:
        # the occluder's face lies on the outer face of the +x finger, or just
        # beyond it but inside the broad-phase margin
        grip = GripperModel(max_width=0.125, finger_depth=0.0625, finger_thickness=0.015625,
                            palm_clearance=0.0078125)
        g = side_grasp((0.25, 0.25, 0.125), width=0.0625)
        outer = 0.25 + 0.03125 + 0.015625
        target = box_instance(0.046875, 0.046875, 0.125, 0.25, 0.25)
        occ = box_instance(0.0625, 0.0625, 0.1875, outer + gap + 0.03125, 0.25)
        scene = make_scene([target, occ], target=0)
        # past a cleared occluder the contacts decide: the pad slab reaches the
        # target's top edge, whose normals lie outside the cone
        cone = SimResult(FailureReason.ANTIPODAL_FAIL, "low-side contact outside the friction cone")
        assert simulate_grasp(g, scene, grip) == (OCCLUDER_1 if offenders else cone)
        assert reference_offenders(g, scene, grip) == list(offenders)


class TestSimulate:
    @pytest.mark.parametrize("bad", ["g", None, np.zeros(3)])
    def test_grasp_scene_and_gripper_must_have_their_types(self, bad):
        # "g" raised a bare AttributeError: no attribute 'width'
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        g = side_grasp((0.15, 0.15, 0.05))
        with pytest.raises(InputError, match="grasp"):
            simulate_grasp(bad, scene, GRIP)
        with pytest.raises(InputError, match="scene"):
            simulate_grasp(g, bad, GRIP)
        with pytest.raises(InputError, match="gripper"):
            simulate_grasp(g, scene, bad)

    def test_valid_side_grasp_succeeds(self):
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        res = simulate_grasp(side_grasp((0.15, 0.15, 0.05)), scene, GRIP)
        assert res.success

    def test_occluder_blocks_finger(self):
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        occ = box_instance(0.04, 0.05, 0.1, 0.15 + 0.045 + 1e-4, 0.15)
        scene = make_scene([target, occ], target=0)
        res = simulate_grasp(side_grasp((0.15, 0.15, 0.05)), scene, GRIP)
        assert not res.success
        assert res.reason == FailureReason.OCCLUDER_COLLISION
        assert res.detail == "gripper hits occluder 1"

    def test_jaws_closed_on_target_body(self):
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        res = simulate_grasp(side_grasp((0.15, 0.15, 0.05), width=0.03), scene, GRIP)
        assert res.reason == FailureReason.ANTIPODAL_FAIL
        assert res.detail == "gripper body hits the target"

    def test_axis_45_degrees_fails_cone(self):
        # friction cone half-angle atan(0.4) ~ 21.8 deg < 45 deg
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        axis = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        g = Grasp(np.array([0.15, 0.15, 0.05]), frame(axis, (0, 0, -1)), 0.0757)
        res = simulate_grasp(g, scene, GRIP)
        assert not res.success
        assert res.reason == FailureReason.ANTIPODAL_FAIL
        assert res.detail.endswith("contact outside the friction cone")

    def test_deterministic(self):
        scene = corpus.scene((5, 5), 3)
        cloud = surface_sample(scene.target.mesh, 512, seed=1).transformed(scene.target.pose)
        g = sample_candidate_grasps(cloud, GRIP, 12, seed=1)[0]
        a = simulate_grasp(g, scene, GRIP)
        b = simulate_grasp(g, scene, GRIP)  # from the one-grasp slot
        assert a == b
        # a value-equal grasp is another object, so it misses the slot
        assert simulate_grasp(Grasp(g.center.copy(), g.rotation, g.width), scene, GRIP) == a


def _grasp_key(g):
    return g.center.tolist(), g.rotation, g.width


class TestMatchesReference:
    def test_simulate_grasp_reasons(self, dense_cases):
        seen = set()
        for seed, scene, single, grasps, ref_single, ref_cluttered in dense_cases:
            for g, rs, rc in zip(grasps, ref_single, ref_cluttered):
                assert simulate_grasp(g, single, GRIP).reason == rs, seed
                assert simulate_grasp(g, scene, GRIP).reason == rc, seed
            seen.update(ref_cluttered)
        assert seen == set(FailureReason), "the scenes must exercise every reason"

    def test_label_pair_matches_two_pass_labels(self, dense_cases):
        for seed, scene, single, grasps, ref_single, ref_cluttered in dense_cases:
            labels = corpus.pair_labels(corpus.DENSE_OBJECTS, 400 + seed, 120, seed)
            assert len(labels) == 120
            assert [_grasp_key(lab.grasp) for lab in labels] == [_grasp_key(g) for g in grasps]
            assert [lab.success_single for lab in labels] == [r == FailureReason.NONE for r in ref_single]
            assert [lab.success_cluttered for lab in labels] == [r == FailureReason.NONE for r in ref_cluttered]
            assert [lab.failure_reason for lab in labels] == ref_cluttered


def _label_key(lab):
    return _grasp_key(lab.grasp), lab.success_single, lab.success_cluttered, lab.failure_reason


class TestGraspSlot:
    """`simulate_grasp` against `reference_simulate_grasp` in call orders that
    hit and miss its one-grasp slot; `SimResult`s compare with their detail."""

    def test_every_call_a_miss(self, dense_sims, dense_refs):
        # `dense_sims` judges every grasp in the single scene, then every grasp in
        # the cluttered one, so no call finds its grasp in the slot
        assert dense_sims == dense_refs

    def test_single_then_cluttered(self, dense_cases, dense_refs):
        for (seed, scene, single, grasps, _, _), (want_s, want_c) in zip(dense_cases, dense_refs):
            got = [(simulate_grasp(g, single, GRIP), simulate_grasp(g, scene, GRIP)) for g in grasps]
            assert got == list(zip(want_s, want_c)), seed

    def test_cluttered_then_single(self, dense_cases, dense_refs):
        for (seed, scene, single, grasps, _, _), (want_s, want_c) in zip(dense_cases, dense_refs):
            got = [(simulate_grasp(g, scene, GRIP), simulate_grasp(g, single, GRIP)) for g in grasps]
            assert got == list(zip(want_c, want_s)), seed

    def test_same_scene_twice(self, dense_cases, dense_refs):
        for (seed, scene, single, grasps, _, _), wants in zip(dense_cases[::4], dense_refs[::4]):
            for s, want in zip((single, scene), wants):
                got = [(simulate_grasp(g, s, GRIP), simulate_grasp(g, s, GRIP)) for g in grasps]
                assert got == [(w, w) for w in want], seed

    def test_interleaved_with_a_value_equal_grasp(self, dense_cases, dense_refs):
        for (seed, scene, single, grasps, _, _), (want_s, want_c) in zip(dense_cases[::4], dense_refs[::4]):
            for g, ws, wc in zip(grasps, want_s, want_c):
                twin = Grasp(g.center.copy(), g.rotation, g.width, g.quality)
                got = [simulate_grasp(g, single, GRIP), simulate_grasp(twin, single, GRIP),
                       simulate_grasp(g, scene, GRIP), simulate_grasp(twin, scene, GRIP)]
                assert got == [ws, ws, wc, wc], seed

    def test_gripper_changes_between_calls(self, dense_cases, dense_refs):
        twin = GripperModel()  # equal to GRIP by value, another object
        other = GripperModel(finger_thickness=0.012)
        changed = 0
        for (seed, scene, single, grasps, _, _), (want_s, want_c) in zip(dense_cases[::4], dense_refs[::4]):
            for g, ws, wc in zip(grasps, want_s, want_c):
                got = [simulate_grasp(g, single, GRIP), simulate_grasp(g, single, other),
                       simulate_grasp(g, scene, twin), simulate_grasp(g, scene, other),
                       simulate_grasp(g, single, twin)]
                thicker = [reference_simulate_grasp(g, s, other) for s in (single, scene)]
                assert got == [ws, thicker[0], wc, thicker[1], ws], seed
                changed += thicker[0] != ws
        assert changed > 0, "the thicker fingers must change some results"

    def test_another_target_of_the_same_instances(self, dense_cases, dense_refs):
        for (seed, scene, single, grasps, _, _), (want_s, want_c) in zip(dense_cases[::4], dense_refs[::4]):
            # the instance after the target: the same occluders but one, and another target object
            other = enumerate_targets(scene)[(scene.target_index + 1) % len(scene.instances)]
            other_single = derive_single_scene(other, other.target_index)
            assert other.target is not scene.target
            for g, ws, wc in zip(grasps, want_s, want_c):
                got = [simulate_grasp(g, single, GRIP), simulate_grasp(g, other, GRIP),
                       simulate_grasp(g, scene, GRIP), simulate_grasp(g, other_single, GRIP)]
                want = [ws, reference_simulate_grasp(g, other, GRIP), wc, reference_simulate_grasp(g, other_single, GRIP)]
                assert got == want, seed

    def test_occluder_hit_fills_the_target_stage(self):
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        occ = box_instance(0.04, 0.05, 0.1, 0.15 + 0.045 + 1e-4, 0.15)
        scene = make_scene([target, occ], target=0)
        single = derive_single_scene(scene, 0)
        g = side_grasp((0.15, 0.15, 0.05))
        blocked = simulate_grasp(g, scene, GRIP)
        assert blocked == reference_simulate_grasp(g, scene, GRIP) == _occluder_hit(1)
        slot = grasping._slot
        assert slot[0] is g and slot[2] is target and slot[4] == _SUCCESS
        assert simulate_grasp(g, single, GRIP) == reference_simulate_grasp(g, single, GRIP) == _SUCCESS
        # the occluder is still tested, and neither call published again
        assert simulate_grasp(g, scene, GRIP) == blocked
        assert grasping._slot is slot

    @pytest.mark.parametrize("single_first", [True, False])
    def test_a_call_that_finds_its_key_keeps_the_slot(self, dense_cases, dense_refs, single_first):
        (seed, scene, single, grasps, _, _), (want_s, want_c) = dense_cases[0], dense_refs[0]
        scenes, wants = ((single, scene), (want_s, want_c)) if single_first else ((scene, single), (want_c, want_s))
        assert FailureReason.OCCLUDER_COLLISION in {r.reason for r in want_c}
        for g, first, second in zip(grasps, *wants):
            assert simulate_grasp(g, scenes[0], GRIP) == first, seed
            slot = grasping._slot
            assert simulate_grasp(g, scenes[1], GRIP) == second, seed
            assert grasping._slot is slot, seed

    def test_slot_holds_one_grasp_and_one_target(self):
        def one_box_scene(x):
            return make_scene([box_instance(0.05, 0.05, 0.1, x, 0.15)]), side_grasp((x, 0.15, 0.05))

        scene_x, a = one_box_scene(0.1)
        assert simulate_grasp(a, scene_x, GRIP).success
        assert grasping._slot[0] is a and grasping._slot[2] is scene_x.target
        refs = [weakref.ref(a), weakref.ref(scene_x.target)]
        scene_y, b = one_box_scene(0.2)
        assert simulate_grasp(b, scene_y, GRIP).success
        del a, scene_x
        gc.collect()
        assert [r() for r in refs] == [None, None]
        grasp, gripper, target, _, result = grasping._slot
        assert grasp is b and target is scene_y.target and result == _SUCCESS


class TestBatchedOracle:
    """`_simulate_batch` and `label_pair` against the per-grasp path."""

    def test_batch_matches_simulate_grasp(self, dense_cases, dense_sims):
        for (seed, scene, single, grasps, _, _), (want_single, want_cluttered) in zip(dense_cases, dense_sims):
            assert batch_results(grasps, single, GRIP) == want_single, seed
            assert batch_results(grasps, scene, GRIP) == want_cluttered, seed

    def test_results_do_not_depend_on_the_other_grasps(self, dense_cases, dense_sims):
        for (seed, scene, single, grasps, _, _), sims in zip(dense_cases[::4], dense_sims[::4]):
            for s, want in zip((single, scene), sims):
                assert batch_results(grasps[::-1], s, GRIP) == want[::-1], seed
                assert batch_results(grasps[5:90:7], s, GRIP) == want[5:90:7], seed
                for i in range(0, len(grasps), 17):
                    assert batch_results([grasps[i]], s, GRIP) == [want[i]], seed
                assert batch_results([], s, GRIP) == []

    def test_label_pair_matches_reference_loop(self, dense_cases, dense_sims):
        for (seed, scene, *_), (_, want_cluttered) in zip(dense_cases, dense_sims):
            labels = corpus.pair_labels(corpus.DENSE_OBJECTS, 400 + seed, 120, seed)
            want = reference_label_pair(scene, GRIP, 120, seed)
            assert [_label_key(lab) for lab in labels] == [_label_key(lab) for lab in want], seed
            # each label keeps the cause `simulate_grasp` names in the cluttered scene
            assert [lab.detail for lab in labels] == [sim.detail for sim in want_cluttered], seed
            assert all(lab.detail for lab in labels if lab.failure_reason != FailureReason.NONE)

    def test_label_pair_matches_reference_loop_on_episode_scenes(self):
        # the 4-6 object scenes of the benchmark's episode corpus
        seen = set()
        for seed in range(16):
            scene = corpus.episode_scene(seed)
            got = corpus.pair_labels(corpus.EPISODE_OBJECTS, seed, 120, seed)
            want = reference_label_pair(scene, GRIP, 120, seed)
            assert [_label_key(lab) for lab in got] == [_label_key(lab) for lab in want], seed
            seen.update(lab.failure_reason for lab in got)
        assert len(seen) >= 4

    def test_label_candidates_on_the_grasp_clutter_corpus(self):
        # the candidates `grasp_clutter` samples from the completed clouds of its
        # binned targets: each label, detail included, is its pair of calls
        cam, scheme = default_camera(), BinScheme.test()
        labelled = 0
        for seed in range(16):
            scene = corpus.dense_scene(seed)
            if occlusion_levels(scene, cam, scheme)[1][scene.target_index].bin_index is None:
                continue
            grasps = sample_candidate_grasps(corpus.clutter_cloud(seed), GRIP, 120, seed)
            single = derive_single_scene(scene, scene.target_index)
            want = []
            for g in grasps:
                alone, cluttered = simulate_grasp(g, single, GRIP), simulate_grasp(g, scene, GRIP)
                want.append(GraspLabel(g, alone.success, cluttered.reason, cluttered.detail))
            assert label_candidates(grasps, scene, GRIP) == want, seed
            labelled += len(grasps)
        assert labelled == 1800

    def test_label_pair_memory(self):
        # the contact stage's matrix products run a chunk of candidates at a time;
        # a scene of its own, as a shared one's cached instance boxes would lower the peak
        scene = generate_packed_scene(SceneConfig(object_count_range=(10, 10), seed=2))
        tracemalloc.start()
        try:
            labels = label_pair(scene, GRIP, 120, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(labels) == 120
        assert peak <= 4e6


def reference_contacts(samples, pose, widths, gripper):
    """`reference_pad_slab_contacts` of each of m grasps, on all samples moved by
    its row of `pose`, (m, 1) components as `_contacts` takes them."""
    q, t = pose
    out = []
    for i, width in enumerate(widths):
        qi, ti = tuple(float(c[i, 0]) for c in q), tuple(float(c[i, 0]) for c in t)
        points_g = tuple(v + c for v, c in zip(_rotate(qi, tuple(samples.points.T)), ti))
        out.append(reference_pad_slab_contacts(points_g, _rotate(qi, tuple(samples.normals.T))[0], width, gripper))
    return out


def batch_pose(poses):
    """The (m, 1) components of `poses` that `_contacts` and `_mesh_hits` take for m grasps."""
    q = tuple(np.array([[getattr(p.rotation, c)] for p in poses]) for c in "wxyz")
    return q, tuple(np.array([[p.translation[k]] for p in poses]) for k in range(3))


def contact_details(samples, poses, widths):
    """(success, detail) of each grasp from one `_contacts` batch, asserted equal to the per-grasp reference."""
    pose = batch_pose(poses)
    got = [(r.success, r.detail) for r in (_CONTACT_RESULTS[c] for c in _contacts(samples, pose, widths, GRIP))]
    assert got == reference_contacts(samples, pose, widths, GRIP)
    return got


def shifted(t=(0.0, 0.0, 0.0)) -> Pose:
    """The translation by `t`: it moves coordinates that it leaves unchanged exactly."""
    return Pose(Quaternion.identity(), np.array(t))


class TestArrayPasses:
    """The contact and narrow-phase passes of `_simulate_batch` against the
    per-candidate loops they replace, `reference_pad_slab_contacts` and
    `reference_mesh_hits`, on the very inputs the driver hands them."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Replaces both passes by checked ones for the test; counts what they decided."""
        seen = collections.Counter()

        def mesh_hits(inst, pose, centers, halves):
            got = _mesh_hits(inst, pose, centers, halves)
            assert got.tolist() == reference_mesh_hits(inst, pose, centers, halves).tolist()
            seen["batches of two or more"] += len(got) > 1
            seen["hits"] += int(got.sum())
            return got

        def contacts(samples, pose, widths, gripper):
            got = _contacts(samples, pose, widths, gripper)
            want = reference_contacts(samples, pose, widths, gripper)
            assert [(r.success, r.detail) for r in (_CONTACT_RESULTS[c] for c in got)] == want
            seen.update(why or "success" for _, why in want)
            return got

        monkeypatch.setattr(grasping, "_mesh_hits", mesh_hits)
        monkeypatch.setattr(grasping, "_contacts", contacts)
        return seen

    def test_dense_cases(self, dense_cases, seen):
        for _, scene, single, grasps, _, _ in dense_cases:
            for s in (scene, single):
                _simulate_batch(grasps, s, GRIP)
        # the corpus has neither a grasp without slab contacts nor one too narrow; the cases below do
        assert set(seen) == {"batches of two or more", "hits", "success", *(r.detail for r in _CONTACT_RESULTS[2:4])}

    def test_episode_scenes(self, episode_cases, seen):
        for _, scene, grasps in episode_cases:
            _simulate_batch(grasps, scene, GRIP)
        assert seen["batches of two or more"] > 16 and seen["hits"] > 0 and seen["success"] > 0

    # a grasp along x: contacts at x = -0.02 and 0.02 with outward normals
    POINTS = [[-0.02, 0.0, -0.01], [0.02, 0.0, -0.01]]
    NORMALS = [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]

    def test_a_grasp_without_slab_samples_between_two_with_some(self):
        samples = PointCloud(self.POINTS, self.NORMALS)
        # the identity moves every coordinate exactly; the middle pose lifts all samples off the slab
        poses = [shifted(), shifted([0.0, 0.0, 1.0]), shifted()]
        assert contact_details(samples, poses, [0.05, 0.05, 0.03]) == [
            (True, ""), (False, "no contact in the pad slab"), (False, "object does not fit within the jaws")]

    @pytest.mark.parametrize("normal, detail", [([1.0, 0.0, 0.0], "low-side contact outside the friction cone"),
                                                ([-1.0, 0.0, 0.0], "high-side contact outside the friction cone")])
    def test_a_single_slab_sample(self, normal, detail):
        # its one sample is both ends of a grasp's contact interval, so one cone test fails
        samples = PointCloud(self.POINTS + [[0.0, 0.0, -0.045]], self.NORMALS + [normal])
        above = shifted([0.0, 0.0, 0.015])  # the pair leaves the slab, the third stays
        got = contact_details(samples, [shifted(), above, shifted(), above], [0.05, 0.05, 0.03, 0.03])
        assert got == [(True, ""), (False, detail), (False, "object does not fit within the jaws"), (False, detail)]

    def test_samples_at_the_band_edges(self):
        # the low end's only cone normal sits exactly CONTACT_BAND above it, the
        # high end's exactly CONTACT_BAND below it; one float step further in, each is out of its band
        lo, hi = -0.02, 0.02
        edge_lo, edge_hi = lo + grasping.CONTACT_BAND, hi - grasping.CONTACT_BAND
        side = [0.0, 0.0, 1.0]  # a normal outside the cone on either side
        for low_x, high_x, want in [
            (edge_lo, edge_hi, (True, "")),
            (np.nextafter(edge_lo, 1.0), edge_hi, (False, "low-side contact outside the friction cone")),
            (edge_lo, np.nextafter(edge_hi, -1.0), (False, "high-side contact outside the friction cone")),
        ]:
            samples = PointCloud([[lo, 0.0, -0.01], [low_x, 0.0, -0.01], [high_x, 0.0, -0.01], [hi, 0.0, -0.01]],
                                 [side, [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], side])
            got = contact_details(samples, [shifted(), shifted([0.0, 1.0, 0.0]), shifted()],
                                  [0.05, 0.05, 0.05])
            assert got == [want, (False, "no contact in the pad slab"), want]

    def test_finger_boxes_share_a_half_vector(self, monkeypatch):
        # a box target and grasps from above: a free one, one whose fingers and
        # palm reach into the box, one whose palm alone reaches its top, one far away
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        grasps = [side_grasp((0.15, 0.15, 0.05)), side_grasp((0.15, 0.15, -0.005), width=0.04),
                  side_grasp((0.15, 0.15, -0.005)), side_grasp((0.5, 0.5, 0.05))]
        boxes = np.array([gripper_boxes(g.width, GRIP) for g in grasps])
        centers, halves = (boxes[:, :, 0] + boxes[:, :, 1]) / 2.0, (boxes[:, :, 1] - boxes[:, :, 0]) / 2.0
        assert (halves[:, 0] == halves[:, 1]).all() and (halves[:, 0] != halves[:, 2]).any(axis=1).all()
        passes = collections.Counter()  # (half vector, number of boxes) of each pass

        def overlapping(tri, half):
            passes[tuple(half.tolist()), len(tri) // len(target.mesh.triangles)] += 1
            return overlapping_triangles(tri, half)

        overlapping_triangles = grasping._overlapping_triangles
        monkeypatch.setattr(grasping, "_overlapping_triangles", overlapping)
        for rows in ([0, 1, 2, 3], [2, 1], [0, 2], [1, 3], [0], [1], [2]):
            pose = batch_pose([reference_pose_mul(Pose(g.rotation, g.center).inverse(), target.pose)
                               for g in [grasps[r] for r in rows]])
            want = reference_mesh_hits(target, pose, centers[rows], halves[rows])
            passes.clear()
            got = _mesh_hits(target, pose, centers[rows], halves[rows])
            assert got.tolist() == want.tolist() == [r in (1, 2) for r in rows], rows
            if len(rows) > 1 and 1 in rows:
                # one pass per half vector: both fingers of grasp 1, and grasp 2's palm; the
                # fingers' pass hit grasp 1, so the pass of its palm's half vector is left out
                want = {(tuple(halves[1, 1].tolist()), 2): 1}
                if 2 in rows:
                    want[tuple(halves[2, 2].tolist()), 1] = 1
                assert passes == want, rows

    def test_a_grasp_an_earlier_pass_hit_leaves_the_later_passes(self, monkeypatch):
        # two grasps of one width, so their palms share a half vector: grasp 0's fingers
        # and palm reach into the box, grasp 1, from below, reaches its top with the palm alone
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        grasps = [side_grasp((0.15, 0.15, -0.005), width=0.04),
                  side_grasp((0.15, 0.15, 0.205), approach=(0, 0, 1), width=0.04)]
        boxes = np.array([gripper_boxes(g.width, GRIP) for g in grasps])
        centers, halves = (boxes[:, :, 0] + boxes[:, :, 1]) / 2.0, (boxes[:, :, 1] - boxes[:, :, 0]) / 2.0
        pose = batch_pose([reference_pose_mul(Pose(g.rotation, g.center).inverse(), target.pose) for g in grasps])
        for box, want in ((0, [True, False]), (2, [True, True])):  # each box kind alone
            assert reference_mesh_hits(target, pose, centers[:, [box]], halves[:, [box]]).tolist() == want
        passes = []  # (half vector, number of boxes) of each pass

        def overlapping(tri, half):
            passes.append((tuple(half.tolist()), len(tri) // len(target.mesh.triangles)))
            return overlapping_triangles(tri, half)

        overlapping_triangles = grasping._overlapping_triangles
        monkeypatch.setattr(grasping, "_overlapping_triangles", overlapping)
        assert _mesh_hits(target, pose, centers, halves).tolist() == [True, True]
        # the palms' pass holds grasp 1's palm alone; it held both palms before
        assert passes == [(tuple(halves[0, 0].tolist()), 2), (tuple(halves[0, 2].tolist()), 1)]


class TestComposedPoses:
    """`_compose` of `_inverse`, which moves meshes into grasp frames in both
    drivers, gives the bits of the reference pose inverse and product kept in
    `tests/test_geometry.py`, for float and (m, 1) components."""

    def test_matches_pose_product(self):
        rng = np.random.default_rng(43)
        grasps = [Pose(Quaternion.from_array(rng.normal(size=4)), rng.uniform(-0.3, 0.3, size=3)) for _ in range(50)]
        inst = Pose(Quaternion.from_array(rng.normal(size=4)), rng.uniform(-0.3, 0.3, size=3))
        rows = []
        for g in grasps:
            r = g.rotation
            q, t = _compose(_inverse((r.w, r.x, r.y, r.z), g.translation.tolist()), inst)
            want = reference_pose_mul(reference_pose_inverse(g), inst)
            assert q == (want.rotation.w, want.rotation.x, want.rotation.y, want.rotation.z)
            assert list(t) == want.translation.tolist()
            rows.append((q, t))
        q = tuple(np.array([[g.rotation.w, g.rotation.x, g.rotation.y, g.rotation.z] for g in grasps]).T[:, :, None])
        center = np.array([g.translation for g in grasps])
        q, t = _compose(_inverse(q, tuple(center.T[:, :, None])), inst)
        assert [(tuple(float(c[i, 0]) for c in q), tuple(float(c[i, 0]) for c in t)) for i in range(50)] == rows


class TestContactPrefilter:
    """The batched contact stage decides as `reference_pad_slab_contacts` on all samples."""

    WIDTH = 0.05
    # a pair of contacts that makes a grasp, then a probe beyond the +x jaw
    # that spoils it if it lies in the pad slab
    POINTS = [[-0.02, 0.0, -0.01], [0.02, 0.0, -0.01]]
    NORMALS = [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]

    def decide(self, pose, points):
        samples = PointCloud(points, self.NORMALS)
        q, t = pose.rotation, pose.translation
        parts = tuple(np.array([[c]]) for c in (q.w, q.x, q.y, q.z)), tuple(np.array([[c]]) for c in t)
        [code] = _contacts(samples, parts, [self.WIDTH], GRIP)
        want = reference_pad_slab_contacts(tuple(pose.transform(samples.points).T),
                                           pose.rotation.rotate(samples.normals)[:, 0], self.WIDTH, GRIP)
        got = _CONTACT_RESULTS[code]
        assert (got.success, got.detail) == want
        return want

    def probes(self):
        """(y, z, in the slab) in the grasp frame: on each face, one float step beyond it, beyond the margin."""
        h, fd = GRIP.finger_thickness / 2, GRIP.finger_depth
        out, far = np.nextafter, 2 * BROAD_PHASE_MARGIN
        return [(h, -0.01, True), (-h, -0.01, True), (0.0, 0.0, True), (0.0, -fd, True),
                (h, 0.0, True), (-h, -fd, True),
                (out(h, 1), -0.01, False), (out(-h, -1), -0.01, False), (0.0, out(0.0, 1), False),
                (0.0, out(-fd, -1), False), (out(h, 1), out(0.0, 1), False),
                (h + far, -0.01, False), (0.0, far, False), (0.0, -fd - far, False)]

    @pytest.mark.parametrize("flip", [1.0, -1.0])
    def test_samples_on_the_slab_faces(self, flip):
        # the identity and the half-turn about x move every coordinate exactly
        pose = Pose(Quaternion.identity() if flip > 0 else Quaternion(0.0, 1.0, 0.0, 0.0))
        for y, z, inside in self.probes():
            points = np.array(self.POINTS + [[0.03, y, z]]) * [1.0, flip, flip]
            assert pose.transform(points)[2].tolist() == [0.03, y, z]
            expected = (False, "object does not fit within the jaws") if inside else (True, "")
            assert self.decide(pose, points) == expected, (y, z)

    def test_samples_near_the_faces_of_random_frames(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            pose = Pose(Quaternion.from_array(rng.normal(size=4)), rng.uniform(-0.3, 0.3, size=3))
            back = pose.inverse()
            for y, z, _ in self.probes():
                self.decide(pose, back.transform(np.array(self.POINTS + [[0.03, y, z]])))


class TestLabelPair:
    @pytest.mark.parametrize("bad", ["s", None, [1, 2]])
    def test_cluttered_must_be_a_scene(self, bad):
        # "s" raised a bare AttributeError: no attribute 'target'
        with pytest.raises(InputError, match="cluttered"):
            label_pair(bad, GRIP, 5, 1)

    def test_label_candidates_arguments_must_have_their_types(self):
        scene, g = corpus.lone_box(), side_grasp((0.15, 0.15, 0.05))
        for args, match in [(("g", scene, GRIP), "grasps"), (([g, "g"], scene, GRIP), "grasps"),
                            (([g], "s", GRIP), "cluttered"), (([g], scene, None), "gripper")]:
            with pytest.raises(InputError, match=match):
                label_candidates(*args)
        assert label_candidates([], scene, GRIP) == []

    @pytest.mark.parametrize("labels", ["abc", None, ["x"], [GraspLabel(side_grasp((0.15, 0.15, 0.05)), True,
                                                                       FailureReason.NONE), 5]])
    def test_taxonomy_of_labels_only(self, labels):
        # "abc" raised a bare AttributeError: no attribute 'success_cluttered'
        with pytest.raises(InputError, match="labels"):
            taxonomy_counts(labels)

    def test_single_object_scene_labels_agree(self):
        scene = corpus.scene((1, 1), 6)
        labels = label_pair(scene, GRIP, 48, seed=2)
        assert labels
        for lab in labels:
            assert lab.success_single == lab.success_cluttered

    def test_walled_in_target_yields_class_two(self):
        # target surrounded by four flush walls: side grasps succeed alone,
        # fail cluttered
        t = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        gap = 0.0452
        walls = [
            box_instance(0.03, 0.11, 0.12, 0.15 - gap, 0.15),
            box_instance(0.03, 0.11, 0.12, 0.15 + gap, 0.15),
            box_instance(0.11, 0.03, 0.12, 0.15, 0.15 - gap),
            box_instance(0.11, 0.03, 0.12, 0.15, 0.15 + gap),
        ]
        scene = make_scene([t] + walls, target=0)
        labels = label_pair(scene, GRIP, 96, seed=4)
        counts = taxonomy_counts(labels)
        assert counts["succeed_fail"] > 0
        assert counts["succeed_succeed"] == 0

    def test_subset_invariant_random_scenes(self):
        total = 0
        for seed in range(12):
            scene = corpus.scene((4, 6), 100 + seed)
            labels = label_pair(scene, GRIP, 40, seed=seed)
            total += len(labels)
            for lab in labels:
                assert not (lab.success_cluttered and not lab.success_single)
        assert total >= 400

    def test_removing_occluder_never_flips_success_to_failure(self):
        for seed in range(6):
            scene = corpus.scene((4, 5), 200 + seed)
            if len(scene.instances) < 2:
                continue
            drop = (scene.target_index + 1) % len(scene.instances)
            kept = [inst for i, inst in enumerate(scene.instances) if i != drop]
            new_target = scene.target_index - (1 if drop < scene.target_index else 0)
            reduced = make_scene(kept, target=new_target, seed=scene.seed)
            cloud = surface_sample(scene.target.mesh, 512, seed=3).transformed(scene.target.pose)
            for g in sample_candidate_grasps(cloud, GRIP, 24, seed=seed):
                before = simulate_grasp(g, scene, GRIP).success
                after = simulate_grasp(g, reduced, GRIP).success
                if before:
                    assert after


def label_from_record(rec: dict) -> GraspLabel:
    """The label a labels-file record holds, rebuilt from its fields; its
    `success_cluttered` must be the bool that its reason gives."""
    grasp = Grasp(np.array(rec["t"]), Quaternion.from_array(rec["r"]), rec["w"])
    label = GraspLabel(grasp, rec["success_single"], FailureReason(rec["reason"]))
    if rec["success_cluttered"] is not label.success_cluttered:
        raise InputError(f"success flags must be bools that agree with the reason, got {rec['success_cluttered']!r}")
    return label


def reference_label_to_record(scene_id: str, target_index: int, label: GraspLabel) -> dict:
    """`label_to_record` as it was: the canonical sign by `Quaternion.canonical`'s
    loop, which built a checked quaternion for each flip, and `float` of each centre component."""
    q = label.grasp.rotation
    for c in (q.w, q.x, q.y, q.z):
        if c > 0.0:
            break
        if c < 0.0:
            q = Quaternion(-q.w, -q.x, -q.y, -q.z)
            break
    return {
        "scene_id": scene_id,
        "target_index": int(target_index),
        "t": [float(x) for x in label.grasp.center],
        "r": [q.w, q.x, q.y, q.z],
        "w": label.grasp.width,
        "success_single": label.success_single,
        "success_cluttered": label.success_cluttered,
        "reason": label.failure_reason.value,
    }


def reference_write_labels_jsonl(path, scene_id: str, target_index: int, labels) -> None:
    """`write_labels_jsonl` as it was: one `json.dumps(..., sort_keys=True)` line per record."""
    Path(path).write_text("".join(json.dumps(reference_label_to_record(scene_id, target_index, lab), sort_keys=True)
                                  + "\n" for lab in labels))


def assert_labels_file_as_before(tmp_path, scene_id: str, target_index, labels) -> None:
    write_labels_jsonl(tmp_path / "got.jsonl", scene_id, target_index, labels)
    reference_write_labels_jsonl(tmp_path / "want.jsonl", scene_id, target_index, labels)
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    for lab in labels:
        rec = label_to_record(scene_id, target_index, lab)
        assert rec == reference_label_to_record(scene_id, target_index, lab)
        assert list(rec) == sorted(rec)


class TestLabelRecordsAsBefore:
    """`write_labels_jsonl` and `label_to_record` share one record builder; the
    files and the records equal the per-label `sort_keys` writer's."""

    def test_episode_corpus(self, tmp_path):
        # the 120 labels of each of the 16 `episode` scenes
        for seed in corpus.EPISODE_SEEDS:
            scene = corpus.episode_scene(seed)
            labels = corpus.pair_labels(corpus.EPISODE_OBJECTS, seed, 120, seed)
            assert_labels_file_as_before(tmp_path, f"scene_{seed:03d}", scene.target_index, labels)

    @pytest.mark.parametrize("rotation, written", [
        (Quaternion(-0.6, 0.0, 0.0, 0.8), [0.6, -0.0, -0.0, -0.8]),
        (Quaternion(0.0, -0.6, 0.8, 0.0), [-0.0, 0.6, -0.8, -0.0]),
        (Quaternion(-0.0, -0.0, -0.6, -0.8), [0.0, 0.0, 0.6, 0.8]),
        (Quaternion(-0.0, 0.6, -0.0, 0.8), [-0.0, 0.6, -0.0, 0.8]),
        (Quaternion(0.0, -0.0, 0.0, -1.0), [-0.0, 0.0, -0.0, 1.0]),
        (Quaternion(-0.0, -0.0, -0.0, -0.0), [-0.0, -0.0, -0.0, -0.0]),
        (Quaternion(-1, 0, 0, 0), [1, 0, 0, 0]),
        (Quaternion(*np.array([-0.6, 0.0, 0.8, 0.0])), [0.6, -0.0, -0.8, -0.0]),
    ])
    @pytest.mark.parametrize("target_index", [3, np.int64(3), np.uint16(3)])
    def test_hand_built_quaternions(self, rotation, written, target_index, tmp_path):
        labels = [GraspLabel(Grasp(np.array([0.1, 0.2, 0.05]), rotation, 0.04), True, FailureReason.NONE),
                  GraspLabel(Grasp(np.array([0.1, -0.0, 0.05]), rotation, 0.04), False, FailureReason.ANTIPODAL_FAIL)]
        assert_labels_file_as_before(tmp_path, "scene_000", target_index, labels)
        rec = read_labels_jsonl(tmp_path / "got.jsonl")[0]
        assert rec["target_index"] == 3 and type(rec["target_index"]) is int
        assert [(x, math.copysign(1.0, x), type(x)) for x in rec["r"]] == [
            (x, math.copysign(1.0, x), type(x)) for x in written]

    @pytest.mark.parametrize("scene_id", ['s}, {"r": [1.0', '}, {"r": ', 'a"\n\\"}, {"r": ', "sc\u00e8ne \u2603", ""])
    def test_scene_ids_that_hold_the_record_boundary(self, scene_id, tmp_path):
        # the file is one encoding of all records, broken into lines where one record
        # ends and the next opens with '{"r": '; a scene id holding that text stays whole
        rotation = frame((1, 0, 0), (0, 0, -1))
        labels = [GraspLabel(Grasp(np.array([0.1, 0.2, 0.05]), rotation, np.float64(0.04)), True, FailureReason.NONE),
                  GraspLabel(Grasp(np.array([-0.0, 0.2, 1e-300]), Quaternion(1, 0, 0, 0), 0), False,
                             FailureReason.TABLE_BLOCK),
                  GraspLabel(Grasp(np.array([0.1, 0.2, 0.05]), rotation, 1e20), False, FailureReason.WIDTH_EXCEEDED)]
        assert_labels_file_as_before(tmp_path, scene_id, 7, labels)
        assert [rec["scene_id"] for rec in read_labels_jsonl(tmp_path / "got.jsonl")] == [scene_id] * 3

    def test_no_labels(self, tmp_path):
        assert_labels_file_as_before(tmp_path, "scene_000", np.int64(0), [])
        assert (tmp_path / "got.jsonl").read_bytes() == b""


class TestJsonl:
    @pytest.mark.parametrize("labels", ["abc", None, ["x"], [GraspLabel(side_grasp((0.15, 0.15, 0.05)), True,
                                                                       FailureReason.NONE), "x"]])
    def test_labels_checked_before_the_file_is_opened(self, labels, tmp_path):
        # a bad label raised a bare AttributeError and left a partial file behind
        path = tmp_path / "labels.jsonl"
        with pytest.raises(InputError, match="labels"):
            write_labels_jsonl(path, "scene_009", 0, labels)
        assert not path.exists()

    def test_numpy_target_index_written_as_an_int(self, tmp_path):
        # np.int64(3) raised a bare TypeError from `json` and left an empty file
        path = tmp_path / "labels.jsonl"
        labels = [GraspLabel(side_grasp((0.15, 0.15, 0.05)), True, FailureReason.NONE)]
        write_labels_jsonl(path, "scene_009", np.int64(3), labels)
        assert [rec["target_index"] for rec in read_labels_jsonl(path)] == [3]

    @pytest.mark.parametrize("scene_id, target_index", [(object(), 0), (None, 0), ("s", True), ("s", 1.0), ("s", "0")])
    def test_scene_id_and_target_index_checked_before_the_file_is_opened(self, scene_id, target_index, tmp_path):
        # an object() scene id raised a bare TypeError from `json` and left an empty file
        path = tmp_path / "labels.jsonl"
        labels = [GraspLabel(side_grasp((0.15, 0.15, 0.05)), True, FailureReason.NONE)]
        with pytest.raises(InputError, match="scene_id|target_index"):
            write_labels_jsonl(path, scene_id, target_index, labels)
        assert not path.exists()

    def test_scene_id_and_target_index_checked_without_labels(self, tmp_path):
        # with no labels no record was made, so no check ran and an empty file was written
        path = tmp_path / "labels.jsonl"
        with pytest.raises(InputError, match="scene_id must be a str"):
            write_labels_jsonl(path, object(), 0, [])
        with pytest.raises(InputError, match="target_index must be an integer"):
            write_labels_jsonl(path, "scene_009", True, [])
        assert not path.exists()
        write_labels_jsonl(path, "scene_009", 0, [])
        assert read_labels_jsonl(path) == []

    @pytest.mark.parametrize("label", ["x", None, 3])
    def test_record_needs_a_label(self, label):
        with pytest.raises(InputError, match="label"):
            label_to_record("scene_009", 0, label)

    def test_round_trip(self, tmp_path):
        scene = corpus.scene((3, 3), 9)
        labels = corpus.pair_labels((3, 3), 9, 24, 7)
        path = tmp_path / "labels.jsonl"
        write_labels_jsonl(path, "scene_009", scene.target_index, labels)
        records = read_labels_jsonl(path)
        assert len(records) == len(labels)
        assert records[0]["scene_id"] == "scene_009"
        assert records == [label_to_record("scene_009", scene.target_index, lab) for lab in labels]
        back = label_from_record(records[0])
        assert back.success_single == labels[0].success_single
        assert back.failure_reason == labels[0].failure_reason
        assert np.allclose(back.grasp.center, labels[0].grasp.center)

    def test_grasps_read_back_compare_equal(self, tmp_path):
        # the records hold the canonical sign of each rotation
        scene = corpus.scene((3, 3), 9)
        labels = corpus.pair_labels((3, 3), 9, 24, 7)
        write_labels_jsonl(tmp_path / "labels.jsonl", "scene_009", scene.target_index, labels)
        back = [label_from_record(rec) for rec in read_labels_jsonl(tmp_path / "labels.jsonl")]
        assert [lab.grasp for lab in back] == [lab.grasp for lab in labels]
        assert any(lab.grasp.rotation != lab.grasp.rotation.canonical() for lab in labels)

    def test_short_center_rejected(self):
        rec = label_to_record("scene_000", 0, GraspLabel(side_grasp((0.15, 0.15, 0.05)), True,
                                                         FailureReason.NONE))
        rec["t"] = rec["t"][:2]
        with pytest.raises(InputError, match="center"):
            label_from_record(rec)

    @pytest.mark.parametrize("r", [[float("nan"), 0.0, 0.0, 1.0], [0.0, float("inf"), 0.0, 0.0]])
    def test_non_finite_rotation_rejected(self, r):
        rec = label_to_record("scene_000", 0, GraspLabel(side_grasp((0.15, 0.15, 0.05)), True,
                                                         FailureReason.NONE))
        rec["r"] = r
        with pytest.raises(InputError, match="finite"):
            label_from_record(rec)

    @pytest.mark.parametrize("key", ["success_single", "success_cluttered"])
    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_non_bool_success_rejected(self, key, value):
        rec = label_to_record("scene_000", 0, GraspLabel(side_grasp((0.15, 0.15, 0.05)), False,
                                                         FailureReason.OCCLUDER_COLLISION))
        rec[key] = value
        with pytest.raises(InputError, match="bools"):
            label_from_record(rec)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"w": 0.05}\n\n{"w": 0.05\n')
        with pytest.raises(InputError, match="line 3"):
            read_labels_jsonl(path)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"w"', "null"])
    def test_line_that_is_not_an_object_rejected(self, tmp_path, line):
        # such a line was returned as a record
        path = tmp_path / "labels.jsonl"
        path.write_text('{"w": 0.05}\n' + line + "\n")
        with pytest.raises(InputError, match="line 2 is not a JSON object"):
            read_labels_jsonl(path)

    def test_grasps_read_back_found_in_a_set(self, tmp_path):
        scene = corpus.scene((3, 3), 9)
        labels = corpus.pair_labels((3, 3), 9, 24, 7)
        write_labels_jsonl(tmp_path / "labels.jsonl", "scene_009", scene.target_index, labels)
        originals = {lab.grasp for lab in labels}
        for rec in read_labels_jsonl(tmp_path / "labels.jsonl"):
            assert label_from_record(rec).grasp in originals
        g = side_grasp((0.15, 0.15, 0.05))
        q = g.rotation
        assert hash(Grasp(g.center.copy(), Quaternion(-q.w, -q.x, -q.y, -q.z), g.width)) == hash(g)
