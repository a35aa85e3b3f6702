import logging

import numpy as np
import pytest

from occlugrasp.errors import InputError
from occlugrasp.geometry import PointCloud, Pose, Quaternion
from occlugrasp.grasping import (
    DEFAULT_FRICTION,
    FailureReason,
    Grasp,
    GraspLabel,
    GripperModel,
    _pad_slab_contacts,
    _tri_aabb_overlap,
    check_collision,
    grasp_frame,
    gripper_boxes,
    label_pair,
    read_labels_jsonl,
    record_to_label,
    sample_candidate_grasps,
    simulate_grasp,
    taxonomy_counts,
    write_labels_jsonl,
)
from occlugrasp.meshes import make_sphere, surface_sample
from occlugrasp.scenes import CatalogConfig, SceneConfig, build_catalog, derive_single_scene, generate_packed_scene

from .test_camera import box_instance, make_scene

GRIP = GripperModel()


def side_grasp(center, axis=(1, 0, 0), approach=(0, 0, -1), width=0.055):
    return Grasp(np.asarray(center, float), grasp_frame(axis, approach), width)


# ---------------------------------------------------------------------------
# reference oracle: every gripper box against every instance, each mesh moved
# into the grasp frame once per box, all offenders collected before the reason
# is chosen. The oracle in `grasping` must give the same reasons.

_CORNERS = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])


def _reference_box_hits_mesh(box, grasp, mesh, pose):
    center_local = (box[0] + box[1]) / 2.0
    half = (box[1] - box[0]) / 2.0
    to_grasp = Pose(grasp.rotation, grasp.center).inverse() * pose
    verts = to_grasp.transform(mesh.vertices) - center_local
    if (verts.min(axis=0) > half).any() or (verts.max(axis=0) < -half).any():
        return False
    tris = mesh.triangles
    return bool(_tri_aabb_overlap(verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]], half).any())


def reference_offenders(grasp, scene, gripper):
    boxes = gripper_boxes(grasp.width, gripper)
    corners = [grasp.rotation.rotate(b[0] + _CORNERS * (b[1] - b[0])) + grasp.center for b in boxes]
    offenders = ["table"] if min(c[:, 2].min() for c in corners) < -1e-9 else []
    for idx, inst in enumerate(scene.instances):
        if any(_reference_box_hits_mesh(b, grasp, inst.mesh, inst.pose) for b in boxes):
            offenders.append(idx)
    return offenders


def reference_simulate(grasp, scene, gripper, friction_mu=DEFAULT_FRICTION):
    if grasp.width > gripper.max_width + 1e-12:
        return FailureReason.WIDTH_EXCEEDED
    offenders = reference_offenders(grasp, scene, gripper)
    if "table" in offenders:
        return FailureReason.TABLE_BLOCK
    if any(o != scene.target_index for o in offenders):
        return FailureReason.OCCLUDER_COLLISION
    if offenders:
        return FailureReason.ANTIPODAL_FAIL
    target = scene.target
    to_grasp = Pose(grasp.rotation, grasp.center).inverse() * target.pose
    samples = target.mesh.contact_samples
    ok, _ = _pad_slab_contacts(to_grasp.transform(samples.points), to_grasp.rotate_only(samples.normals),
                               grasp.width, gripper, friction_mu)
    return FailureReason.NONE if ok else FailureReason.ANTIPODAL_FAIL


@pytest.fixture(scope="module")
def dense_cases():
    """20 seeded 8-10 object scenes, 120 candidates each, with reference reasons."""
    catalog = build_catalog(CatalogConfig())
    cases = []
    for seed in range(20):
        scene = generate_packed_scene(SceneConfig(object_count_range=(8, 10), seed=400 + seed), catalog)
        single = derive_single_scene(scene, scene.target_index)
        grasps = [lab.grasp for lab in label_pair(scene, GRIP, 120, seed)]
        ref_single = [reference_simulate(g, single, GRIP) for g in grasps]
        ref_cluttered = [reference_simulate(g, scene, GRIP) for g in grasps]
        cases.append((seed, scene, single, grasps, ref_single, ref_cluttered))
    return cases


class TestTypes:
    def test_gripper_validation(self):
        with pytest.raises(InputError):
            GripperModel(max_width=-0.08)

    def test_grasp_quality_range(self):
        with pytest.raises(InputError):
            Grasp(np.zeros(3), Quaternion.identity(), 0.05, quality=1.5)

    def test_label_subset_enforced(self):
        g = side_grasp((0.15, 0.15, 0.05))
        with pytest.raises(InputError):
            GraspLabel(g, False, True, FailureReason.NONE)

    def test_grasp_frame_orthonormal(self):
        q = grasp_frame((1, 0, 0), (0, 0, -1))
        m = q.as_matrix()
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.allclose(m[:, 0], [1, 0, 0], atol=1e-12)
        assert np.allclose(m[:, 2], [0, 0, -1], atol=1e-12)


class TestSampling:
    def test_box_side_widths(self):
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        cloud = surface_sample(target.mesh, 1024, seed=7).transformed(target.pose)
        cands = sample_candidate_grasps(cloud, GRIP, 200, seed=3)
        across = [c for c in cands if abs(abs(c.axis[2]) - 0.0) < 0.2 and c.width < 0.08]
        assert across, "expected side candidates across the 0.05 faces"
        for c in across:
            assert abs(c.width - (0.05 + GRIP.palm_clearance)) < 0.004

    def test_wide_box_flagged_width_exceeded(self):
        target = box_instance(0.10, 0.10, 0.06, 0.15, 0.15)
        scene = make_scene([target])
        cloud = surface_sample(target.mesh, 1024, seed=9).transformed(target.pose)
        cands = sample_candidate_grasps(cloud, GRIP, 150, seed=4)
        across = [c for c in cands if abs(c.axis[2]) < 0.2]  # horizontal closing axis
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

    def test_cloud_without_normals_rejected(self):
        with pytest.raises(InputError):
            sample_candidate_grasps(PointCloud(np.random.default_rng(0).normal(size=(50, 3))), GRIP, 10, seed=0)

    def test_shortfall_logged(self, caplog):
        # a flat patch has no opposing point for any sample
        pts = np.column_stack([np.random.default_rng(0).uniform(size=(50, 2)), np.zeros(50)])
        cloud = PointCloud(pts, np.tile([0.0, 0.0, 1.0], (50, 1)))
        with caplog.at_level(logging.WARNING, logger="occlugrasp.grasping"):
            assert sample_candidate_grasps(cloud, GRIP, 4, seed=0) == []
        assert [r.getMessage() for r in caplog.records] == ["candidate sampling: 0 of 4 grasps after 200 attempts"]

    def test_deterministic(self):
        cloud = surface_sample(make_sphere(0.03), 1024, seed=5)
        a = sample_candidate_grasps(cloud, GRIP, 48, seed=11)
        b = sample_candidate_grasps(cloud, GRIP, 48, seed=11)
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.center, gb.center)
            assert ga.rotation.as_array().tolist() == gb.rotation.as_array().tolist()


class TestCollision:
    def test_free_top_down(self):
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        res = check_collision(side_grasp((0.15, 0.15, 0.05)), scene, GRIP)
        assert res.free

    def test_occluder_flush_against_grasp_face(self):
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        occ = box_instance(0.04, 0.05, 0.1, 0.15 + 0.045 + 1e-4, 0.15)
        scene = make_scene([target, occ], target=0)
        res = check_collision(side_grasp((0.15, 0.15, 0.05)), scene, GRIP)
        assert not res.free
        assert res.offender == 1

    def test_center_below_table(self):
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        res = check_collision(side_grasp((0.15, 0.15, -0.02), approach=(0, 1, 0)), scene, GRIP)
        assert not res.free
        assert res.offender == "table"

    def test_all_offenders_reported(self):
        # fingers between two walls, palm down on the target's top, tips below the table
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        walls = [box_instance(0.03, 0.11, 0.12, 0.15 - 0.0452, 0.15),
                 box_instance(0.03, 0.11, 0.12, 0.15 + 0.0452, 0.15)]
        scene = make_scene([target] + walls, target=0)
        g = side_grasp((0.15, 0.15, -0.001))
        res = check_collision(g, scene, GRIP)
        assert res.offenders == ("table", 0, 1, 2)
        assert res.offender == "table" and not res.free
        assert list(res.offenders) == reference_offenders(g, scene, GRIP)
        assert check_collision(side_grasp((0.15, 0.15, 0.05)), make_scene([target]), GRIP).offenders == ()

    @pytest.mark.parametrize("gap,free", [(-1e-5, False), (1e-7, True), (1e-5, True)])
    def test_broad_phase_margin_never_hides_contact(self, gap, free):
        # occluder face `gap` beyond the outer face of the +x finger (negative: overlap)
        outer = 0.15 + 0.055 / 2 + GRIP.finger_thickness
        occ = box_instance(0.04, 0.05, 0.1, outer + gap + 0.02, 0.15)
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15), occ], target=0)
        g = side_grasp((0.15, 0.15, 0.05))
        res = check_collision(g, scene, GRIP)
        assert res.free == free
        assert list(res.offenders) == reference_offenders(g, scene, GRIP)
        expected = FailureReason.NONE if free else FailureReason.OCCLUDER_COLLISION
        assert simulate_grasp(g, scene, GRIP).reason == expected


class TestSimulate:
    def test_valid_side_grasp_succeeds(self):
        scene = make_scene([box_instance(0.05, 0.05, 0.1, 0.15, 0.15)])
        res = simulate_grasp(side_grasp((0.15, 0.15, 0.05)), scene, GRIP, friction_mu=0.4)
        assert res.success

    def test_occluder_blocks_finger(self):
        target = box_instance(0.05, 0.05, 0.1, 0.15, 0.15)
        occ = box_instance(0.04, 0.05, 0.1, 0.15 + 0.045 + 1e-4, 0.15)
        scene = make_scene([target, occ], target=0)
        res = simulate_grasp(side_grasp((0.15, 0.15, 0.05)), scene, GRIP, friction_mu=0.4)
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
        g = Grasp(np.array([0.15, 0.15, 0.05]), grasp_frame(axis, (0, 0, -1)), 0.0757)
        res = simulate_grasp(g, scene, GRIP, friction_mu=0.4)
        assert not res.success
        assert res.reason == FailureReason.ANTIPODAL_FAIL
        assert res.detail.endswith("contact outside the friction cone")

    def test_deterministic(self):
        scene = generate_packed_scene(SceneConfig(object_count_range=(5, 5), seed=3))
        cloud = surface_sample(scene.target.mesh, 512, seed=1).transformed(scene.target.pose)
        g = sample_candidate_grasps(cloud, GRIP, 12, seed=1)[0]
        a = simulate_grasp(g, scene, GRIP)
        b = simulate_grasp(g, scene, GRIP)
        assert a == b


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
            labels = label_pair(scene, GRIP, 120, seed)
            assert len(labels) == 120
            assert [_grasp_key(lab.grasp) for lab in labels] == [_grasp_key(g) for g in grasps]
            assert [lab.success_single for lab in labels] == [r == FailureReason.NONE for r in ref_single]
            assert [lab.success_cluttered for lab in labels] == [r == FailureReason.NONE for r in ref_cluttered]
            assert [lab.failure_reason for lab in labels] == ref_cluttered


class TestLabelPair:
    def test_single_object_scene_labels_agree(self):
        scene = generate_packed_scene(SceneConfig(object_count_range=(1, 1), seed=6))
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
            scene = generate_packed_scene(SceneConfig(object_count_range=(4, 6), seed=100 + seed))
            labels = label_pair(scene, GRIP, 40, seed=seed)
            total += len(labels)
            for lab in labels:
                assert not (lab.success_cluttered and not lab.success_single)
        assert total >= 400

    def test_removing_occluder_never_flips_success_to_failure(self):
        for seed in range(6):
            scene = generate_packed_scene(SceneConfig(object_count_range=(4, 5), seed=200 + seed))
            if len(scene.instances) < 2:
                continue
            drop = (scene.target_index + 1) % len(scene.instances)
            kept = [inst for i, inst in enumerate(scene.instances) if i != drop]
            new_target = scene.target_index - (1 if drop < scene.target_index else 0)
            reduced = make_scene(kept, target=new_target, extent=scene.workspace_extent, seed=scene.seed)
            cloud = surface_sample(scene.target.mesh, 512, seed=3).transformed(scene.target.pose)
            for g in sample_candidate_grasps(cloud, GRIP, 24, seed=seed):
                before = simulate_grasp(g, scene, GRIP).success
                after = simulate_grasp(g, reduced, GRIP).success
                if before:
                    assert after


class TestJsonl:
    def test_round_trip(self, tmp_path):
        scene = generate_packed_scene(SceneConfig(object_count_range=(3, 3), seed=9))
        labels = label_pair(scene, GRIP, 24, seed=7)
        path = tmp_path / "labels.jsonl"
        write_labels_jsonl(path, "scene_009", scene.target_index, labels)
        records = read_labels_jsonl(path)
        assert len(records) == len(labels)
        assert records[0]["scene_id"] == "scene_009"
        back = record_to_label(records[0])
        assert back.success_single == labels[0].success_single
        assert back.failure_reason == labels[0].failure_reason
        assert np.allclose(back.grasp.center, labels[0].grasp.center)
