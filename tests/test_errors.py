"""`errors._finite_array`, through which outside arrays become numbers, and the sites that refuse bools."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from occlugrasp import errors
from occlugrasp.camera import look_at_pose
from occlugrasp.errors import InputError, _finite_array
from occlugrasp.geometry import PointCloud, Pose, Quaternion, orthonormal_tangents, quaternion_about_axis
from occlugrasp.grasping import Grasp
from occlugrasp.meshes import TriMesh, make_box, ray_cast
from occlugrasp.occlusion import BinScheme

BOX = make_box(1.0, 1.0, 1.0)


@pytest.mark.parametrize("build", [
    lambda: Pose(Quaternion.identity(), [True, False, True]),
    lambda: Pose.from_7floats([True, False, False, False, True, False, True]),
    lambda: Quaternion(True, False, False, False),
    lambda: Quaternion.from_array([True, False, False, False]),
    lambda: PointCloud([[True, False, False]], [[False, False, True]]),
    lambda: TriMesh(np.eye(3, dtype=bool), [[0, 1, 2]]),
    lambda: TriMesh(np.eye(3), [[False, True, True]]),
    lambda: Grasp(np.array([True, False, True]), Quaternion.identity(), 0.05),
    lambda: ray_cast([(BOX, Pose.identity())], (True, False, True), (0.0, 0.0, -1.0)),
    lambda: ray_cast([(BOX, Pose.identity())], (0.0, 0.0, 2.0), (False, False, True)),
    lambda: BinScheme((False, True)),
], ids=["pose_translation", "pose_7floats", "quaternion", "quaternion_array", "cloud", "mesh_vertices",
        "mesh_triangles", "grasp_center", "ray_origin", "ray_direction", "bin_edges"])
def test_bools_are_not_numbers(build):
    # each of these was accepted, a bool read as 0.0 or 1.0
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize("build", [
    lambda: Pose(Quaternion.identity(), [0.0, True, 0.0]),
    lambda: Pose(Quaternion.identity(), (0.0, np.bool_(True), 0.0)),
    lambda: Pose.from_7floats([1.0, 0.0, 0.0, False, 0.1, 0.2, 0.3]),
    lambda: PointCloud([[0.1, 0.2, 0.3]], [[0.0, 0.0, True]]),
    lambda: TriMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, True, 0.0]], [[0, 1, 2]]),
    lambda: _finite_array([np.array([1.0, 2.0]), np.array([True, False])], (2, 2), "value"),
    lambda: _finite_array([[[1.0], (2,)], ([3.0], [np.bool_(False)])], (2, 2, 1), "value"),
], ids=["list", "tuple_np_bool", "pose_7floats", "cloud_normals", "mesh_vertices", "bool_array_in_list", "deep"])
def test_a_bool_among_numbers_is_refused(build):
    # NumPy promotes a bool among numbers, so each of these was accepted:
    # the first built a pose at (0, 1, 0)
    with pytest.raises(InputError, match="bool"):
        build()


def test_numeric_arrays_are_not_walked(monkeypatch):
    # lists and tuples of numbers pass the walk; an array of numbers skips it
    assert _finite_array([1, 2.0, np.float32(3), np.int64(4)], (4,), "value").tolist() == [1.0, 2.0, 3.0, 4.0]
    assert _finite_array(([1.0], (np.array(2.0),)), (2, 1), "value").tolist() == [[1.0], [2.0]]
    monkeypatch.setattr(errors, "_holds_bool", None)
    assert _finite_array(np.arange(6).reshape(2, 3), (2, 3), "value").tolist() == [[0, 1, 2], [3, 4, 5]]


@pytest.mark.parametrize("build, match", [
    (lambda: quaternion_about_axis((True, False, False), 0.5), "axis"),
    (lambda: quaternion_about_axis((0.0, 0.0, 1.0, 0.0), 0.5), "axis"),
    (lambda: quaternion_about_axis("z", 0.5), "axis"),
    (lambda: look_at_pose((True, False, True), (0, 0, 0)), "eye, target and up"),
    (lambda: look_at_pose((0.5, 0.5, 0.5), (math.nan, 0.0, 0.0)), "eye, target and up"),
    (lambda: look_at_pose((0.5, 0.5, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)), "eye, target and up"),
    (lambda: look_at_pose((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)), "eye and target must differ"),
    (lambda: Quaternion.from_matrix(np.eye(3, dtype=bool)), "rotation matrix"),
    (lambda: Quaternion.from_matrix(np.full((3, 3), math.nan)), "rotation matrix"),
    (lambda: Quaternion.from_matrix(np.eye(4)), "rotation matrix"),
    (lambda: orthonormal_tangents((False, False, True)), "axis"),
    (lambda: orthonormal_tangents((0.0, 0.0, math.inf)), "axis"),
], ids=["axis_bools", "axis_4", "axis_text", "eye_bools", "target_nan", "up_4", "eye_at_target", "matrix_bools",
        "matrix_nan", "matrix_4x4", "tangent_axis_bools", "tangent_axis_inf"])
def test_vector_arguments_are_read_as_numbers(build, match):
    # each of these was accepted, read a bool as a number, raised a bare
    # exception, or was caught later as a quaternion error
    with pytest.raises(InputError, match=match):
        build()


@pytest.mark.parametrize("angle", [True, math.inf, "x"])
def test_angle_must_be_a_finite_number(angle):
    # True gave a rotation of 1 rad, inf a bare ValueError from `math.sin`, "x" a bare TypeError
    with pytest.raises(InputError, match="angle"):
        quaternion_about_axis((0.0, 0.0, 1.0), angle)


ARRAY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
SPECIAL_FLOATS = hnp.arrays("f8", ARRAY_SHAPES,
                            elements=st.sampled_from([0.0, -1.5, 2.0, math.nan, math.inf, -math.inf]))
SCALARS = st.one_of(st.floats(), st.booleans(), st.integers(-2**70, 2**70), st.text(max_size=2), st.none())
VALUES = st.one_of(
    hnp.arrays(st.sampled_from(["f8", "f4", "i8", "u1", "?", "c16", "U2"]), ARRAY_SHAPES),
    SPECIAL_FLOATS, SPECIAL_FLOATS.map(np.ndarray.tolist),
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=9),
)


@st.composite
def values_and_shapes(draw):
    """A value, and either its own shape with some lengths -1 or any shape of up to 3 dimensions."""
    value = draw(VALUES)
    try:
        own = np.shape(value)
    except ValueError:  # ragged
        own = ()
    wild = draw(st.lists(st.booleans(), min_size=len(own), max_size=len(own)))
    other = st.lists(st.sampled_from([-1, 0, 1, 2, 3]), max_size=3).map(tuple)
    return value, draw(st.one_of(st.just(tuple(-1 if w else n for n, w in zip(own, wild))), other))


@settings(max_examples=150, deadline=None)
@given(values_and_shapes())
def test_finite_array_refuses_or_returns_a_finite_copy(value_and_shape):
    # NaN, infinities, bools, strings and ragged lists: refused, or a new read-only float64 array of `shape`
    value, shape = value_and_shape
    try:
        a = _finite_array(value, shape, "value")
    except InputError:
        return
    assert a.dtype == np.float64 and not a.flags.writeable and np.isfinite(a).all()
    assert a.ndim == len(shape) and all(n in (-1, m) for n, m in zip(shape, a.shape))
    assert np.asarray(value).dtype.kind in "iuf"
    assert np.array_equal(a, np.asarray(value, dtype=float))
    if isinstance(value, np.ndarray):
        assert not np.shares_memory(a, value)
