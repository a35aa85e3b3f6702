"""Target shape completion (non-neural baselines) and completion metrics.

Completers share one contract: partial target cloud in, completed cloud out,
deterministic. `OracleCompleter` returns the ground-truth sample of the true
target mesh (`completion_ground_truth`) and is the upper bound;
`MirrorCompleter` reflects the observation, points and normals, through an
estimated vertical symmetry plane placed behind the visible surface;
`PassthroughCompleter` returns the input. Each is constructed by its class;
there is no registry of names.
"""

from __future__ import annotations

import logging

import numpy as np

from .camera import CameraModel
from .errors import InputError, _check_type, _seed
from .geometry import PointCloud, _nearest_distances
from .meshes import surface_sample
from .scenes import Scene

log = logging.getLogger(__name__)

DEFAULT_COMPLETION_POINTS = 2048
IOU_VOXEL_SIZE = 0.0075  # edge (m) of the voxels `volumetric_iou` compares
DEDUPE_RADIUS = 1e-3  # a reflection this close (m) to an observed point duplicates it
# the mirror plane is vertical: it contains the table normal
TABLE_NORMAL = np.array([0.0, 0.0, 1.0])


class PassthroughCompleter:
    """No completion: the partial cloud is the completed cloud."""

    def __call__(self, partial: PointCloud, scene: Scene | None = None,
                 camera: CameraModel | None = None) -> PointCloud:
        _check_type(partial, PointCloud, "partial")
        return partial


class OracleCompleter:
    """Ground-truth completion: the `completion_ground_truth` sample itself.

    The oracle is the upper bound, so it returns the very cloud the metrics
    compare against rather than an independent draw of the same surface
    (two independent 2048-point draws share only 71-94% of their 7.5 mm
    voxels, which would cap the oracle's IoU well below 1).
    """

    def __call__(self, partial: PointCloud, scene: Scene,
                 camera: CameraModel | None = None) -> PointCloud:
        return completion_ground_truth(scene)


class MirrorCompleter:
    """Reflect observed points through an estimated vertical symmetry plane.

    The plane's normal is the horizontal component of the camera view
    direction. The camera sees only the front of the object, so the plane
    lies behind the visible surface: at the front-most observed offset along
    the normal plus half the cloud's lateral extent (measured horizontally
    across the view), on the assumption that the footprint is about as deep
    as it is wide (shape from symmetry, Thrun & Wegbreit 2005). Reflections
    therefore land on the unseen back, each with its point's normal reflected
    through the same plane. Reflected points that duplicate
    existing ones are dropped, so an already symmetric-complete cloud passes
    through unchanged.

    Degenerate inputs pass through with a log warning: fewer than 4 points, a
    top-down view with no horizontal axis, and a cloud with no lateral extent.
    """

    def __call__(self, partial: PointCloud, scene: Scene | None = None,
                 camera: CameraModel | None = None) -> PointCloud:
        _check_type(partial, PointCloud, "partial")
        if len(partial) == 0:
            raise InputError("mirror completion needs a non-empty partial cloud")
        if len(partial) < 4:
            log.warning("mirror completion: fewer than 4 points, passing through")
            return partial
        _check_type(camera, CameraModel, "camera")
        centroid = partial.points.mean(axis=0)
        view = centroid - camera.pose.translation
        horiz = view - (view @ TABLE_NORMAL) * TABLE_NORMAL
        n = np.linalg.norm(horiz)
        if n < 1e-9:
            log.warning("mirror completion: top-down view has no horizontal axis, passing through")
            return partial
        normal = horiz / n
        across = partial.points @ np.cross(TABLE_NORMAL, normal)
        half_width = 0.5 * (across.max() - across.min())
        if half_width < 1e-9:
            log.warning("mirror completion: cloud has no lateral extent, passing through")
            return partial
        depth = partial.points @ normal
        offsets = depth - (depth.min() + half_width)
        reflected = partial.points - 2.0 * offsets[:, None] * normal
        # a reflection beyond the radius comes back at distance inf, which is kept as well
        keep = _nearest_distances(partial.points, reflected, DEDUPE_RADIUS) > DEDUPE_RADIUS
        if not keep.any():
            return partial
        refl_n = partial.normals - 2.0 * (partial.normals @ normal)[:, None] * normal
        return PointCloud(np.vstack([partial.points, reflected[keep]]), np.vstack([partial.normals, refl_n[keep]]))


# ---------------------------------------------------------------------------
# metrics


def chamfer_l1(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean nearest-neighbor distance: 0.5 * (mean_a NN_b + mean_b NN_a)."""
    _check_type(a, PointCloud, "a")
    _check_type(b, PointCloud, "b")
    if len(a) == 0 or len(b) == 0:
        raise InputError("chamfer distance is undefined for empty clouds")
    d_ab = _nearest_distances(b.points, a.points)
    d_ba = _nearest_distances(a.points, b.points)
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))


def volumetric_iou(a: PointCloud, b: PointCloud) -> float:
    """Occupancy IoU on a grid of `IOU_VOXEL_SIZE` voxels anchored at the workspace origin."""
    _check_type(a, PointCloud, "a")
    _check_type(b, PointCloud, "b")
    if len(a) == 0 and len(b) == 0:
        raise InputError("IoU is undefined when both clouds are empty")
    # one int64 key per occupied voxel, over the box that holds both clouds' voxels
    vox_a = np.floor(a.points / IOU_VOXEL_SIZE).astype(np.int64)
    vox_b = np.floor(b.points / IOU_VOXEL_SIZE).astype(np.int64)
    both = np.vstack([vox_a, vox_b])
    lo = both.min(axis=0)
    dims = both.max(axis=0) - lo + 1
    occ_a = np.unique(np.ravel_multi_index((vox_a - lo).T, dims))
    occ_b = np.unique(np.ravel_multi_index((vox_b - lo).T, dims))
    shared = len(np.intersect1d(occ_a, occ_b, assume_unique=True))
    return shared / (len(occ_a) + len(occ_b) - shared)


def completion_ground_truth(scene: Scene) -> PointCloud:
    """Complete cloud of `DEFAULT_COMPLETION_POINTS` sampled from the target mesh at its scene pose."""
    _check_type(scene, Scene, "scene")
    target = scene.target
    return surface_sample(target.mesh, DEFAULT_COMPLETION_POINTS,
                          seed=_seed(scene.seed) ^ 0x6E0C).transformed(target.pose)
