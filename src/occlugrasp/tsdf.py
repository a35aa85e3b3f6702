"""Truncated signed distance grids over the workspace cube, saved as `.npz`.

`fuse` integrates a single depth frame: per voxel, signed distance along the
camera ray (measured depth minus voxel depth), clamped to the truncation
band and normalized to [-1, 1]. Positive values are observed free space in
front of the surface; voxels hidden deeper than one truncation behind a
surface, or outside the frustum, carry weight 0.

`splat` builds a target grid from a completed point cloud: a truncated,
normalized unsigned distance field, observed only within
`KERNEL_RADIUS_VOXELS` voxel widths of the points.

Both builders skip the work that cannot change their output
(`_voxel_projection`, and `splat`'s query box), and give the grids of the
plain per-voxel computation bit for bit. They build the grids in float32:
each voxel's value is computed in float64 and rounded once, as it is
assigned, which is the rounding of a float64 grid cast to float32.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import CameraModel, DepthFrame, read_npz
from .errors import InputError, _check_type, _finite_array, _finite_positive, _positive_int
from .geometry import PointCloud, _nearest_distances
from .scenes import WORKSPACE_EXTENT


@dataclass(frozen=True)
class TsdfConfig:
    resolution: int = 40
    extent: float = WORKSPACE_EXTENT
    truncation: float | None = None  # meters; default 4 voxel widths

    def __post_init__(self):
        r = self.resolution
        if not _positive_int(r):
            raise InputError(f"resolution must be a positive integer, got {r!r}")
        object.__setattr__(self, "resolution", int(r))
        if not _finite_positive(self.extent):
            raise InputError(f"extent must be finite and positive, got {self.extent!r}")
        if self.truncation is None:
            object.__setattr__(self, "truncation", 4.0 * self.voxel_size)
        elif not _finite_positive(self.truncation):
            raise InputError(f"truncation must be finite and positive, got {self.truncation!r}")

    @property
    def voxel_size(self) -> float:
        return self.extent / self.resolution

    def voxel_centers(self) -> np.ndarray:
        """(res^3, 3) world coordinates in C order (x-major first axis)."""
        r = self.resolution
        axis = (np.arange(r) + 0.5) * self.voxel_size
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)


@dataclass(frozen=True)
class TsdfGrid:
    values: np.ndarray   # (r, r, r) float32 in [-1, 1]
    weights: np.ndarray  # (r, r, r) float32 >= 0, 0 exactly where unobserved
    config: TsdfConfig

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float32))
        object.__setattr__(self, "weights", np.ascontiguousarray(self.weights, dtype=np.float32))
        shape = (self.config.resolution,) * 3
        if self.values.shape != shape or self.weights.shape != shape:
            raise InputError(f"values and weights must be {shape}, got {self.values.shape}, {self.weights.shape}")
        self.values.flags.writeable = False
        self.weights.flags.writeable = False


_PROJECTION_CACHE_SIZE = 4
KERNEL_RADIUS_VOXELS = 1.0  # `splat`'s observed radius around each point, in voxel widths


@functools.lru_cache(maxsize=_PROJECTION_CACHE_SIZE)
def _voxel_projection(config: TsdfConfig, camera: CameraModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the voxel centres of `config` fall in `camera`'s image.

    That depends on the config and the camera, not on the frame, so it is
    computed once for each (config, camera) pair, in the same arithmetic,
    and the last `_PROJECTION_CACHE_SIZE` pairs are kept; `fuse` then only
    gathers the frame's depth at those pixels. The key is the camera's
    value, so a camera rebuilt by `load_frame`, or with its quaternion
    negated, finds the entry of an equal one. That is exact: negating q
    negates both cross products of `Quaternion.rotate` and its scalar part,
    so the rotated points are the same bits.

    Returns, for the voxels in front of the camera and on screen, their flat
    grid indices, their flat pixel indices `v * width + u` and their depth
    along the optical axis. The arrays are read-only: every caller with an
    equal (config, camera) pair gets the same ones.
    """
    pts = camera.pose.inverse().transform(config.voxel_centers())
    in_front = np.nonzero(pts[:, 2] > 1e-9)[0]
    x, y, z = pts[in_front].T
    u = np.floor(x / z * camera.fx + camera.cx).astype(np.int64)
    v = np.floor(y / z * camera.fy + camera.cy).astype(np.int64)
    onscreen = (u >= 0) & (u < camera.width) & (v >= 0) & (v < camera.height)
    projection = (in_front[onscreen], v[onscreen] * camera.width + u[onscreen], z[onscreen])
    for a in projection:
        a.flags.writeable = False
    return projection


def fuse(frame: DepthFrame, config: TsdfConfig = TsdfConfig()) -> TsdfGrid:
    """Single-view TSDF of one depth frame on `config`'s grid, by default the `WORKSPACE_EXTENT` cube."""
    _check_type(frame, DepthFrame, "frame")
    _check_type(config, TsdfConfig, "config")
    r = config.resolution
    voxels, pixels, z = _voxel_projection(config, frame.camera)
    measured = frame.depth.ravel()[pixels].astype(np.float64)
    background = measured == 0.0
    sdf = measured - z
    values = np.zeros(r**3, dtype=np.float32)
    weights = np.zeros(r**3, dtype=np.float32)
    values[voxels] = np.where(background, 1.0, np.clip(sdf / config.truncation, -1.0, 1.0))
    weights[voxels] = background | (sdf > -config.truncation)
    return TsdfGrid(values.reshape(r, r, r), weights.reshape(r, r, r), config)


def splat(cloud: PointCloud, config: TsdfConfig = TsdfConfig()) -> TsdfGrid:
    """Unsigned truncated distance grid around a completed target cloud, by default on the
    `WORKSPACE_EXTENT` cube.

    A voxel farther than `reach` (the larger of the truncation and the kernel
    radius) from every point gets value 1.0 and weight 0 whatever its
    distance. So the KD-tree is queried only for the voxels of the cloud's
    bounding box grown by `reach` and one voxel of slack for rounding; every
    voxel outside it is farther than `reach` along one axis alone. The box's
    centres are slices of the same axis `voxel_centers` spans, so each equals
    its full-grid entry.
    """
    _check_type(cloud, PointCloud, "cloud")
    _check_type(config, TsdfConfig, "config")
    if len(cloud) == 0:
        raise InputError("cannot splat an empty cloud")
    r = config.resolution
    vs = config.voxel_size
    kernel = KERNEL_RADIUS_VOXELS * vs
    # the query returns inf beyond `reach`
    reach = max(config.truncation, kernel)
    values = np.ones((r, r, r), dtype=np.float32)
    weights = np.zeros((r, r, r), dtype=np.float32)
    # the box is empty for a cloud far outside the grid
    lo = np.clip(np.floor((cloud.points.min(axis=0) - reach) / vs) - 1, 0, r).astype(np.int64)
    hi = np.clip(np.ceil((cloud.points.max(axis=0) + reach) / vs) + 1, 0, r).astype(np.int64)
    axis = (np.arange(r) + 0.5) * vs
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    gx, gy, gz = np.meshgrid(axis[box[0]], axis[box[1]], axis[box[2]], indexing="ij")
    centers = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    dist = _nearest_distances(cloud.points, centers, reach).reshape(gx.shape)
    values[box] = np.minimum(dist / config.truncation, 1.0)
    weights[box] = dist <= kernel
    return TsdfGrid(values, weights, config)


def near_surface_mask(grid: TsdfGrid, band: float) -> np.ndarray:
    """True where 0 <= value < band and the voxel was observed."""
    _check_type(grid, TsdfGrid, "grid")
    if not (_finite_positive(band) and band <= 1.0):
        raise InputError(f"band must be a number in (0, 1], got {band!r}")
    return (grid.values >= 0.0) & (grid.values < band) & (grid.weights > 0.0)


def save_grid(dir_path, stem: str, grid: TsdfGrid) -> list[Path]:
    """Write `<stem>.tsdf.npz`: `values` and `weights`, (r, r, r) float32, and
    `config` (resolution, extent, truncation).
    """
    _check_type(grid, TsdfGrid, "grid")
    path = Path(dir_path) / f"{stem}.tsdf.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    cfg = grid.config
    np.savez(path, values=grid.values, weights=grid.weights,
             config=np.array([cfg.resolution, cfg.extent, cfg.truncation], dtype=float))
    return [path]


def load_grid(dir_path, stem: str) -> TsdfGrid:
    """The grid `save_grid` wrote as `<stem>.tsdf.npz`; values that are not
    finite and in [-1, 1], weights that are not finite and >= 0, a config
    that is not 3 finite numbers, or a fractional resolution raise `InputError`."""
    path = Path(dir_path) / f"{stem}.tsdf.npz"
    values, weights, config = read_npz(path, ("values", "weights", "config"))
    if not (abs(values) <= 1).all():  # NaN fails every comparison
        raise InputError(f"{path}: values must be finite and in [-1, 1]")
    if not ((weights >= 0) & (weights < np.inf)).all():
        raise InputError(f"{path}: weights must be finite and >= 0")
    r, extent, truncation = _finite_array(config, (3,), f"{path}: config must be 3 finite numbers").tolist()
    if not float(r).is_integer():
        raise InputError(f"{path}: resolution must be a whole number, got {r}")
    return TsdfGrid(values, weights, TsdfConfig(int(r), extent, truncation))
