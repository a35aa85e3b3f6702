"""Truncated signed distance grids over the workspace cube, saved as `.npz`.

`fuse` integrates a single depth frame: per voxel, signed distance along the
camera ray (measured depth minus voxel depth), clamped to the truncation
band and normalized to [-1, 1]. Positive values are observed free space in
front of the surface; voxels hidden deeper than one truncation behind a
surface, or outside the frustum, carry weight 0.

`splat` builds a target grid from a completed point cloud: a truncated,
normalized unsigned distance field, observed only within a fixed kernel
radius of the points.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .camera import DepthFrame, read_npz
from .errors import InputError
from .geometry import PointCloud


@dataclass(frozen=True)
class TsdfConfig:
    resolution: int = 40
    extent: float = 0.3
    truncation: float | None = None  # meters; default 4 voxel widths

    def __post_init__(self):
        if self.resolution <= 0 or self.extent <= 0:
            raise InputError("resolution and extent must be positive")
        if self.truncation is None:
            object.__setattr__(self, "truncation", 4.0 * self.voxel_size)
        elif self.truncation <= 0:
            raise InputError("truncation must be positive")

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

    @property
    def resolution(self) -> int:
        return self.config.resolution

    @property
    def voxel_size(self) -> float:
        return self.config.voxel_size


def fuse(frame: DepthFrame, config: TsdfConfig | None = None) -> TsdfGrid:
    """Single-view TSDF of the workspace from one depth frame."""
    config = TsdfConfig() if config is None else config
    r = config.resolution
    centers = config.voxel_centers()
    cam = frame.camera
    world_to_cam = cam.pose.inverse()
    pts = world_to_cam.transform(centers)
    z = pts[:, 2]
    values = np.zeros(r**3, dtype=np.float64)
    weights = np.zeros(r**3, dtype=np.float64)
    in_front = z > 1e-9
    u = np.full(len(z), -1, dtype=np.int64)
    v = np.full(len(z), -1, dtype=np.int64)
    u[in_front] = np.floor(pts[in_front, 0] / z[in_front] * cam.fx + cam.cx).astype(np.int64)
    v[in_front] = np.floor(pts[in_front, 1] / z[in_front] * cam.fy + cam.cy).astype(np.int64)
    onscreen = in_front & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
    uu = u[onscreen]
    vv = v[onscreen]
    measured = frame.depth[vv, uu].astype(np.float64)
    background = measured == 0.0
    sdf = measured - z[onscreen]
    norm = np.clip(sdf / config.truncation, -1.0, 1.0)
    observed = background | (sdf > -config.truncation)
    vals = np.where(background, 1.0, norm)
    values[np.nonzero(onscreen)[0]] = np.where(observed, vals, norm)
    weights[np.nonzero(onscreen)[0]] = observed.astype(np.float64)
    return TsdfGrid(values.reshape(r, r, r), weights.reshape(r, r, r), config)


def splat(cloud: PointCloud, config: TsdfConfig | None = None,
          kernel_radius_voxels: float = 1.0) -> TsdfGrid:
    """Unsigned truncated distance grid around a completed target cloud."""
    config = TsdfConfig() if config is None else config
    if len(cloud) == 0:
        raise InputError("cannot splat an empty cloud")
    r = config.resolution
    centers = config.voxel_centers()
    # beyond both radii a distance changes nothing: the value saturates at 1
    # and the weight is 0, so the query may return inf there; the bound is
    # exclusive, hence one step up to keep a distance exactly at a radius
    reach = max(config.truncation, kernel_radius_voxels * config.voxel_size)
    dist, _ = cKDTree(cloud.points).query(centers, k=1, distance_upper_bound=np.nextafter(reach, np.inf))
    values = np.minimum(dist / config.truncation, 1.0)
    weights = (dist <= kernel_radius_voxels * config.voxel_size).astype(np.float64)
    return TsdfGrid(values.reshape(r, r, r), weights.reshape(r, r, r), config)


def near_surface_mask(grid: TsdfGrid, band: float) -> np.ndarray:
    """True where 0 <= value < band and the voxel was observed."""
    if not 0.0 < band <= 1.0:
        raise InputError(f"band must be in (0, 1], got {band}")
    return (grid.values >= 0.0) & (grid.values < band) & (grid.weights > 0.0)


def save_grid(dir_path, stem: str, grid: TsdfGrid) -> list[Path]:
    """Write `<stem>.tsdf.npz`: `values` and `weights`, (r, r, r) float32, and
    `config` (resolution, extent, truncation).
    """
    path = Path(dir_path) / f"{stem}.tsdf.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    cfg = grid.config
    np.savez(path, values=grid.values, weights=grid.weights,
             config=np.array([cfg.resolution, cfg.extent, cfg.truncation], dtype=float))
    return [path]


def load_grid(dir_path, stem: str) -> TsdfGrid:
    """The grid `save_grid` wrote as `<stem>.tsdf.npz`."""
    values, weights, config = read_npz(Path(dir_path) / f"{stem}.tsdf.npz", ("values", "weights", "config"))
    r, extent, truncation = config.tolist()
    return TsdfGrid(values, weights, TsdfConfig(int(r), extent, truncation))
