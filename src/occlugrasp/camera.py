"""Pinhole depth camera: rendering, sensor noise, back-projection, persistence.

`render` resolves each covered pixel by an exact ray/triangle intersection
through the pixel center, so the result is identical to per-pixel ray
casting; depth is the camera-frame z coordinate. It evaluates (triangle,
pixel) pairs in batches, pixel-box rows of equal width together, a chunk of
about `_CHUNK_PAIRS` pairs at a time: the nearest hit wins a pixel, and the
lower instance index wins a tie. `back_project` works inside the bounding
box of the retained pixels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InputError
from .geometry import PointCloud, Pose, Quaternion
from .scenes import Scene

BACKGROUND_ID = 65535


@dataclass(frozen=True)
class CameraModel:
    width: int = 640
    height: int = 480
    fx: float = 540.0
    fy: float = 540.0
    cx: float = 320.0
    cy: float = 240.0
    pose: Pose = None  # camera-to-world

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InputError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InputError("principal point must lie inside the image")
        if self.pose is None:
            object.__setattr__(self, "pose", Pose.identity())

    def intrinsics_equal(self, other: "CameraModel") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and (self.fx, self.fy, self.cx, self.cy) == (other.fx, other.fy, other.cx, other.cy)
        )

    def same_view(self, other: "CameraModel") -> bool:
        return (
            self.intrinsics_equal(other)
            and self.pose.rotation.rotation_equal(other.pose.rotation, tol=1e-12)
            and np.allclose(self.pose.translation, other.pose.translation, atol=1e-12)
        )


def look_at_pose(eye, target, up=(0.0, 0.0, 1.0)) -> Pose:
    """Camera-to-world pose: +z looks at target, +x right, +y down."""
    eye = np.asarray(eye, dtype=float)
    forward = np.asarray(target, dtype=float) - eye
    forward = forward / np.linalg.norm(forward)
    up = np.asarray(up, dtype=float)
    x = np.cross(forward, up)
    n = np.linalg.norm(x)
    if n < 1e-12:
        raise InputError("view direction parallel to up vector")
    x /= n
    y = np.cross(forward, x)
    rot = np.column_stack([x, y, forward])
    return Pose(Quaternion.from_matrix(rot), eye)


def default_camera(workspace_extent: float = 0.3, width: int = 640, height: int = 480,
                   focal: float = 540.0, elevation_deg: float = 45.0,
                   distance: float = 0.6) -> CameraModel:
    """Side-view camera at the given elevation, looking at the workspace center."""
    c = workspace_extent / 2.0
    el = np.deg2rad(elevation_deg)
    eye = np.array([c, c - distance * np.cos(el), distance * np.sin(el)])
    pose = look_at_pose(eye, (c, c, 0.05))
    return CameraModel(width, height, focal, focal, width / 2.0, height / 2.0, pose)


@dataclass(frozen=True)
class DepthFrame:
    depth: np.ndarray        # (H, W) float32 meters, 0 where no hit
    instance_id: np.ndarray  # (H, W) uint16, BACKGROUND_ID where no hit
    camera: CameraModel

    def __post_init__(self):
        object.__setattr__(self, "depth", np.ascontiguousarray(self.depth, dtype=np.float32))
        object.__setattr__(self, "instance_id", np.ascontiguousarray(self.instance_id, dtype=np.uint16))
        self.depth.flags.writeable = False
        self.instance_id.flags.writeable = False

    @property
    def valid(self) -> np.ndarray:
        return self.instance_id != BACKGROUND_ID


# Target number of (triangle, pixel) pairs `render` evaluates at once. A chunk
# holds whole pixel-box rows, at least one, so it may split a triangle; the
# size bounds the temporaries to a few hundred kilobytes.
_CHUNK_PAIRS = 4096


def render(scene: Scene, camera: CameraModel) -> DepthFrame:
    """Nearest-surface depth + owning instance id per pixel.

    Triangles with a vertex at camera z <= 1e-6 are skipped. The others are
    gathered in instance order with their pixel boxes clipped to the image;
    each box row is one segment of (triangle, pixel) pairs. Segments are
    sorted by width, stably, and evaluated in chunks of whole segments of
    about `_CHUNK_PAIRS` pairs, so a chunk may split a triangle. A pair hits
    when the ray through the pixel center meets the triangle (Moller-Trumbore,
    barycentric tolerance 1e-12, determinant above 1e-14, t above 1e-9). The
    three dot products are one `matmul` per segment, the BLAS call a loop over
    triangles makes per box row, so t is bit-identical to such a loop; an
    elementwise sum would round differently where BLAS fuses multiply-adds.
    Each pixel keeps the smallest (t, instance index) over all chunks: the
    nearest hit, and on equal depth the lower instance, as a strict `<`
    z-test in instance order gives.
    """
    h, w = camera.height, camera.width
    world_to_cam = camera.pose.inverse()
    rot = world_to_cam.rotation.as_matrix()
    trans = world_to_cam.translation
    fx, fy, cx, cy = camera.fx, camera.fy, camera.cx, camera.cy
    tv_parts, owner_parts = [], []
    for index, instance in enumerate(scene.instances):
        verts_cam = instance.pose.transform(instance.mesh.vertices) @ rot.T + trans
        tv = verts_cam[instance.mesh.triangles]  # (m, 3, 3)
        # skip triangles touching or behind the camera plane
        tv = tv[tv[:, :, 2].min(axis=1) > 1e-6]
        tv_parts.append(tv)
        owner_parts.append(np.full(len(tv), index, dtype=np.uint16))
    tv = np.concatenate(tv_parts)
    owner = np.concatenate(owner_parts)
    u = tv[:, :, 0] / tv[:, :, 2] * fx + cx
    v = tv[:, :, 1] / tv[:, :, 2] * fy + cy
    u0 = np.maximum(np.ceil(u.min(axis=1) - 0.5), 0).astype(int)
    u1 = np.minimum(np.floor(u.max(axis=1) - 0.5), w - 1).astype(int)
    v0 = np.maximum(np.ceil(v.min(axis=1) - 0.5), 0).astype(int)
    v1 = np.minimum(np.floor(v.max(axis=1) - 0.5), h - 1).astype(int)
    keep = (u1 >= u0) & (v1 >= v0)
    depth = np.zeros((h, w), dtype=np.float32)
    inst = np.full((h, w), BACKGROUND_ID, dtype=np.uint16)
    if not keep.any():
        return DepthFrame(depth, inst, camera)
    tv, owner, u0, u1, v0, v1 = tv[keep], owner[keep], u0[keep], u1[keep], v0[keep], v1[keep]
    widths = u1 - u0 + 1
    heights = v1 - v0 + 1
    a = tv[:, 0]
    e1 = tv[:, 1] - a
    e2 = tv[:, 2] - a
    s = -a  # ray origin is the camera center
    qvec = np.cross(s, e1)
    t_num = np.matmul(e2[:, None, :], qvec[:, :, None])[:, 0, 0]
    # pixel-center rays in camera frame, z component 1 => t equals depth
    dx = (np.arange(w) + 0.5 - cx) / fx
    dy = (np.arange(h) + 0.5 - cy) / fy
    # z-buffer over the union of the pixel boxes, in flat pixel order
    bu0, bv0 = u0.min(), v0.min()
    bw = u1.max() - bu0 + 1
    bh = v1.max() - bv0 + 1
    zbuf = np.full(bh * bw, np.inf)
    owners = np.full(bh * bw, BACKGROUND_ID, dtype=np.uint16)

    # one segment per box row, grouped by width, triangle order kept inside a group
    order = np.argsort(widths, kind="stable")
    seg_tri = np.repeat(order, heights[order])
    first_row = np.cumsum(heights[order]) - heights[order]
    seg_row = np.arange(len(seg_tri)) - np.repeat(first_row, heights[order]) + v0[seg_tri]
    seg_width = widths[seg_tri]
    bounds = np.flatnonzero(np.diff(seg_width)) + 1
    for g0, g1 in zip(np.r_[0, bounds], np.r_[bounds, len(seg_tri)]):
        n = int(seg_width[g0])
        step = max(1, _CHUNK_PAIRS // n)
        for c0 in range(g0, g1, step):
            c1 = min(c0 + step, g1)
            tri, py = seg_tri[c0:c1], seg_row[c0:c1]
            px = u0[tri][:, None] + np.arange(n)
            dirs = np.empty((len(tri), n, 3))
            dirs[:, :, 0] = dx[px]
            dirs[:, :, 1] = dy[py][:, None]
            dirs[:, :, 2] = 1.0
            # np.cross(dirs, e2) term by term; the factors 1.0 are exact
            e2x, e2y, e2z = e2[tri].T[:, :, None]
            pvec = np.empty_like(dirs)
            pvec[:, :, 0] = dirs[:, :, 1] * e2z - e2y
            pvec[:, :, 1] = e2x - dirs[:, :, 0] * e2z
            pvec[:, :, 2] = dirs[:, :, 0] * e2y - dirs[:, :, 1] * e2x
            det = np.matmul(pvec, e1[tri][:, :, None])[:, :, 0]
            ok = np.abs(det) > 1e-14
            inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
            uu = np.matmul(pvec, s[tri][:, :, None])[:, :, 0] * inv_det
            vv = np.matmul(dirs, qvec[tri][:, :, None])[:, :, 0] * inv_det
            t = t_num[tri][:, None] * inv_det
            hit = ok & (uu >= -1e-12) & (vv >= -1e-12) & (uu + vv <= 1 + 1e-12) & (t > 1e-9)
            rows, cols = np.nonzero(hit)
            if not len(rows):
                continue
            pix = (py[rows] - bv0) * bw + (px[rows, cols] - bu0)
            t_hit = t[rows, cols]
            # keep the smallest (depth, instance) per pixel across every chunk
            before = zbuf[pix]
            np.minimum.at(zbuf, pix, t_hit)
            after = zbuf[pix]
            owners[pix[after < before]] = BACKGROUND_ID
            win = t_hit == after
            np.minimum.at(owners, pix[win], owner[tri[rows[win]]])
    box = (slice(bv0, bv0 + bh), slice(bu0, bu0 + bw))
    depth[box] = np.where(np.isfinite(zbuf), zbuf, 0.0).reshape(bh, bw)
    inst[box] = owners.reshape(bh, bw)
    return DepthFrame(depth, inst, camera)


def add_depth_noise(frame: DepthFrame, sigma: float, seed: int) -> DepthFrame:
    """I.i.d. zero-mean Gaussian perturbation of non-background depths."""
    if sigma < 0:
        raise InputError("sigma must be >= 0")
    if sigma == 0:
        return DepthFrame(frame.depth.copy(), frame.instance_id.copy(), frame.camera)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = rng.normal(0.0, sigma, size=frame.depth.shape).astype(np.float32)
    depth = frame.depth.copy()
    valid = frame.valid
    depth[valid] = np.maximum(depth[valid] + noise[valid], np.float32(1e-6))
    return DepthFrame(depth, frame.instance_id.copy(), frame.camera)


def _pixel_rays(camera: CameraModel, us, vs):
    dx = (us + 0.5 - camera.cx) / camera.fx
    dy = (vs + 0.5 - camera.cy) / camera.fy
    return dx, dy


def back_project(frame: DepthFrame, instance_filter: int | None = None,
                 estimate_normals: bool = True) -> PointCloud:
    """World-space point per retained pixel, with screen-space normal estimates."""
    cam = frame.camera
    if instance_filter is None:
        mask = frame.valid
    else:
        mask = frame.instance_id == instance_filter
    if not mask.any():
        return PointCloud.empty()
    # work inside the mask's bounding box: a neighbor outside the mask never
    # contributes to a normal, and every value is computed per pixel
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    mask = mask[box]
    h, w = mask.shape
    vs_all, us_all = np.mgrid[box]
    z = frame.depth[box].astype(np.float64)
    dx, dy = _pixel_rays(cam, us_all, vs_all)
    pts_cam = np.stack([dx * z, dy * z, z], axis=-1)

    rot = cam.pose.rotation.as_matrix()
    pts_world = pts_cam @ rot.T + cam.pose.translation
    if not estimate_normals:
        return PointCloud(pts_world[mask])

    # screen-space normals: cross of horizontal/vertical neighbor differences,
    # restricted to same-instance neighbors; fallback points at the camera
    du = np.zeros_like(pts_cam)
    dv = np.zeros_like(pts_cam)
    same_u = np.zeros((h, w), dtype=bool)
    same_v = np.zeros((h, w), dtype=bool)
    inst = frame.instance_id[box]
    same_u[:, :-1] = (inst[:, :-1] == inst[:, 1:]) & mask[:, :-1] & mask[:, 1:]
    same_v[:-1, :] = (inst[:-1, :] == inst[1:, :]) & mask[:-1, :] & mask[1:, :]
    du[:, :-1][same_u[:, :-1]] = (pts_cam[:, 1:] - pts_cam[:, :-1])[same_u[:, :-1]]
    dv[:-1, :][same_v[:-1, :]] = (pts_cam[1:, :] - pts_cam[:-1, :])[same_v[:-1, :]]
    n_cam = np.cross(du, dv)
    lens = np.linalg.norm(n_cam, axis=-1)
    good = lens > 1e-12
    n_cam[good] /= lens[good][..., None]
    # orient toward the camera (camera sits at the origin of the cam frame)
    flip = np.einsum("hwc,hwc->hw", n_cam, pts_cam) > 0
    n_cam[flip] *= -1.0
    view = pts_cam / np.maximum(np.linalg.norm(pts_cam, axis=-1), 1e-12)[..., None]
    n_cam[~good] = -view[~good]
    n_world = n_cam @ rot.T
    n_sel = n_world[mask]
    n_sel /= np.linalg.norm(n_sel, axis=1)[:, None]
    return PointCloud(pts_world[mask], n_sel)


# ---------------------------------------------------------------------------
# persistence: raw little-endian grids + JSON sidecar


def save_frame(dir_path, stem: str, frame: DepthFrame) -> list[Path]:
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    depth_path = dir_path / f"{stem}.depth.raw"
    inst_path = dir_path / f"{stem}.inst.raw"
    meta_path = dir_path / f"{stem}.meta.json"
    depth_path.write_bytes(frame.depth.astype("<f4").tobytes())
    inst_path.write_bytes(frame.instance_id.astype("<u2").tobytes())
    cam = frame.camera
    meta = {
        "width": cam.width,
        "height": cam.height,
        "fx": cam.fx,
        "fy": cam.fy,
        "cx": cam.cx,
        "cy": cam.cy,
        "pose": cam.pose.as_7floats(),
        "background_id": BACKGROUND_ID,
        "depth_dtype": "<f4",
        "instance_dtype": "<u2",
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=1))
    return [depth_path, inst_path, meta_path]


def load_frame(dir_path, stem: str) -> DepthFrame:
    dir_path = Path(dir_path)
    meta = json.loads((dir_path / f"{stem}.meta.json").read_text())
    h, w = meta["height"], meta["width"]
    depth = np.frombuffer((dir_path / f"{stem}.depth.raw").read_bytes(), dtype="<f4").reshape(h, w)
    inst = np.frombuffer((dir_path / f"{stem}.inst.raw").read_bytes(), dtype="<u2").reshape(h, w)
    cam = CameraModel(w, h, meta["fx"], meta["fy"], meta["cx"], meta["cy"], Pose.from_7floats(meta["pose"]))
    return DepthFrame(depth, inst, cam)
