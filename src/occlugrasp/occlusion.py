"""Occlusion measurement from paired renders, and level binning.

The level is the occluded fraction of the target: 1 - visible/total, where
`total` counts the target's pixels in the paired single-scene render (the
complete target at this camera pose, self-occlusion included) and `visible`
counts its pixels in the cluttered render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import DepthFrame, _check_instance
from .errors import InputError, MeasurementError, _check_type, _finite_array, _finite_non_negative


@dataclass(frozen=True)
class OcclusionRecord:
    level: float
    bin_index: int | None  # None: at or above the scheme's last edge
    visible_pixels: int
    total_pixels: int


@dataclass(frozen=True)
class BinScheme:
    edges: tuple[float, ...]

    def __post_init__(self):
        what = "bin edges must be finite numbers ascending from 0 and ending <= 1"
        e = _finite_array(self.edges, (-1,), what)  # a NaN edge would pass every comparison below
        if not (len(e) >= 2 and e[0] == 0.0 and (e[1:] > e[:-1]).all() and e[-1] <= 1.0):
            raise InputError(f"{what}, got {self.edges}")

    @staticmethod
    def training() -> "BinScheme":
        # ten bins, final bin [0.9, 0.95)
        return BinScheme(tuple(np.round(np.arange(0.0, 0.91, 0.1), 10)) + (0.95,))

    @staticmethod
    def test() -> "BinScheme":
        # nine bins, [0,0.1) .. [0.8,0.9)
        return BinScheme(tuple(np.round(np.arange(0.0, 0.91, 0.1), 10)))

    @staticmethod
    def real_world() -> "BinScheme":
        # Easy / Medium / Hard
        return BinScheme((0.0, 0.3, 0.6, 0.9))


def assign_bin(level: float, scheme: BinScheme) -> int | None:
    """Half-open [edge_i, edge_{i+1}) bin index; None when level >= last edge."""
    if not (_finite_non_negative(level) and level <= 1.0):
        raise InputError(f"occlusion level must be a number in [0, 1], got {level!r}")
    _check_type(scheme, BinScheme, "scheme")
    if level >= scheme.edges[-1]:
        return None
    idx = int(np.searchsorted(scheme.edges, level, side="right")) - 1
    return idx


def occlusion_level(
    single_frame: DepthFrame,
    cluttered_frame: DepthFrame,
    target_index: int,
    scheme: BinScheme,
) -> OcclusionRecord:
    """Occluded fraction of the target from paired renders at one camera pose, and its bin in `scheme`.

    The single frame must come from the derived single scene, where the
    target is instance 0. The frames' cameras must be equal, as those of a
    frame and its `load_frame` copy are. The pixel counts are Python ints.
    """
    _check_type(single_frame, DepthFrame, "single_frame")
    _check_type(cluttered_frame, DepthFrame, "cluttered_frame")
    _check_instance(target_index, "target_index")
    _check_type(scheme, BinScheme, "scheme")
    if single_frame.camera != cluttered_frame.camera:
        raise InputError("paired frames must share the camera model")
    total = int(np.count_nonzero(single_frame.instance_id == 0))
    if total == 0:
        raise MeasurementError("target absent from the single-scene render")
    visible = int(np.count_nonzero(cluttered_frame.instance_id == target_index))
    # integer subtraction first: the result is the correctly rounded
    # occluded fraction (e.g. 30/100 compares equal to 0.3)
    level = (total - visible) / total
    return OcclusionRecord(level, assign_bin(min(max(level, 0.0), 1.0), scheme), visible, total)
