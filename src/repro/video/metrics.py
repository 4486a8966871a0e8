"""Image/video quality metrics for the functional pipeline.

PSNR lives on :class:`~repro.video.frames.DecodedFrame`; this module
adds SSIM (the perceptual metric codec work is usually judged by) and
sequence-level aggregation, so codec and DSC quality can be asserted the
way a video engineer would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError

#: SSIM stabilisation constants for 8-bit content (the standard values
#: K1=0.01, K2=0.03 against L=255).
_C1 = (0.01 * 255) ** 2
_C2 = (0.03 * 255) ** 2


def ssim(reference: np.ndarray, distorted: np.ndarray,
         window: int = 7) -> float:
    """Mean structural similarity between two H x W x 3 uint8 frames.

    The classic Wang et al. formulation with a uniform local window,
    computed per channel and averaged.  1.0 means identical.
    """
    if reference.shape != distorted.shape:
        raise CodecError(
            f"SSIM needs equal shapes, got {reference.shape} vs "
            f"{distorted.shape}"
        )
    if reference.ndim != 3 or reference.shape[2] != 3:
        raise CodecError(
            f"frames must be HxWx3, got {reference.shape}"
        )
    if min(reference.shape[0], reference.shape[1]) < window:
        raise CodecError(
            f"frames smaller than the {window}px SSIM window"
        )
    from scipy.ndimage import uniform_filter  # deferred: slow to import

    total = 0.0
    for channel in range(3):
        x = reference[..., channel].astype(np.float64)
        y = distorted[..., channel].astype(np.float64)
        mu_x = uniform_filter(x, window)
        mu_y = uniform_filter(y, window)
        sigma_x = uniform_filter(x * x, window) - mu_x * mu_x
        sigma_y = uniform_filter(y * y, window) - mu_y * mu_y
        sigma_xy = uniform_filter(x * y, window) - mu_x * mu_y
        numerator = (2 * mu_x * mu_y + _C1) * (2 * sigma_xy + _C2)
        denominator = (
            (mu_x ** 2 + mu_y ** 2 + _C1)
            * (sigma_x + sigma_y + _C2)
        )
        total += float(np.mean(numerator / denominator))
    return total / 3.0


def psnr(reference: np.ndarray, distorted: np.ndarray) -> float:
    """Peak signal-to-noise ratio between two uint8 arrays, in dB."""
    if reference.shape != distorted.shape:
        raise CodecError("PSNR needs equal shapes")
    diff = reference.astype(np.float64) - distorted.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 ** 2 / mse)


@dataclass(frozen=True)
class SequenceQuality:
    """Quality summary over a decoded sequence."""

    mean_psnr_db: float
    min_psnr_db: float
    mean_ssim: float
    min_ssim: float
    frames: int


def sequence_quality(references: list[np.ndarray],
                     decoded: list[np.ndarray]) -> SequenceQuality:
    """Aggregate PSNR/SSIM over a frame sequence."""
    if len(references) != len(decoded):
        raise CodecError(
            f"sequence lengths differ: {len(references)} vs "
            f"{len(decoded)}"
        )
    if not references:
        raise CodecError("cannot score an empty sequence")
    psnrs = [psnr(r, d) for r, d in zip(references, decoded)]
    ssims = [ssim(r, d) for r, d in zip(references, decoded)]
    return SequenceQuality(
        mean_psnr_db=float(np.mean(psnrs)),
        min_psnr_db=float(np.min(psnrs)),
        mean_ssim=float(np.mean(ssims)),
        min_ssim=float(np.min(ssims)),
        frames=len(references),
    )
