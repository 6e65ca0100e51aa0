"""Pixel-based inverse lithography by projected gradient descent.

The Poonawala–Milanfar formulation: parameterize the mask as a sigmoid
of an unconstrained field θ, simulate the printed image through the
aerial model, and descend the squared print error

    L(θ) = Σ_p ( print(mask(θ))(p) − target(p) )²

using the chain rule.  The Gaussian blur is self-adjoint, so the
gradient needs one extra blur — no autodiff required.  The converged
continuous mask is thresholded and mask-rule-cleaned, producing exactly
the curvy, slightly bulged contours (with occasional assist blobs) that
real ILT emits and that model-based fracturing consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.geometry.labeling import largest_component
from repro.geometry.raster import PixelGrid
from repro.litho.aerial import AerialImageModel
from repro.mask.shape import MaskShape
from repro.obs import get_logger, get_recorder

logger = get_logger(__name__)


@dataclass(slots=True)
class IltResult:
    """Outcome of one inverse-lithography run."""

    mask: np.ndarray  # boolean manufacturable mask
    continuous_mask: np.ndarray  # pre-threshold optimizer output
    loss_history: list[float]
    edge_error: float  # printed-vs-target pixel disagreement fraction

    @property
    def converged(self) -> bool:
        return len(self.loss_history) >= 2 and (
            self.loss_history[-1] <= self.loss_history[0]
        )


class InverseLithoOptimizer:
    """Gradient-descent ILT engine (see module docstring)."""

    def __init__(
        self,
        model: AerialImageModel = AerialImageModel(),
        iterations: int = 120,
        step: float = 4.0,
        mask_steepness: float = 4.0,
        mrc_radius: int = 5,
        min_component_px: int = 150,
    ):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.model = model
        self.iterations = iterations
        self.step = step
        self.mask_steepness = mask_steepness
        self.mrc_radius = mrc_radius
        self.min_component_px = min_component_px

    def _mask_of(self, theta: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.mask_steepness * theta))

    def optimize(self, target: np.ndarray) -> IltResult:
        """Optimize a mask for a boolean intended wafer pattern."""
        obs = get_recorder()
        target_f = target.astype(np.float64)
        theta = (target_f - 0.5) * 2.0  # start from the drawn pattern
        model = self.model
        loss_history: list[float] = []
        with obs.span("ilt.optimize", pixels=int(target.size)) as span:
            for _ in range(self.iterations):
                mask = self._mask_of(theta)
                aerial = model.aerial_image(mask)
                printed = model.resist_response(aerial)
                error = printed - target_f
                loss_history.append(float(np.sum(error**2)))
                # Chain rule: dL/dmask = blur( 2 error · resist' ), blur being
                # self-adjoint; then dmask/dtheta for the sigmoid.
                back = gaussian_filter(
                    2.0 * error * model.resist_derivative(aerial), model.optical_blur
                )
                grad_theta = back * self.mask_steepness * mask * (1.0 - mask)
                norm = float(np.max(np.abs(grad_theta)))
                if norm < 1e-12:
                    break
                theta = theta - self.step * grad_theta / norm
            span.annotate(iterations=len(loss_history))
            obs.incr("ilt.iterations", len(loss_history))
        if loss_history:
            logger.debug(
                "ILT descent: %d iterations, loss %.4g -> %.4g",
                len(loss_history), loss_history[0], loss_history[-1],
            )
        continuous = self._mask_of(theta)
        # Contour smoothing: ~2 px low-pass before thresholding strips the
        # pixel-scale ripple and sub-L_min serif hooks gradient descent leaves
        # on the boundary (a
        # real flow's mask raster/writer grid does the same).
        manufacturable = self._cleanup(
            gaussian_filter(continuous, 3.0) >= 0.5
        )
        edge_error = model.edge_placement_error(
            manufacturable.astype(np.float64), target
        )
        return IltResult(
            mask=manufacturable,
            continuous_mask=continuous,
            loss_history=loss_history,
            edge_error=edge_error,
        )

    def _cleanup(self, mask: np.ndarray) -> np.ndarray:
        """Mask rule check: drop sub-resolution slivers and debris.

        Keeps *every* printable component (ILT output is legitimately
        multi-polygon — main features plus assists); only raster debris
        below ``min_component_px`` is removed.
        """
        from repro.bench.shapes import _mrc_clean
        from repro.geometry.labeling import label_components

        cleaned = _mrc_clean(
            mask, radius_close=self.mrc_radius + 2, radius_open=self.mrc_radius
        )
        if not cleaned.any():
            return mask
        labels, count = label_components(cleaned)
        if count <= 1:
            return cleaned
        sizes = np.bincount(labels.ravel())
        keep = np.zeros_like(cleaned)
        for label in range(1, count + 1):
            if sizes[label] >= self.min_component_px:
                keep |= labels == label
        return keep if keep.any() else cleaned


def ilt_optimized_suite(pitch: float = 1.0) -> list[MaskShape]:
    """Five clips whose contours come from the real toy-ILT optimizer.

    Companion to :func:`repro.bench.shapes.ilt_suite` (which emulates
    optimizer output statistically): intended patterns are bars, elbows
    and contact pairs; each mask is the actual gradient-descent optimum
    under the aerial model.  Deterministic — no random seeds at all.
    """
    size = 300
    # Connected intended patterns so each clip is one polygon: bar,
    # cross, U, T and a Z-bend (multi-polygon output is exercised by
    # MaskClip in examples/ilt_to_shots.py instead).
    patterns: list[tuple[str, list[tuple[int, int, int, int]]]] = [
        ("ILT-OPT-1", [(110, 130, 210, 172)]),
        ("ILT-OPT-2", [(80, 128, 225, 170), (128, 62, 170, 230)]),
        ("ILT-OPT-3", [(70, 80, 230, 122), (70, 80, 112, 222), (188, 80, 230, 222)]),
        ("ILT-OPT-4", [(80, 180, 220, 222), (128, 70, 170, 222)]),
        ("ILT-OPT-5", [(70, 160, 170, 202), (130, 98, 230, 140)]),
    ]
    optimizer = InverseLithoOptimizer()
    shapes = []
    for name, rects in patterns:
        target = np.zeros((size, size), dtype=bool)
        for x_lo, y_lo, x_hi, y_hi in rects:
            target[y_lo:y_hi, x_lo:x_hi] = True
        result = optimizer.optimize(target)
        grid = PixelGrid(0.0, 0.0, pitch, size, size)
        mask = largest_component(result.mask)
        shapes.append(MaskShape.from_mask(mask, grid, name=name))
    return shapes

