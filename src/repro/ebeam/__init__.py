"""E-beam proximity-effect model and exposure simulation.

Implements the fixed-dose exposure model of paper §2:

* :mod:`repro.ebeam.kernel` — the truncated Gaussian proximity kernel
  ``G(x, y)`` (Eq. 2) caused by forward scattering.
* :mod:`repro.ebeam.intensity` — analytic shot intensity ``I_s`` (Eq. 3):
  the convolution of the shot's rectangular function (Eq. 1) with the
  kernel is separable and closes to a product of erf differences.
* :mod:`repro.ebeam.lut` — the lookup-table acceleration the paper uses to
  speed up the convolutions inside shot refinement (§4.1).
* :mod:`repro.ebeam.intensity_map` — incrementally maintained total
  intensity ``I_tot`` over the pixel grid; shots can be added, removed and
  edge-moved with updates restricted to their 3σ neighbourhood.
* :mod:`repro.ebeam.corner` — corner-rounding analysis and the numeric
  derivation of ``L_th``, the longest 45° segment a shot corner can write
  within the CD tolerance (Fig. 2).
* :mod:`repro.ebeam.writer` — variable-shaped-beam writer time model used
  by the mask cost analysis.
* :mod:`repro.ebeam.latitude` — the dose window a solution tolerates
  (import the module directly; it sits above the mask layer and is
  therefore not re-exported here).
"""

from repro.ebeam.corner import compute_lth, corner_rounding_contour
from repro.ebeam.intensity import point_intensity, shot_intensity, shot_profile_1d
from repro.ebeam.intensity_map import IntensityMap
from repro.ebeam.kernel import GaussianKernel
from repro.ebeam.lut import ErfLookupTable
from repro.ebeam.writer import VsbWriterModel

__all__ = [
    "ErfLookupTable",
    "GaussianKernel",
    "IntensityMap",
    "VsbWriterModel",
    "compute_lth",
    "corner_rounding_contour",
    "point_intensity",
    "shot_intensity",
    "shot_profile_1d",
]
