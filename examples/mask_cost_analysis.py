#!/usr/bin/env python3
"""Mask economics: from per-clip shot counts to full-mask cost savings.

Walks the paper's §1 argument end to end: run a conventional and a
model-based MDP flow over the ILT suite, extrapolate the per-shape shot
counts to a full-field mask (billions of shapes), convert write time to
mask cost with the 20 %-of-cost write model, and report the projected
savings per mask set.

    python examples/mask_cost_analysis.py
"""

from repro import FractureSpec, ModelBasedFracturer, RefineConfig
from repro.baselines import PartitionFracturer
from repro.bench.shapes import ilt_suite
from repro.ebeam.writer import VsbWriterModel
from repro.mask.cost import MaskCostModel
from repro.mask.mdp import MdpPipeline

FULL_MASK_SHAPES = 2e8  # critical-layer shape count for the projection


def main() -> None:
    spec = FractureSpec()
    shapes = ilt_suite()[:5]

    conventional = MdpPipeline(PartitionFracturer(), spec)
    model_based = MdpPipeline(
        ModelBasedFracturer(config=RefineConfig.fast()), spec
    )

    print("running conventional flow (geometric partitioning)...")
    base = conventional.run(shapes, verbose=True)
    print("\nrunning model-based flow (coloring + refinement)...")
    improved = model_based.run(shapes, verbose=True)

    writer = VsbWriterModel()
    cost = MaskCostModel(writer=writer)
    base_hours = writer.full_mask_estimate(base.shots_per_shape(), FULL_MASK_SHAPES)
    new_hours = writer.full_mask_estimate(
        improved.shots_per_shape(), FULL_MASK_SHAPES
    )
    saving = model_based.projected_saving(base, improved)

    print("\n--- full-mask projection ---")
    print(f"avg shots/shape: {base.shots_per_shape():.1f} -> "
          f"{improved.shots_per_shape():.1f}")
    print(f"write time: {base_hours:.1f}h -> {new_hours:.1f}h")
    print(f"shot reduction: {saving['shot_reduction']:.1%}")
    print(f"mask cost saving: {saving['mask_cost_saving_fraction']:.1%}")
    print(f"per mask set (${cost.mask_set_cost_usd:,.0f}): "
          f"${saving['mask_set_saving_usd']:,.0f}")
    print("\n(the paper's rule of thumb: 10% fewer shots ~ 2% mask cost; "
          f"check: {cost.cost_saving_fraction(0.10):.1%})")

    # Second-order quality of the model-based solution on one clip:
    # dose latitude (drift tolerance).
    from repro.ebeam.latitude import dose_window

    shape = shapes[0]
    shots = improved.results[0].shots
    window = dose_window(shots, shape, spec)
    print(f"\n{shape.name} quality: dose window "
          f"[{window.s_min:.3f}, {window.s_max:.3f}] "
          f"(latitude {window.latitude:.1%} of nominal)")


if __name__ == "__main__":
    main()
