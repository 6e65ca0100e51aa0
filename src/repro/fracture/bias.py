"""Bias all shot edges (paper §4.2).

A cheap whole-solution perturbation to escape local minima without
changing the shot count: when underexposure dominates (more failing
pixels in P_on) every shot is grown by one pixel on every edge; when
overexposure dominates every shot is shrunk, with edges that would drop
the shot below L_min left untouched (footnote 3).

Note on direction: §4.2 of the paper text says "shrink" for the
P_on-dominated case, but that contradicts both physics (failing P_on
pixels are underexposed and need more dose) and the paper's own §4.3,
which *adds* a shot in exactly that situation "since adding a shot is
likely to resolve violations in pixels inside the target shape".  We
implement the physically consistent direction and record the discrepancy
in EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.fracture.state import RefinementState, StateReport


def bias_all_shots(
    state: RefinementState,
    report: StateReport,
    paper_text_direction: bool = False,
) -> None:
    """Grow or shrink every shot edge by one pixel.

    ``paper_text_direction=True`` applies §4.2 exactly as written
    (shrink when P_on failures dominate) for the ablation bench; the
    default is the physically consistent direction.
    """
    pitch = state.spec.pitch
    lmin = state.spec.lmin
    grow = report.count_on > report.count_off
    if paper_text_direction:
        grow = not grow
    for index, shot in enumerate(state.shots):
        if grow:
            new = shot.expanded(pitch)
        else:
            new = shot.shrunk(pitch, lmin)
        if new == shot:
            continue
        # Region-restricted refinements may only bias shots whose dose
        # change stays inside the active mask (the changed dose lives in
        # the union window of the two versions).
        if not state.mutation_allowed(state.imap.union_window(shot, new)):
            continue
        state.replace_shot(index, new)
