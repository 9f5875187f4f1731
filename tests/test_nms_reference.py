"""The closed-form NMS core against the per-member loops it replaced, bit for bit.

The package computes grouping, the masked forward pass, the masked backward
pass and the Jacobians with index arithmetic over a group-top array, and
solves the inverse variants one block of prune rows at a time; the
references in tests/oracles.py walk the groups one member at a time and solve
with the whole prune matrix in hand. Every output byte must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffnms import (
    NmsConfig,
    NmsVariant,
    Pruning,
    group_boxes,
    masked_backward,
    masked_jacobians,
    random_instance,
    run_nms,
    sort_by_score,
)
from diffnms import nms
from oracles import (
    reference_closed_form,
    reference_group_boxes,
    reference_masked_backward,
    reference_masked_jacobians,
)

CLOSED_FORM = (NmsVariant.MASKED, NmsVariant.FULL_INVERSE, NmsVariant.GROUPED_INVERSE)
SOFT = [p for p in Pruning if p is not Pruning.HARD]
# The solve's row-block bound: the default, one row per block, and a bound
# that splits instances of up to 60 boxes into blocks of a few rows.
SOLVE_BLOCKS = st.sampled_from([nms._SOLVE_BLOCK_ENTRIES, 1, 100])


@st.composite
def instances(draw, prunings=tuple(Pruning)):
    """Scores with ties (and sometimes a -0.0), overlaps, a config and an rng for upstreams."""
    n = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scores, overlaps = random_instance(rng, n)
    scores = np.round(scores, draw(st.integers(min_value=0, max_value=2)))
    if n and draw(st.booleans()):
        scores[draw(st.integers(min_value=0, max_value=n - 1))] = -0.0
    if draw(st.booleans()):
        np.fill_diagonal(overlaps, 0.0)
    cfg = NmsConfig(
        nt=draw(st.floats(min_value=0.01, max_value=0.99)),
        pruning=draw(st.sampled_from(prunings)),
        max_group_size=draw(st.sampled_from([None, 100, 3, 1])),
    )
    return scores, overlaps, cfg, rng


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200)
@given(case=instances(), solve_block=SOLVE_BLOCKS)
def test_forward_matches_reference(case, solve_block):
    scores, overlaps, cfg, _ = case
    for variant in CLOSED_FORM:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nms, "_SOLVE_BLOCK_ENTRIES", solve_block)
            got = run_nms(scores, overlaps, cfg, variant)
        want = reference_closed_form(scores, overlaps, cfg, variant)
        assert _same(got.rescores, want.rescores), variant
        assert _same(got.pre_clip, want.pre_clip), variant
        assert _same(got.kept, want.kept), variant


@settings(max_examples=200)
@given(case=instances())
def test_grouping_matches_reference(case):
    scores, overlaps, cfg, _ = case
    sorted_overlaps = sort_by_score(scores, overlaps)[1]
    part = group_boxes(sorted_overlaps, cfg)
    groups, capped = reference_group_boxes(sorted_overlaps, cfg)
    assert part.groups == groups
    assert part.capped_out == tuple(sorted(capped))


@settings(max_examples=200)
@given(case=instances(prunings=SOFT))
def test_backward_and_jacobians_match_reference(case):
    scores, overlaps, cfg, rng = case
    upstream = rng.normal(size=scores.size)
    got = masked_backward(scores, overlaps, cfg, upstream)
    want = reference_masked_backward(scores, overlaps, cfg, upstream)
    assert _same(got.score_grad, want.score_grad)
    assert got.overlap_grad == want.overlap_grad
    jac, o_grads = masked_jacobians(scores, overlaps, cfg)
    want_jac, want_o_grads = reference_masked_jacobians(scores, overlaps, cfg)
    assert _same(jac, want_jac)
    assert o_grads == want_o_grads
