"""Ranked companion search: the Eq. (1) row bound is sound and exact.

The cold top-K and delta searches score count-vector grid rows in
descending order of a per-row bound and stop at the first bound strictly
below the current K-th best (see "Fast path" in
``repro.sched.companion``).  These properties pin the three facts that
make the search equal to brute force: every row's bound is at least the
Eq. (1d) throughput of every plan that row expands to (and within the
slack of the best one), a row whose bound is ``-inf`` has no plans, and
the answers equal the reference enumerator's.  The accounting tests
check that every grid row is either scored, pruned or bound-infeasible.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.sched.companion import CompanionModule, _count_grid
from repro.sched.intra import IntraJobScheduler
from repro.sched.perfmodel import estimated_throughput

TYPES = ("a100", "p100", "t4", "v100")
CAP = {"v100": 9.0, "p100": 4.0, "t4": 3.0}


@st.composite
def capability_tables(draw):
    """Tables with equal, 1-ulp-apart, far-apart and unrelated entries."""
    types = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=4, unique=True))
    base = draw(st.floats(0.25, 16.0))
    caps = {}
    for gtype in types:
        kind = draw(st.sampled_from(("equal", "ulp", "ratio", "free")))
        if kind == "equal":
            caps[gtype] = base
        elif kind == "ulp":
            caps[gtype] = math.nextafter(base, draw(st.sampled_from((-math.inf, math.inf))))
        elif kind == "ratio":
            caps[gtype] = base * draw(st.sampled_from((1e-9, 1e-3, 1e3, 1e9)))
        else:
            caps[gtype] = draw(st.floats(0.25, 16.0))
    return caps


@st.composite
def companions(draw):
    return CompanionModule(
        max_p=draw(st.integers(1, 16)),
        capability=draw(capability_tables()),
        homogeneous_only=draw(st.booleans()),
        max_gpus_per_type=draw(st.integers(1, 16)),
    )


def _counts(draw, upper=16):
    return {t: draw(st.integers(0, upper)) for t in TYPES if draw(st.booleans())}


def _box(comp, available):
    """(types, ranges) of the full top-K grid under ``available``."""
    key = comp.clamped_key(available)
    return tuple(t for t, _ in key), tuple((0, n) for _, n in key)


class TestBoundSoundness:
    @given(comp=companions(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bound_covers_every_scored_plan(self, comp, data):
        types, ranges = _box(comp, _counts(data.draw))
        grid = _count_grid(ranges, comp.max_p, comp.homogeneous_only)
        if not len(grid):
            return
        bounds = comp._grid_bounds(types, grid)
        for row, bound in zip(grid.tolist(), bounds.tolist()):
            counts = {t: n for t, n in zip(types, row) if n}
            scores = [
                estimated_throughput(s.plan, comp.capability)
                for s in comp._score_counts(counts, set())
            ]
            if bound == -math.inf:
                assert not scores, counts
            if not scores:
                # bound-infeasible, or every plan rounded to a throughput
                # <= 0 (tiny/huge capability ratios): nothing to cover
                continue
            assert all(bound >= score for score in scores), (counts, bound, scores)
            # exact, not merely sound: within twice the slack of the best
            aggregate = sum(n * comp.capability[t] for t, n in counts.items())
            assert bound <= max(scores) + 2e-9 * aggregate, (counts, bound, scores)

    @given(comp=companions(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_searches_equal_reference(self, comp, data):
        draw = data.draw
        available = _counts(draw)
        k = draw(st.integers(1, 6))
        assert comp.best_plans(available, top_k=k) == comp.enumerate_plans_reference(
            available
        )[:k]
        owned = _counts(draw, upper=8)
        gtype = draw(st.sampled_from(TYPES))
        chunk = draw(st.integers(1, 8))
        hypothetical = dict(owned)
        if gtype in comp.capability:
            hypothetical[gtype] = hypothetical.get(gtype, 0) + chunk
        ranked = comp.enumerate_plans_reference(hypothetical)
        assert comp.best_plan_delta(owned, gtype, chunk) == (ranked[0] if ranked else None)


class TestSearchAccounting:
    def _infeasible(self, comp, types, ranges):
        grid = _count_grid(ranges, comp.max_p, comp.homogeneous_only)
        bounds = comp._grid_bounds(types, grid)
        return len(grid), int(np.count_nonzero(bounds == -np.inf))

    def test_topk_rows_are_scored_pruned_or_infeasible(self):
        comp = CompanionModule(max_p=8, capability=dict(CAP))
        available = {"v100": 8, "p100": 8, "t4": 8}
        comp.best_plans(available, top_k=3)
        rows, infeasible = self._infeasible(comp, *_box(comp, available))
        # the pruned count is the skipped tail, not the number of early exits
        assert comp.vectors_pruned > 1
        assert comp.vectors_pruned + comp.vectors_scored + infeasible == rows

    def test_delta_rows_are_scored_pruned_or_infeasible(self):
        comp = CompanionModule(max_p=8, capability=dict(CAP))
        owned = {"v100": 2, "t4": 3}
        comp.best_plan_delta(owned, "p100", 4)
        box_rows, box_infeasible = self._infeasible(comp, *_box(comp, owned))
        slab_rows, slab_infeasible = self._infeasible(
            comp, ("p100", "t4", "v100"), ((1, 4), (0, 3), (0, 2))
        )
        assert (
            comp.vectors_pruned + comp.vectors_scored + box_infeasible + slab_infeasible
            == box_rows + slab_rows
        )

    def test_metric_counts_pruned_vectors(self):
        obs.configure(enabled=True)
        try:
            counter = obs.metrics().counter("sched_plan_vectors_pruned_total")
            before = counter.value
            comp = CompanionModule(max_p=8, capability=dict(CAP))
            comp.best_plans({"v100": 8, "p100": 8, "t4": 8}, top_k=3)
            assert counter.value - before == comp.vectors_pruned > 1
        finally:
            obs.configure(enabled=False)


class TestTopKValidation:
    @pytest.mark.parametrize("k", [0, -1])
    def test_best_plans_rejects_nonpositive_top_k(self, k):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        with pytest.raises(ValueError, match="top_k"):
            comp.best_plans({"v100": 2}, top_k=k)
        comp.enumerate_plans({"v100": 2})  # a warm full cache changes nothing
        with pytest.raises(ValueError, match="top_k"):
            comp.best_plans({"v100": 2}, top_k=k)

    @pytest.mark.parametrize("k", [0, -1])
    def test_intra_scheduler_rejects_nonpositive_top_k(self, k):
        comp = CompanionModule(max_p=4, capability=dict(CAP))
        with pytest.raises(ValueError, match="top_k"):
            IntraJobScheduler("job-x", comp, top_k=k)
        sched = IntraJobScheduler("job-x", comp)
        with pytest.raises(ValueError, match="top_k"):
            sched.top_k = k
        assert sched.top_k == 3
