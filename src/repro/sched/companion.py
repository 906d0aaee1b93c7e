"""The companion module: a database of scheduling plans per job (§3.4).

For a job with ``maxP`` ESTs and a capability profile ``C_i`` the
companion enumerates EST-to-GPU-type mappings, scores them with the
Eq. (1) model, and answers two queries for the intra-job scheduler:

- ``best_plans(available)`` — top-K feasible plans under the currently
  free GPUs (Role-1/Role-2 input);
- ``report_measurement(type, est, meas)`` — bias correction: when reported
  throughput diverges from the estimate, the database re-fits that type's
  capability and re-scores (the "actively update the database once it has
  monitored significant biases" behaviour).

Plans balance load by assigning ESTs proportionally to capability, with
floor/ceil integrality choices enumerated (the "quantum property of EST
allocation" the paper calls out).

Fast path
---------

The full enumeration is ``O(max_gpus_per_type^|types|)`` and the §3.4
proposal loop issues it once per (GPU-type × chunk) per round, so the
database memoizes aggressively and searches cold queries best-first:

- results are cached under the *normalized* availability vector (see
  :func:`~repro.sched.plancache.availability_key`), invalidated whenever
  the capability table's **generation** counter bumps — which every
  mutation path (``report_measurement``, ``apply_calibration``, direct
  item assignment) does automatically via :class:`_CapabilityTable`;
- a cold top-K or delta query is one **ranked search** over a grid of
  count vectors.  The grid is an int array holding every vector of a
  product of per-type count ranges with ``0 < Σ N_i <= maxP`` (one
  non-zero column for homogeneous plans): the full ``0..n_i`` box for
  top-K, the ``old_cap < n_gtype <= new_cap`` slab for
  :meth:`best_plan_delta`.  A grid depends only on (ranges, maxP,
  ``homogeneous_only``), so it is built once into a module-level LRU
  store capped at ``_GRID_STORE_CELLS`` counts and shared by every job;
- every row gets an **exact Eq. (1) bound**, for the whole grid at once.
  Substituting (1c) into (1d) gives ``throughput = maxP / f_overload``
  (the ``Σ N_i·C_i`` and ``nEST/f`` terms cancel), so a count vector's
  best plan is the floor/ceil EST choice with the smallest (1b)
  overload factor among those feasible under (1a).  The bound computes
  ``lo_i = max(1, int(maxP·C_i / Σ N·C))`` with the same float
  expression as ``_ests_for_counts`` (``Σ N·C`` as a left fold in sorted
  type order, bit for bit), takes ``max maxP / max_i(A_i/C_i)`` over the
  feasible ``{lo_i, lo_i + 1}`` combos (``-inf`` if none is feasible:
  the row has no plans), caps it at ``Σ N_i·C_i`` and adds a slack of
  ``1e-9·Σ N_i·C_i``.  Every term of ``waste()`` is at most
  ``Σ N_i·C_i`` in magnitude, so its rounding — and the ``_WASTE_EPS``
  clamp it can trigger — moves a scored throughput by a few ulps of
  ``Σ N_i·C_i``, far inside the slack: the bound is sound;
- rows are visited in stable descending-bound order (ties keep grid
  order) and scored one by one by the Eq. (1b–1d) code itself
  (:meth:`_score_counts`, :func:`estimated_throughput`); the search stops
  at the first bound strictly below the current K-th best.  Rows never
  expanded are counted in :attr:`CompanionModule.vectors_pruned`;
- :meth:`best_plan_delta` scores a scale-out hypothesis ``owned +
  chunk×gtype`` incrementally: the hypothetical plan space is the owned
  space (already cached from Role-1) plus only the *slab*, searched with
  the owned best as its initial floor.

All three return **exactly** what the seed brute-force enumerator
(:meth:`enumerate_plans_reference`) returns — same plans, same ranking —
which the property suites in ``tests/sched/test_companion_fastpath.py``
and ``tests/sched/test_companion_bound.py`` assert.  To make that
contract exact under ties, ranking uses the total order
``(-throughput, total_gpus, alloc)``.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.sched.perfmodel import Plan, ScoredPlan, estimated_throughput
from repro.sched.plancache import MISS, PlanCache, availability_key


def _rank_key(scored: ScoredPlan) -> Tuple[float, int, Tuple[Tuple[str, int, int], ...]]:
    """Total order on scored plans: throughput desc, GPUs asc, alloc asc.

    The trailing ``alloc`` component makes ranking independent of
    enumeration order, so the cached/pruned search and the brute-force
    reference are comparable element-by-element.
    """
    return (-scored.throughput, scored.plan.total_gpus, scored.plan.alloc)


#: relative slack added to every row bound: orders of magnitude above the
#: few-ulp rounding of Eq. (1c), far below any real throughput gap
_BOUND_SLACK = 1e-9

#: count-vector grids by (per-type ranges, maxP, homogeneous_only), least
#: recently used first; holds at most :data:`_GRID_STORE_CELLS` counts
#: (plus the one grid in use, should it alone be larger)
_GRID_STORE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_GRID_STORE_CELLS = 1 << 20


def _count_grid(
    ranges: Tuple[Tuple[int, int], ...], max_p: int, homogeneous_only: bool
) -> np.ndarray:
    """Every count vector in the product of inclusive per-type ``ranges``
    with ``0 < Σ <= max_p`` (one non-zero count if ``homogeneous_only``),
    one row each, in ``itertools.product`` order.  Read-only, shared."""
    key = (ranges, max_p, homogeneous_only)
    grid = _GRID_STORE.get(key)
    if grid is not None:
        _GRID_STORE.move_to_end(key)
        return grid
    # built column by column, dropping prefixes that already break a
    # constraint, so no intermediate exceeds the final row count by more
    # than one column's range
    grid = np.zeros((1, 0), dtype=np.int64)
    for lo, hi in ranges:
        values = np.arange(lo, hi + 1, dtype=np.int64)
        grid = np.column_stack(
            (np.repeat(grid, len(values), axis=0), np.tile(values, len(grid)))
        )
        keep = grid.sum(axis=1) <= max_p
        if homogeneous_only:
            keep &= np.count_nonzero(grid, axis=1) <= 1
        grid = grid[keep]
    grid = grid[grid.sum(axis=1) > 0]
    grid.setflags(write=False)
    _GRID_STORE[key] = grid
    cells = sum(g.size for g in _GRID_STORE.values())
    while cells > _GRID_STORE_CELLS and len(_GRID_STORE) > 1:
        cells -= _GRID_STORE.popitem(last=False)[1].size
    return grid


@lru_cache(maxsize=16)
def _combo_bits(width: int) -> np.ndarray:
    """All ``2**width`` floor/ceil choices as a (combos × width × 1) 0/1
    array, broadcastable against (width × rows)."""
    bits = np.array(list(itertools.product((0.0, 1.0), repeat=width)))[:, :, None]
    bits.setflags(write=False)
    return bits


class _CapabilityTable(dict):
    """Capability dict that bumps the owner's cache generation on mutation.

    Call sites mutate the table directly (``companion.capability[t] = r``
    in :meth:`IntraJobScheduler.apply_calibration`, ``*=`` in
    :meth:`CompanionModule.report_measurement`), so invalidation must live
    on the container itself — no mutation path may leave a stale plan
    cache behind.
    """

    __slots__ = ("_owner",)

    def __init__(self, data: Mapping[str, float], owner: "CompanionModule") -> None:
        self._owner = owner
        super().__init__(data)

    def __setitem__(self, key: str, value: float) -> None:
        super().__setitem__(key, value)
        self._owner._bump_generation()

    def __delitem__(self, key: str) -> None:
        super().__delitem__(key)
        self._owner._bump_generation()

    def update(self, *args, **kwargs) -> None:  # type: ignore[override]
        super().update(*args, **kwargs)
        self._owner._bump_generation()

    def pop(self, *args):  # type: ignore[override]
        value = super().pop(*args)
        self._owner._bump_generation()
        return value

    def clear(self) -> None:
        super().clear()
        self._owner._bump_generation()

    def setdefault(self, key: str, default: float = None):  # type: ignore[override]
        if key not in self:
            self._owner._bump_generation()
        return super().setdefault(key, default)


class CompanionModule:
    """Plan database + capability profile for one job."""

    def __init__(
        self,
        max_p: int,
        capability: Mapping[str, float],
        homogeneous_only: bool = False,
        bias_threshold: float = 0.25,
        max_gpus_per_type: int = 16,
        correction_band: Tuple[float, float] = (0.5, 2.0),
        cache_size: int = 512,
    ) -> None:
        if max_p <= 0:
            raise ValueError("maxP must be positive")
        if not capability:
            raise ValueError("capability profile is empty")
        lo, hi = correction_band
        if not (0.0 < lo <= 1.0 <= hi):
            raise ValueError(
                f"correction band must satisfy 0 < lo <= 1 <= hi, got {correction_band}"
            )
        self.max_p = max_p
        self.homogeneous_only = homogeneous_only
        self.bias_threshold = bias_threshold
        self.max_gpus_per_type = max_gpus_per_type
        #: per-report multiplicative correction clamp: one garbage
        #: measurement (a stall mid-reconfiguration) may pull ``C_i`` by at
        #: most this factor, never collapse it toward 0 or infinity
        self.correction_band = (float(lo), float(hi))
        #: (gtype, estimate, measurement, clamped) tuples observed
        self.observations: List[Tuple[str, float, float, bool]] = []
        # --- fast path state (before the capability table, whose
        # constructor may bump the generation) ---
        self._generation = 0
        #: (ownership vector, its version, key) of the last versioned
        #: vector keyed — see :meth:`clamped_key`; reset on every
        #: generation bump
        self._owned_memo: Optional[tuple] = None
        self._full_cache = PlanCache("companion_full", maxsize=cache_size)
        self._topk_cache = PlanCache("companion_topk", maxsize=cache_size)
        self._delta_cache = PlanCache("companion_delta", maxsize=cache_size)
        #: count vectors whose EST expansion the dominance bound skipped
        self.vectors_pruned = 0
        #: count vectors fully expanded and scored
        self.vectors_scored = 0
        self.capability: Dict[str, float] = _CapabilityTable(capability, self)

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Bumped on every capability mutation; keys cache validity."""
        return self._generation

    def _bump_generation(self) -> None:
        self._generation += 1
        self._owned_memo = None
        # copy-on-write: a companion sharing its class's plan store moves
        # to private ones, so its siblings never see plans scored under
        # this companion's new capability table
        self._full_cache.invalidate()
        self._topk_cache.invalidate()
        self._delta_cache.invalidate()

    @property
    def class_key(self) -> tuple:
        """Every input a stored plan depends on besides availability.

        (capability contents, maxP, per-type cap, plan shape): two
        companions with equal class keys answer every query identically,
        so they may share one plan store.  Callers build it once per
        generation (plan-store registration, class interning), never per
        query.
        """
        return (
            tuple(sorted(self.capability.items())),
            self.max_p,
            self.max_gpus_per_type,
            self.homogeneous_only,
        )

    def join_plan_store(self, stores: Dict[tuple, Tuple[dict, dict, dict]]) -> None:
        """Share plan storage with the other companions of this class.

        ``stores`` maps :attr:`class_key` to the (full, top-K, delta)
        entry dicts of that class; the first companion of a class
        registers its own.  Hit/miss statistics stay per companion, and
        a later generation bump moves this companion back to private
        stores (see :meth:`_bump_generation`).
        """
        caches = (self._full_cache, self._topk_cache, self._delta_cache)
        shared = stores.setdefault(self.class_key, tuple(c.store for c in caches))
        for cache, store in zip(caches, shared):
            cache.share(store)

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/invalidation/eviction counts for all three caches."""
        return {
            "full": self._full_cache.stats.as_dict(),
            "topk": self._topk_cache.stats.as_dict(),
            "delta": self._delta_cache.stats.as_dict(),
        }

    def clamped_key(self, available: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
        """:func:`availability_key` of ``available`` under this companion.

        A job's ownership vector (:class:`~repro.sched.simulator.Ownership`)
        carries a ``version`` that every mutation bumps; its key is kept
        until the job holds another vector, the version moves, or this
        companion's generation changes, so the Role-1 replan check, Role-2
        proposal memo and delta searches all read one maintained key
        instead of re-sorting the vector per call.  Unversioned mappings
        are keyed afresh every time.
        """
        version = getattr(available, "version", None)
        memo = self._owned_memo
        if memo is not None and memo[0] is available and memo[1] == version:
            return memo[2]
        key = availability_key(
            available, self.capability, self.max_p, self.max_gpus_per_type
        )
        if version is not None:
            # holding the vector keeps its identity from being reused
            self._owned_memo = (available, version, key)
        return key

    # ------------------------------------------------------------------
    # plan enumeration
    # ------------------------------------------------------------------
    def _candidate_counts(
        self, available: Mapping[str, int]
    ) -> Iterable[Dict[str, int]]:
        """Yield candidate GPU-count vectors under the availability caps."""
        types = [t for t in sorted(available) if available[t] > 0 and t in self.capability]
        if not types:
            return
        if self.homogeneous_only:
            for gtype in types:
                cap = min(available[gtype], self.max_p, self.max_gpus_per_type)
                for n in range(1, cap + 1):
                    yield {gtype: n}
            return
        ranges = [
            range(0, min(available[t], self.max_p, self.max_gpus_per_type) + 1) for t in types
        ]
        for counts in itertools.product(*ranges):
            if sum(counts) == 0 or sum(counts) > self.max_p:
                continue
            yield {t: c for t, c in zip(types, counts) if c > 0}

    def _ests_for_counts(self, counts: Mapping[str, int]) -> Iterable[Dict[str, int]]:
        """Proportional-to-capability EST split, floor/ceil enumerated."""
        types = sorted(counts)
        # a left fold in sorted type order, which _grid_bounds reproduces
        total_cap = 0.0
        for t in types:
            total_cap += counts[t] * self.capability[t]
        if total_cap <= 0:
            return
        ideal = {t: self.max_p * self.capability[t] / total_cap for t in types}
        choices = []
        for t in types:
            lo = max(1, int(ideal[t]))
            options = {lo, lo + 1}
            choices.append(sorted(options))
        for combo in itertools.product(*choices):
            yield {t: a for t, a in zip(types, combo)}

    def _score_counts(
        self, counts: Mapping[str, int], seen: set
    ) -> List[ScoredPlan]:
        """Expand one count vector into scored, feasible, deduped plans."""
        scored: List[ScoredPlan] = []
        for ests in self._ests_for_counts(counts):
            plan = Plan.build({t: (counts[t], ests[t]) for t in counts}, self.max_p)
            if not plan.is_feasible:
                continue
            if plan.alloc in seen:
                continue
            seen.add(plan.alloc)
            throughput = estimated_throughput(plan, self.capability)
            if throughput <= 0:
                continue
            scored.append(ScoredPlan(plan=plan, throughput=throughput))
        self.vectors_scored += 1
        return scored

    def enumerate_plans_reference(
        self, available: Mapping[str, int]
    ) -> List[ScoredPlan]:
        """The seed brute-force enumerator: no cache, no pruning.

        Kept as the equivalence oracle — the property suite and the
        fast-path benchmark compare every cached/pruned query against it.
        """
        scored: List[ScoredPlan] = []
        seen: set = set()
        for counts in self._candidate_counts(available):
            scored.extend(self._score_counts(counts, seen))
        scored.sort(key=_rank_key)
        return scored

    def enumerate_plans(self, available: Mapping[str, int]) -> List[ScoredPlan]:
        """All feasible scored plans under the given free-GPU counts."""
        key = self.clamped_key(available)
        cached = self._full_cache.get(key)
        if cached is not MISS:
            return list(cached)
        plans = self.enumerate_plans_reference(dict(key))
        self._full_cache.put(key, plans)
        return list(plans)

    def best_plans(self, available: Mapping[str, int], top_k: int = 3) -> List[ScoredPlan]:
        """Top-K plans; cached and dominance-pruned (see module docs)."""
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        key = self.clamped_key(available)
        full = self._full_cache.get(key)
        if full is not MISS:
            return list(full[:top_k])
        cached = self._topk_cache.get((key, top_k))
        if cached is not MISS:
            return list(cached)
        plans = self._search_topk(key, top_k)
        self._topk_cache.put((key, top_k), plans)
        return list(plans)

    def best_plan(self, available: Mapping[str, int]) -> Optional[ScoredPlan]:
        plans = self.best_plans(available, top_k=1)
        return plans[0] if plans else None

    # ------------------------------------------------------------------
    # ranked search
    # ------------------------------------------------------------------
    def _grid_bounds(self, types: Tuple[str, ...], grid: np.ndarray) -> np.ndarray:
        """Per-row upper bound on the Eq. (1d) throughput of every plan
        :meth:`_score_counts` yields for that count vector; ``-inf`` where
        no floor/ceil EST split is feasible.  See "Fast path" in the
        module docs."""
        caps = [self.capability[t] for t in types]
        # arrays are (combos ×) types × rows: long inner loops over rows
        counts = grid.T
        # column-sequential left fold in sorted type order: the very
        # float expression _ests_for_counts evaluates, bit for bit
        total = counts[0] * caps[0]
        for n, cap in zip(counts[1:], caps[1:]):
            total = total + n * cap
        column = np.array(caps)[:, None]
        lo = np.maximum(1.0, np.trunc(self.max_p * column / total))
        # unused types get no ESTs, so they neither add EST slots nor set
        # the overload factor
        ests = (lo + _combo_bits(len(types))) * (counts > 0)
        feasible = (counts * ests).sum(axis=1) >= self.max_p
        throughput = self.max_p / (ests / column).max(axis=1)
        best = np.where(feasible, throughput, -np.inf).max(axis=0)
        # maxP/f_overload <= Σ N·C exactly; the slack absorbs the rounding
        # of the Eq. (1c) subtraction in waste() (a few ulps of Σ N·C)
        return np.minimum(best, total) + _BOUND_SLACK * total

    def _ranked_search(
        self,
        types: Tuple[str, ...],
        ranges: Tuple[Tuple[int, int], ...],
        best: List[ScoredPlan],
        top_k: int,
    ) -> List[ScoredPlan]:
        """Top ``top_k`` of ``best`` and every plan of one count-vector grid.

        Rows are scored best-bound first and the search stops at the first
        bound *strictly* below the current K-th best throughput — a bound
        equal to the floor must still be expanded because the
        ``(total_gpus, alloc)`` tie-break can place one of its plans
        inside the top K.  The answer depends only on :func:`_rank_key`,
        never on visiting order.
        """
        grid = _count_grid(ranges, self.max_p, self.homogeneous_only)
        if not len(grid):
            return best
        bounds = self._grid_bounds(types, grid)
        order = np.argsort(-bounds, kind="stable")
        ranked = bounds[order].tolist()
        # rows without a feasible EST split sort last and are never scored
        live = len(ranked) - ranked.count(-math.inf)
        floor = best[-1].throughput if len(best) == top_k else None
        seen: set = set()
        for pos in range(live):
            if floor is not None and ranked[pos] < floor:
                # rows are bound-sorted: nothing below can recover
                skipped = live - pos
                self.vectors_pruned += skipped
                if obs.is_enabled():
                    obs.metrics().counter("sched_plan_vectors_pruned_total").inc(skipped)
                break
            row = grid[order[pos]].tolist()
            counts = {t: n for t, n in zip(types, row) if n}
            candidates = self._score_counts(counts, seen)
            if not candidates:
                continue
            best = sorted(best + candidates, key=_rank_key)[:top_k]
            if len(best) == top_k:
                floor = best[-1].throughput
        return best

    def _search_topk(
        self, key: Tuple[Tuple[str, int], ...], top_k: int
    ) -> List[ScoredPlan]:
        """``enumerate_plans_reference(dict(key))[:top_k]`` by ranked search
        over the full box of per-type counts ``0..n`` of ``key``."""
        types = tuple(t for t, _ in key)
        ranges = tuple((0, n) for _, n in key)
        return self._ranked_search(types, ranges, [], top_k)

    def best_plan_delta(
        self, owned: Mapping[str, int], gtype: str, chunk: int
    ) -> Optional[ScoredPlan]:
        """Best plan under ``owned + chunk×gtype``, scored incrementally.

        Exactly ``best_plan({**owned, gtype: owned.get(gtype, 0) + chunk})``
        — but instead of re-enumerating the full hypothetical space, it
        takes the better of (a) the cached best plan for ``owned`` and
        (b) the best plan in the *slab* of count vectors with
        ``old_cap < n_gtype <= new_cap`` (every other type keeps its owned
        cap); those two sets partition the hypothetical space.  The slab
        search starts with the owned best as its floor.
        """
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        base = self.best_plan(owned)
        if gtype not in self.capability:
            # unknown types never enter the enumeration: no new space
            return base
        old_cap = min(int(owned.get(gtype, 0)), self.max_p, self.max_gpus_per_type)
        if owned.get(gtype, 0) <= 0:
            old_cap = 0
        new_cap = min(int(owned.get(gtype, 0)) + chunk, self.max_p, self.max_gpus_per_type)
        if new_cap <= old_cap:
            return base  # caps already saturated: identical plan space
        owned_key = self.clamped_key(owned)
        delta_key = (owned_key, gtype, old_cap, new_cap)
        cached = self._delta_cache.get(delta_key)
        if cached is not MISS:
            return cached
        ranges = {t: (0, n) for t, n in owned_key if t != gtype}
        ranges[gtype] = (old_cap + 1, new_cap)
        types = tuple(sorted(ranges))
        found = self._ranked_search(
            types, tuple(ranges[t] for t in types), [base] if base is not None else [], 1
        )
        best = found[0] if found else None
        self._delta_cache.put(delta_key, best)
        return best

    # ------------------------------------------------------------------
    # bias correction
    # ------------------------------------------------------------------
    def report_measurement(self, gtype: str, estimated: float, measured: float) -> bool:
        """Record an (estimate, measurement) pair; re-fit on large bias.

        The multiplicative correction ``measured/estimated`` is clamped to
        :attr:`correction_band` (default ``[0.5, 2.0]``): a single garbage
        measurement — e.g. a stall during reconfiguration — can bias
        ``C_i`` by at most one band step instead of collapsing it toward
        zero and poisoning every future plan.  Clamped reports are flagged
        in :attr:`observations`.  Returns True if the capability profile
        was updated.
        """
        if gtype not in self.capability:
            raise KeyError(f"unknown GPU type {gtype!r}")
        clamped = False
        updated = False
        if estimated > 0:
            bias = abs(measured - estimated) / estimated
            if bias > self.bias_threshold and measured > 0:
                correction = measured / estimated
                lo, hi = self.correction_band
                if correction < lo or correction > hi:
                    clamped = True
                    correction = min(max(correction, lo), hi)
                self.capability[gtype] *= correction
                updated = True
        self.observations.append((gtype, estimated, measured, clamped))
        return updated
