"""Inter-job (cluster) scheduler (§3.4): greedy proposal arbitration.

The cluster scheduler evaluates the resource proposals submitted by all
intra-job schedulers against the free-resource table and grants greedily:

- higher **speedup per GPU** first (most cluster-wide throughput per
  granted device);
- ties broken toward the proposal with **more GPUs** (drain free pools
  faster);
- a job receives at most one grant per round (its intra-job scheduler
  re-proposes after rescheduling).

Free resources fluctuate because EasyScale co-locates with non-elastic
high-priority jobs (online serving): :meth:`InterJobScheduler.reclaim`
revokes GPUs from elastic jobs when serving demand spikes, smallest
speedup-per-GPU victims first.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs import flightrec
from repro.sched.intra import IntraJobScheduler, ResourceProposal


@dataclass(frozen=True)
class Grant:
    job_id: str
    gtype: str
    gpus: int


class InterJobScheduler:
    """Greedy speedup-per-GPU arbitration over submitted proposals."""

    def __init__(self) -> None:
        self.grant_log: List[Grant] = []
        #: interned job classes: (companion class key, proposal menu,
        #: top-K) -> small id; every input of Role-2 proposal generation
        #: other than the clamped ownership and free vectors
        self._class_ids: Dict[tuple, int] = {}
        #: interned free-pool scopes: (proposal menu, capability types) ->
        #: small id; jobs of one scope fold a free pool to the same key
        self._scope_ids: Dict[tuple, int] = {}
        #: incremental-arbitration memo, shared across *all* jobs of the
        #: same class: (class id, clamped owned key, free fit-count key)
        self._proposal_memo: Dict[tuple, List[ResourceProposal]] = {}
        #: second-level memo for propose() misses: per-class caches of the
        #: inner best_plan_delta searches, keyed by (clamped owned, gtype,
        #: chunk) — two proposal passes that differ only in their free
        #: vectors still share every plan search they have in common
        self._delta_memo: Dict[int, Dict[tuple, object]] = {}
        self.proposal_memo_hits = 0
        self.proposal_memo_misses = 0

    # ------------------------------------------------------------------
    # incremental Role-2: only re-score jobs whose availability changed
    # ------------------------------------------------------------------
    def class_ids(self, agent: IntraJobScheduler) -> Tuple[int, int]:
        """``(class id, free scope id)`` of ``agent``, interned here.

        Built once per (agent, capability generation) — the agent drops
        the memo when its proposal menu or top-K changes — so a memo
        lookup hashes two small ints instead of re-sorting the capability
        table per call.
        """
        generation = agent.companion.generation
        memo = agent._class_memo
        if memo is not None and memo[0] is self and memo[1] == generation:
            return memo[2]
        companion = agent.companion
        chunks = agent.scaleout_chunks
        class_key = (companion.class_key, chunks, agent.top_k)
        scope_key = (chunks, tuple(sorted(companion.capability)))
        ids = (
            self._class_ids.setdefault(class_key, len(self._class_ids)),
            self._scope_ids.setdefault(scope_key, len(self._scope_ids)),
        )
        agent._class_memo = (self, generation, ids)
        return ids

    @staticmethod
    def free_key(agent: IntraJobScheduler, free: Mapping[str, int]) -> tuple:
        """The free pool as :meth:`IntraJobScheduler.propose` reads it.

        propose() sees the pool only through "which chunks of the sorted
        menu fit this type" (the chunk loop breaks at the first chunk >
        free; per-chunk scores never see the exact count), so each type
        folds to its fit count — free counts of 5, 6, and 7 against menu
        (1, 2, 4, 8) are the same pool.  Equal for every agent of one
        :meth:`class_ids` scope, so a scheduling round builds it once per
        scope.
        """
        chunks = agent.scaleout_chunks
        capability = agent.companion.capability
        return tuple(
            (t, fits)
            for t, v in sorted(free.items())
            if t in capability and (fits := bisect_right(chunks, int(v))) > 0
        )

    def proposals_for(
        self,
        agent: IntraJobScheduler,
        owned: Mapping[str, int],
        free: Mapping[str, int],
        free_key: Optional[tuple] = None,
    ) -> List[ResourceProposal]:
        """Role-2 proposals with class-level availability memoization.

        :meth:`IntraJobScheduler.propose` is — apart from the ``job_id``
        stamped into each proposal — a pure function of (a) the job's
        class: the companion's parameterization (capability-table
        *contents*, which calibration mutates, plus ``maxP`` / per-type
        caps / plan-shape flag) and the agent's proposal menu, interned
        by :meth:`class_ids`; (b) the job's ownership vector clamped to
        the enumeration caps (the companion's maintained
        :meth:`~repro.sched.companion.CompanionModule.clamped_key` — raw
        counts beyond the caps cannot change any plan score); and (c)
        :meth:`free_key`, which the caller may pass in when it has
        already built it for this pool.  The memo key is exactly that
        triple, so it is shared across every job of the same class: a
        saturated 3,000-GPU queue holds hundreds of pending
        zero-ownership jobs per workload/size class, and one plan search
        serves all of them (the cached proposals are re-stamped with the
        asking job's id).  ``current_plan``, which feeds the speedup
        filter, is itself a deterministic function of the same clamped
        ownership and capability table, so it needs no key term.

        Memo hits skip the agent's ``sched.propose`` flight-recorder
        entry (forensic telemetry, not part of the :class:`EventLog`
        equivalence surface).
        """
        class_id = self.class_ids(agent)[0]
        if free_key is None:
            free_key = self.free_key(agent, free)
        key = (class_id, agent.companion.clamped_key(owned), free_key)
        cached = self._proposal_memo.get(key)
        if cached is not None:
            self.proposal_memo_hits += 1
            if obs.is_enabled():
                obs.metrics().counter(
                    "sched_proposal_memo_total", result="hit"
                ).inc()
            if cached and cached[0].job_id != agent.job_id:
                return [replace(p, job_id=agent.job_id) for p in cached]
            return list(cached)
        self.proposal_memo_misses += 1
        if obs.is_enabled():
            obs.metrics().counter("sched_proposal_memo_total", result="miss").inc()
        proposals = agent.propose(
            owned, free, delta_cache=self._delta_memo.setdefault(class_id, {})
        )
        self._proposal_memo[key] = proposals
        return list(proposals)

    def arbitrate(
        self,
        proposals: Sequence[ResourceProposal],
        free: Mapping[str, int],
    ) -> List[Grant]:
        """Grant proposals against the free table; one grant per job/round."""
        remaining: Dict[str, int] = {k: int(v) for k, v in free.items()}
        # job_id/gtype close the total order: exact speedup ties must not
        # fall back to caller iteration order, or the grant log (and every
        # downstream simulator event) depends on proposal collection order
        ranked = sorted(
            proposals,
            key=lambda p: (-p.speedup_per_gpu, -p.extra_gpus, p.job_id, p.gtype),
        )
        granted: List[Grant] = []
        granted_jobs = set()
        for proposal in ranked:
            if proposal.job_id in granted_jobs:
                continue
            if proposal.speedup_per_gpu <= 0:
                continue
            available = remaining.get(proposal.gtype, 0)
            if proposal.extra_gpus > available:
                continue
            remaining[proposal.gtype] = available - proposal.extra_gpus
            grant = Grant(proposal.job_id, proposal.gtype, proposal.extra_gpus)
            granted.append(grant)
            granted_jobs.add(proposal.job_id)
            self.grant_log.append(grant)
            flightrec.record(
                "sched.grant", job=grant.job_id, gtype=grant.gtype, gpus=grant.gpus
            )
        return granted

    @staticmethod
    def reclaim(
        demand: Mapping[str, int],
        holdings: Mapping[str, Mapping[str, int]],
        priorities: Optional[Mapping[str, float]] = None,
    ) -> List[Grant]:
        """Revoke GPUs from elastic jobs to satisfy serving ``demand``.

        ``holdings[job][gtype]`` is what each elastic job currently holds;
        ``priorities[job]`` (higher = keep longer) defaults to holdings
        size, so the cheapest-to-shrink jobs shed GPUs first.  Returns
        negative grants (revocations).

        The victim order is a *total* order — ``(priority, job_id)``,
        exactly like :meth:`arbitrate`'s grant ranking — and demand types
        are processed sorted: exact-priority ties must not fall back to
        the caller's dict insertion order, or the revocation stream (and
        every downstream simulator event) would depend on how the caller
        happened to build its collections.
        """
        revocations: List[Grant] = []
        for gtype in sorted(demand):
            needed = demand[gtype]
            if needed <= 0:
                continue
            victims = sorted(
                (job for job in holdings if holdings[job].get(gtype, 0) > 0),
                key=lambda j: ((priorities or {}).get(j, sum(holdings[j].values())), j),
            )
            left = needed
            for job in victims:
                if left <= 0:
                    break
                take = min(holdings[job].get(gtype, 0), left)
                if take > 0:
                    revocations.append(Grant(job_id=job, gtype=gtype, gpus=-take))
                    left -= take
                    flightrec.record(
                        "sched.reclaim", job=job, gtype=gtype, gpus=take
                    )
        return revocations
