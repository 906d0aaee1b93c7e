"""Maintained memo keys of the EasyScale policy layer.

The batched DES core's policy layer keys its memos on state it maintains
incrementally instead of rebuilding per call: the companion's clamped
ownership key (rebuilt only when the job's :class:`Ownership` version or
the capability generation changes), the inter-job scheduler's interned
class and free-pool scope ids, the per-round free key, and the
class-scoped plan store.  These tests recompute every key from scratch
and compare:

- a key-consistency oracle, run at every ``reschedule`` over random
  traces x fault plans x membership plans (every ownership mutation
  path: grant, revoke via preempt, node loss, membership eviction,
  release on completion);
- copy-on-write of the shared plan store under a mid-run calibration;
- plan-cache statistics that count each lookup exactly once.
"""

import copy
import pickle
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.faults import random_sim_plan
from repro.hw import microbench_cluster
from repro.membership import HostEvent, HostSpec, MembershipPlan
from repro.sched import ClusterSimulator, EasyScalePolicy, generate_trace
from repro.sched.plancache import PlanCache, availability_key
from repro.sched.simulator import Ownership

CORES = ("run", "run_batched", "run_reference")


def _fresh_owned_key(runtime):
    companion = runtime.agent.companion
    return availability_key(
        runtime.owned, companion.capability, companion.max_p, companion.max_gpus_per_type
    )


def _fresh_class(agent):
    companion = agent.companion
    return (
        tuple(sorted(companion.capability.items())),
        companion.max_p,
        companion.max_gpus_per_type,
        companion.homogeneous_only,
        agent.scaleout_chunks,
        agent.top_k,
    )


def _fresh_free_key(agent, free):
    chunks = agent.scaleout_chunks
    return tuple(
        (t, bisect_right(chunks, v))
        for t, v in sorted(free.items())
        if t in agent.companion.capability and bisect_right(chunks, v) > 0
    )


class CheckedPolicy(EasyScalePolicy):
    """EasyScale-heter that recomputes every maintained key around each
    ``reschedule`` and fails on the first one that went stale."""

    def __init__(self) -> None:
        super().__init__(True)
        self.checks = 0

    def reschedule(self, sim, now):
        self._check(sim)
        super().reschedule(sim, now)
        self._check(sim)

    def _check(self, sim):
        free = sim.free_by_type()
        agents = [r for r in sim.active_jobs() if r.agent is not None]
        class_of, scope_free = {}, {}
        for runtime in agents:
            agent = runtime.agent
            assert isinstance(runtime.owned, Ownership), runtime.job.job_id
            assert agent.companion.clamped_key(runtime.owned) == _fresh_owned_key(runtime)
            class_id, scope = self.inter.class_ids(agent)
            # interned ids name classes one-to-one
            assert class_of.setdefault(class_id, _fresh_class(agent)) == _fresh_class(agent)
            # one free key per scope serves every agent of that scope
            expected = _fresh_free_key(agent, free)
            assert scope_free.setdefault(scope, self.inter.free_key(agent, free)) == expected
            self.checks += 1
        assert len(set(class_of.values())) == len(class_of)


def _membership(t_announce, t_leave, leave_kind):
    events = (
        HostEvent(kind="announce", host="spot", at_time=t_announce,
                  gtype="p100", slots=2, magnitude=30.0),
        HostEvent(kind=leave_kind, host="member-v", at_time=t_leave,
                  magnitude=200.0),
        HostEvent(kind="forceful_remove", host="member-t",
                  at_time=t_leave + 150.0),
    )
    return MembershipPlan(
        initial_hosts=(HostSpec("member-v", "v100", 2), HostSpec("member-t", "t4", 2)),
        events=tuple(sorted(events, key=lambda e: e.at_time)),
    )


class TestKeyConsistencyOracle:
    @given(
        seed=st.integers(0, 500),
        num_jobs=st.integers(4, 14),
        t_announce=st.floats(10.0, 1500.0),
        t_leave=st.floats(50.0, 2500.0),
        leave_kind=st.sampled_from(["drain", "blacklist", "reclaim_notice", "forceful_remove"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_cached_keys_match_fresh_keys(self, seed, num_jobs, t_announce, t_leave, leave_kind):
        jobs = generate_trace(num_jobs=num_jobs, seed=seed)
        policy = CheckedPolicy()
        sim = ClusterSimulator(
            microbench_cluster(),
            jobs,
            policy,
            faults=random_sim_plan(seed=seed, horizon_s=4000.0),
            membership=_membership(t_announce, t_leave, leave_kind),
        )
        sim.run_batched()
        assert policy.checks > 0

    def test_every_writer_moves_the_version(self):
        jobs = generate_trace(num_jobs=4, seed=1)
        sim = ClusterSimulator(microbench_cluster(), jobs, EasyScalePolicy(True))
        runtime = sim.runtimes[0]
        owned = runtime.owned
        sim.grant(runtime, "v100", 2)
        assert owned.version == 1
        sim.revoke(runtime, "v100", 1)
        assert owned.version == 2
        sim.preempt(runtime, 1, "v100")
        assert owned.version == 3
        sim.release_all(runtime)
        assert isinstance(runtime.owned, Ownership) and runtime.owned is not owned
        assert not runtime.owned

    def test_ownership_round_trips_through_pickle(self):
        owned = Ownership({"v100": 2})
        owned["t4"] = 1
        for clone in (pickle.loads(pickle.dumps(owned)), copy.deepcopy(owned)):
            assert isinstance(clone, Ownership) and clone == owned
            clone["p100"] = 1
            assert clone.version > 0 and "p100" not in owned


class CalibratingPolicy(EasyScalePolicy):
    """Halves one job's T4 capability at the first decision point after
    ``at`` where another job of its class is active."""

    # calibration reads the clock: the batched core must not skip rounds
    fixpoint_reschedule = False

    def __init__(self, at: float) -> None:
        super().__init__(True)
        self.at = at
        self.calibrated = None
        self.siblings = []

    def reschedule(self, sim, now):
        if self.calibrated is None and now >= self.at:
            by_class = {}
            for runtime in sim.active_jobs():
                by_class.setdefault(runtime.agent.companion.class_key, []).append(runtime)
            groups = sorted(
                (sorted(g, key=lambda r: r.job.job_id) for g in by_class.values() if len(g) > 1),
                key=lambda g: g[0].job.job_id,
            )
            if groups:
                target, *self.siblings = groups[0]
                rate = target.agent.companion.capability["t4"]
                target.agent.apply_calibration({"t4": rate * 0.5})
                self.calibrated = target
        super().reschedule(sim, now)


class TestSharedPlanStoreCopyOnWrite:
    JOBS = dict(num_jobs=24, seed=11)

    def _run(self, core):
        policy = CalibratingPolicy(at=600.0)
        sim = ClusterSimulator(microbench_cluster(), generate_trace(**self.JOBS), policy)
        return policy, getattr(sim, core)()

    def test_calibration_detaches_one_companion(self):
        prints = {}
        for core in CORES:
            policy, result = self._run(core)
            assert policy.calibrated is not None and policy.siblings, core
            prints[core] = result.events.fingerprint()
        assert prints["run_batched"] == prints["run"] == prints["run_reference"]

        target = policy.calibrated.agent.companion
        for sibling in policy.siblings:
            companion = sibling.agent.companion
            assert companion.class_key != target.class_key
            assert companion._topk_cache.store is not target._topk_cache.store
            for available in ({"v100": 4, "t4": 4}, {"t4": 3}, {"v100": 1, "p100": 2, "t4": 8}):
                for k in (1, 3):
                    assert companion.best_plans(available, top_k=k) == \
                        companion.enumerate_plans_reference(available)[:k]

    def test_siblings_share_until_calibrated(self):
        policy = EasyScalePolicy(True)
        sim = ClusterSimulator(microbench_cluster(), generate_trace(**self.JOBS), policy)
        for runtime in sim.runtimes:
            policy.on_job_arrival(sim, runtime)
        first, second = sorted(
            (r for r in sim.runtimes
             if r.agent.companion.class_key == sim.runtimes[0].agent.companion.class_key),
            key=lambda r: r.job.job_id,
        )[:2]
        a, b = first.agent.companion, second.agent.companion
        plans = a.best_plans({"v100": 2, "t4": 2})
        hits = b.cache_stats()["topk"]["hits"]
        assert b.best_plans({"v100": 2, "t4": 2}) == plans
        assert b.cache_stats()["topk"]["hits"] == hits + 1  # served from a's search
        a.capability["t4"] = a.capability["t4"] * 2.0
        assert a._topk_cache.store is not b._topk_cache.store
        assert b.best_plans({"v100": 2, "t4": 2}) == plans
        assert a.best_plans({"v100": 2, "t4": 2}) == \
            a.enumerate_plans_reference({"v100": 2, "t4": 2})[:3]


class TestPlanCacheStatistics:
    def test_summed_stats_equal_lookups_made(self, monkeypatch):
        lookups = []
        original = PlanCache.get

        def counted(self, key):
            lookups.append(key)
            return original(self, key)

        monkeypatch.setattr(PlanCache, "get", counted)
        jobs = generate_trace(num_jobs=20, seed=5)
        result = ClusterSimulator(
            microbench_cluster(), jobs, EasyScalePolicy(True),
            faults=random_sim_plan(seed=5, horizon_s=4000.0),
        ).run_batched()
        hits, misses, ratio = cli._plan_cache_totals(result)
        assert hits + misses == len(lookups) > 0
        assert 0.0 < ratio < 1.0
