"""Drive one workload through the program's public entry points.

Only ``EasyScaleEngine``, the ``repro.exec`` backends and
``ClusterSimulator.run_batched`` (plus ``run_reference`` as the check
oracle) are driven; layers are timed by :class:`spans.SpanRecorder`
wrapping the public functions listed in :func:`install_training_layers`
and :func:`install_des_layers`.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.core import (
    EasyScaleEngine,
    EasyScaleJobConfig,
    WorkerAssignment,
    determinism_from_label,
)
from repro.core import elastic_ddp as elastic_ddp_mod
from repro.core import worker as worker_mod
from repro.core.elastic_ddp import ElasticDDP
from repro.data.dataloader import SharedDataLoader
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.hw import gpu_type, production_cluster
from repro.models import get_workload
from repro.nn import layers as nn_layers
from repro.optim import SGD
from repro.sched import ClusterSimulator, CompanionModule, EasyScalePolicy, InterJobScheduler
from repro.tensor import kernels, ops
from repro.tensor.tensor import Tensor
from repro.utils.fingerprint import fingerprint_state_dict

from spans import SpanRecorder
from workloads import (
    BATCH_SIZE,
    CHECK_JOBS,
    CLUSTER_GPUS,
    DATASET_SAMPLES,
    NUM_ESTS,
    PINNED_JOBS,
    PINNED_SEED,
    STEPS_PER_STAGE,
    TRACES_PER_RUN,
    DesCase,
    TrainCase,
    Workload,
    make_fault_plan,
    make_trace,
    trace_seed,
)

POOL_CHILDREN = 2
#: timed set-ups in each round of an untraced run, besides the first one
#: that builds the kept engine; a set-up is short and host-sensitive, so
#: ``setup_s`` takes the median of many spread over the whole run
SETUPS_PER_ROUND = 3
SAMPLES_PER_STEP = NUM_ESTS * BATCH_SIZE
_SHM_DIR = "/dev/shm"


# ---------------------------------------------------------------------------
# process and shared-memory hygiene
# ---------------------------------------------------------------------------
def _tracker_pid() -> Optional[int]:
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def child_pids() -> Set[int]:
    """Live children of this process, minus the stdlib resource tracker
    (started on first shared-memory use and stopped at exit)."""
    me = os.getpid()
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.add(int(entry))
    out.discard(_tracker_pid())
    return out


def own_shm_segments() -> Set[str]:
    """Shared-memory slabs named after this process (``repro-<pid>-*``)."""
    prefix = f"repro-{os.getpid()}-"
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith(prefix)}
    except FileNotFoundError:
        return set()


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def stop_resource_tracker() -> None:
    """Stop the resource tracker so no process outlives the run."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ---------------------------------------------------------------------------
# layer wrappers
# ---------------------------------------------------------------------------
class _ForwardSwitch:
    """Stands in for ``spec.forward_loss`` so a traced phase can time it.

    Installed only on serial-backend specs, which are never pickled.
    """

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, model, x, y):
        return self.fn(model, x, y)


def _grad_bytes(_self, grads_by_vrank) -> int:
    return sum(g.nbytes for grads in grads_by_vrank for g in grads.values())


def install_training_layers(
    rec: SpanRecorder, backend, forward: Optional[_ForwardSwitch]
) -> None:
    """Wrap the parent-side public functions of one training step."""
    if forward is not None:  # serial backend: the step's compute is in-process
        rec.wrap(forward, "fn", "tensor.forward")
        rec.wrap(Tensor, "backward", "tensor.backward")
        rec.wrap(ops, "conv2d", "tensor.conv2d")
        rec.wrap(kernels, "matmul", "tensor.matmul")
        rec.wrap(kernels, "reduce_sum", "tensor.reduce_sum")
        rec.count(Tensor, "__init__", "tensor.tensors")
        rec.wrap(worker_mod, "execute_local_step", "core.local_step")
    rec.wrap(EasyScaleEngine, "reconfigure", "core.reconfigure")
    rec.wrap(EasyScaleEngine, "checkpoint", "core.checkpoint")
    rec.wrap(SharedDataLoader, "load", "data.load")
    rec.wrap(ElasticDDP, "synchronize", "comm.synchronize", tally=("comm.bytes", _grad_bytes))
    rec.wrap(elastic_ddp_mod, "allreduce_mean", "comm.allreduce")
    rec.wrap(SGD, "step", "optim.step")
    rec.wrap(nn_layers.BatchNorm1d, "fold_stats", "nn.bn_fold")
    rec.wrap(nn_layers.BatchNorm2d, "fold_stats", "nn.bn_fold")
    rec.wrap(type(backend), "run_step", "exec.run_step")
    rec.wrap(type(backend), "commit", "exec.commit")


def install_des_layers(rec: SpanRecorder) -> None:
    """Wrap the event core's entry and the policy hooks beneath it."""
    rec.wrap(ClusterSimulator, "run_batched", "sched.replay")
    rec.wrap(EasyScalePolicy, "reschedule", "sched.reschedule")
    rec.wrap(EasyScalePolicy, "on_job_arrival", "sched.on_arrival")
    rec.wrap(EasyScalePolicy, "on_preempt", "faults.preempt")
    rec.wrap(InterJobScheduler, "proposals_for", "sched.proposals_for")
    rec.wrap(InterJobScheduler, "arbitrate", "sched.arbitrate")
    rec.wrap(CompanionModule, "best_plans", "sched.companion_search")
    rec.wrap(CompanionModule, "best_plan_delta", "sched.companion_search")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------
def _sgd(model):
    return SGD(model.named_parameters(), lr=0.05, momentum=0.9)


def _assignment(gpus) -> WorkerAssignment:
    return WorkerAssignment.balanced([gpu_type(n) for n in gpus], NUM_ESTS)


def _engine(spec, case: TrainCase, seed: int, gpus, backend) -> EasyScaleEngine:
    config = EasyScaleJobConfig(
        num_ests=NUM_ESTS,
        seed=seed,
        batch_size=BATCH_SIZE,
        determinism=determinism_from_label(case.determinism),
    )
    dataset = spec.build_dataset(DATASET_SAMPLES, seed=seed)
    return EasyScaleEngine(spec, dataset, config, _sgd, _assignment(gpus), backend=backend)


class ElasticJob:
    """One elastic job driven in a closed loop through its allocation cycle.

    Each global step starts when the previous one has returned.  A stage
    is a rescale onto the next allocation of the schedule followed by
    ``STEPS_PER_STAGE - 1`` plain steps; a cycle is one pass through the
    schedule, so every cycle does the same work.

    Step and rescale times differ between allocations (a two-worker pool
    step is faster than a one-worker one, and each rescale has its own
    source and target), so a median over single steps would jump between
    modes; ``cycle_step_ms`` and ``cycle_rescale_ms`` hold one mean per
    cycle instead.
    """

    def __init__(self, case: TrainCase, seed: int, spec) -> None:
        self.case = case
        self.backend = (
            ProcessPoolBackend(max_workers=POOL_CHILDREN, transport="shm")
            if case.backend == "pool"
            else SerialBackend()
        )
        try:
            self.engine = _engine(spec, case, seed, case.schedule[0], self.backend)
            # the first step starts the pool's children and builds their
            # replicas; it is part of set-up
            self.engine.run_global_step()
        except BaseException:
            self.close()
            raise
        self.steps = 1
        self._stage = 0
        self._position = 1
        self.step_ms: List[float] = []
        self.rescale_ms: List[float] = []
        self.cycle_step_ms: List[float] = []
        self.cycle_rescale_ms: List[float] = []

    @property
    def cycle_steps(self) -> int:
        return len(self.case.schedule) * STEPS_PER_STAGE

    def step(self) -> None:
        clock = time.perf_counter
        if self._position == STEPS_PER_STAGE:
            self._stage = (self._stage + 1) % len(self.case.schedule)
            start = clock()
            self.engine = self.engine.reconfigure(_assignment(self.case.schedule[self._stage]))
            self.engine.run_global_step()
            self.rescale_ms.append((clock() - start) * 1e3)
            self._position = 1
        else:
            start = clock()
            self.engine.run_global_step()
            self.step_ms.append((clock() - start) * 1e3)
            self._position += 1
        self.steps += 1

    def run_cycles(self, cycles: int) -> float:
        start = time.perf_counter()
        for _ in range(cycles):
            steps, rescales = len(self.step_ms), len(self.rescale_ms)
            for _ in range(self.cycle_steps):
                self.step()
            self.cycle_step_ms.append(statistics.fmean(self.step_ms[steps:]))
            self.cycle_rescale_ms.append(statistics.fmean(self.rescale_ms[rescales:]))
        return time.perf_counter() - start

    def run_for(self, seconds: float) -> float:
        """Whole cycles until ``seconds`` have passed; returns the elapsed time."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.run_cycles(1)
        return time.perf_counter() - start

    def fingerprint(self) -> str:
        self.engine.backend.commit()
        return fingerprint_state_dict(self.engine.model.state_dict())

    def close(self) -> None:
        if isinstance(self.backend, ProcessPoolBackend):
            self.backend.close()


class Baseline:
    """The same job on one fixed V100, serially, kept in step with the
    elastic job: the output check and ``baseline_samples_per_s``."""

    def __init__(self, spec, case: TrainCase, seed: int) -> None:
        self.engine = _engine(spec, case, seed, ("V100",), SerialBackend())
        self.seconds = 0.0

    def catch_up(self, steps: int) -> None:
        """Run until the baseline has done ``steps`` global steps."""
        start = time.perf_counter()
        self.engine.train_steps(steps - self.engine.global_step)
        self.seconds += time.perf_counter() - start

    def fingerprint(self) -> str:
        return fingerprint_state_dict(self.engine.model.state_dict())


# ---------------------------------------------------------------------------
# DES
# ---------------------------------------------------------------------------
def _simulator(case: DesCase, seed: int, num_jobs: Optional[int] = None) -> ClusterSimulator:
    jobs = make_trace(case, seed, num_jobs)
    return ClusterSimulator(
        production_cluster(CLUSTER_GPUS),
        jobs,
        EasyScalePolicy(True),
        faults=make_fault_plan(case, seed, jobs),
    )


def _arrival_window(result) -> float:
    """Simulated seconds from t=0 to the trace's last arrival."""
    return max(runtime.job.arrival_time for runtime in result.jobs)


def _busy_gpu_seconds(result, horizon: float) -> float:
    """Allocated GPU-seconds in ``[0, horizon]`` (allocation is a step series)."""
    timeline = result.allocation_timeline
    ends = [t for t, _ in timeline[1:]] + [horizon]
    return sum(
        allocated * (min(end, horizon) - start)
        for (start, allocated), end in zip(timeline, ends)
        if start < horizon
    )


@dataclass(frozen=True)
class Replayed:
    """What a run keeps of one replay.  Whole results are dropped, so that
    a replay does not pay the garbage collector for the objects of the
    replays before it."""

    jobs: int
    completed: int
    jcts: Tuple[float, ...]
    busy_gpu_s: float
    capacity_gpu_s: float
    events: int

    @classmethod
    def of(cls, result) -> "Replayed":
        # utilization runs from t=0 to the trace's last arrival: the drain
        # of the last long jobs after arrivals stop would make it track
        # the one longest job of a heavy-tailed trace
        horizon = _arrival_window(result)
        return cls(
            jobs=len(result.jobs),
            completed=len(result.completed),
            jcts=tuple(result.jcts),
            busy_gpu_s=_busy_gpu_seconds(result, horizon),
            capacity_gpu_s=CLUSTER_GPUS * horizon,
            events=len(result.events),
        )


def sim_outcome(replays: List[Replayed]) -> Tuple[float, float, int]:
    """(mean JCT, GPU utilization, events) pooled over replays."""
    jcts = [jct for r in replays for jct in r.jcts]
    busy = sum(r.busy_gpu_s for r in replays)
    capacity_s = sum(r.capacity_gpu_s for r in replays)
    return sum(jcts) / len(jcts), busy / capacity_s, sum(r.events for r in replays)


def replay(sim: ClusterSimulator):
    start = time.perf_counter()
    result = sim.run_batched()
    return result, time.perf_counter() - start


def reference_check(case: DesCase, seed: int) -> Tuple[int, int]:
    """Reduced trace on both cores: (jobs attempted, jobs failed)."""
    batched = _simulator(case, seed, CHECK_JOBS).run_batched()
    reference = _simulator(case, seed, CHECK_JOBS).run_reference()
    jobs = len(batched.jobs)
    if batched.events.fingerprint() != reference.events.fingerprint():
        return jobs, jobs
    return jobs, jobs - len(batched.completed)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """Operations attempted and failed, and a report line per failed check."""

    attempted: int = 0
    failed: int = 0
    report: List[str] = field(default_factory=list)

    def fail(self, operations: int, message: str) -> None:
        self.failed += operations
        self.report.append(message)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> Dict:
    """One benchmark run; returns the result object plus ``report`` lines.

    Untraced, the run sets up once and then has one round per trace:
    more set-ups (their engines are closed again), a share of the
    training window, baseline catch-up and the trace's replay, so
    that each metric samples the host over the whole run rather than one
    stretch of it.  Traced, untraced and
    traced training cycles alternate for ``seconds``, and the first trace
    is replayed untraced, traced and untraced again, so that host-speed
    drift does not masquerade as tracing overhead.
    """
    spec = get_workload(workload.train.model)
    forward = None
    if trace and workload.train.backend == "serial":
        forward = _ForwardSwitch(spec.forward_loss)
        spec = dataclasses.replace(spec, forward_loss=forward)
    out = Outcome()
    shm_before, children_before = own_shm_segments(), child_pids()

    setups: List[float] = []
    replay_times: List[float] = []
    results: List[Replayed] = []
    window_steps, window_s = 0, 0.0

    def set_up(index: int) -> Tuple[ElasticJob, ClusterSimulator]:
        """One timed set-up: the engine through its first step, and the
        simulator of the run's ``index``-th trace."""
        gc.collect()
        start = time.perf_counter()
        new_job = ElasticJob(workload.train, seed, spec)
        try:
            new_sim = _simulator(workload.des, trace_seed(seed, index))
        except BaseException:
            new_job.close()
            raise
        setups.append(time.perf_counter() - start)
        return new_job, new_sim

    job = None
    try:
        job, sim = set_up(0)
        baseline = Baseline(spec, workload.train, seed)

        if trace:
            rec_train = SpanRecorder()
            untraced_train_s = traced_train_s = 0.0
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                untraced_train_s += job.run_cycles(1)
                install_training_layers(rec_train, job.backend, forward)
                before = job.steps
                try:
                    traced_train_s += job.run_cycles(1)
                finally:
                    rec_train.restore()
                window_steps += job.steps - before
        else:
            for index in range(TRACES_PER_RUN):
                # the round's set-ups: the last one's simulator is replayed
                # below, their engines are closed again
                for _ in range(SETUPS_PER_ROUND):
                    extra, sim = set_up(index)
                    out.attempted += extra.steps
                    extra.close()
                before = job.steps
                # the windows share one deadline, so a round that overran
                # by part of a cycle shortens the next one
                window_s += job.run_for(seconds * (index + 1) / TRACES_PER_RUN - window_s)
                window_steps += job.steps - before
                baseline.catch_up(job.steps)
                result, elapsed = replay(sim)
                results.append(Replayed.of(result))
                replay_times.append(elapsed)
                del result, sim
        fingerprint = job.fingerprint()
        children_rss_kb = sum(_peak_rss_kb(pid) for pid in child_pids())
    finally:
        if job is not None:
            job.close()
    out.attempted += job.steps

    leaked_shm = own_shm_segments() - shm_before
    orphans = child_pids() - children_before
    if leaked_shm or orphans:
        out.fail(
            len(leaked_shm) + len(orphans),
            f"hygiene: leaked shm {sorted(leaked_shm)}, orphan children {sorted(orphans)}",
        )

    baseline.catch_up(job.steps)
    out.attempted += job.steps
    if baseline.fingerprint() != fingerprint:
        out.fail(
            job.steps,
            f"training: fingerprint {fingerprint[:16]} != baseline {baseline.fingerprint()[:16]}",
        )

    if trace:
        untraced_result, untraced_des_s = replay(sim)
        rec_des = SpanRecorder()
        install_des_layers(rec_des)
        try:
            traced_result, traced_des_s = replay(_simulator(workload.des, trace_seed(seed, 0)))
        finally:
            rec_des.restore()
        again_result, again_s = replay(_simulator(workload.des, trace_seed(seed, 0)))
        untraced_des_s = (untraced_des_s + again_s) / 2
        if traced_result.events.fingerprint() != untraced_result.events.fingerprint():
            out.fail(len(traced_result.jobs), "des: traced replay diverged from the untraced replay")
        results = [Replayed.of(r) for r in (untraced_result, traced_result, again_result)]
    for replayed in results:
        out.attempted += replayed.jobs
        if replayed.completed != replayed.jobs:
            missing = replayed.jobs - replayed.completed
            out.fail(missing, f"des: {missing} of {replayed.jobs} jobs did not complete")
    check_attempted, check_failed = reference_check(workload.des, trace_seed(seed, 0))
    out.attempted += check_attempted
    if check_failed:
        out.fail(check_failed, f"des: reduced-trace check failed for {check_failed} of {check_attempted} jobs")
    pinned = _simulator(workload.des, PINNED_SEED, PINNED_JOBS).run_batched()
    out.attempted += len(pinned.jobs)
    outcome = sim_outcome([Replayed.of(pinned)])
    if outcome != workload.des.pinned:
        out.fail(
            len(pinned.jobs),
            f"des: pinned trace gave (jct, util, events) {outcome!r}, recorded {workload.des.pinned!r}",
        )

    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_rss_kb) / 1024.0
    stop_resource_tracker()

    if trace:
        metrics = _layer_metrics(rec_train, window_steps, rec_des, traced_result)
        metrics["bench.trace_overhead_ratio"] = (
            (traced_train_s + traced_des_s) / (untraced_train_s + untraced_des_s),
            "ratio",
        )
        work_dir.mkdir(parents=True, exist_ok=True)
        stem = f"spans-{workload.name}-seed{seed}"
        rec_train.dump(str(work_dir / f"{stem}-train.jsonl.gz"))
        rec_des.dump(str(work_dir / f"{stem}-des.jsonl.gz"))
    else:
        avg_jct, utilization, events = sim_outcome(results)
        metrics = {
            "samples_per_s": (window_steps * SAMPLES_PER_STEP / window_s, "1/s"),
            "step_ms_p50": (statistics.median(job.cycle_step_ms), "ms"),
            "rescale_ms_p50": (statistics.median(job.cycle_rescale_ms), "ms"),
            "baseline_samples_per_s": (job.steps * SAMPLES_PER_STEP / baseline.seconds, "1/s"),
            "replay_s": (statistics.fmean(replay_times), "s"),
            "sim_events_per_s": (events / sum(replay_times), "1/s"),
            "sim_avg_jct_s": (avg_jct, "sim_s"),
            "sim_gpu_util": (utilization, "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        out.report.append(
            f"training: {window_steps} steps in {window_s:.2f}s "
            f"({len(job.cycle_step_ms)} cycles: {len(job.step_ms)} plain steps, "
            f"{len(job.rescale_ms)} rescales); "
            f"baseline {job.steps} steps in {baseline.seconds:.2f}s; "
            f"set-ups {', '.join(f'{t:.3f}s' for t in setups)}"
        )
        out.report.append(
            f"des: {len(results)} traces, {sum(r.jobs for r in results)} jobs, {events} events, "
            f"replays {', '.join(f'{t:.2f}s' for t in replay_times)}"
        )
    for name, (value, unit) in metrics.items():
        out.report.append(f"{name:32s} {value:14.4f} {unit}")
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "report": out.report,
    }


def _layer_metrics(rec_train: SpanRecorder, steps: int, rec_des: SpanRecorder, des_result) -> Dict:
    train = rec_train.summary()
    des = rec_des.summary()

    def per_step(name: str) -> float:
        return train.get(name, {}).get("total_s", 0.0) * 1e3 / steps

    def calls_per_step(name: str) -> float:
        return train.get(name, {}).get("calls", 0) / steps

    def per_call(name: str) -> float:
        row = train.get(name)
        return row["total_s"] * 1e3 / row["calls"] if row else 0.0

    def des_ms(name: str) -> float:
        return des.get(name, {}).get("total_s", 0.0) * 1e3

    def des_calls(name: str) -> int:
        return des.get(name, {}).get("calls", 0)

    forward, backward = per_step("tensor.forward"), per_step("tensor.backward")
    kernels_ms = per_step("tensor.matmul") + per_step("tensor.reduce_sum")
    local = per_step("core.local_step")
    hits = misses = 0
    for runtime in des_result.jobs:
        for stats in runtime.agent.companion.cache_stats().values():
            hits += stats["hits"]
            misses += stats["misses"]
    rows = {
        "tensor.forward_ms": (forward, "ms/step"),
        "tensor.backward_ms": (backward, "ms/step"),
        "tensor.conv2d_ms": (per_step("tensor.conv2d"), "ms/step"),
        "tensor.conv2d_calls": (calls_per_step("tensor.conv2d"), "count/step"),
        "tensor.matmul_ms": (per_step("tensor.matmul"), "ms/step"),
        "tensor.matmul_calls": (calls_per_step("tensor.matmul"), "count/step"),
        "tensor.reduce_sum_ms": (per_step("tensor.reduce_sum"), "ms/step"),
        "tensor.reduce_sum_calls": (calls_per_step("tensor.reduce_sum"), "count/step"),
        "tensor.dispatch_self_ms": (
            forward + backward - kernels_ms if forward else 0.0, "ms/step"
        ),
        "tensor.tensors_per_step": (rec_train.counts.get("tensor.tensors", 0) / steps, "count/step"),
        "core.local_step_ms": (local, "ms/step"),
        "core.grad_copy_ms": (local - forward - backward if local else 0.0, "ms/step"),
        "core.reconfigure_ms": (per_call("core.reconfigure"), "ms"),
        "core.checkpoint_ms": (per_call("core.checkpoint"), "ms"),
        "data.load_ms": (per_step("data.load"), "ms/step"),
        "data.load_calls": (calls_per_step("data.load"), "count/step"),
        "comm.synchronize_ms": (per_step("comm.synchronize"), "ms/step"),
        "comm.allreduce_ms": (per_step("comm.allreduce"), "ms/step"),
        "comm.allreduce_calls": (calls_per_step("comm.allreduce"), "count/step"),
        "comm.bytes_per_step": (rec_train.counts.get("comm.bytes", 0) / steps, "B/step"),
        "optim.step_ms": (per_step("optim.step"), "ms/step"),
        "nn.bn_fold_ms": (per_step("nn.bn_fold"), "ms/step"),
        "exec.run_step_ms": (per_step("exec.run_step"), "ms/step"),
        "exec.commit_ms": (per_step("exec.commit"), "ms/step"),
        "sched.core_self_s": (des.get("sched.replay", {}).get("self_s", 0.0), "s"),
        "sched.reschedule_ms": (des_ms("sched.reschedule"), "ms"),
        "sched.reschedule_calls": (des_calls("sched.reschedule"), "count"),
        "sched.on_arrival_ms": (des_ms("sched.on_arrival"), "ms"),
        "sched.proposals_for_ms": (des_ms("sched.proposals_for"), "ms"),
        "sched.proposals_for_calls": (des_calls("sched.proposals_for"), "count"),
        "sched.arbitrate_ms": (des_ms("sched.arbitrate"), "ms"),
        "sched.arbitrate_calls": (des_calls("sched.arbitrate"), "count"),
        "sched.companion_search_ms": (des_ms("sched.companion_search"), "ms"),
        "sched.companion_search_calls": (des_calls("sched.companion_search"), "count"),
        "sched.plan_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "sched.quiescent_ratio": (
            des_calls("sched.reschedule") / len(des_result.allocation_timeline), "ratio"
        ),
        "sched.events": (len(des_result.events), "count"),
        "faults.preempt_ms": (des_ms("faults.preempt"), "ms"),
        "faults.preempt_calls": (des_calls("faults.preempt"), "count"),
    }
    return rows
