"""Workload definitions and the seeded generators of their inputs.

Each workload pairs one elastic-training job with one cluster-trace
replay, so every end-to-end metric is measured on every workload:

``hetero_serial_diurnal``
    ResNet-18 mini, 4 ESTs, D1+D2, :class:`SerialBackend`, cycling
    through heterogeneous V100/T4 mixes; plus a 3,000-GPU, 30-day
    ``diurnal_trace`` of 2,000 jobs under ``EasyScalePolicy(True)``.
    Training time sits in ``repro.tensor`` (conv im2col, D2 sequential
    reductions); the replay is dominated by the policy layer's
    memoized ``proposals_for``.
``pool_electra_heavytail``
    Electra mini, 4 ESTs, D1 on V100s only, :class:`ProcessPoolBackend`
    (2 children, shm transport), allocation 2 -> 1 -> 2 workers; plus a
    3,000-job ``heavy_tail_trace`` on 3,000 GPUs with a time-triggered
    fault plan of about 40 events.  Training time sits in the pool's
    dispatch/collect path (no conv, no D2 kernels); the replay spends
    more of its time in cold companion searches and runs the
    ``on_preempt`` fault path.

The program only ever receives what these generators produce: a
dataset, an allocation schedule, traces and a fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.schedule import FaultPlan, random_sim_plan
from repro.sched import TraceJob, diurnal_trace, heavy_tail_trace

#: GPUs in the simulated cluster (``production_cluster``: half T4, a
#: quarter P100, the rest V100)
CLUSTER_GPUS = 3000
#: distinct traces replayed per run; their results are pooled so that the
#: simulated metrics average over 6x the jobs of one trace, and replay
#: times vary from trace to trace by about 15%, so a run needs several
TRACES_PER_RUN = 6
#: samples in each training dataset (8 global steps per epoch at 4 ESTs
#: x batch 8, so every run crosses several epoch boundaries)
DATASET_SAMPLES = 256
NUM_ESTS = 4
BATCH_SIZE = 8
#: global steps per allocation: a rescale plus 7 plain steps
STEPS_PER_STAGE = 8
#: jobs in the reduced trace replayed on both the batched and the
#: reference core (the reference core is quadratic in trace size)
CHECK_JOBS = 60
#: fault kinds the simulator applies to running jobs; each leaves every
#: job able to finish
SIM_FAULT_KINDS = ("node_preempt", "gpu_revoke", "slowdown", "restart_delay")
#: seed and size of the pinned trace every run replays and checks against
#: ``DesCase.pinned``: the simulated outcome of a fixed input must not move
#: unless scheduling decisions are meant to change
PINNED_SEED = 0
PINNED_JOBS = 250


@dataclass(frozen=True)
class TrainCase:
    """An elastic-training job driven in a closed loop."""

    model: str
    determinism: str
    backend: str  # "serial" or "pool"
    #: allocations cycled through in order; a rescale starts each stage
    schedule: Tuple[Tuple[str, ...], ...]


@dataclass(frozen=True)
class DesCase:
    """A cluster-trace replay on the batched DES core."""

    shape: str  # "diurnal" or "heavy_tail"
    num_jobs: int
    #: most fault events drawn per trace (``random_sim_plan``: 1 to this)
    max_fault_events: int
    #: (``sim_avg_jct_s``, ``sim_gpu_util``, events) of the pinned trace;
    #: a run whose pinned replay differs reports the values it got
    pinned: Tuple[float, float, int]


@dataclass(frozen=True)
class Workload:
    name: str
    train: TrainCase
    des: DesCase


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hetero_serial_diurnal",
            TrainCase(
                model="resnet18",
                determinism="D1+D2",
                backend="serial",
                schedule=(("V100", "T4"), ("V100",), ("V100", "T4", "T4")),
            ),
            DesCase(
                shape="diurnal",
                num_jobs=2000,
                max_fault_events=0,
                pinned=(24233.90129727965, 0.03738667614714004, 759),
            ),
        ),
        Workload(
            "pool_electra_heavytail",
            TrainCase(
                model="electra",
                determinism="D1",
                backend="pool",
                schedule=(("V100", "V100"), ("V100",)),
            ),
            DesCase(
                shape="heavy_tail",
                num_jobs=3000,
                max_fault_events=80,
                pinned=(1576.6265841828144, 0.017018561026698707, 835),
            ),
        ),
    )
}


def trace_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th trace of a run seeded with ``seed``."""
    return seed * TRACES_PER_RUN + index


def make_trace(case: DesCase, seed: int, num_jobs: Optional[int] = None) -> List[TraceJob]:
    jobs = num_jobs or case.num_jobs
    if case.shape == "diurnal":
        # the reduced traces (check and pinned) keep the month's arrival rate
        days = max(1, round(30 * jobs / case.num_jobs))
        return diurnal_trace(num_jobs=jobs, seed=seed, days=days, mean_duration_s=8 * 3600.0)
    return heavy_tail_trace(num_jobs=jobs, seed=seed)


def make_fault_plan(case: DesCase, seed: int, jobs: List[TraceJob]) -> Optional[FaultPlan]:
    """Faults (about 40 on the heavy-tail trace) spread over the middle 90%
    of the trace's arrival window."""
    if not case.max_fault_events:
        return None
    horizon = max(j.arrival_time for j in jobs)
    return random_sim_plan(
        seed, horizon, max_events=case.max_fault_events, kinds=SIM_FAULT_KINDS, note="perfbench"
    )
