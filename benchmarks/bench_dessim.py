"""DES at production scale — 3,000-GPU month-long trace, heap vs batched core.

The paper's production claims (Fig-1 diurnal swing, Fig-14/16 replays)
are made at thousands of GPUs over weeks; this regenerator replays a
seeded 3,000-GPU, 30-day diurnal multi-tenant trace through both
simulator cores and measures event throughput.  The batched core drains
coincident events in one pass, advances all running jobs with one
vectorized step, skips reschedules at quiescent decision points, and
shares Role-2 plan searches across same-class jobs — none of which may
change a single event: the two logs must stay byte-identical.

Regenerates: wall cost and event throughput for both cores, and the
batched/heap speedup.  Asserts byte-identical ``EventLog`` fingerprints
and, at full scale, the >= 10x speedup the batched core exists for.
"""

import time

from repro.hw import microbench_cluster, production_cluster
from repro.sched import ClusterSimulator, EasyScalePolicy, diurnal_trace

from benchmarks.conftest import (
    print_header,
    print_table,
    record_trajectory,
    smoke_scale,
)

GPUS = smoke_scale(3000, 64)
NUM_JOBS = smoke_scale(2000, 60)
DAYS = smoke_scale(30, 0.5)
MEAN_DURATION_S = smoke_scale(8 * 3600.0, 4 * 3600.0)
SEED = 11
#: full-scale acceptance bar; the smoke trace is too small for the
#: asymptotic win (quiescent rounds and class sharing need scale), so it
#: only checks the batched core is not pathologically slower
MIN_SPEEDUP = smoke_scale(10.0, 0.2)


def _build_cluster():
    return microbench_cluster() if GPUS == 64 else production_cluster(GPUS)


def run_experiment():
    jobs = diurnal_trace(
        num_jobs=NUM_JOBS, seed=SEED, days=DAYS, mean_duration_s=MEAN_DURATION_S
    )

    def replay(core):
        sim = ClusterSimulator(_build_cluster(), jobs, EasyScalePolicy(True))
        runner = {"heap": sim.run, "batched": sim.run_batched}[core]
        start = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - start
        return elapsed, result

    heap_s, heap_result = replay("heap")
    batched_s, batched_result = replay("batched")
    return {
        "jobs": jobs,
        "heap_s": heap_s,
        "batched_s": batched_s,
        "heap_result": heap_result,
        "batched_result": batched_result,
    }


def test_dessim_month_trace_replay(run_once):
    r = run_once(run_experiment)

    # bitwise contract first: a speedup only counts if it is the *same*
    # simulation, event for event
    assert (
        r["batched_result"].events.fingerprint()
        == r["heap_result"].events.fingerprint()
    )
    assert r["batched_result"].jcts == r["heap_result"].jcts

    events = len(r["heap_result"].events)
    heap_eps = events / r["heap_s"]
    batched_eps = events / r["batched_s"]
    speedup = r["heap_s"] / r["batched_s"]

    print_header(
        f"DES core scaling: {GPUS} GPUs, {NUM_JOBS} jobs, {DAYS}-day diurnal trace"
    )
    print_table(
        ["core", "wall (s)", "events/s"],
        [
            ["heap", f"{r['heap_s']:.2f}", f"{heap_eps:,.0f}"],
            ["batched", f"{r['batched_s']:.2f}", f"{batched_eps:,.0f}"],
        ],
        fmt="12",
    )
    print(f"\nbatched/heap event-throughput speedup x{speedup:.1f} "
          f"({events} events, fingerprints identical)")

    assert speedup >= MIN_SPEEDUP, (
        f"batched core speedup x{speedup:.2f} below the x{MIN_SPEEDUP} bar"
    )

    record_trajectory(
        "dessim", "month_trace",
        {"gpus": GPUS, "jobs": NUM_JOBS, "days": DAYS, "shape": "diurnal"},
        {"heap_s": [r["heap_s"]], "batched_s": [r["batched_s"]],
         "speedup_x": [speedup]},
        directions={"speedup_x": "higher"},
        units={"speedup_x": "x"},
    )
