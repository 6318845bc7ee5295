"""The distributed workloads: real worker processes and the simulated fabric.

dist_process: node_large's signal and parameter family (n = 2^20, S = 8,
mu = 5/4, B = 48) split over 2 ProcessBackend workers with the
shared-memory all-to-all.  It exercises dispatch, the shm exchange and the
per-rank kernel path; set beside node_large on identical input it shows
what the real backend adds.

dist_sim: DistributedSoiFFT on a 64-rank SimCluster with FatTree(radix=16),
so the two-level all-to-all engages; n = 2^19 (8192 per rank).  The
phase-structured driver and the Communicator take a real share of wall
time here, and the deterministic sim_time_ms guards the Fig 8/9 model.
"""

from __future__ import annotations

from multiprocessing import resource_tracker

import numpy as np

import common
from common import Setup, complex_signals, median, now
from node import INPUTS, soi_params
from sim import SimRun

PROCESS_SIZES = {"full": 1 << 20, "tiny": 1 << 14}
SIM_SIZES = {"full": 1 << 19, "tiny": 1 << 17}
WORKERS = 2
SIM_RANKS = 64

NOT_RUN_PROCESS = ("serve.exec_ms", "serve.wait_ms", "serve.coalesce_ratio",
                   "serve.batch_rows", "serve.shed_frac",
                   "serve.degraded_frac", "loadgen.late_ms", "verify.ms",
                   "verify.detections")
NOT_RUN_SIM = NOT_RUN_PROCESS + (
    "setup.spawn_s", "backend.compute_ms", "backend.exchange_ms",
    "backend.dispatch_ms", "backend.imbalance", "exchange.bytes",
    "exchange.gbs")

#: Rank-program step labels (as ProcessBackend measures them) -> stage.
#: The lane FFT runs inside the "convolution" step.
RANK_STAGES = {"convolution": "conv", "local FFT": "segfft",
               "demodulation": "demod"}


def _spawn_probe(ctx):
    """Empty rank program: one round trip through every worker."""
    return ctx.rank
    yield  # pragma: no cover - makes this a generator


def _reference_probe(ctx):
    """Rank program: one drift-reference call in every worker."""
    return common.time_reference()
    yield  # pragma: no cover - makes this a generator


def run_process(res, seed: int, seconds: float, trace: bool,
                scale: str) -> None:
    import repro.core.soi_dist as soi_dist
    from repro import DistributedSoiFFT, SimCluster
    from repro.cluster.backends import ProcessBackend
    from repro.telemetry import MetricsRegistry

    p = soi_params(PROCESS_SIZES[scale], n_procs=WORKERS)
    xs = complex_signals(np.random.default_rng(seed), INPUTS, p.n)
    refs = np.fft.fft(xs, axis=1)
    tables = common.CallTimer(soi_dist, "build_tables") if trace else None
    spawn = [0.0]
    first: list[np.ndarray] = []

    def build():
        t0 = now()
        backend = ProcessBackend(WORKERS, metrics=MetricsRegistry())
        backend.run(_spawn_probe, [()] * WORKERS)
        spawn[0] += now() - t0
        cluster = SimCluster(WORKERS, metrics=MetricsRegistry())
        return DistributedSoiFFT(cluster, p, backend=backend)

    def first_call(dist):
        first.clear()
        first.append(dist.assemble(dist(dist.scatter(xs[0]))))

    setup = Setup.cold(build, first_call, teardown=lambda d: d.backend.close())
    tables_s = tables.seconds if trace else 0.0
    dist = setup.obj
    backend = dist.backend
    common.DRIFT.reference = lambda: float(np.mean(
        backend.run(_reference_probe, [()] * WORKERS)))
    try:
        setup.put(res, trace, tables_s=tables_s, spawn_s=spawn[0])
        bound = common.STOPBAND_FACTOR * dist.tables.expected_stopband
        parts = [dist.scatter(x) for x in xs]
        errs: list[float] = []
        res.notes["rel_err_bound"] = bound

        def run_one(k: int) -> np.ndarray:
            return dist.assemble(dist(parts[k]))

        budget = seconds / 2 if trace else seconds
        raw: list[float] = []
        walls = common.closed_loop(res, run_one, refs, bound, budget, errs,
                                   raw)
        res.put("peak_rss_mb", common.peak_rss_mb(include_children=True),
                "MB")
        wall = common.put_latency(res, p.n, walls, raw)
        if trace:
            traced = _trace_process(res, backend, run_one, refs, bound,
                                    seconds / 2, errs)
    finally:
        common.DRIFT.reference = common.time_reference
        backend.close()
        # shared memory started the stdlib's resource tracker process;
        # stop it and wait for it, so no process outlives the run
        resource_tracker._resource_tracker._stop()
    if trace:
        # host references once the workers' memory is released
        stages, traced_walls, exchange_s = traced
        host = common.host_reference()
        common.put_stages(res, stages, common.stage_model(p, 16),
                          len(traced_walls), WORKERS, host)
        res.put("pipeline.other_ms", 0.0, "ms")
        common.put_host(res, host, common.numpy_fft_ms(xs[0]), 1e3 * wall,
                        wall, median(traced_walls))
        res.zero(NOT_RUN_PROCESS)

    # the simulated path on the same input: the bitwise reference for the
    # first real transform, and sim_time_ms for this geometry
    twin = SimRun(p)
    if trace:
        twin.trace()
    y_sim = twin.dist.assemble(twin(twin.dist.scatter(xs[0])))
    errs.append(common.rel_err(first[0], refs[0]))
    res.op(errs[-1] < bound and np.array_equal(first[0], y_sim))
    twin.put(res)
    if trace:
        # the rank program hands the same payloads to ProcessBackend's
        # shm collectives as to the twin's Communicator
        nbytes = twin.per_call("wire_bytes")
        res.put("exchange.bytes", nbytes, "bytes")
        res.put("exchange.gbs", nbytes / exchange_s / 1e9, "GB/s")
    res.put("rel_err", max(errs), "ratio")
    res.put("goodput_frac", res.goodput, "frac")


def _trace_process(res, backend, run_one, refs, bound, seconds, errs):
    """Backend metrics from the per-rank steps ProcessBackend measures.

    Returns the stage seconds (summed over ranks), the closed loop's
    walls and the exchange seconds per transform (mean over ranks)."""
    charges = backend.trace.recorder.charges
    compute = np.zeros(WORKERS)
    exchange = np.zeros(WORKERS)
    stages: dict[str, float] = {}
    dispatch = imbalance = 0.0
    walls: list[float] = []

    def traced_one(k: int) -> np.ndarray:
        nonlocal dispatch, imbalance
        first = len(charges)
        t0 = now()
        y = run_one(k)
        walls.append(now() - t0)
        c, e = np.zeros(WORKERS), np.zeros(WORKERS)
        for span in charges[first:]:
            if span.category == "mpi":
                e[span.rank] += span.duration
            elif span.category == "compute":
                c[span.rank] += span.duration
                stage = RANK_STAGES.get(span.name)
                if stage is not None:
                    stages[stage] = stages.get(stage, 0.0) + span.duration
        compute[:] += c
        exchange[:] += e
        dispatch += walls[-1] - float(np.max(c + e))
        imbalance += float(np.max(c) / np.mean(c))
        return y

    loop_walls = common.closed_loop(res, traced_one, refs, bound, seconds,
                                    errs)
    k = len(walls)
    res.put("backend.compute_ms", 1e3 * compute.mean() / k, "ms")
    res.put("backend.exchange_ms", 1e3 * exchange.mean() / k, "ms")
    res.put("backend.dispatch_ms", 1e3 * dispatch / k, "ms")
    res.put("backend.imbalance", imbalance / k, "ratio")
    res.notes["traced_transforms"] = k
    return stages, loop_walls, exchange.mean() / k


class _TimedPlan:
    """A plan whose calls add their wall seconds to ``seconds[n]``."""

    def __init__(self, plan, n: int, seconds: dict):
        self._plan, self._n, self._seconds = plan, n, seconds

    def __call__(self, *args, **kwargs):
        t0 = now()
        try:
            return self._plan(*args, **kwargs)
        finally:
            self._seconds[self._n] = (self._seconds.get(self._n, 0.0)
                                      + now() - t0)

    def __getattr__(self, name):
        return getattr(self._plan, name)


class PlanTimer:
    """Wraps ``module.get_plan`` so the plans it hands out time their
    calls, summed per transform length in ``seconds``."""

    def __init__(self, module):
        self.seconds: dict[int, float] = {}
        get_plan = module.get_plan
        module.get_plan = lambda n, *a, **k: _TimedPlan(
            get_plan(n, *a, **k), n, self.seconds)


def run_sim(res, seed: int, seconds: float, trace: bool, scale: str) -> None:
    import repro.core.soi_dist as soi_dist
    from repro import SoiParams
    from repro.cluster.topology import FatTree

    p = SoiParams(n=SIM_SIZES[scale], n_procs=SIM_RANKS,
                  segments_per_process=1, n_mu=5, d_mu=4, b=48)
    xs = complex_signals(np.random.default_rng(seed), INPUTS, p.n)
    refs = np.fft.fft(xs, axis=1)
    tables = common.CallTimer(soi_dist, "build_tables") if trace else None
    plans = PlanTimer(soi_dist) if trace else None
    scattered = []

    def first_call(sim):
        scattered[:] = [sim.dist.scatter(x) for x in xs]
        sim(scattered[0])

    setup = Setup.cold(lambda: SimRun(p, topology=FatTree(radix=16)), first_call)
    setup.put(res, trace, tables_s=tables.seconds if trace else 0.0)
    sim = setup.obj
    sim.restart()
    bound = common.STOPBAND_FACTOR * sim.dist.tables.expected_stopband
    errs: list[float] = []
    res.notes["rel_err_bound"] = bound

    def run_one(k: int) -> np.ndarray:
        return sim.dist.assemble(sim(scattered[k]))

    raw: list[float] = []
    walls = common.closed_loop(res, run_one, refs, bound,
                               seconds / 2 if trace else seconds, errs, raw)
    res.put("peak_rss_mb", common.peak_rss_mb(), "MB")
    wall = common.put_latency(res, p.n, walls, raw)
    sim.put(res)
    if trace:
        sim.trace()
        plans.seconds.clear()
        conv = common.CallTimer(soi_dist, "convolve")
        demod = common.CallTimer(soi_dist, "demodulate")
        traced = common.closed_loop(res, run_one, refs, bound, seconds / 2,
                                    errs)
        sim.put(res)
        k = sim.transforms
        stages = {"conv": conv.seconds, "demod": demod.seconds,
                  "lane": plans.seconds.get(p.n_segments, 0.0),
                  "segfft": plans.seconds.get(p.m_oversampled, 0.0)}
        host = common.host_reference()
        common.put_stages(res, stages, common.stage_model(p, 16), k,
                          SIM_RANKS, host)
        res.put("pipeline.other_ms", 0.0, "ms")
        common.put_host(res, host, common.numpy_fft_ms(xs[0]), 1e3 * wall,
                        wall, median(traced))
        res.zero(NOT_RUN_SIM)
        res.notes["traced_transforms"] = k
    res.put("rel_err", max(errs), "ratio")
    res.put("goodput_frac", res.goodput, "frac")
