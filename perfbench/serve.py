"""serve_mixed: the async gateway under an open-loop, bursty tenant mix.

AsyncSoiGateway over DegradationLadder.standard(7168) with ABFT armed and
gold/silver/bronze tenants with deadlines.  Arrivals are open-loop and
seeded: bursts arrive as a Poisson process at a fixed mean request rate
below the knee, so coalescing engages.  The transforms are tiny, so
admission, coalescing, executor hops and verification dominate; a kernel
change tuned for large n that taxes small batched transforms shows here.

Each request is timed from its scheduled due time, so a stall charges
every request queued behind it.  A request counts as good only if it is
served within its deadline (measured from its due time) and its spectrum
is within its rung's predicted SNR; shed and late requests count as
missing the latency limit.
"""

from __future__ import annotations

import asyncio
import gc
from dataclasses import dataclass

import numpy as np

import common
from common import (DRIFT, SETUP_BUILDS, CallTimer, Setup, complex_signals,
                    now, tail)
from sim import SimRun

N = 7168

#: Mean offered load (requests/s), requests per burst, and the mean gap
#: between requests inside a burst (s).
RATE = 60.0
BURST = 2
BURST_GAP = 0.5e-3

#: tenant (= QoS class) -> (traffic share, deadline in seconds).  The
#: deadlines sit about 40x above the p99 latency, so a request misses one
#: only when the gateway stalls, never because the shared host paused.
TENANTS = {"gold": (0.3, 1.0), "silver": (0.3, 1.5), "bronze": (0.4, 2.5)}

#: Distinct seeded signals the requests draw from.
POOL = 32

#: The tail needs ten requests beyond it; a full run has 60 x seconds.
MIN_REQUESTS = {"full": 100, "tiny": 40}

#: Requests of the untimed warm-up loop (about one second of traffic).
WARMUP = {"full": 60, "tiny": 10}

#: The generator times the drift reference only while no request is in
#: flight and the next one is due at least this far off (seconds), and
#: at most once per TICK_EVERY seconds, so the reference delays nothing.
IDLE_GAP = 0.015
TICK_EVERY = 0.1

#: The alias model predicts each rung's SNR to within a fraction of a dB
#: on flat random input; a served spectrum may fall this far below it.
SNR_SLACK_DB = 1.0

NOT_RUN = ("setup.spawn_s", "backend.compute_ms", "backend.exchange_ms",
           "backend.dispatch_ms", "backend.imbalance", "exchange.bytes",
           "exchange.gbs")


@dataclass(frozen=True)
class Arrival:
    t: float  # seconds after the schedule starts
    tenant: str
    signal: int


def arrivals(rng: np.random.Generator, count: int) -> list[Arrival]:
    """Exactly *count* requests in bursts of :data:`BURST` that arrive
    as a Poisson process."""
    names = list(TENANTS)
    shares = np.array([TENANTS[t][0] for t in names])
    out: list[Arrival] = []
    t = 0.0
    while len(out) < count:
        t += rng.exponential(BURST / RATE)
        at = t
        for _ in range(BURST):
            out.append(Arrival(at, names[rng.choice(len(names), p=shares)],
                               int(rng.integers(POOL))))
            at += rng.exponential(BURST_GAP)
    out = sorted(out[:count], key=lambda a: a.t)
    return out


class Outcomes:
    """Per-request results of one open-loop phase."""

    def __init__(self) -> None:
        #: from due time, at the nominal host speed; inf when failed
        self.latency: list[float] = []
        self.late: list[float] = []  # generator lateness at submit
        self.submit_latency: list[float] = []  # gateway's own, served only
        self.shed = 0
        self.degraded = 0
        self.wall = 0.0
        self.batches: list = []  # the gateway's coalesce spans
        #: the batches' summed seconds at the nominal host speed
        self.busy = 0.0

    def gflops(self) -> float:
        """Paper-unit rate of the gateway's batched execution: every row
        of every executed batch over the batches' summed time."""
        rows = sum(s.attributes["rows"] for s in self.batches)
        return rows * common.paper_flops(N) / self.busy / 1e9

    def latency_ms(self, q_tail: bool) -> float:
        """p50 or the tail (ten beyond) of latency from due time; a failed
        request that lands there reads as the phase's whole wall time."""
        v = tail(self.latency)[0] if q_tail else float(
            np.percentile(self.latency, 50, method="inverted_cdf"))
        return 1e3 * (v if np.isfinite(v) else self.wall)


class Checker:
    """Output checks against numpy.fft of the seeded signal pool."""

    def __init__(self, res, signals: np.ndarray):
        from repro.util.validate import spectral_snr
        self.res = res
        self.snr = spectral_snr
        self.refs = np.fft.fft(signals, axis=1)
        self.full_quality_err = 0.0

    def served(self, result, signal: int, in_time: bool) -> None:
        ref = self.refs[signal]
        y = result.y.astype(np.complex128)
        rung = result.report.rung
        ok = self.snr(y, ref) >= rung.predicted_snr_db - SNR_SLACK_DB
        if result.report.rung_index == 0:
            self.full_quality_err = max(self.full_quality_err,
                                        common.rel_err(y, ref))
        self.res.op(ok and in_time, output_ok=ok)


def _gateway():
    """A fresh ladder, QoS policy and ABFT-armed gateway.

    The gateway's ``recorder`` keeps one span per executed batch (its own
    accounting, one list append per batch); ``gflops`` is read from it.
    """
    from repro import DegradationLadder
    from repro.serve import AsyncSoiGateway
    from repro.serve.qos import QosPolicy
    from repro.telemetry import MetricsRegistry, SpanRecorder
    qos = QosPolicy(metrics=MetricsRegistry())
    for name in TENANTS:
        qos.assign(name, name)
    return AsyncSoiGateway(DegradationLadder.standard(N), qos=qos,
                           verify=True, metrics=MetricsRegistry(),
                           recorder=SpanRecorder())


async def _open_loop(gw, schedule, signals, checker) -> Outcomes:
    """One generator coroutine starts each request at its due time, so
    only requests in flight are alive."""
    from repro.resilience.deadline import DeadlineExceeded, Overloaded
    loop = asyncio.get_running_loop()
    out = Outcomes()
    measured: list[tuple[float, float]] = []  # (latency, perf_counter)
    inflight = 0
    idle = asyncio.Event()

    async def one(a: Arrival, due: float) -> None:
        nonlocal inflight
        deadline = TENANTS[a.tenant][1]
        try:
            r = await gw.submit(signals[a.signal], tenant=a.tenant,
                                deadline_seconds=deadline)
        except (Overloaded, DeadlineExceeded):
            out.shed += 1
            measured.append((np.inf, now()))
            checker.res.op(False, output_ok=True)
            return
        finally:
            inflight -= 1
            if inflight == 0:
                idle.set()
        latency = loop.time() - due
        in_time = latency <= deadline
        measured.append((latency if in_time else np.inf, now()))
        out.submit_latency.append(r.latency_seconds)
        out.degraded += r.outcome == "degraded"
        checker.served(r, a.signal, in_time)

    first = len(gw.recorder.charges)
    tasks = []
    start = loop.time()
    to_perf = now() - start  # loop (and gateway) clock -> perf_counter
    last_tick = -np.inf
    t0 = start + 0.05 - schedule[0].t
    for a in schedule:
        due = t0 + a.t
        spare = due - loop.time() - IDLE_GAP
        if spare > 0 and loop.time() - last_tick > TICK_EVERY:
            # let the requests in flight finish, then time the reference
            # if the next request is still far enough off
            try:
                await asyncio.wait_for(idle.wait(), spare)
            except asyncio.TimeoutError:
                pass
            if inflight == 0 and due - loop.time() > IDLE_GAP:
                DRIFT.tick()
                last_tick = loop.time()
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        out.late.append(loop.time() - due)
        inflight += 1
        idle.clear()
        tasks.append(loop.create_task(one(a, due)))
    await asyncio.gather(*tasks)
    await gw.drain()
    out.wall = loop.time() - start
    out.batches = gw.recorder.charges[first:]
    out.latency = [v * DRIFT.factor_at(at) for v, at in measured]
    out.busy = sum(s.duration * DRIFT.factor_at(s.t_start + to_perf)
                   for s in out.batches)
    return out


async def _main(res, seed: int, seconds: float, trace: bool,
                scale: str) -> None:
    import repro.core.soi_single as soi_single
    import repro.resilience.ladder as ladder_mod
    from repro.fft.plan import cache_clear

    rng = np.random.default_rng(seed)
    signals = complex_signals(rng, POOL, N)
    count = max(MIN_REQUESTS[scale], round(RATE * seconds))
    schedule = arrivals(rng, count)
    warmup = arrivals(rng, WARMUP[scale])
    checker = Checker(res, signals)
    tables = ([CallTimer(ladder_mod, "build_tables"),
               CallTimer(soi_single, "build_tables")] if trace else [])

    setup = Setup()
    gw = None
    for _ in range(SETUP_BUILDS):
        if gw is not None:
            await gw.close()
        gw = None
        gc.collect()
        cache_clear()
        t0 = now()
        gw = _gateway()
        t1 = now()
        checker.served(await gw.submit(signals[0], tenant="gold",
                                       deadline_seconds=30.0), 0, True)
        setup.add(t1 - t0, now() - t1)
    setup.put(res, trace, tables_s=sum(t.seconds for t in tables))
    try:
        # lazy per-rung plans are built before the clock starts, so the
        # first request to reach each rung does not pay for its plan
        for i in range(len(gw.ladder)):
            gw.plan(i)
        # the same traffic, checked but not timed, so every batch size's
        # workspaces and the admission estimate settle first
        await _open_loop(gw, warmup, signals, checker)
        if trace:
            half = len(schedule) // 2
            await _trace(res, gw, schedule[:half], schedule[half:], signals,
                         checker)
        else:
            out = await _open_loop(gw, schedule, signals, checker)
            res.put("peak_rss_mb", common.peak_rss_mb(), "MB")
            res.put("latency_p50_ms", out.latency_ms(False), "ms")
            res.put("latency_tail_ms", out.latency_ms(True), "ms")
            res.put("gflops", out.gflops(), "GF/s")
            res.notes.update(requests=len(out.latency),
                             tail_percentile=tail(out.latency)[1],
                             p99_ms=1e3 * float(np.percentile(
                                 out.latency, 99, method="inverted_cdf")),
                             open_loop_s=out.wall, batches=len(out.batches),
                             drift_ref_ms=DRIFT.ref_ms())
        detections = sum(gw.plan(i).verifier.report.detections
                         for i in range(len(gw.ladder)))
        res.op(detections == 0)
        if trace:
            res.put("verify.detections", detections, "count")
        rung0 = gw.ladder[0].params
    finally:
        await gw.close()

    twin = SimRun(rung0)
    if trace:
        twin.trace()
    y = twin.dist.assemble(twin(twin.dist.scatter(signals[0])))
    checker.full_quality_err = max(checker.full_quality_err,
                                   common.rel_err(y, checker.refs[0]))
    twin.put(res)
    res.put("rel_err", checker.full_quality_err, "ratio")
    res.put("goodput_frac", res.goodput, "frac")


async def _trace(res, gw, first, second, signals, checker) -> None:
    """Untraced first half, traced second half of the schedule."""
    from repro.telemetry import MetricsRegistry, SpanRecorder, Telemetry
    from repro.verify.selfcheck import PipelineVerifier

    untraced = await _open_loop(gw, first, signals, checker)
    stage_rec = {}
    for i in range(len(gw.ladder)):
        stage_rec[i] = Telemetry(recorder=SpanRecorder(),
                                 metrics=MetricsRegistry())
        gw.plan(i).telemetry = stage_rec[i]
    verify = CallTimer(PipelineVerifier, "check_and_repair")
    traced = await _open_loop(gw, second, signals, checker)

    batches = traced.batches
    rows = sum(s.attributes["rows"] for s in batches)
    exec_s = sum(s.duration for s in batches)
    row_exec_s = sum(s.attributes["rows"] * s.duration for s in batches)
    served = len(traced.submit_latency)
    res.put("serve.exec_ms", 1e3 * exec_s / len(batches), "ms")
    res.put("serve.batch_rows", rows / len(batches), "count")
    res.put("serve.coalesce_ratio",
            sum(r for r in (s.attributes["rows"] for s in batches) if r > 1)
            / rows, "frac")
    res.put("serve.wait_ms",
            1e3 * (sum(traced.submit_latency) - row_exec_s) / served, "ms")
    res.put("serve.shed_frac", traced.shed / len(second), "frac")
    res.put("serve.degraded_frac", traced.degraded / len(second), "frac")
    res.put("loadgen.late_ms", 1e3 * tail(traced.late)[0], "ms")
    res.put("verify.ms", 1e3 * verify.seconds / max(verify.calls, 1), "ms")

    # stage seconds summed over rungs; work averaged over executed rows
    seconds: dict[str, float] = {}
    work: dict[str, list[float]] = {}
    for i, telem in stage_rec.items():
        done = telem.metrics.get("repro_core_transforms_total")
        n_rows = done.value if done is not None else 0.0
        for stage, secs in common.telemetry_seconds(telem.recorder).items():
            seconds[stage] = seconds.get(stage, 0.0) + secs
        rung = gw.ladder[i]
        model = common.stage_model(rung.params, np.dtype(rung.dtype).itemsize)
        for stage, (flops, nbytes) in model.items():
            acc = work.setdefault(stage, [0.0, 0.0])
            acc[0] += n_rows * flops / rows
            acc[1] += n_rows * nbytes / rows
    host = common.host_reference()
    stage_ms = common.put_stages(res, seconds,
                                 {k: tuple(v) for k, v in work.items()},
                                 rows, 1, host)
    row_ms = 1e3 * exec_s / rows
    res.put("pipeline.other_ms", row_ms - stage_ms, "ms")
    common.put_host(res, host, common.numpy_fft_ms(signals[0]),
                    1e3 * traced.busy / rows, untraced.latency_ms(False),
                    traced.latency_ms(False))
    res.zero(NOT_RUN)
    res.notes.update(traced_requests=len(second), batches=len(batches))


def run(res, seed: int, seconds: float, trace: bool, scale: str) -> None:
    asyncio.run(_main(res, seed, seconds, trace, scale))
