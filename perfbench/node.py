"""node_large: one planned SoiFFT, one caller, one transform at a time.

n = 2^20, S = 8 segments, mu = 5/4, B = 48, complex128, closed loop.
Convolution and the segment FFT take most of each transform and no
exchange or gateway code runs, so kernel work shows here undiluted.
"""

from __future__ import annotations

import numpy as np

import common
from common import Setup, complex_signals, median
from sim import SimRun

SIZES = {"full": 1 << 20, "tiny": 1 << 14}

#: Distinct seeded inputs the loop cycles through.
INPUTS = 4

#: Layers this workload does not run.
NOT_RUN = ("backend.compute_ms", "backend.exchange_ms",
           "backend.dispatch_ms", "backend.imbalance", "exchange.bytes",
           "exchange.gbs", "serve.exec_ms", "serve.wait_ms",
           "serve.coalesce_ratio", "serve.batch_rows", "serve.shed_frac",
           "serve.degraded_frac", "loadgen.late_ms", "verify.ms",
           "verify.detections")


def soi_params(n: int, n_procs: int = 1):
    from repro import SoiParams
    return SoiParams(n=n, n_procs=n_procs,
                     segments_per_process=8 // n_procs, n_mu=5, d_mu=4,
                     b=48)


def run(res, seed: int, seconds: float, trace: bool, scale: str) -> None:
    import repro.core.soi_single as soi_single
    from repro import SoiFFT
    from repro.telemetry import MetricsRegistry, SpanRecorder, Telemetry

    p = soi_params(SIZES[scale])
    xs = complex_signals(np.random.default_rng(seed), INPUTS, p.n)
    refs = np.fft.fft(xs, axis=1)
    tables = common.CallTimer(soi_single, "build_tables") if trace else None

    setup = Setup.cold(lambda: SoiFFT(p), lambda plan: plan(xs[0]))
    setup.put(res, trace, tables_s=tables.seconds if trace else 0.0)
    plan = setup.obj
    bound = common.STOPBAND_FACTOR * plan.expected_stopband
    errs: list[float] = []
    res.notes["rel_err_bound"] = bound

    def run_one(k: int) -> np.ndarray:
        return plan(xs[k])

    raw: list[float] = []
    walls = common.closed_loop(res, run_one, refs, bound,
                               seconds / 2 if trace else seconds, errs, raw)
    res.put("peak_rss_mb", common.peak_rss_mb(), "MB")
    wall = common.put_latency(res, p.n, walls, raw)

    if trace:
        recorder = SpanRecorder()
        plan.telemetry = Telemetry(recorder=recorder,
                                   metrics=MetricsRegistry())
        traced_raw: list[float] = []
        traced = common.closed_loop(res, run_one, refs, bound, seconds / 2,
                                    errs, traced_raw)
        plan.telemetry = None
        host = common.host_reference()
        stage_ms = common.put_stages(
            res, common.telemetry_seconds(recorder),
            common.stage_model(p, 16), len(traced), 1, host)
        res.put("pipeline.other_ms",
                1e3 * sum(traced_raw) / len(traced_raw) - stage_ms, "ms")
        res.notes["traced_transforms"] = len(traced)
        common.put_host(res, host, common.numpy_fft_ms(xs[0]), 1e3 * wall,
                        wall, median(traced))
        res.zero(NOT_RUN)

    twin = SimRun(p)
    if trace:
        twin.trace()
    y = twin.dist.assemble(twin(twin.dist.scatter(xs[0])))
    errs.append(common.rel_err(y, refs[0]))
    res.op(errs[-1] < bound)
    twin.put(res)
    res.put("rel_err", max(errs), "ratio")
    res.put("goodput_frac", res.goodput, "frac")
