"""Shared pieces of the benchmark: timing statistics, output checks,
memory, host references, provenance and the result record.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can set
the BLAS thread environment before numpy loads.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import time

import numpy as np

#: Cold builds timed per run; setup_s is their median.
SETUP_BUILDS = 3

#: Relative L2 error bound, as a multiple of the plan's design estimate
#: ``expected_stopband`` (the factor the repo's own accuracy tests use).
STOPBAND_FACTOR = 10.0


def now() -> float:
    return time.perf_counter()


def paper_flops(n: int) -> float:
    """The paper's operation count for one length-n transform."""
    return 5.0 * n * math.log2(n)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


#: The tail percentile.  On this benchmark's 2-cpu shared host p99 is set
#: by the three or four stalls a run happens to meet, and repeats only
#: within 25-45 % across runs of the same code; p90 repeats within ~10 %.
TAIL_Q = 0.90


def tail(values) -> tuple[float, float]:
    """(value, percentile): p90, or with fewer than 100 samples the
    highest percentile that has ten samples beyond it (never below p50)."""
    v = np.sort(np.asarray(values, dtype=float))
    q = max(min(TAIL_Q, 1.0 - 10.0 / len(v)), 0.5)
    i = math.ceil(q * len(v)) - 1
    return float(v[i]), 100.0 * q


def rel_err(y: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))


def complex_signals(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


# -- host drift ---------------------------------------------------------------

#: Iterations of the drift reference, a fixed pure-Python loop (about
#: 5 ms).  It allocates nothing, so unlike a numpy kernel its time does
#: not depend on the state of the process's heap.
DRIFT_REF_ITERATIONS = 50_000

#: The reference's median time on the host the benchmark was calibrated
#: on (2 vCPUs of a shared Intel Xeon, CPython 3.11).
DRIFT_REF_NOMINAL_S = 4.5e-3


def time_reference() -> float:
    """Seconds of one call of the drift reference."""
    t0 = now()
    s = 0
    for i in range(DRIFT_REF_ITERATIONS):
        s += i * i
    return now() - t0


class Drift:
    """Times at the host's nominal speed.

    The shared host's speed wanders by +-20 % over tens of seconds.  Right
    after each timed operation the benchmark times one call of a
    reference kernel that the program cannot touch, where the program's
    work runs, and scales the operation's seconds by nominal / measured
    reference time.  On the 2-cpu host, over 150 s, 10-second medians of
    wall time spread 12 % on ``dist_sim`` and 10 % on ``node_large``;
    corrected, 2.4 % and 6.5 %.
    """

    def __init__(self) -> None:
        #: times one reference call; ``dist_process`` times it in its
        #: workers, because a reference in the idle caller does not
        #: follow them (5 % spread measured, 6 % so corrected, 2 % with
        #: the workers' reference)
        self.reference = time_reference
        #: (perf_counter when taken, seconds) of every reference call
        self.samples: list[tuple[float, float]] = []

    def tick(self) -> float:
        """Time one reference call; returns nominal / measured."""
        at = now()
        seconds = self.reference()
        self.samples.append((at, seconds))
        return DRIFT_REF_NOMINAL_S / seconds

    def correct(self, seconds: float) -> float:
        """*seconds*, measured just now, at the nominal host speed."""
        return seconds * self.tick()

    def factor_at(self, t: float, window: float = 1.0) -> float:
        """nominal / the median reference time within *window* seconds
        of perf_counter time *t* (all samples if none is that close)."""
        near = [s for at, s in self.samples if abs(at - t) <= window]
        return DRIFT_REF_NOMINAL_S / median(
            near or [s for _, s in self.samples])

    def ref_ms(self) -> float:
        """Median reference time of the run so far."""
        return 1e3 * median([s for _, s in self.samples])


DRIFT = Drift()


def closed_loop(res, run_one, refs, bound: float, seconds: float,
                errs: list[float], raw: list[float] | None = None
                ) -> list[float]:
    """One caller, one transform at a time, cycling through the inputs,
    for *seconds*: ``run_one(k)`` transforms input k.  Outside the timed
    call, each output is checked against ``refs[k]`` (relative L2 error
    under *bound*).  Returns the seconds of each call at the nominal host
    speed; *raw*, if given, receives the measured ones."""
    walls: list[float] = []
    start = now()
    i = 0
    while i < len(refs) or now() - start < seconds:
        k = i % len(refs)
        t0 = now()
        y = run_one(k)
        wall = now() - t0
        walls.append(DRIFT.correct(wall))
        if raw is not None:
            raw.append(wall)
        errs.append(rel_err(y, refs[k]))
        res.op(errs[-1] < bound)
        i += 1
    return walls


def put_latency(res, n: int, walls: list[float], raw: list[float]) -> float:
    """gflops and the latency metrics of a closed loop from its corrected
    *walls*; returns their median.  The measured median and the median
    reference time are noted beside the result."""
    wall = median(walls)
    res.put("gflops", paper_flops(n) / wall / 1e9, "GF/s")
    res.put("latency_p50_ms", 1e3 * wall, "ms")
    tail_s, pct = tail(walls)
    res.put("latency_tail_ms", 1e3 * tail_s, "ms")
    res.notes.update(n=n, transforms=len(walls), tail_percentile=pct,
                     measured_p50_ms=1e3 * median(raw),
                     drift_ref_ms=DRIFT.ref_ms())
    return wall


class Setup:
    """Cold builds, each through its first call; ``setup_s`` is the median.

    Every build starts from an empty FFT plan cache and builds a fresh
    plan, service or backend (see :meth:`cold`).
    """

    def __init__(self) -> None:
        #: measured seconds of each build and of its first call
        self.build_s: list[float] = []
        self.first_s: list[float] = []
        #: each build through its first call, at the nominal host speed
        self.total_s: list[float] = []
        self.obj = None

    def add(self, build_s: float, first_s: float) -> None:
        """Record one cold build, just finished."""
        self.build_s.append(build_s)
        self.first_s.append(first_s)
        self.total_s.append(DRIFT.correct(build_s + first_s))

    @classmethod
    def cold(cls, build, first_call, teardown=None) -> "Setup":
        """Time :data:`SETUP_BUILDS` builds; the last one is kept in
        ``obj`` for the measured loop, earlier ones are torn down."""
        from repro.fft.plan import cache_clear
        setup = cls()
        for _ in range(SETUP_BUILDS):
            if setup.obj is not None and teardown is not None:
                teardown(setup.obj)
            setup.obj = None
            gc.collect()
            cache_clear()
            t0 = now()
            setup.obj = build()
            t1 = now()
            first_call(setup.obj)
            setup.add(t1 - t0, now() - t1)
        return setup

    def put(self, res, trace: bool, tables_s: float = 0.0,
            spawn_s: float = 0.0) -> None:
        """setup_s, and with tracing its measured split.  *tables_s* and
        *spawn_s* are totals over all builds, timed by wrappers inside
        ``build``; plan construction is the rest of ``build``."""
        res.put("setup_s", median(self.total_s), "s")
        if trace:
            k = len(self.total_s)
            res.put("setup.tables_s", tables_s / k, "s")
            res.put("setup.spawn_s", spawn_s / k, "s")
            res.put("setup.plans_s",
                    (sum(self.build_s) - tables_s - spawn_s) / k, "s")
            res.put("setup.first_call_s", sum(self.first_s) / k, "s")


class CallTimer:
    """Wall seconds of every call made through ``module.name``.

    The benchmark installs these around public functions as a layer's
    module sees them; the program itself carries no instrumentation.
    """

    def __init__(self, module, name: str):
        self.seconds = 0.0
        self.calls = 0
        fn = getattr(module, name)

        def timed(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += now() - t0
                self.calls += 1

        setattr(module, name, timed)


# -- memory -------------------------------------------------------------------

def _vm_hwm_kib(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def child_pids() -> list[int]:
    """Live child processes of this process (from /proc)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus live children), in MB."""
    try:
        kib = _vm_hwm_kib("self")
        if include_children:
            for pid in child_pids():
                try:
                    kib += _vm_hwm_kib(pid)
                except OSError:
                    continue
    except OSError:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


# -- host references ----------------------------------------------------------

def llc_bytes() -> int:
    """Largest CPU cache reported by sysfs (32 MiB if unreadable)."""
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in os.listdir(base):
            try:
                with open(f"{base}/{idx}/size") as f:
                    text = f.read().strip()
            except OSError:
                continue
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
            best = max(best, int(text.rstrip("KMG")) * mult)
    except OSError:
        pass
    return best or (32 << 20)


def host_reference(reps: int = 3) -> dict:
    """STREAM-style copy and triad over arrays of 4x the LLC, and zgemm.

    Best of *reps*, as STREAM reports.  Triad streams ``a = b + s*c``
    through a cache-sized temporary so it moves three arrays, not five.
    """
    llc = llc_bytes()
    n = 4 * llc // 8
    a = np.empty(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a.fill(0.0)
    nbytes = 8 * n
    copy = []
    for _ in range(reps):
        t0 = now()
        np.copyto(a, b)
        copy.append(2 * nbytes / (now() - t0) / 1e9)
    chunk = 1 << 17
    tmp = np.empty(chunk)
    triad = []
    for _ in range(reps):
        t0 = now()
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            t = tmp[: hi - lo]
            np.multiply(c[lo:hi], 3.0, out=t)
            np.add(b[lo:hi], t, out=a[lo:hi])
        triad.append(3 * nbytes / (now() - t0) / 1e9)
    del a, b, c, tmp
    gc.collect()
    m = 1024
    rng = np.random.default_rng(0)
    x = complex_signals(rng, m, m)
    y = complex_signals(rng, m, m)
    gemm = []
    for _ in range(reps):
        t0 = now()
        x @ y
        gemm.append(8.0 * m ** 3 / (now() - t0) / 1e9)
    return {
        "copy_gbs": max(copy),
        "triad_gbs": max(triad),
        "zgemm_gflops": max(gemm),
        "stream_array_bytes": nbytes,
        "llc_bytes": llc,
        "zgemm_n": m,
    }


def numpy_fft_ms(x: np.ndarray, seconds: float = 1.0) -> float:
    """Median milliseconds of ``numpy.fft.fft`` on *x* (at least five
    calls over *seconds*), at the nominal host speed like the program's
    own times."""
    walls: list[float] = []
    start = now()
    while len(walls) < 5 or now() - start < seconds:
        t0 = now()
        np.fft.fft(x)
        walls.append(DRIFT.correct(now() - t0))
    return 1e3 * median(walls)


def roof_gflops(flops: float, nbytes: float, host: dict) -> float:
    """Roofline ceiling of a kernel: min(compute roof, AI x bandwidth)."""
    return min(host["zgemm_gflops"], flops / nbytes * host["triad_gbs"])


def put_host(res, host: dict, numpy_ms: float, wall_ms: float,
             untraced_s: float, traced_s: float) -> None:
    """The host.* references and this workload's tracing overhead."""
    res.put("host.copy_gbs", host["copy_gbs"], "GB/s")
    res.put("host.triad_gbs", host["triad_gbs"], "GB/s")
    res.put("host.zgemm_gflops", host["zgemm_gflops"], "GF/s")
    res.put("host.numpy_fft_ms", numpy_ms, "ms")
    res.put("host.drift_ref_ms", DRIFT.ref_ms(), "ms")
    res.put("host.vs_numpy", wall_ms / numpy_ms, "ratio")
    res.put("trace.overhead_frac", traced_s / untraced_s - 1.0, "frac")
    res.notes["host"] = host


# -- pipeline stages ----------------------------------------------------------

#: Stage names as SoiFFT's telemetry hook reports them -> metric prefix.
STAGES = {"conv": "conv", "lane": "lane", "permute": "permute",
          "segment-fft": "segfft", "demod": "demod"}


def stage_model(p, itemsize: int) -> dict[str, tuple[float, float]]:
    """Flops and compulsory bytes of one transform's stages (whole
    problem, all ranks): the numerators of every stage rate."""
    n, n_over, s = p.n, p.n_oversampled, p.n_segments
    return {
        "conv": (p.conv_flops, itemsize * (n + p.b * s + n_over)),
        "lane": (p.lane_fft_flops, 2 * itemsize * n_over),
        "permute": (0.0, 2 * itemsize * n_over),
        "segfft": (p.local_fft_flops, 2 * itemsize * n_over),
        "demod": (0.0, itemsize * (n_over + n)),
    }


def put_stages(res, seconds: dict, work: dict, transforms: float,
               ranks: int, host: dict) -> float:
    """Per-stage ms per transform (mean over ranks), GF/s and GB/s per
    core, and roofline fractions.

    *seconds* maps a stage prefix to its measured seconds summed over
    ranks and transforms; *work* maps it to (flops, bytes) per transform.
    A stage missing from *seconds* is not separable on this workload and
    reads 0.  Returns the summed stage ms per transform.
    """
    total_ms = 0.0
    for stage in STAGES.values():
        secs = seconds.get(stage, 0.0)
        flops, nbytes = work.get(stage, (0.0, 1.0))
        ms = 1e3 * secs / (transforms * ranks)
        gflops = flops * transforms / secs / 1e9 if secs else 0.0
        gbs = nbytes * transforms / secs / 1e9 if secs else 0.0
        total_ms += ms
        res.put(f"{stage}.ms", ms, "ms")
        if stage in ("conv", "lane", "segfft"):
            res.put(f"{stage}.gflops", gflops, "GF/s")
        if stage in ("conv", "segfft"):
            res.put(f"{stage}.roof_frac",
                    gflops / roof_gflops(flops, nbytes, host), "frac")
        if stage in ("permute", "demod"):
            res.put(f"{stage}.gbs", gbs, "GB/s")
    return total_ms


def telemetry_seconds(recorder) -> dict[str, float]:
    """Stage seconds from the spans SoiFFT's telemetry hook records."""
    out: dict[str, float] = {}
    for span in recorder.charges:
        stage = STAGES.get(span.name.removeprefix("soi "))
        if stage is not None:
            out[stage] = out.get(stage, 0.0) + span.duration
    return out


# -- provenance and the result record -----------------------------------------

def provenance() -> dict:
    import scipy

    from repro.fft.wisdom import machine_fingerprint
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine_fingerprint": machine_fingerprint(),
    }


class Result:
    """Operations attempted and failed, plus the metrics of one run."""

    def __init__(self, units: dict[str, str]) -> None:
        #: metric name -> unit, as BENCHMARK.json declares them
        self.units = units
        self.attempted = 0
        self.failed = 0
        #: failed operations whose output was wrong (not merely late or shed)
        self.wrong = 0
        self.metrics: dict[str, dict] = {}
        #: sample counts, sizes and references printed beside the result
        self.notes: dict = {}

    def op(self, ok: bool, output_ok: bool | None = None) -> None:
        """Count one operation; *output_ok* (default *ok*) says whether
        its output passed the checks."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        if not (ok if output_ok is None else output_ok):
            self.wrong += 1

    def zero(self, names) -> None:
        """Layers this workload does not run read 0."""
        for name in names:
            self.put(name, 0.0, self.units[name])

    @property
    def goodput(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)

    def put(self, name: str, value: float, unit: str) -> None:
        if self.units.get(name) != unit:
            raise ValueError(f"{name}: unit {unit!r} is not the declared "
                             f"{self.units.get(name)!r}")
        if not math.isfinite(value):
            raise ValueError(f"{name}: {value} is not finite")
        self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self, names: list[str]) -> str:
        """The result line: exactly the metrics in *names*, in order."""
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not produced: {missing}")
        return json.dumps({
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: self.metrics[n] for n in names},
        })
