"""Empirical plan tuning and wisdom (FFTW-style), with a persistent store.

The paper's "we use radix 8 and 16, case by case" (§5.2.4) is an
empirical statement: the best radix decomposition depends on the size and
the machine.  This module makes that choice measurable and persistent:

* :func:`candidate_radix_plans` enumerates sensible decompositions;
* :func:`tune` times them on representative data and records the winner;
* :class:`Wisdom` stores winners and serializes to/from versioned JSON,
  so a deployment tunes once and replans instantly afterwards.

Beyond the legacy (n, sign) -> radices map, the store holds two richer
entry kinds written by :mod:`repro.fft.autotune`:

* **kernel** entries — ``(n, sign, dtype, machine)`` -> (strategy,
  radices), consulted transparently by the plan cache
  (:func:`repro.fft.plan.get_plan`) once installed via
  :func:`repro.fft.plan.set_active_wisdom`;
* **soi** entries — ``(n, dtype, machine)`` -> a full SOI pipeline
  configuration (segments, mu, B, conv inner kernel).

Entries are keyed by a :func:`machine_fingerprint` so wisdom files are
portable: an exact-machine entry wins, but a foreign machine's entry is
still a *valid* plan (just possibly not optimal) and is used as a
fallback — the AccFFT portability argument.  Lookups publish
``repro_fft_wisdom_{hits,misses}_total`` counters on the default metrics
registry.

Persistence is crash- and fork-safe: :meth:`Wisdom.save` merges with the
on-disk store under a lock file and replaces atomically, and
:meth:`Wisdom.load` falls back to an empty store (with a warning) on
truncated, garbled, or version-bumped files — bad wisdom must never take
a service down, only slow it to defaults.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from repro.fft.bitops import is_power_of_two, mixed_radix_factors
from repro.fft.stockham import StockhamPlan

__all__ = ["WISDOM_VERSION", "Wisdom", "candidate_radix_plans",
           "machine_fingerprint", "tune"]

#: Schema version of the serialized store.  Readers reject newer files
#: (a future format may not be interpretable); :meth:`Wisdom.load` turns
#: that rejection into a warning-plus-empty-store fallback.
WISDOM_VERSION = 2

#: Strategies a kernel entry may name (must stay in sync with
#: repro.fft.plan's dispatch).
KERNEL_STRATEGIES = ("stockham", "bluestein")


def machine_fingerprint() -> str:
    """Short stable fingerprint of the executing machine/toolchain.

    Wisdom is keyed by this so a store tuned on one machine never
    silently masquerades as tuned-for-here, while still being portable
    (foreign entries are used as fallbacks by :meth:`Wisdom.lookup_kernel`).
    """
    parts = (platform.machine(), platform.system(),
             platform.python_implementation(),
             ".".join(platform.python_version_tuple()[:2]),
             np.__version__, str(os.cpu_count() or 0))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def candidate_radix_plans(n: int) -> list[list[int]]:
    """Reasonable radix decompositions of *n* (greedy ladders).

    Power-of-two sizes get the radix-16/8/4/2 greedy ladders; other smooth
    sizes get the prime factorization (unique up to order) in ascending
    and descending order.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    out: list[list[int]] = []
    if is_power_of_two(n):
        for ladder in ((4, 2), (8, 4, 2), (16, 8, 4, 2), (2,)):
            m, plan = n, []
            while m > 1:
                for r in ladder:
                    if m % r == 0:
                        plan.append(r)
                        m //= r
                        break
            if plan not in out:
                out.append(plan)
        return out
    factors = mixed_radix_factors(n)
    if factors is None:
        raise ValueError(f"{n} is not smooth over (2,3,5,7); Bluestein "
                         f"handles it without radix tuning")
    out.append(factors)
    if factors[::-1] != factors:
        out.append(factors[::-1])
    return out


def _time_plan(plan: StockhamPlan, x: np.ndarray, reps: int) -> float:
    plan(x)  # warm caches and twiddles
    t0 = time.perf_counter()
    for _ in range(reps):
        plan(x)
    return (time.perf_counter() - t0) / reps


def tune(n: int, sign: int = -1, batch: int = 4, reps: int = 3,
         rng_seed: int = 0) -> tuple[list[int], dict[str, float]]:
    """Measure all candidates; return (best_radices, timings_by_plan)."""
    rng = np.random.default_rng(rng_seed)
    x = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
    timings: dict[str, float] = {}
    best: tuple[float, list[int]] | None = None
    for radices in candidate_radix_plans(n):
        plan = StockhamPlan(n, sign, radices=radices)
        t = _time_plan(plan, x, reps)
        timings[",".join(map(str, radices))] = t
        if best is None or t < best[0]:
            best = (t, radices)
    assert best is not None
    return best[1], timings


def _metrics():
    from repro.telemetry.metrics import get_registry
    return get_registry()


def _validate_kernel(entry: dict) -> dict:
    n = int(entry["n"])
    strategy = entry["strategy"]
    if strategy not in KERNEL_STRATEGIES:
        raise ValueError(f"corrupt wisdom: unknown strategy {strategy!r}")
    radices = [int(r) for r in entry.get("radices") or []]
    if strategy == "stockham" and int(np.prod(radices)) != n:
        raise ValueError(f"corrupt wisdom kernel entry for n={n}: radices "
                         f"{radices} do not multiply to n")
    return {"kind": "kernel", "n": n, "sign": int(entry["sign"]),
            "dtype": str(entry["dtype"]), "machine": str(entry["machine"]),
            "strategy": strategy, "radices": radices,
            "tuned_s": entry.get("tuned_s"),
            "default_s": entry.get("default_s")}


def _validate_soi(entry: dict) -> dict:
    n = int(entry["n"])
    seg, n_mu, d_mu = (int(entry["segments"]), int(entry["n_mu"]),
                       int(entry["d_mu"]))
    if seg < 1 or n % seg or n_mu <= d_mu:
        raise ValueError(f"corrupt wisdom soi entry for n={n}")
    return {"kind": "soi", "n": n, "dtype": str(entry["dtype"]),
            "machine": str(entry["machine"]), "segments": seg,
            "n_mu": n_mu, "d_mu": d_mu, "b": int(entry["b"]),
            "tuned_s": entry.get("tuned_s"),
            "default_s": entry.get("default_s")}


#: Lock stripes for the wisdom lookup path.  Keys hash onto a stripe by
#: problem identity (machine excluded, so an exact entry and its foreign
#: fallbacks share a stripe and one lock covers the whole lookup).
_N_STRIPES = 8


class Wisdom:
    """Persistent store of tuned plan choices (legacy, kernel, and SOI).

    Thread- and fork-safe: the kernel/SOI lookup path is **lock-striped**
    — entries hash onto :data:`_N_STRIPES` independent stripes, each
    behind its own lock, so concurrent plan lookups from the serving
    gateway's executor threads do not serialize on one global lock.
    Structural operations (merge, serialization) take every stripe lock
    in order.  All locks are replaced (never shared) when the instance
    crosses a fork or a pickle boundary."""

    def __init__(self) -> None:
        self._best: dict[tuple[int, int], list[int]] = {}
        #: stripe -> {(n, sign, dtype, machine) -> kernel entry dict}.
        self._kernel_stripes: list[dict[tuple[int, int, str, str], dict]] = [
            {} for _ in range(_N_STRIPES)]
        #: stripe -> {(n, dtype, machine) -> soi entry dict}.
        self._soi_stripes: list[dict[tuple[int, str, str], dict]] = [
            {} for _ in range(_N_STRIPES)]
        self._stripe_hits = [0] * _N_STRIPES
        self._stripe_misses = [0] * _N_STRIPES
        self._make_locks()
        self._pid = os.getpid()

    def _make_locks(self) -> None:
        self._lock = threading.Lock()  # legacy entries + structural ops
        self._stripe_locks = [threading.Lock() for _ in range(_N_STRIPES)]

    @property
    def hits(self) -> int:
        """Lookup hits, aggregated across stripes."""
        return sum(self._stripe_hits)

    @property
    def misses(self) -> int:
        """Lookup misses, aggregated across stripes."""
        return sum(self._stripe_misses)

    @staticmethod
    def _stripe_of(n: int, sign: int | None, dtype_name: str) -> int:
        return hash((n, sign, dtype_name)) % _N_STRIPES

    def _check_pid(self) -> None:
        # a forked child may inherit any lock in a locked state; give
        # each process its own set
        if self._pid != os.getpid():
            self._make_locks()
            self._pid = os.getpid()

    def _guard(self) -> threading.Lock:
        """The coarse lock (legacy entries, structural ops), PID-guarded."""
        self._check_pid()
        return self._lock

    def _stripe_guard(self, i: int) -> threading.Lock:
        self._check_pid()
        return self._stripe_locks[i]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle
        del state["_stripe_locks"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_kernels" in state:  # pickled by a pre-stripe build
            self._kernel_stripes = [{} for _ in range(_N_STRIPES)]
            self._soi_stripes = [{} for _ in range(_N_STRIPES)]
            self._stripe_hits = [0] * _N_STRIPES
            self._stripe_misses = [0] * _N_STRIPES
            for k, e in state.pop("_kernels").items():
                self._kernel_stripes[self._stripe_of(k[0], k[1], k[2])][k] = e
            for k, e in state.pop("_soi").items():
                self._soi_stripes[self._stripe_of(k[0], None, k[1])][k] = e
            self.__dict__.pop("_kernels", None)
            self.__dict__.pop("_soi", None)
        self._make_locks()
        self._pid = os.getpid()

    def __len__(self) -> int:
        return (len(self._best)
                + sum(len(s) for s in self._kernel_stripes)
                + sum(len(s) for s in self._soi_stripes))

    def __contains__(self, key: tuple[int, int]) -> bool:
        return tuple(key) in self._best

    def learn(self, n: int, sign: int = -1, **tune_kwargs) -> list[int]:
        """Tune size *n* (if unknown) and remember the winner."""
        key = (n, sign)
        with self._guard():
            if key not in self._best:
                best, _ = tune(n, sign, **tune_kwargs)
                self._best[key] = best
            return self._best[key]

    def plan(self, n: int, sign: int = -1) -> StockhamPlan:
        """A plan using the remembered (or freshly tuned) decomposition."""
        return StockhamPlan(n, sign, radices=self.learn(n, sign))

    # -- autotuner entries -------------------------------------------------

    def record_kernel(self, n: int, sign: int, dtype, machine: str,
                      strategy: str, radices=None, *,
                      tuned_s: float | None = None,
                      default_s: float | None = None) -> dict:
        """Remember an autotuned kernel plan choice."""
        entry = _validate_kernel({
            "n": n, "sign": sign, "dtype": np.dtype(dtype).name,
            "machine": machine, "strategy": strategy,
            "radices": list(radices or []),
            "tuned_s": tuned_s, "default_s": default_s})
        i = self._stripe_of(entry["n"], entry["sign"], entry["dtype"])
        with self._stripe_guard(i):
            self._kernel_stripes[i][
                (entry["n"], entry["sign"], entry["dtype"],
                 entry["machine"])] = entry
        return entry

    def lookup_kernel(self, n: int, sign: int, dtype,
                      machine: str | None = None) -> dict | None:
        """Tuned kernel entry for (n, sign, dtype), preferring *machine*.

        Exact-machine entries win; otherwise any machine's entry for the
        same problem is returned (a valid, if possibly sub-optimal, plan).
        Publishes hit/miss counters.
        """
        dtype_name = np.dtype(dtype).name
        i = self._stripe_of(n, sign, dtype_name)
        with self._stripe_guard(i):
            stripe = self._kernel_stripes[i]
            entry = None
            if machine is not None:
                entry = stripe.get((n, sign, dtype_name, machine))
            if entry is None:
                for (kn, ks, kd, _km), e in stripe.items():
                    if (kn, ks, kd) == (n, sign, dtype_name):
                        entry = e
                        break
            if entry is not None:
                self._stripe_hits[i] += 1
            else:
                self._stripe_misses[i] += 1
        m = _metrics()
        if entry is not None:
            m.counter("repro_fft_wisdom_hits_total",
                      "plan lookups answered from wisdom").inc()
        else:
            m.counter("repro_fft_wisdom_misses_total",
                      "plan lookups that fell back to defaults").inc()
        return entry

    def record_soi(self, n: int, dtype, machine: str, *, segments: int,
                   n_mu: int, d_mu: int, b: int,
                   tuned_s: float | None = None,
                   default_s: float | None = None) -> dict:
        """Remember an autotuned SOI pipeline configuration."""
        entry = _validate_soi({
            "n": n, "dtype": np.dtype(dtype).name, "machine": machine,
            "segments": segments, "n_mu": n_mu, "d_mu": d_mu, "b": b,
            "tuned_s": tuned_s,
            "default_s": default_s})
        i = self._stripe_of(entry["n"], None, entry["dtype"])
        with self._stripe_guard(i):
            self._soi_stripes[i][
                (entry["n"], entry["dtype"], entry["machine"])] = entry
        return entry

    def lookup_soi(self, n: int, dtype,
                   machine: str | None = None) -> dict | None:
        """Tuned SOI configuration for (n, dtype), preferring *machine*."""
        dtype_name = np.dtype(dtype).name
        i = self._stripe_of(n, None, dtype_name)
        with self._stripe_guard(i):
            stripe = self._soi_stripes[i]
            entry = None
            if machine is not None:
                entry = stripe.get((n, dtype_name, machine))
            if entry is None:
                for (kn, kd, _km), e in stripe.items():
                    if (kn, kd) == (n, dtype_name):
                        entry = e
                        break
            if entry is not None:
                self._stripe_hits[i] += 1
            else:
                self._stripe_misses[i] += 1
        return entry

    # -- striped-map helpers (callers hold no locks) -----------------------

    def _all_kernels(self) -> dict[tuple[int, int, str, str], dict]:
        """Snapshot of every kernel entry across stripes."""
        out: dict[tuple[int, int, str, str], dict] = {}
        for i in range(_N_STRIPES):
            with self._stripe_guard(i):
                out.update(self._kernel_stripes[i])
        return out

    def _all_soi(self) -> dict[tuple[int, str, str], dict]:
        """Snapshot of every SOI entry across stripes."""
        out: dict[tuple[int, str, str], dict] = {}
        for i in range(_N_STRIPES):
            with self._stripe_guard(i):
                out.update(self._soi_stripes[i])
        return out

    def merge(self, other: "Wisdom") -> "Wisdom":
        """Fold *other*'s entries into this store (ours win on conflict)."""
        with self._guard():
            for key, val in other._best.items():
                self._best.setdefault(key, val)
        for key, val in other._all_kernels().items():
            i = self._stripe_of(key[0], key[1], key[2])
            with self._stripe_guard(i):
                self._kernel_stripes[i].setdefault(key, val)
        for key, val in other._all_soi().items():
            i = self._stripe_of(key[0], None, key[1])
            with self._stripe_guard(i):
                self._soi_stripes[i].setdefault(key, val)
        return self

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        kernels = self._all_kernels()
        soi = self._all_soi()
        entries: list[dict] = []
        entries += [{"kind": "radix", "n": n, "sign": s, "radices": r}
                    for (n, s), r in sorted(self._best.items())]
        entries += [kernels[k] for k in sorted(kernels)]
        entries += [soi[k] for k in sorted(soi)]
        return json.dumps({"version": WISDOM_VERSION, "entries": entries},
                          indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Wisdom":
        """Parse a store; raises ``ValueError`` on any corruption.

        Accepts both the v1 bare-list format (radix entries only) and the
        current versioned envelope.  Use :meth:`load` for the tolerant
        warn-and-fall-back behavior.
        """
        payload = json.loads(text)
        w = cls()
        if isinstance(payload, list):  # v1: bare radix list
            entries = [{"kind": "radix", **e} for e in payload]
        elif isinstance(payload, dict):
            version = payload.get("version")
            if not isinstance(version, int) or version > WISDOM_VERSION:
                raise ValueError(f"unsupported wisdom version {version!r} "
                                 f"(this build reads <= {WISDOM_VERSION})")
            entries = payload.get("entries", [])
        else:
            raise ValueError("wisdom payload must be a list or object")
        for entry in entries:
            kind = entry.get("kind", "radix")
            if kind == "radix":
                n, sign = int(entry["n"]), int(entry["sign"])
                radices = entry["radices"]
                if int(np.prod(radices)) != n:
                    raise ValueError(f"corrupt wisdom entry for n={n}")
                w._best[(n, sign)] = list(map(int, radices))
            elif kind == "kernel":
                e = _validate_kernel(entry)
                i = w._stripe_of(e["n"], e["sign"], e["dtype"])
                w._kernel_stripes[i][
                    (e["n"], e["sign"], e["dtype"], e["machine"])] = e
            elif kind == "soi":
                e = _validate_soi(entry)
                i = w._stripe_of(e["n"], None, e["dtype"])
                w._soi_stripes[i][(e["n"], e["dtype"], e["machine"])] = e
            else:
                raise ValueError(f"corrupt wisdom: unknown entry kind "
                                 f"{kind!r}")
        return w

    # -- file persistence --------------------------------------------------

    def save(self, path, merge: bool = True) -> Path:
        """Persist to *path*: lock, merge with the on-disk store, replace.

        The write is atomic (temp file + ``os.replace``) so readers never
        see a torn file; the lock file serializes concurrent writers (from
        forked or spawned processes) so merges do not lose entries.  A
        corrupt on-disk store is overwritten rather than crashed on.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock = path.with_suffix(path.suffix + ".lock")
        fd = _acquire_lockfile(lock)
        try:
            snapshot = Wisdom()
            snapshot.merge(self)
            if merge and path.exists():
                try:
                    snapshot.merge(Wisdom.from_json(
                        path.read_text(encoding="utf-8")))
                except (OSError, ValueError):
                    pass  # unreadable store: our entries replace it
            tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
            tmp.write_text(snapshot.to_json() + "\n", encoding="utf-8")
            os.replace(tmp, path)
        finally:
            _release_lockfile(lock, fd)
        return path

    @classmethod
    def load(cls, path, strict: bool = False) -> "Wisdom":
        """Read a store from disk, tolerating damage.

        A missing, truncated, garbled, or version-bumped file yields an
        empty store with a :class:`UserWarning` (defaults are always a
        correct answer; crashing on bad wisdom is not).  ``strict=True``
        re-raises instead.
        """
        path = Path(path)
        try:
            return cls.from_json(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            if strict:
                raise
            return cls()
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            if strict:
                raise
            warnings.warn(f"ignoring unusable wisdom file {path}: {exc}; "
                          f"falling back to default plans", UserWarning,
                          stacklevel=2)
            return cls()


def _acquire_lockfile(lock: Path, timeout: float = 5.0,
                      stale_after: float = 30.0) -> int | None:
    """O_EXCL lock-file loop (portable; no fcntl dependence).

    Returns the open fd, or None if the lock could not be taken before
    *timeout* — the caller proceeds unlocked (atomic replace still keeps
    the store un-torn; only merge completeness is at risk).  A lock older
    than *stale_after* seconds is considered abandoned and broken.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, str(os.getpid()).encode())
            return fd
        except FileExistsError:
            try:
                if time.time() - lock.stat().st_mtime > stale_after:
                    lock.unlink(missing_ok=True)
                    continue
            except OSError:
                pass
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.005)


def _release_lockfile(lock: Path, fd: int | None) -> None:
    if fd is None:
        return
    try:
        os.close(fd)
    finally:
        lock.unlink(missing_ok=True)
