"""The asyncio serving gateway: concurrent admission, coalesced execution.

:class:`AsyncSoiGateway` is the traffic front end over the node-local
serving stack.  Requests arrive concurrently on the event loop; each one
runs through, in order:

1. **QoS admission** (:class:`~repro.serve.qos.QosPolicy`) — per-tenant
   rate limit and queue-share check; a noisy tenant sheds here before it
   can pressure anyone else.
2. **Cost-model admission** (the same
   :class:`~repro.resilience.server._Admission` the synchronous services
   use, now thread-safe) — picks the best ladder rung inside the
   class's window whose projected completion fits the deadline, or
   sheds as :class:`~repro.resilience.deadline.Overloaded`.
3. **Coalescing** (:class:`~repro.serve.coalesce.Coalescer`) — the
   request joins the open window for its ``(n, dtype, rung)``; the
   window flushes when full (``max_batch``) or when ``window_seconds``
   elapse, whichever is first.
4. **Batched execution** — one ``SoiFFT.batch()`` call per window, run
   on an executor thread so the loop keeps accepting; the plan, twiddle
   tables, and pooled workspaces amortize over the whole window.  A
   window whose calibrated projection fits in one GIL switch interval
   runs inline on the loop instead (see ``AsyncSoiGateway._inline``).
   Row *i* of the result is request *i*'s spectrum, bitwise identical
   to serving it alone (the stage kernels' batch invariance).
5. **Per-request completion** — each member's own
   :class:`~repro.resilience.deadline.Deadline` is checked, its budget
   itemized (``"compute"`` share + ``"coalesce wait"``), and its future
   resolved to a :class:`~repro.resilience.server.ServeResult` or one of
   the contract exceptions.

The four-outcome contract survives coalescing: a batch that fails
mid-execution does not fail its members as a unit — each member is
retried alone one rung down its viable window (outcome ``"degraded"``)
or, if no cheaper rung exists or the retry also fails, shed
individually (:class:`Overloaded`); members whose deadline has passed
raise :class:`DeadlineExceeded`.  Every submitted request resolves to
exactly one of the four outcomes (property-tested under chaos).

The wall-clock/loop split: coalescing *timers* always run on the event
loop's clock, while deadlines, latencies, and budget accounting use the
injectable ``clock`` — so tests drive time deterministically without
stalling the loop.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.soi_single import SoiFFT
from repro.machine.spec import XEON_PHI_SE10, MachineSpec
from repro.perfmodel.model import soi_request_breakdown
from repro.resilience.deadline import Deadline, DeadlineExceeded, Overloaded
from repro.resilience.ladder import DegradationLadder, DegradationReport
from repro.resilience.server import ServeResult, _Admission
from repro.serve.coalesce import (
    CoalesceKey,
    Coalescer,
    PendingRequest,
    itemize_batch,
    split_rows,
    stack_requests,
)
from repro.serve.qos import QosPolicy
from repro.telemetry.metrics import get_registry

__all__ = ["AsyncSoiGateway", "serve_requests"]


class AsyncSoiGateway:
    """Asyncio front end coalescing same-shape requests into ``batch()``.

    Parameters
    ----------
    ladder:
        The :class:`DegradationLadder` every request maps onto (one
        problem size per gateway).
    qos:
        A :class:`QosPolicy`; default is the stock three-tier policy.
    queue_limit / calibration_gain / calibration / machine:
        Admission-control knobs, as for
        :class:`~repro.resilience.server.SoiService`.
    max_batch / window_seconds:
        Coalescing bounds: a window flushes at ``max_batch`` members or
        after ``window_seconds`` on the event loop, whichever is first.
    clock:
        Injectable time source for deadlines/latency/budget accounting.
    recorder:
        Optional :class:`~repro.telemetry.SpanRecorder`; each executed
        window records a ``"coalesce"``-kind span carrying its row count.
    verify:
        Arm ABFT on the per-rung plans (as for :class:`SoiFFT`).
    executor:
        Optional executor for batch execution (default: a private
        2-thread pool, shut down by :meth:`close`).
    fault_injector:
        Test/chaos hook ``(key, members) -> None`` invoked where each
        batch executes, just before it does; an exception it
        raises is handled exactly like a mid-batch execution failure.
    """

    def __init__(self, ladder: DegradationLadder, *,
                 qos: QosPolicy | None = None,
                 machine: MachineSpec = XEON_PHI_SE10,
                 queue_limit: int = 64, max_batch: int = 32,
                 window_seconds: float = 2e-3, clock=time.monotonic,
                 calibration_gain: float = 0.3, calibration=None,
                 metrics=None, recorder=None, verify=False,
                 executor=None, fault_injector=None):
        self.ladder = ladder
        self.machine = machine
        self.clock = clock
        self.qos = QosPolicy() if qos is None else qos
        self.metrics = get_registry() if metrics is None else metrics
        self.recorder = recorder
        self.calibration = calibration
        self.verify = verify
        self.fault_injector = fault_injector
        self.admission = _Admission(ladder, queue_limit, calibration_gain,
                                    metrics=self.metrics)
        self.coalescer = Coalescer(max_batch=max_batch,
                                   window_seconds=window_seconds)
        self._plans: dict[int, SoiFFT] = {}
        self._plans_lock = threading.Lock()
        # SoiFFT plans reuse pooled workspaces and are NOT safe under
        # concurrent batch() calls: one execution lock per rung keeps
        # same-plan batches serial while different rungs still overlap.
        self._plan_exec_locks: dict[int, threading.Lock] = {}
        self._own_executor = executor is None
        self.executor = (ThreadPoolExecutor(max_workers=2)
                         if executor is None else executor)
        #: set once a measured batch has calibrated the cost model
        self._calibrated = False
        self._timers: dict[CoalesceKey, asyncio.TimerHandle] = {}
        self._flushes: set[asyncio.Task] = set()
        self._closed = False

    # -- plans -------------------------------------------------------------

    def plan(self, rung_index: int) -> SoiFFT:
        """The lazily built per-rung plan (thread-safe get-or-create)."""
        with self._plans_lock:
            plan = self._plans.get(rung_index)
        if plan is None:
            rung = self.ladder[rung_index]
            plan = SoiFFT(rung.params, dtype=rung.dtype, verify=self.verify)
            with self._plans_lock:
                plan = self._plans.setdefault(rung_index, plan)
        return plan

    def _exec_lock(self, rung_index: int) -> threading.Lock:
        with self._plans_lock:
            lock = self._plan_exec_locks.get(rung_index)
            if lock is None:
                lock = self._plan_exec_locks[rung_index] = threading.Lock()
            return lock

    def _project(self, rung, batch: int) -> float:
        br = soi_request_breakdown(rung.params, self.machine,
                                   itemsize=rung.dtype.itemsize,
                                   batch=batch)
        if self.calibration is not None:
            return self.calibration.total(br)
        return sum(br.values())

    # -- submission --------------------------------------------------------

    async def submit(self, x: np.ndarray, *, tenant: str = "default",
                     deadline_seconds: float,
                     min_snr_db: float = 0.0) -> ServeResult:
        """Serve one 1-D transform; exactly one of four things happens.

        Returns a :class:`ServeResult` (outcome ``"ok"``/``"degraded"``)
        or raises :class:`Overloaded` / :class:`DeadlineExceeded`.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        x = np.asarray(x)
        n = self.ladder[0].params.n
        if x.ndim != 1 or x.size != n:
            raise ValueError(f"expected a 1-D signal of length {n}")
        now = float(self.clock())
        # 1. QoS: the noisy/low-tier shed point.
        try:
            qos = self.qos.admit(tenant, now, self.admission.queued,
                                 self.admission.queue_limit)
        except Overloaded:
            self.admission.record_shed()
            raise
        # 2. Cost model, restricted to the class's ladder window.
        window = qos.viable_window(self.ladder, min_snr_db)
        try:
            idx, rung, projected = self.admission.admit(
                now, deadline_seconds, max(min_snr_db, qos.min_snr_db),
                lambda r: self._project(r, 1), viable=window)
        except Overloaded:
            self.qos.record_outcome(tenant, "overloaded")
            raise
        deadline = Deadline(deadline_seconds, clock=self.clock, start=now)
        req = PendingRequest(
            x=x, tenant=tenant, deadline=deadline, min_snr_db=min_snr_db,
            arrival=now, rung_index=idx, projected=projected,
            enqueued_at=now,
            future=asyncio.get_running_loop().create_future())
        # 3. Coalesce.
        key = CoalesceKey(n=n, dtype=np.dtype(rung.dtype).name,
                          rung_index=idx)
        state = self.coalescer.add(key, req)
        self._gauge_pending()
        if state == "full":
            self._cancel_timer(key)
            self._spawn_flush(key)
        elif state == "first":
            loop = asyncio.get_running_loop()
            self._timers[key] = loop.call_later(
                self.coalescer.window_seconds, self._spawn_flush, key)
        try:
            result = await req.future
        except DeadlineExceeded:
            self.qos.record_outcome(tenant, "deadline_exceeded")
            raise
        except Overloaded:
            self.qos.record_outcome(tenant, "overloaded")
            raise
        self.qos.record_outcome(tenant, result.outcome,
                                coalesced_with=req.coalesced_with)
        return result

    # -- window execution --------------------------------------------------

    def _cancel_timer(self, key: CoalesceKey) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()

    def _spawn_flush(self, key: CoalesceKey) -> None:
        """Close the window *synchronously* (so ``max_batch`` truly
        bounds it even while the flush task waits its turn), then
        execute it as a task."""
        self._timers.pop(key, None)
        members = self.coalescer.take(key)
        self._gauge_pending()
        if not members:
            return
        task = asyncio.get_running_loop().create_task(
            self._flush_members(key, members))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    def _execute_batch(self, key: CoalesceKey,
                       members: list[PendingRequest]):
        """One ``batch()`` for the window; *elapsed* excludes the wait
        for another batch of the same rung."""
        plan = self.plan(key.rung_index)
        if self.fault_injector is not None:
            self.fault_injector(key, members)
        xs = stack_requests(members, plan.dtype)
        with self._exec_lock(key.rung_index):
            t0 = float(self.clock())
            y = plan.batch(xs)
            elapsed = float(self.clock()) - t0
        return split_rows(y, members), elapsed

    def _inline(self, key: CoalesceKey, raw_seconds: float) -> bool:
        """Whether the window's batch runs on the event loop itself.

        On an executor thread the batch and the loop take turns on the
        GIL: each numpy call of the batch releases it, and a loop
        callback that takes it then holds the batch off until the loop
        blocks again (up to a switch interval), once per wake-up.  A
        batch projected (model x measured scale) to finish within one
        switch interval pays more for that hand-off than the loop gains
        from running beside it, so it runs inline — unless its plan is
        not built yet or another batch of its rung holds it.
        """
        return (self._calibrated
                and self.admission.scaled(raw_seconds)
                <= sys.getswitchinterval()
                and key.rung_index in self._plans
                and not self._exec_lock(key.rung_index).locked())

    def _reason(self, rung_index: int, tenant: str) -> str:
        if rung_index == 0:
            return "full quality"
        if self.qos.class_of(tenant).best_rung >= rung_index > 0:
            return "qos class window"
        return "deadline pressure"

    def _complete(self, m: PendingRequest, y: np.ndarray, rung_index: int,
                  reason: str) -> None:
        """Resolve one member: ok/degraded, or DeadlineExceeded."""
        if m.future.done():
            return
        try:
            m.deadline.check("completion")
        except DeadlineExceeded as exc:
            self.admission.record_overrun()
            m.future.set_exception(exc)
            return
        latency = float(self.clock()) - m.arrival
        self.admission.record_served(rung_index, latency)
        rung = self.ladder[rung_index]
        report = DegradationReport(rung_index=rung_index, rung=rung,
                                   reason=reason, min_snr_db=m.min_snr_db)
        m.future.set_result(ServeResult(
            y=y, outcome="degraded" if report.degraded else "ok",
            report=report, latency_seconds=latency,
            deadline_seconds=m.deadline.seconds))

    async def _degrade_members(self, key: CoalesceKey,
                               members: list[PendingRequest],
                               exc: Exception) -> None:
        """Batch failed: each member degrades or sheds *individually*.

        A member whose deadline already passed raises
        :class:`DeadlineExceeded`; otherwise it retries alone one rung
        down its class's viable window; with no cheaper rung (or a
        failed retry) it sheds as :class:`Overloaded`.  No member ever
        resolves twice, so the four-outcome contract holds per request.
        """
        loop = asyncio.get_running_loop()
        reason = f"batch failure ({type(exc).__name__})"
        for m in members:
            if m.future.done():
                continue
            try:
                m.deadline.check("after batch failure")
            except DeadlineExceeded as overrun:
                self.admission.record_overrun()
                m.future.set_exception(overrun)
                continue
            window = self.qos.class_of(m.tenant).viable_window(
                self.ladder, m.min_snr_db)
            cheaper = [i for i, _ in window if i > key.rung_index]
            if not cheaper:
                m.future.set_exception(Overloaded(
                    f"shed after batch failure: {exc}"))
                self.admission.record_shed()
                continue
            retry_idx = cheaper[0]
            try:
                started_at = float(self.clock())
                ys, elapsed = await loop.run_in_executor(
                    self.executor, self._execute_batch,
                    CoalesceKey(key.n, np.dtype(
                        self.ladder[retry_idx].dtype).name, retry_idx),
                    [m])
            except Exception as exc2:
                m.future.set_exception(Overloaded(
                    f"shed after failed degrade retry: {exc2}"))
                self.admission.record_shed()
                continue
            itemize_batch([m], started_at, elapsed)
            self._complete(m, ys[0], retry_idx, reason)

    # -- telemetry ---------------------------------------------------------

    def _gauge_pending(self) -> None:
        self.metrics.gauge(
            "repro_serve_coalesce_pending",
            "requests waiting in open coalescing windows"
        ).set(self.coalescer.pending)

    def _record_batch(self, key: CoalesceKey, members: list[PendingRequest],
                      started_at: float, elapsed: float) -> None:
        m = self.metrics
        m.counter("repro_serve_coalesce_batches_total",
                  "coalesced batch() executions").inc()
        m.counter("repro_serve_coalesce_requests_total",
                  "requests served through coalesced batches"
                  ).inc(len(members))
        m.histogram("repro_serve_coalesce_rows",
                    "window sizes of executed batches",
                    bounds=(1, 2, 4, 8, 16, 32, 64)).observe(len(members))
        if self.recorder is not None:
            self.recorder.record(
                0, f"coalesce n={key.n} rung={key.rung_index}", "serve",
                started_at, started_at + elapsed, kind="coalesce",
                attributes={"rows": len(members),
                            "dtype": key.dtype,
                            "tenants": sorted({x.tenant
                                               for x in members})})

    # -- lifecycle ---------------------------------------------------------

    async def drain(self) -> None:
        """Flush every open window and wait for in-flight batches."""
        for key, members in self.coalescer.take_all():
            self._cancel_timer(key)
            task = asyncio.get_running_loop().create_task(
                self._flush_members(key, members))
            self._flushes.add(task)
            task.add_done_callback(self._flushes.discard)
        while self._flushes:
            await asyncio.gather(*list(self._flushes),
                                 return_exceptions=True)

    async def _flush_members(self, key, members) -> None:
        """Execute one closed window: batch, itemize, resolve members."""
        loop = asyncio.get_running_loop()
        raw = self._project(self.ladder[key.rung_index], len(members))
        started_at = float(self.clock())
        try:
            if self._inline(key, raw):
                ys, elapsed = self._execute_batch(key, members)
            else:
                ys, elapsed = await loop.run_in_executor(
                    self.executor, self._execute_batch, key, members)
        except Exception as exc:
            await self._degrade_members(key, members, exc)
            return
        finally:
            for m in members:
                self.admission.release(m.projected)
        self._record_batch(key, members, started_at, elapsed)
        itemize_batch(members, started_at, elapsed)
        self.admission.calibrate(raw, elapsed)
        self._calibrated |= raw > 0 and elapsed > 0
        for m, y in zip(members, ys):
            self._complete(m, y, key.rung_index,
                           self._reason(key.rung_index, m.tenant))

    async def close(self) -> None:
        """Drain, then release the executor (idempotent)."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        if self._own_executor:
            self.executor.shutdown(wait=True)

    def stats(self) -> dict:
        """Gateway-level counters (JSON-ready)."""
        return {
            "served": self.admission.served_count,
            "shed": self.admission.shed_count,
            "queued": self.admission.queued,
            "batches": self.coalescer.batches,
            "coalesced_requests": self.coalescer.coalesced_requests,
            "coalesce_ratio": round(self.coalescer.ratio, 3),
            "tenants": self.qos.snapshot(),
        }


def serve_requests(gateway: AsyncSoiGateway, requests,
                   *, concurrent: bool = True) -> list:
    """Synchronous convenience driver: submit *requests* and collect
    outcomes.

    Each request is a dict of :meth:`AsyncSoiGateway.submit` kwargs plus
    ``"x"``.  Returns one entry per request, in order: the
    :class:`ServeResult`, or the :class:`Overloaded` /
    :class:`DeadlineExceeded` instance that ended it.  ``concurrent``
    submits everything at once (the coalescing-friendly shape);
    otherwise requests run strictly one at a time (the solo baseline).
    """

    out: list = []

    async def _run():
        async def one(r):
            r = dict(r)
            x = r.pop("x")
            try:
                return await gateway.submit(x, **r)
            except (Overloaded, DeadlineExceeded) as exc:
                return exc

        try:
            if concurrent:
                out.extend(await asyncio.gather(*[one(r)
                                                  for r in requests]))
            else:
                for r in requests:
                    out.append(await one(r))
        finally:
            await gateway.drain()

    # results travel via the closure, NOT the main-task result: CPython's
    # asyncio.run teardown reprs the SIGINT handler (a partial capturing
    # the main task), and a done task's repr includes its result — for a
    # list of spectra that is milliseconds of numpy pretty-printing.
    asyncio.run(_run())
    return out
