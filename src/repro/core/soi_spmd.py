"""SOI FFT written as a rank-local SPMD program (symmetric-mode style).

The same algorithm as :class:`~repro.core.soi_dist.DistributedSoiFFT`,
but expressed the way the paper's symmetric-mode MPI code is: each rank
runs its own program and yields collectives to the
:mod:`repro.cluster.spmd` runtime.  Numerically identical to the
phase-structured implementation (asserted in tests) — it exists both as a
realism check on the runtime and as the template users would port to
mpi4py on a real cluster.

Since the execution-backend split (:mod:`repro.cluster.backends`), the
same program also runs on *real cores*: pass a
:class:`~repro.cluster.backends.ProcessBackend` as ``backend=`` and each
rank becomes a worker process, the all-to-all a zero-copy shared-memory
descriptor exchange.  Outputs are bit-for-bit identical to the simulated
backend (asserted across the chaos seed matrix), including the
:class:`~repro.verify.VerificationReport` under injected SDC.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.backends import ExecutionBackend, SimulatedBackend
from repro.cluster.faults import RankFailed
from repro.cluster.simcluster import SimCluster
from repro.cluster.spmd import (
    AllToAll,
    Checkpoint,
    Compute,
    RankContext,
    SendRecvRing,
)
from repro.core.convolution import (
    block_range_for_rows,
    conv_time_model,
    convolve,
)
from repro.core.demodulate import demodulate
from repro.core.localfft import lane_fft, segment_fft
from repro.core.params import SoiParams
from repro.core.soi_dist import (
    DEFAULT_CONV_EFFICIENCY,
    DEFAULT_FFT_EFFICIENCY,
    DistributedSoiFFT,
    RecoveryReport,
    balanced_row_slices,
)
from repro.core.window import SoiTables, build_tables

__all__ = ["run_parallel_soi", "soi_rank_program", "spmd_soi_fft"]


def soi_rank_program(ctx: RankContext, x_local: np.ndarray,
                     tables: SoiTables, verifier=None):
    """Generator run by every rank: local chunk in, local spectrum out.

    *verifier*, if given, is a shared
    :class:`~repro.verify.selfcheck.DistVerifier`: each stage is
    ABFT-checked (and repaired) in place before its data is
    checkpointed, shipped, or returned; SDC events of the installed
    wire fault plan strike the stage buffers first.
    """
    p = tables.params
    rank, size = ctx.rank, ctx.size
    machine = ctx.cluster.machine
    s = p.n_segments
    spp = p.segments_per_process
    rows = p.rows_per_process
    blocks_per_rank = p.n // (s * size)
    left_g, right_g = p.ghost_blocks

    # --- ghost exchange: send my edge blocks to the neighbors ---
    halo = yield SendRecvRing(to_left=x_local[: right_g * s],
                              to_right=x_local[x_local.size - left_g * s:])
    from_left, from_right = halo
    x_ext = np.concatenate([from_left, x_local, from_right])

    # --- local convolution-and-oversampling + lane FFTs ---
    j_start = rank * rows
    u = convolve(x_ext, tables, j_start, rows,
                 rank * blocks_per_rank - left_g)
    z = lane_fft(u)
    conv_secs = conv_time_model(p, machine,
                                compute_efficiency=DEFAULT_CONV_EFFICIENCY)
    lane_secs = machine.flop_time(p.lane_fft_flops / size,
                                  DEFAULT_FFT_EFFICIENCY)
    yield Compute(conv_secs + lane_secs, label="convolution")
    fault_plan = ctx.cluster.comm.fault_plan
    sdc = fault_plan if (fault_plan is not None
                         and fault_plan.has_sdc) else None
    if sdc is not None:
        z = sdc.apply_sdc(z, rank=rank, stage="conv")
    if verifier is not None:
        # verify before the checkpoint and the wire: corrupt z must not
        # be trusted for recovery or shipped to peers
        z = verifier.check_conv(ctx.cluster, rank, x_ext, u, z, j_start,
                                rank * blocks_per_rank - left_g,
                                conv_seconds=conv_secs,
                                lane_seconds=lane_secs)
    # stage checkpoint: post-convolution segments (mu*N/P complex words),
    # the cut point shrink-and-redistribute recovery restarts from
    yield Checkpoint(z, tag="post-conv")

    # --- the one all-to-all: my rows of every segment to its owner ---
    per_dest = [np.ascontiguousarray(z[:, d * spp:(d + 1) * spp])
                for d in range(size)]
    pieces = yield AllToAll(per_dest)

    # --- per owned segment: M'-point FFT + demodulation ---
    alpha = np.concatenate(pieces, axis=0)  # (M', spp), source-rank order
    fft_secs = machine.flop_time(p.local_fft_flops / size,
                                 DEFAULT_FFT_EFFICIENCY)
    beta = segment_fft(alpha.T)
    yield Compute(fft_secs, label="local FFT")
    if sdc is not None:
        beta = sdc.apply_sdc(beta, rank=rank, stage="segment-fft")
    slots = range(rank * spp, (rank + 1) * spp)
    if verifier is not None:
        beta = verifier.check_segments(ctx.cluster, rank, alpha, beta,
                                       slots, fft_seconds=fft_secs)
    seg = demodulate(beta, tables)
    yield Compute(machine.mem_time(p.m * spp * 16), label="demodulation")
    if verifier is not None:
        seg = verifier.check_demod(ctx.cluster, rank, beta, seg, slots)
    return seg.reshape(-1)


# -- real-parallel execution -------------------------------------------

#: Worker-side cache: every job of the same geometry reuses the tables
#: instead of re-deriving the window per call.
_WORKER_TABLES: dict = {}
_WORKER_VERIFIERS: dict = {}


def _tables_for(params: SoiParams, window):
    """Worker-side tables, cached per geometry when derivable."""
    if window is None:
        tables = _WORKER_TABLES.get(params)
        if tables is None:
            tables = _WORKER_TABLES.setdefault(params,
                                               build_tables(params, None))
        return tables
    return build_tables(params, window)


def _parallel_soi_program(ctx: RankContext, x_local: np.ndarray,
                          params: SoiParams, window, policy):
    """Module-level rank program shipped to ProcessBackend workers.

    Closures do not pickle, so instead of shipping ``SoiTables`` (the
    demodulation table alone is M complex words) every worker builds —
    and caches — its own tables from the tiny ``(params, window)`` spec;
    ``build_tables`` is deterministic, so all ranks agree bitwise.
    Returns ``(spectrum_chunk, verification_report_or_None)``.
    """
    tables = _tables_for(params, window)
    verifier = None
    if policy is not None:
        from repro.verify.selfcheck import DistVerifier
        key = None
        if window is None and policy.inject is None:
            key = (params, policy.safety, policy.max_strikes,
                   policy.use_alias)
            verifier = _WORKER_VERIFIERS.get(key)
        if verifier is None:
            verifier = DistVerifier(tables, policy)
            if key is not None:
                _WORKER_VERIFIERS[key] = verifier
        verifier.reset_report()
    seg = yield from soi_rank_program(ctx, x_local, tables, verifier)
    return seg, (verifier.report if verifier is not None else None)


def _merge_reports(reports):
    """Fold per-rank reports into one, in the simulated engine's order.

    The rank-serial engine sees every rank's pre-wire (conv/lane) events
    first, then every rank's post-all-to-all events — reproduce that so
    the merged report compares equal to a simulated run's.
    """
    from repro.verify.policy import VerificationReport
    merged = VerificationReport()
    for rep in reports:
        merged.merge(rep)
    pre = [e for e in merged.events if e.stage in ("conv", "lane")]
    post = [e for e in merged.events if e.stage not in ("conv", "lane")]
    merged.events = pre + post
    return merged


def _recovery_rows(x_global: np.ndarray, tables: SoiTables, j_start: int,
                   n_rows: int) -> np.ndarray:
    """Convolution + lane FFT for an arbitrary global row range.

    The worker-side mirror of
    :meth:`~repro.core.soi_dist.DistributedSoiFFT._compute_rows` —
    identical call sequence, so recomputed rows are bit-for-bit the rows
    the dead rank would have produced.
    """
    p = tables.params
    s = p.n_segments
    lo, hi = block_range_for_rows(p, j_start, n_rows)
    n_blocks = p.n // s
    idx = np.arange(lo, hi) % n_blocks
    x_ext = np.ascontiguousarray(
        x_global.reshape(n_blocks, s)[idx].reshape(-1))
    return lane_fft(convolve(x_ext, tables, j_start, n_rows, lo))


def _parallel_recovery_program(ctx: RankContext, z_ckpt,
                               x_global: np.ndarray, params: SoiParams,
                               window, all_rows: tuple, all_slots: tuple):
    """Shrink-and-redistribute recovery as an SPMD program on survivors.

    Runs on the surviving worker subset after a crash: each survivor
    covers its own convolution rows (from its shipped post-conv
    checkpoint *z_ckpt* when available, recomputed from the staged
    global input otherwise) plus its adopted slices of the dead ranks'
    rows, then one all-to-all over the shrunken group routes every row
    to its slot owner for the per-segment FFT + demodulation.

    ``all_rows[i]`` is logical rank *i*'s ordered row coverage
    ``((j_start, n_rows, from_ckpt), ...)``; ``all_slots[i]`` its owned
    global segment slots.  Returns ``(all_slots[rank], seg)`` with one
    demodulated M-point row per owned slot.
    """
    p = params
    rank, size = ctx.rank, ctx.size
    tables = _tables_for(params, window)
    chunks: list[tuple[int, np.ndarray]] = []
    for j0, nr, from_ckpt in all_rows[rank]:
        if from_ckpt:
            z = np.asarray(z_ckpt)
        else:
            z = _recovery_rows(x_global, tables, j0, nr)
        chunks.append((j0, z))
    yield Compute(0.0, label="recovery recompute")

    per_dest = [np.ascontiguousarray(np.concatenate(
        [z[:, list(all_slots[d])] for _j0, z in chunks], axis=0))
        for d in range(size)]
    pieces = yield AllToAll(per_dest)

    my_slots = all_slots[rank]
    alpha = np.empty((p.m_oversampled, len(my_slots)), dtype=np.complex128)
    for spos in range(size):
        piece, off = pieces[spos], 0
        for j0, nr, _from_ckpt in all_rows[spos]:
            alpha[j0:j0 + nr] = piece[off:off + nr]
            off += nr
    beta = segment_fft(alpha.T)
    seg = demodulate(beta, tables)
    yield Compute(0.0, label="recovery fft+demod")
    return my_slots, np.ascontiguousarray(seg)


def _recover_parallel(backend, params: SoiParams, parts: list[np.ndarray],
                      window, machine, failure, deadline=None):
    """Complete a crashed parallel transform on the surviving workers.

    The real-backend port of
    :meth:`~repro.core.soi_dist.DistributedSoiFFT.recover`: takes the
    checkpoints the dead job shipped, plans the same adoption schedule
    (:func:`~repro.core.soi_dist.balanced_row_slices`, round-robin slot
    re-assignment) as the simulated path, and dispatches
    :func:`_parallel_recovery_program` to the survivor group.  Further
    failures during recovery shrink again; only an empty survivor set
    aborts.  Returns the block-distributed output parts for *all*
    original ranks (dead ranks' parts hosted by their adopters) and
    records the :class:`~repro.core.soi_dist.RecoveryReport` + MTTR on
    the backend (:meth:`~repro.cluster.backends.ProcessBackend.note_recovery`).
    """
    p = params
    rows = p.rows_per_process
    s, spp = p.n_segments, p.segments_per_process
    x_global = np.concatenate(parts)
    ckpts = backend.take_checkpoints()
    detected_at = getattr(failure, "detected_at", None)
    survivors = tuple(sorted(getattr(failure, "survivors", ())))
    last = failure
    while True:
        if deadline is not None:
            deadline.check("recovery round")
        if not survivors:
            raise RankFailed(
                -1, "no surviving workers to recover on") from last
        q = len(survivors)
        live_set = set(survivors)
        dead = [r for r in range(p.n_procs) if r not in live_set]

        # row coverage: own rows (checkpoint when shipped) + adopted
        # slices of every dead rank's rows — the simulator's schedule
        rows_of: dict[int, list[tuple[int, int, bool]]] = \
            {w: [] for w in survivors}
        recomputed = 0
        for w in survivors:
            has_ckpt = (w, "post-conv") in ckpts
            rows_of[w].append((w * rows, rows, has_ckpt))
            if not has_ckpt:
                recomputed += rows
        for k, f in enumerate(dead):
            for i, (j0, nr) in enumerate(
                    balanced_row_slices(p, f * rows, rows, q)):
                adopter = survivors[(i + k) % q]
                rows_of[adopter].append((j0, nr, False))
                recomputed += nr
        for w in survivors:
            rows_of[w].sort(key=lambda c: c[0])

        # re-assign the dead ranks' segment slots round-robin
        owner: dict[int, int] = {}
        orphan = 0
        for t in range(s):
            orig = t // spp
            if orig in live_set:
                owner[t] = orig
            else:
                owner[t] = survivors[orphan % q]
                orphan += 1
        all_slots = tuple(tuple(t for t in range(s) if owner[t] == w)
                          for w in survivors)
        all_rows = tuple(tuple(rows_of[w]) for w in survivors)

        try:
            results = backend.run(
                _parallel_recovery_program,
                [(ckpts.get((w, "post-conv")),) for w in survivors],
                common=(x_global, params, window, all_rows, all_slots),
                machine=machine, ranks=survivors, deadline=deadline,
                label="parallel soi recovery")
        except RankFailed as exc:
            last = exc
            survivors = tuple(sorted(getattr(exc, "survivors", ())))
            continue

        y_by_slot: dict[int, np.ndarray] = {}
        for slots, seg in results:
            for i, t in enumerate(slots):
                y_by_slot[t] = seg[i]
        out_parts = [np.concatenate([y_by_slot[t]
                                     for t in range(r * spp, (r + 1) * spp)])
                     for r in range(p.n_procs)]
        report = RecoveryReport(dead_ranks=tuple(dead), n_live=q,
                                slot_owners=owner,
                                recomputed_rows=recomputed)
        backend.note_recovery(report, detected_at)
        if deadline is not None:
            deadline.charge("recovery", 0.0)  # purpose visible in budget
        return out_parts


def run_parallel_soi(backend: ExecutionBackend, params: SoiParams,
                     x_parts: list[np.ndarray], *, machine, window=None,
                     policy=None, fault_plan=None, deadline=None,
                     hedge=None, resilient: bool = True):
    """Run the SOI SPMD program on a real backend; block-distributed I/O.

    Returns ``(parts, report)``: the per-rank natural-order spectrum
    chunks and the merged :class:`~repro.verify.VerificationReport`
    (``None`` when *policy* is).  *fault_plan* must be SDC-only; strikes
    land on the same global stage boundaries as under the simulator, so
    reports match bit-for-bit.  *window*, if given, must be picklable.

    With ``resilient=True`` (the default) on a real backend, the job
    ships post-conv checkpoints and a worker death mid-transform is
    recovered elastically: the survivors finish via
    shrink-and-redistribute (:func:`_parallel_recovery_program`), the
    :class:`~repro.core.soi_dist.RecoveryReport` lands in
    ``backend.last_recovery``, and the output stays bit-identical to
    the fault-free run.  *deadline* runs off the wall clock; *hedge*
    arms straggler re-dispatch (see
    :meth:`~repro.cluster.backends.ProcessBackend.run`).
    """
    if len(x_parts) != params.n_procs:
        raise ValueError(f"expected {params.n_procs} input parts")
    size = getattr(backend, "size", None)
    if size != params.n_procs:
        raise ValueError(f"params expect {params.n_procs} ranks, "
                         f"backend has {size} workers")
    chunk = params.elements_per_process
    parts = [np.ascontiguousarray(p, dtype=np.complex128) for p in x_parts]
    for p in parts:
        if p.shape != (chunk,):
            raise ValueError("each part must hold N/P elements")
    if fault_plan is not None and not fault_plan.has_sdc:
        fault_plan = None
    real = bool(getattr(backend, "is_real", False))
    if real:
        backend.last_recovery = None
    try:
        results = backend.run(
            _parallel_soi_program, [(p,) for p in parts],
            common=(params, window, policy), machine=machine,
            fault_plan=fault_plan, result_spec=((chunk,), np.complex128),
            label="parallel soi request",
            checkpoints={} if (real and resilient) else None,
            deadline=deadline, hedge=hedge)
    except RankFailed as exc:
        if not (real and resilient):
            raise
        out_parts = _recover_parallel(backend, params, parts, window,
                                      machine, exc, deadline=deadline)
        report = None
        if policy is not None:
            # the crashed job's per-rank reports died with it; recovery
            # runs clean, so an empty report is the truthful merge
            from repro.verify.policy import VerificationReport
            report = VerificationReport()
        return out_parts, report
    out_parts = [seg for seg, _rep in results]
    report = None
    if policy is not None:
        report = _merge_reports([rep for _seg, rep in results])
        from repro.verify.selfcheck import _MetricsMirror
        _MetricsMirror().publish(report, backend.metrics)
    return out_parts, report


def spmd_soi_fft(cluster: SimCluster, params: SoiParams, x: np.ndarray,
                 window=None, resilient: bool = True, verify=False,
                 hedge=None, deadline=None,
                 backend: ExecutionBackend | None = None) -> np.ndarray:
    """Scatter, run the SPMD program on every rank, gather the spectrum.

    With ``resilient=True`` (the default) a collective that declares a
    rank dead mid-run (:class:`~repro.cluster.faults.RankFailed`) does
    not abort the transform: the survivors restart from the post-
    convolution :class:`~repro.cluster.spmd.Checkpoint` data via the
    phase-structured shrink-and-redistribute path
    (:meth:`~repro.core.soi_dist.DistributedSoiFFT.recover`).

    *verify* arms ABFT stage verification: ``True`` / a
    :class:`~repro.verify.VerifyPolicy` build a fresh
    :class:`~repro.verify.DistVerifier`, or pass your own verifier
    (built for the same params) to read its ``.report`` afterwards.
    *hedge*, a :class:`~repro.verify.HedgePolicy`, arms straggler
    hedging in the runtime (see :func:`repro.cluster.spmd.run_spmd`).

    *deadline* (duck-typed :class:`repro.resilience.Deadline`) is
    installed on the communicator for the duration of the call — every
    collective checks it at entry and charges attempts, backoff waits,
    and recovery transfers to its budget — and checked again before
    recovery and at the gather.  Any previously installed deadline is
    restored on exit.

    *backend* selects the executor: ``None`` (or a
    :class:`~repro.cluster.backends.SimulatedBackend` over *cluster*)
    runs rank-serially against the simulated clocks; a
    :class:`~repro.cluster.backends.ProcessBackend` runs every rank as a
    real worker process with shared-memory collectives — bit-for-bit the
    same result.  On the real path, *resilient* recovery, *hedge*, and
    *deadline* all operate on actual processes: worker deaths recover
    via the elastic shrink-and-redistribute driver
    (:func:`_recover_parallel`), deadlines run off the wall clock, and
    hedging kills + re-dispatches real stragglers.  Fault plans must be
    SDC-only (wire faults stay a simulator property; process-level chaos
    goes through
    :meth:`~repro.cluster.backends.ProcessBackend.inject`).
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (params.n,):
        raise ValueError(f"expected input of shape ({params.n},)")
    if params.n_procs != cluster.n_ranks:
        raise ValueError("params/cluster rank mismatch")
    chunk = params.elements_per_process
    parts = [x[r * chunk:(r + 1) * chunk].copy()
             for r in range(params.n_procs)]
    if backend is not None and backend.is_real:
        policy = None
        ext_verifier = None
        if verify is not None and verify is not False:
            from repro.verify.policy import VerifyPolicy
            from repro.verify.selfcheck import DistVerifier
            if isinstance(verify, DistVerifier):
                ext_verifier = verify
                policy = verify.policy
            else:
                policy = VerifyPolicy.coerce(verify)
        out_parts, report = run_parallel_soi(
            backend, params, parts, machine=cluster.machine, window=window,
            policy=policy, fault_plan=cluster.comm.fault_plan,
            deadline=deadline, hedge=hedge, resilient=resilient)
        if ext_verifier is not None and report is not None:
            ext_verifier.reset_report()
            ext_verifier.report.merge(report)
        return np.concatenate(out_parts)
    if backend is None:
        backend = SimulatedBackend(cluster)
    elif not isinstance(backend, SimulatedBackend) \
            or backend.cluster is not cluster:
        raise ValueError("backend must be a ProcessBackend or a "
                         "SimulatedBackend over this cluster")
    tables = build_tables(params, window)
    verifier = None
    if verify is not None and verify is not False:
        from repro.verify.policy import VerifyPolicy
        from repro.verify.selfcheck import DistVerifier
        if isinstance(verify, DistVerifier):
            verifier = verify
            verifier.reset_report()
        else:
            verifier = DistVerifier(tables, VerifyPolicy.coerce(verify))
    ckpts: dict = {}
    prev_deadline = cluster.comm.deadline
    if deadline is not None:
        cluster.comm.install_deadline(deadline)
    # one scope span per rank: every charge of the SPMD run — including
    # retries and any recovery work — nests under its rank's request
    rec = cluster.recorder
    scopes = [rec.begin(r, "spmd soi request", "other", cluster.clocks[r],
                        attributes={"n": params.n})
              for r in range(cluster.n_ranks)]
    try:
        try:
            results = backend.run(
                soi_rank_program,
                [(parts[r],) for r in range(params.n_procs)],
                common=(tables, verifier), checkpoints=ckpts, hedge=hedge)
        except RankFailed:
            if not resilient:
                raise
            if deadline is not None:
                deadline.check("pre recovery")
            soi = DistributedSoiFFT(cluster, params, window)
            z_parts = [ckpts.get((r, "post-conv"))
                       for r in range(params.n_procs)]
            results = soi.recover(parts, z_parts, deadline=deadline)
        if deadline is not None:
            deadline.check("gather")
    finally:
        for scope in scopes:
            if not scope.closed:
                rec.end(scope, cluster.clocks[scope.rank])
        if deadline is not None:
            cluster.comm.install_deadline(prev_deadline)
    return np.concatenate(results)
