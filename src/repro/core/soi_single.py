"""Single-process SOI FFT: the reference end-to-end pipeline.

Computes ``y = F_N x`` via Equation 1 of the paper:

1. convolution-and-oversampling ``W x`` (with periodic boundary),
2. lane FFTs ``I_{M'} (x) F_S`` (length-S transform across lanes),
3. the stride permutation (a local reshape when there is one process),
4. per-segment length-M' FFTs,
5. projection + demodulation ``W^{-1} P_roj``.

The distributed implementation (:mod:`repro.core.soi_dist`) runs exactly
these kernels with the permutation realized as an all-to-all; this module
is both the numerical reference for it and the convenient entry point for
node-local use.

Execution is planned: the wrap-index table, convolution workspaces, and
all five stage buffers are allocated once per batch size at first use and
reused, and every stage runs through ``out=`` destinations: the
convolution as stacked lane GEMMs (:mod:`repro.core.convolution`), the
lane and segment FFTs as single batched calls of the shared stage
kernels (:mod:`repro.core.localfft`: DFT-matrix GEMM for the lanes,
numpy's pocketfft for the segments) rather than a per-row Python loop.
Steady-state complex128 calls with ``out=`` perform no new allocations
(asserted by ``bench/regression.py`` via ``tracemalloc``).
"""

from __future__ import annotations

import numpy as np

from repro.core.convolution import (
    ConvWorkspace,
    block_range_for_rows,
    convolve,
)
from repro.core.demodulate import demodulate, fused_demod_diagonal
from repro.core.localfft import lane_fft, segment_fft
from repro.core.params import SoiParams
from repro.core.window import SoiTables, build_tables
from repro.fft.sixstep import sixstep_fft

__all__ = ["SoiFFT", "soi_fft", "LOCAL_FFT_CHOICES"]

LOCAL_FFT_CHOICES = ("direct", "sixstep", "sixstep-naive")


def _coerce_verify(verify):
    """Normalize ``verify=`` lazily (repro.verify imports core modules)."""
    if verify is None or verify is False:
        return None
    from repro.verify.policy import VerifyPolicy
    return VerifyPolicy.coerce(verify)


class SoiFFT:
    """Planned single-process SOI transform for one parameter set.

    Parameters
    ----------
    params:
        Problem geometry (``n_procs``/``segments_per_process`` only affect
        how many segments the decomposition uses; execution is local).
    window:
        Optional window object (default: Kaiser-sinc sized from params).
    local_fft:
        How the per-segment M'-point FFT runs: ``"direct"`` (one batched
        pocketfft call over all segments), ``"sixstep"`` (optimized
        Bailey 6-step with *fused* demodulation, the paper's Phi path), or
        ``"sixstep-naive"`` (Fig 4a baseline).
    dtype:
        Working precision: ``complex128`` (default) or ``complex64``.
        Single precision is worthwhile when the window stopband exceeds
        float32 epsilon anyway (e.g. mu = 8/7 at B <= 48); it requires
        ``local_fft="direct"``.  The convolution and lane GEMMs run in
        single precision; numpy's pocketfft runs complex64 segment FFTs
        in double precision through cast buffers.  The design tables
        themselves are always built in double precision.
    verify:
        ``True`` or a :class:`repro.verify.VerifyPolicy` arms algorithm-
        based fault tolerance: every planned block is checked against
        weighted-checksum and Parseval invariants after execution,
        corrupt segments are recomputed in place, and persistent
        corruption raises :class:`repro.verify.VerificationError`.
        Counters accumulate in ``self.verifier.report``.  Requires
        ``local_fft="direct"`` (the planned pipeline).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` bundle (duck-typed:
        anything with ``clock``/``stage``/``transform_done``).  When
        given, every planned stage records a charge span and a latency
        histogram, and completed transforms count flops.  ``None``
        (the default) keeps the pipeline instrumentation-free — no
        telemetry code runs at all.

    Workspace contract
    ------------------
    ``plan(x, out=buf)`` / ``plan.batch(xs, out=bufs)`` write the spectrum
    into a caller-owned C-contiguous array of the plan dtype; after the
    first call of a given batch size no further allocations occur (for
    complex64, apart from pocketfft's per-call cast buffers).  Calls
    without ``out=`` allocate exactly the result array.  The pooled stage
    buffers are private to the plan — results never alias them.
    """

    def __init__(self, params: SoiParams, window=None,
                 local_fft: str = "direct", dtype=np.complex128,
                 verify=False, telemetry=None):
        if local_fft not in LOCAL_FFT_CHOICES:
            raise ValueError(f"local_fft must be one of {LOCAL_FFT_CHOICES}")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise ValueError("dtype must be complex64 or complex128")
        if self.dtype == np.complex64 and local_fft != "direct":
            raise ValueError("complex64 requires local_fft='direct'")
        self.params = params
        self.local_fft = local_fft
        self.tables: SoiTables = build_tables(params, window)
        #: whether a lane stage runs (S > 1) and so has its own buffer
        self._has_lanes = params.n_segments > 1
        self._fused_diag = fused_demod_diagonal(self.tables)
        lo, hi = block_range_for_rows(params, 0, params.m_oversampled)
        self._block_lo, self._block_hi = lo, hi
        #: Precomputed periodic-wrap gather indices for extended_input.
        self._ext_idx = np.arange(lo * params.n_segments,
                                  hi * params.n_segments) % params.n
        self._ext_start = (lo * params.n_segments) % params.n
        self._conv_ws = ConvWorkspace()
        #: batch size -> dict of reused pipeline stage buffers.
        self._bufpool: dict[int, dict[str, np.ndarray]] = {}
        #: optional instrument bundle (duck-typed Telemetry).
        self.telemetry = telemetry
        #: armed ABFT verifier (None unless ``verify`` was requested).
        self.verifier = None
        policy = _coerce_verify(verify)
        if policy is not None:
            if local_fft != "direct":
                raise ValueError("verify requires local_fft='direct'")
            from repro.verify.selfcheck import PipelineVerifier
            self.verifier = PipelineVerifier(self, policy)

    @property
    def expected_stopband(self) -> float:
        """Window-design estimate of the relative output error."""
        return self.tables.expected_stopband

    # -- workspace management ---------------------------------------------

    def _buffers(self, batch: int) -> dict[str, np.ndarray]:
        bufs = self._bufpool.get(batch)
        if bufs is None:
            p = self.params
            s, mp = p.n_segments, p.m_oversampled
            ext = self._ext_idx.size
            bufs = {
                "x_ext": np.empty((batch, ext), dtype=self.dtype),
                "u": np.empty((batch, mp, s), dtype=self.dtype),
                "alpha": np.empty((batch, s, mp), dtype=self.dtype),
                "beta": np.empty((batch, s, mp), dtype=self.dtype),
            }
            if self._has_lanes:
                bufs["z"] = np.empty((batch, mp, s), dtype=self.dtype)
            self._bufpool[batch] = bufs
        return bufs

    def workspace_bytes(self) -> int:
        """Bytes held by the pooled stage buffers and conv workspace."""
        total = self._conv_ws.nbytes()
        for bufs in self._bufpool.values():
            total += sum(b.nbytes for b in bufs.values())
        return total

    def release_workspaces(self) -> None:
        """Drop all pooled buffers (they re-allocate lazily on next use)."""
        self._bufpool.clear()
        self._conv_ws.clear()

    # -- pipeline stages (also reused by tests) ---------------------------

    def extended_input(self, x: np.ndarray) -> np.ndarray:
        """Input blocks [block_lo, block_hi) with periodic wrap."""
        return np.asarray(x, dtype=self.dtype)[..., self._ext_idx]

    def oversample(self, x: np.ndarray) -> np.ndarray:
        """Stages 1-2: u = W x, then z = (I (x) F_S) u.  Shape (M', S)."""
        p = self.params
        rows = p.m_oversampled  # all rows (single process)
        x_ext = self.extended_input(x)
        u = convolve(x_ext, self.tables, 0, rows, self._block_lo,
                     workspace=self._conv_ws)
        return lane_fft(u)

    def segment_spectra(self, z: np.ndarray) -> np.ndarray:
        """Stages 3-4: permutation (transpose) + per-segment F_{M'}.

        Returns beta of shape (S, M').
        """
        p = self.params
        alpha = np.ascontiguousarray(z.T)  # (S, M'): segment s's subband
        if self.local_fft == "direct":
            return segment_fft(alpha)
        variant = "optimized" if self.local_fft == "sixstep" else "naive"
        out = np.empty_like(alpha)
        for s in range(p.n_segments):
            res = sixstep_fft(alpha[s], variant=variant)
            out[s] = res.output
        return out

    # -- planned zero-allocation execution --------------------------------

    def _gather_extended(self, xs: np.ndarray, dst: np.ndarray) -> None:
        """Fill the extended-input buffer via wrapped slice copies.

        The gather indices are consecutive integers mod N, so the copy is
        a handful of contiguous slices — unlike ``np.take(..., out=)``,
        which materializes a full temporary before writing ``out``.
        """
        n = self.params.n
        ext = dst.shape[1]
        pos, src = 0, self._ext_start
        while pos < ext:
            chunk = min(n - src, ext - pos)
            dst[:, pos:pos + chunk] = xs[:, src:src + chunk]
            pos += chunk
            src = 0

    def _execute(self, xs: np.ndarray, res: np.ndarray) -> np.ndarray:
        """Planned pipeline: (batch, N) -> (batch, N) through pooled buffers.

        When a verifier is armed, its stage hook fires after every stage
        (the single-node silent-corruption injection point)."""
        p = self.params
        s, mp = p.n_segments, p.m_oversampled
        batch = xs.shape[0]
        bufs = self._buffers(batch)
        hook = self.verifier.stage_hook if self.verifier is not None else None
        telem = self.telemetry
        clk = telem.clock if telem is not None else None
        t = clk() if clk else 0.0
        self._gather_extended(xs, bufs["x_ext"])
        convolve(bufs["x_ext"], self.tables, 0, mp, self._block_lo,
                 out=bufs["u"], workspace=self._conv_ws)
        if telem is not None:
            now = clk()
            telem.stage("conv", t, now,
                        nbytes=bufs["x_ext"].nbytes + bufs["u"].nbytes)
            t = now
        if hook:
            hook("conv", bufs["u"])
        if self._has_lanes:
            z = lane_fft(bufs["u"], out=bufs["z"])
        else:
            z = bufs["u"]
        if telem is not None and z is not bufs["u"]:
            now = clk()
            telem.stage("lane", t, now, nbytes=2 * z.nbytes)
            t = now
        if hook and z is not bufs["u"]:
            hook("lane", z)
        np.copyto(bufs["alpha"], z.transpose(0, 2, 1))  # stride permutation
        if telem is not None:
            now = clk()
            telem.stage("permute", t, now, nbytes=2 * bufs["alpha"].nbytes)
            t = now
        if hook:
            hook("permute", bufs["alpha"])
        segment_fft(bufs["alpha"].reshape(-1, mp),
                    out=bufs["beta"].reshape(-1, mp))
        if telem is not None:
            now = clk()
            telem.stage("segment-fft", t, now, nbytes=2 * bufs["beta"].nbytes)
            t = now
        if hook:
            hook("segment-fft", bufs["beta"])
        demodulate(bufs["beta"], self.tables,
                   out=res.reshape(batch, s, p.m))
        if telem is not None:
            telem.stage("demod", t, clk(),
                        nbytes=bufs["beta"].nbytes + res.nbytes)
            telem.transform_done(
                batch, batch * (p.local_fft_flops + p.lane_fft_flops))
        if hook:
            hook("demod", res.reshape(batch, s, p.m))
        return res

    def _run(self, xs: np.ndarray, res: np.ndarray) -> np.ndarray:
        """Execute one planned block, then (if armed) verify and repair."""
        self._execute(xs, res)
        if self.verifier is not None:
            self.verifier.check_and_repair(xs, res)
        return res

    def _check_out(self, out: np.ndarray, shape: tuple) -> np.ndarray:
        if not isinstance(out, np.ndarray) or out.shape != shape:
            raise ValueError(f"out must have shape {shape}")
        if out.dtype != self.dtype:
            raise ValueError(f"out must have dtype {self.dtype}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        return out

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None,
                 deadline=None) -> np.ndarray:
        """Full in-order DFT of *x* (length N); ``out=`` avoids the result
        allocation for the ``"direct"`` path.  *deadline* (a
        :class:`repro.resilience.Deadline`, duck-typed) is checked at
        entry — a transform that started runs to completion."""
        if deadline is not None:
            deadline.check("transform entry")
        p = self.params
        x = np.asarray(x, dtype=self.dtype)
        if x.shape != (p.n,):
            raise ValueError(f"expected input of shape ({p.n},), got {x.shape}")
        if self.local_fft == "sixstep":
            # fused demodulation inside the 6-step final pass (§5.2.4)
            z = self.oversample(x)
            alpha = np.ascontiguousarray(z.T)
            y = np.empty(p.n, dtype=np.complex128) if out is None \
                else self._check_out(out, (p.n,))
            for s in range(p.n_segments):
                res = sixstep_fft(alpha[s], variant="optimized",
                                  diagonal=self._fused_diag)
                y[s * p.m:(s + 1) * p.m] = res.output[: p.m]
            return y
        if self.local_fft != "direct":
            beta = self.segment_spectra(self.oversample(x))
            y = demodulate(beta, self.tables).reshape(p.n)
            if out is not None:
                np.copyto(self._check_out(out, (p.n,)), y)
                return out
            return y
        res = np.empty(p.n, dtype=self.dtype) if out is None \
            else self._check_out(out, (p.n,))
        self._run(x.reshape(1, -1), res.reshape(1, -1))
        return res

    #: Cache budget (bytes) for one row block of the batched pipeline.
    #: Measured sweet spot: a block's stage buffers should stay resident
    #: between pipeline stages; beyond ~8 MB the stage-at-a-time sweep
    #: spills to DRAM and loses to smaller blocks (bench/regression.py).
    _BATCH_CACHE_BUDGET = 8 << 20

    def _rows_per_block(self) -> int:
        p = self.params
        lanes = 4 if self._has_lanes else 3
        per_row = (self._ext_idx.size
                   + lanes * p.m_oversampled * p.n_segments
                   ) * self.dtype.itemsize
        return max(1, self._BATCH_CACHE_BUDGET // per_row)

    def batch(self, xs: np.ndarray, out: np.ndarray | None = None,
              deadline=None) -> np.ndarray:
        """Transform each row of a (batch, N) matrix, reusing this plan.

        The expensive design work (window sampling, demodulation inverse,
        GEMM weights) amortizes across the batch — the usage
        pattern of every frame-oriented application (see
        :mod:`repro.core.streaming`).  For the ``"direct"`` local FFT the
        batch executes as batched kernels over cache-sized row blocks:
        per block, one convolution sweep, one ``(rows*M', S)`` lane
        transform, one ``(rows*S, M')`` segment-FFT call, one
        demodulation — no per-row Python loop over pipeline stages.  The
        block size keeps a block's stage buffers cache-resident; tiny
        frames batch fully, huge transforms fall back to row-at-a-time.
        Results are bitwise-identical for every block size.

        *deadline* (duck-typed :class:`repro.resilience.Deadline`) is
        checked at entry and between row blocks — the stage-boundary
        contract: a block that started runs to completion, the overrun
        raises at the next block boundary (or the caller's completion
        check).
        """
        if deadline is not None:
            deadline.check("batch entry")
        xs = np.asarray(xs, dtype=self.dtype)
        if xs.ndim != 2 or xs.shape[1] != self.params.n:
            raise ValueError(f"expected shape (batch, {self.params.n})")
        if out is None:
            res = np.empty(xs.shape, dtype=self.dtype)
        else:
            res = self._check_out(out, xs.shape)
        if self.local_fft == "direct":
            xs = np.ascontiguousarray(xs)
            batch, block = xs.shape[0], self._rows_per_block()
            for i in range(0, batch, block):
                if deadline is not None and i > 0:
                    deadline.check(f"batch block {i // block}")
                self._run(xs[i:i + block], res[i:i + block])
        else:
            for i in range(xs.shape[0]):
                if deadline is not None and i > 0:
                    deadline.check(f"batch row {i}")
                self(xs[i], out=res[i])
        return res

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Inverse DFT via the conjugation identity.

        ``ifft(y) = conj(fft(conj(y))) / N`` — the standard way FFT
        libraries reuse a forward-only pipeline; accuracy is identical to
        the forward transform.
        """
        p = self.params
        y = np.asarray(y, dtype=np.complex128)
        if y.shape != (p.n,):
            raise ValueError(f"expected input of shape ({p.n},), got {y.shape}")
        return np.conj(self(np.conj(y))) / p.n


def soi_fft(x: np.ndarray, n_segments: int = 8, n_mu: int = 8, d_mu: int = 7,
            b: int = 72, window=None, local_fft: str = "direct") -> np.ndarray:
    """One-shot SOI FFT of a 1-D array (see :class:`SoiFFT` for knobs)."""
    x = np.asarray(x, dtype=np.complex128)
    params = SoiParams(n=x.size, n_procs=1, segments_per_process=n_segments,
                       n_mu=n_mu, d_mu=d_mu, b=b)
    return SoiFFT(params, window=window, local_fft=local_fft)(x)


def soi_ifft(y: np.ndarray, n_segments: int = 8, n_mu: int = 8, d_mu: int = 7,
             b: int = 72, window=None) -> np.ndarray:
    """One-shot inverse SOI FFT (scaled by 1/N, numpy convention)."""
    y = np.asarray(y, dtype=np.complex128)
    params = SoiParams(n=y.size, n_procs=1, segments_per_process=n_segments,
                       n_mu=n_mu, d_mu=d_mu, b=b)
    return SoiFFT(params, window=window).inverse(y)
