"""Convolution-and-oversampling: applying W to the input (paper §5.3).

Row ``j`` of the oversampled output (global row index; each process owns a
contiguous row range) is the vector of S lane inner products

``u[j, p] = sum_b  w[j mod n_mu, b, p] * x[(m0(j) + b) * S + p]``

with block offset ``m0(j) = (j // n_mu) * d_mu + q_r[j mod n_mu] - B/2 + 1``
— the chunked, d_mu-shifted structure of Fig 6(a), stored compactly as the
n_mu*B*S distinct coefficients.

The numeric kernel is the paper's unroll-and-jam written for BLAS: the
n_mu rows of chunk k all read inside one window of T = B + max q_r blocks
starting at block d_mu*k, so per lane s the whole stage is one GEMM
``U_s (K x n_mu) = Xwin_s (K x T) . W_s (T x n_mu)`` — each loaded window
is reused across the n_mu output rows that read it.  Windows are staged
in cache-sized K-chunks and the S lane GEMMs run as one stacked
``np.matmul`` (verified against a literal triple loop,
:func:`convolve_reference`).

The paper's three *execution strategies* — row-major baseline,
loop-interchanged decomposed form, and circular-buffer staging — differ
in traversal order, which the GEMM formulation subsumes; they are
modeled as first-class :class:`ConvStrategy` objects that expose working
sets, memory-sweep ledgers, cache address traces (for the cache simulator)
and modeled execution times, reproducing the Fig 11 ablation.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.params import SoiParams
from repro.core.window import SoiTables
from repro.machine.memory import SweepLedger
from repro.machine.spec import MachineSpec

__all__ = [
    "ConvStrategy",
    "ConvWorkspace",
    "block_range_for_rows",
    "conv_time_model",
    "convolve",
    "convolve_lanes",
    "convolve_reference",
    "input_block_offsets",
]

#: Bytes of staged windows per GEMM chunk: big enough to amortize the
#: BLAS call, small enough that the chunk stays in a per-core L2 between
#: the staging copy and the GEMM.  On a 2-vCPU Xeon host (2 MB L2 per
#: core) 1 MB chunks ran the n = 2^20 stage 15% faster than 4 MB ones.
_STAGE_BYTES = 1 << 20


class ConvWorkspace:
    """Reusable scratch arrays for :func:`convolve`.

    Buffers are keyed by (name, shape, dtype), so a plan that calls
    ``convolve`` with a fixed geometry gets the same storage back on every
    call — the steady state performs no new allocations.  The workspace
    also keeps the GEMM weights (:func:`_gemm_weights`) of the last tables
    it served, per dtype.  One workspace per plan (``SoiFFT`` owns one);
    sharing across differently-shaped callers is safe but grows the pool.
    """

    def __init__(self):
        self._bufs: dict[tuple, np.ndarray] = {}
        self._weights: dict[str, tuple[SoiTables, np.ndarray]] = {}

    def array(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Return a reused (uninitialized) buffer of the given geometry."""
        key = (name, tuple(shape), np.dtype(dtype).str)
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf

    def weights(self, tables: SoiTables, dtype) -> np.ndarray:
        """:func:`_gemm_weights` of *tables*, built once per dtype."""
        key = np.dtype(dtype).str
        hit = self._weights.get(key)
        if hit is None or hit[0] is not tables:
            hit = (tables, _gemm_weights(tables, dtype))
            self._weights[key] = hit
        return hit[1]

    def nbytes(self) -> int:
        """Bytes currently held by the pool."""
        return (sum(b.nbytes for b in self._bufs.values())
                + sum(w.nbytes for _, w in self._weights.values()))

    def clear(self) -> None:
        """Drop every pooled buffer."""
        self._bufs.clear()
        self._weights.clear()


def input_block_offsets(params: SoiParams, j_start: int, n_rows: int) -> np.ndarray:
    """Global input block index m0(j) for rows [j_start, j_start + n_rows)."""
    if j_start % params.n_mu:
        raise ValueError("j_start must be a multiple of n_mu")
    if n_rows % params.n_mu:
        raise ValueError("n_rows must be a multiple of n_mu")
    j = np.arange(j_start, j_start + n_rows, dtype=np.int64)
    r = j % params.n_mu
    q_r = (np.arange(params.n_mu, dtype=np.int64) * params.d_mu) // params.n_mu
    return (j // params.n_mu) * params.d_mu + q_r[r] - params.b // 2 + 1


def block_range_for_rows(params: SoiParams, j_start: int, n_rows: int
                         ) -> tuple[int, int]:
    """Half-open global block range [lo, hi) the rows' windows touch.

    Block indices may be negative or exceed N/S: callers wrap them
    periodically (the ghost halo / circular boundary).
    """
    m0 = input_block_offsets(params, j_start, n_rows)
    return int(m0.min()), int(m0.max()) + params.b


def _gemm_weights(tables: SoiTables, dtype=np.complex128) -> np.ndarray:
    """The lane GEMM operands ``W_s`` stacked as (S, T, n_mu).

    ``W[s, q_r + b, r] = coeffs[r, b, s]``: column r holds phase r's B
    taps shifted down by its block offset q_r, zero elsewhere, so one
    T-block window (T = B + max q_r) feeds all n_mu rows of a chunk.
    """
    p = tables.params
    q_r = tables.q_r
    w = np.zeros((p.n_segments, p.b + int(q_r.max()), p.n_mu), dtype=dtype)
    for r in range(p.n_mu):
        w[:, q_r[r]: q_r[r] + p.b, r] = tables.coeffs[r].T
    return w


def _geometry(p: SoiParams, j_start: int, n_rows: int, block_lo: int,
              nblocks: int) -> tuple[int, int, int]:
    """(first window's block in x_ext, chunk count K, window T), validated."""
    if j_start % p.n_mu:
        raise ValueError("j_start must be a multiple of n_mu")
    if n_rows % p.n_mu:
        raise ValueError("n_rows must be a multiple of n_mu")
    base = (j_start // p.n_mu) * p.d_mu - p.b // 2 + 1 - block_lo
    k_total = n_rows // p.n_mu
    t_len = p.b + (p.n_mu - 1) * p.d_mu // p.n_mu  # B + max q_r
    if k_total and (base < 0
                    or base + (k_total - 1) * p.d_mu + t_len > nblocks):
        raise ValueError("x_ext does not cover the required block range")
    return base, k_total, t_len


def _stage_shape(p: SoiParams, batch: int, lanes: int, k_total: int,
                 t_len: int, itemsize: int) -> tuple[int, int, int, int]:
    """Staging buffer (rows, lanes, chunk, T) for :func:`_lane_gemm`.

    A chunk holds at least two window rows (see :func:`_lane_gemm`);
    when one chunk covers all K windows, several batch rows share it.
    The chunk length depends only on the geometry, never on *batch* or
    *lanes*, so every caller runs the same GEMM shapes.
    """
    per_window = p.n_segments * t_len * itemsize
    kc = max(2, min(k_total, _STAGE_BYTES // per_window))
    rows = max(1, min(batch, _STAGE_BYTES // (kc * per_window)))
    return rows, lanes, kc, t_len


def _windows(xb: np.ndarray, base: int, k_total: int, t_len: int,
             p: SoiParams) -> np.ndarray:
    """Strided (batch, S, K, T) view of the contiguous rows of *xb*:
    ``win[i, s, k, t] = xb[i, (base + d_mu*k + t)*S + s]``."""
    s, item = p.n_segments, xb.itemsize
    return as_strided(xb[:, base * s:],
                      shape=(xb.shape[0], s, k_total, t_len),
                      strides=(xb.strides[0], item, p.d_mu * s * item,
                               s * item),
                      writeable=False)


def _lane_gemm(win: np.ndarray, w: np.ndarray, out: np.ndarray,
               stage: np.ndarray, res: np.ndarray) -> None:
    """``out[i, k, r, l] = sum_t win[i, l, k, t] * w[l, t, r]``, chunked.

    Each chunk is staged with one copy into *stage* and contracted with
    one stacked matmul into *res*: one (chunk x T).(T x n_mu) GEMM per
    (row, lane), never with batch rows folded into GEMM rows.  Every
    GEMM has at least two rows: a one-row product goes to gemv, whose
    rounding differs from gemm's, and a row must not depend on where
    chunk boundaries fall (batch == solo, sub-range == full range, lane
    repair == clean run).
    """
    n_rows, k_total = win.shape[0], win.shape[2]
    g, kc = stage.shape[0], stage.shape[2]
    for i0 in range(0, n_rows, g):
        gi = min(g, n_rows - i0)
        for k0 in range(0, k_total, kc):
            ck = min(kc, k_total - k0)
            st = stage[:gi, :, :max(ck, 2)]
            rs = res[:gi, :, :max(ck, 2)]
            # a one-window chunk is broadcast into both staged rows
            np.copyto(st, win[i0:i0 + gi, :, k0:k0 + ck])
            np.matmul(st, w, out=rs)
            np.copyto(out[i0:i0 + gi, k0:k0 + ck],
                      rs[:, :, :ck].transpose(0, 2, 3, 1))


def _as_kernel_input(x_ext) -> np.ndarray:
    arr = np.asarray(x_ext)
    dtype = np.complex64 if arr.dtype == np.complex64 else np.complex128
    return np.ascontiguousarray(arr, dtype=dtype)


def convolve(x_ext: np.ndarray, tables: SoiTables, j_start: int, n_rows: int,
             block_lo: int, out: np.ndarray | None = None, *,
             workspace: ConvWorkspace | None = None) -> np.ndarray:
    """W*x for rows [j_start, j_start+n_rows) as stacked lane GEMMs.

    ``x_ext`` holds the (ghost-extended, periodically wrapped) input blocks
    ``[block_lo, block_lo + len(x_ext)//S)`` as a flat complex array, or a
    ``(batch, ext)`` stack of such arrays for batched execution.  Returns
    ``u`` of shape (n_rows, S) — ``(batch, n_rows, S)`` when batched.

    Every (batch row, lane) pair runs the same chunked GEMMs — batch rows
    are never folded into GEMM rows — so a batched row is bitwise equal
    to the same row run alone, and a row is bitwise independent of the
    row range it was computed in.  ``workspace`` (a
    :class:`ConvWorkspace`) supplies the staging buffers and keeps the
    GEMM weights; with it, repeat calls of one geometry are
    allocation-free apart from the (caller-avoidable) output.
    """
    p = tables.params
    s, n_mu = p.n_segments, p.n_mu
    x_ext = _as_kernel_input(x_ext)
    dtype = x_ext.dtype
    if x_ext.ndim not in (1, 2):
        raise ValueError("x_ext must be 1-D or (batch, ext)")
    batched = x_ext.ndim == 2
    if x_ext.shape[-1] % s:
        raise ValueError("x_ext length must be a multiple of S")
    base, k_total, t_len = _geometry(p, j_start, n_rows, block_lo,
                                     x_ext.shape[-1] // s)
    out_shape = (x_ext.shape[0], n_rows, s) if batched else (n_rows, s)
    if out is None:
        out = np.empty(out_shape, dtype=dtype)
    elif out.shape != out_shape:
        raise ValueError("out has wrong shape")
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    xb = x_ext.reshape(-1, x_ext.shape[-1])
    ws = workspace if workspace is not None else ConvWorkspace()
    shape = _stage_shape(p, xb.shape[0], s, k_total, t_len, dtype.itemsize)
    _lane_gemm(_windows(xb, base, k_total, t_len, p),
               ws.weights(tables, dtype),
               out.reshape(-1, k_total, n_mu, s),
               ws.array("conv.stage", shape, dtype),
               ws.array("conv.res", shape[:3] + (n_mu,), dtype))
    return out


def convolve_lanes(x_ext: np.ndarray, tables: SoiTables, j_start: int,
                   n_rows: int, block_lo: int, lanes,
                   out: np.ndarray | None = None) -> np.ndarray:
    """W*x restricted to a subset of output *lanes* (columns of ``u``).

    The decomposed per-lane structure (Fig 6(b)) makes lane ``p`` depend
    only on the stride-S input slice ``x_ext[p::S]`` and the coefficient
    slice ``coeffs[:, :, p]`` — so a corrupted lane can be recomputed at
    ``len(lanes)/S`` of the full convolution cost.  It runs the lane's
    GEMMs of :func:`convolve` with the same chunking, so a recomputed
    lane is bitwise equal to the clean one.  The ABFT layer
    (:mod:`repro.verify`) uses this for segment-level repair.  1-D
    ``x_ext`` only; returns ``(n_rows, len(lanes))``.
    """
    p = tables.params
    s, n_mu = p.n_segments, p.n_mu
    lanes = list(lanes)
    x_ext = _as_kernel_input(x_ext)
    if x_ext.ndim != 1:
        raise ValueError("convolve_lanes takes a 1-D x_ext")
    dtype = x_ext.dtype
    if out is None:
        out = np.empty((n_rows, len(lanes)), dtype=dtype)
    elif out.shape != (n_rows, len(lanes)):
        raise ValueError("out has wrong shape")
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    base, k_total, t_len = _geometry(p, j_start, n_rows, block_lo,
                                     x_ext.size // s)
    win = _windows(x_ext[None], base, k_total, t_len, p)
    w = _gemm_weights(tables, dtype)
    shape = _stage_shape(p, 1, 1, k_total, t_len, dtype.itemsize)
    stage = np.empty(shape, dtype=dtype)
    res = np.empty(shape[:3] + (n_mu,), dtype=dtype)
    out_k = out.reshape(1, k_total, n_mu, len(lanes))
    for i, lane in enumerate(lanes):
        _lane_gemm(win[:, lane:lane + 1], w[lane:lane + 1],
                   out_k[..., i:i + 1], stage, res)
    return out


def convolve_reference(x_ext: np.ndarray, tables: SoiTables, j_start: int,
                       n_rows: int, block_lo: int) -> np.ndarray:
    """Literal triple-loop W*x (test oracle; tiny sizes only)."""
    p = tables.params
    s, b_width, n_mu = p.n_segments, p.b, p.n_mu
    m0 = input_block_offsets(p, j_start, n_rows) - block_lo
    out = np.zeros((n_rows, s), dtype=np.complex128)
    for jl in range(n_rows):
        r = (j_start + jl) % n_mu
        for b in range(b_width):
            base = (m0[jl] + b) * s
            for lane in range(s):
                out[jl, lane] += tables.coeffs[r, b, lane] * x_ext[base + lane]
    return out


class ConvStrategy(Enum):
    """The paper's Fig 11 execution strategies for the convolution."""

    #: Fig 6(a) row-major traversal: whole coefficient table (n_mu*B*S)
    #: is live per chunk; overflows private LLCs as S grows.
    BASELINE = "baseline"
    #: Fig 6(b) decomposed form with loop interchange: per-lane slice
    #: (n_mu*B) is live; costs one extra memory sweep (the F_S fusion of
    #: the baseline is impossible), mitigated by non-temporal stores.
    INTERCHANGE = "interchange"
    #: Interchange + circular-buffer staging of the stride-S lane inputs
    #: into contiguous storage, eliminating cache conflict misses.
    BUFFERED = "buffering"

    # -- locality characteristics ------------------------------------------

    def working_set_bytes(self, params: SoiParams) -> int:
        """Coefficient bytes live in cache during the inner loops."""
        if self is ConvStrategy.BASELINE:
            return params.n_mu * params.b * params.n_segments * 16
        return params.n_mu * params.b * 16

    def input_stride_bytes(self, params: SoiParams) -> int:
        """Stride of consecutive input touches in the inner loop."""
        if self is ConvStrategy.BASELINE:
            return params.n_segments * 16  # row walks lanes via b*S+p jumps
        if self is ConvStrategy.INTERCHANGE:
            return params.n_segments * 16  # lane access: stride S elements
        return 16  # buffered: contiguous staging buffer

    def extra_sweeps(self) -> float:
        """Extra full memory sweeps relative to the fused baseline (§5.3)."""
        return 0.0 if self is ConvStrategy.BASELINE else 1.0

    # -- ledger & trace -------------------------------------------------------

    def ledger(self, params: SoiParams, n_rows: int) -> SweepLedger:
        """Memory sweeps for computing *n_rows* output rows on one process."""
        led = SweepLedger()
        s = params.n_segments
        in_elems = n_rows * s * params.d_mu // params.n_mu  # input consumed
        out_elems = n_rows * s
        led.load("conv input", in_elems,
                 stride_bytes=self.input_stride_bytes(params))
        led.store("conv output", out_elems, non_temporal=True)
        if self is ConvStrategy.BUFFERED:
            # circular buffer: d_mu staged loads/stores per chunk of B reuse
            staged = int(in_elems)
            led.load("buffer staging", staged, stride_bytes=s * 16)
            led.store("buffer staging", staged)
        if self is not ConvStrategy.BASELINE:
            # decomposed form: F_S cannot be fused -> one extra sweep pair
            led.load("refetch for F_S", out_elems)
        table = params.n_mu * params.b * (s if self is ConvStrategy.BASELINE else 1)
        led.load("coeff table", table)
        return led

    def address_trace(self, params: SoiParams, n_chunks: int = 4,
                      base: int = 0) -> np.ndarray:
        """Byte-address trace (inputs + coefficient table) for the cache sim.

        Emits the access pattern of *n_chunks* convolution chunks in this
        strategy's traversal order.  The coefficient table lives in its own
        address region: row-major (n_mu, B, S) for the baseline (all
        n_mu*B*S live per chunk — the §5.3 spill), per-lane compact
        (n_mu*B) slices for the decomposed forms.
        """
        p = params
        s, b_width, n_mu, d_mu = p.n_segments, p.b, p.n_mu, p.d_mu
        item = 16
        table_base = base + 2 ** 28  # coefficient region
        buf_base = base + 2 ** 30  # contiguous staging region (buffered)
        addrs: list[int] = []
        if self is ConvStrategy.BASELINE:
            for c in range(n_chunks):
                shift = c * d_mu * s
                for r in range(n_mu):
                    for b in range(b_width):
                        for lane in range(s):
                            addrs.append(table_base
                                         + ((r * b_width + b) * s + lane) * item)
                            addrs.append(base + (shift + b * s + lane) * item)
        elif self is ConvStrategy.INTERCHANGE:
            for lane in range(s):
                lane_table = table_base + lane * n_mu * b_width * item
                for c in range(n_chunks):
                    shift = c * d_mu * s
                    for r in range(n_mu):
                        for b in range(b_width):
                            addrs.append(lane_table + (r * b_width + b) * item)
                            addrs.append(base + (shift + b * s + lane) * item)
        else:  # BUFFERED: stage d_mu new blocks per chunk, then hit buffer
            for lane in range(s):
                lane_table = table_base + lane * n_mu * b_width * item
                for b in range(b_width):  # initial fill
                    addrs.append(base + (b * s + lane) * item)
                    addrs.append(buf_base + b * item)
                for c in range(n_chunks):
                    shift = c * d_mu * s
                    for b in range(d_mu):  # incremental refill
                        addrs.append(base + (shift + (b_width + b) * s + lane) * item)
                        addrs.append(buf_base + ((b_width + b) % b_width) * item)
                    for r in range(n_mu):
                        for b in range(b_width):
                            addrs.append(lane_table + (r * b_width + b) * item)
                            addrs.append(buf_base + ((c * d_mu + b) % b_width) * item)
        return np.asarray(addrs, dtype=np.int64)


def conv_time_model(params: SoiParams, machine: MachineSpec,
                    strategy: ConvStrategy = ConvStrategy.BUFFERED,
                    compute_efficiency: float = 0.40) -> float:
    """Modeled per-process convolution time (seconds) — the Fig 11 curves.

    The streaming part (inputs, outputs, extra sweep of the decomposed
    form) overlaps compute under the roofline; *miss* traffic does not —
    cache misses stall the inner product loops — so it is additive:

    * table-spill traffic: once the live coefficient set exceeds the LLC
      slice (baseline: n_mu*B*S, proportional to the cluster size), the
      cyclic chunk reuse thrashes and the table is re-streamed per chunk;
    * conflict traffic: stride-S input walks (interchange without the
      circular buffer) fetch a full 64-byte line per 16-byte element and,
      as the B-deep window's footprint approaches the LLC, power-of-two
      strides alias into few sets and the n_mu-fold reuse refetches.

    Constant choices are validated in direction (not magnitude) against
    the cache simulator in tests/test_convolution.py.
    """
    p = params
    flops = p.conv_flops / p.n_procs
    rows = p.rows_per_process
    s = p.n_segments
    in_bytes = rows * s * 16 * p.d_mu / p.n_mu
    out_bytes = rows * s * 16
    streaming = in_bytes + out_bytes + strategy.extra_sweeps() * out_bytes
    if strategy is ConvStrategy.BUFFERED:
        streaming += 2 * in_bytes * (p.d_mu / p.b)  # staging copies

    llc = machine.llc_bytes_per_core if machine.llc_private \
        else machine.llc_bytes_total
    miss_traffic = 0.0
    ws = strategy.working_set_bytes(p)
    if ws > llc:
        chunks = rows / p.n_mu
        miss_traffic += chunks * min(ws, 2.0 * (ws - llc))
    if strategy is not ConvStrategy.BUFFERED:
        stride = strategy.input_stride_bytes(p)
        if stride > 512:
            line_factor = 4.0  # 64-byte line per 16-byte element
            reuse_refetch = 1.0 + (p.n_mu - 1) * min(1.0, p.b * stride / llc)
            miss_traffic += in_bytes * (line_factor * reuse_refetch - 1.0)

    t_comp = machine.flop_time(flops, compute_efficiency)
    t_stream = machine.mem_time(streaming)
    t_miss = machine.mem_time(miss_traffic)
    return max(t_comp, t_stream) + t_miss
