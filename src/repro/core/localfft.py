"""Node-local FFT kernels of the SOI stages: lane F_S and segment F_M'.

The paper runs its local FFTs through a vendor library (MKL, DESIGN.md
§2) and spends its own effort on the convolution and the data movement;
these are the same split on numpy.  Every SOI path — :class:`SoiFFT`, the
distributed driver and its recovery, the SPMD rank and recovery programs,
the heterogeneous driver and both ABFT verifiers — calls these two
functions, so all of them compute bitwise-identical stage outputs:

* :func:`segment_fft` — the length-M' FFT of every row, through numpy's
  pocketfft (``np.fft.fft(a, axis=-1, out=b)``).  Rows are transformed
  independently, so a row's spectrum does not depend on how many rows
  are in the call or where it sits;
* :func:`lane_fft` — the length-S transform across lanes: a DFT-matrix
  GEMM while S <= :data:`LANE_GEMM_MAX` (one zgemm beats a huge batch of
  tiny FFTs), pocketfft above that.

With ``out=`` both are allocation-free for complex128.  complex64 stays
complex64, but numpy's pocketfft computes it in double precision through
cast buffers (an allocation of the call's size per call).

The from-scratch Stockham/Bluestein engine behind
:func:`repro.fft.plan.get_plan` stays the repo's FFT library
(``repro.fft.fft``, the Fig 10 six-step study kernels, test oracles).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fft.dft import dft_matrix

__all__ = ["LANE_GEMM_MAX", "lane_fft", "lane_matrix", "segment_fft"]

#: Largest lane count S whose transform runs as a DFT-matrix GEMM; the
#: O(S^2) matrix stays cache-sized up to here.
LANE_GEMM_MAX = 64


@lru_cache(maxsize=None)
def _lane_matrix(s: int, dtype: str) -> np.ndarray:
    mat = np.ascontiguousarray(dft_matrix(s).astype(dtype))
    mat.flags.writeable = False
    return mat


def lane_matrix(s: int, dtype=np.complex128) -> np.ndarray:
    """The (read-only, cached) S x S forward DFT matrix of the lane GEMM."""
    return _lane_matrix(int(s), np.dtype(dtype).str)


def lane_fft(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward DFT along the last (lane) axis of *u*.

    S == 1 is the identity (a copy into ``out`` when given).
    """
    s = u.shape[-1]
    if s == 1:
        if out is None:
            return u
        np.copyto(out, u)
        return out
    if s <= LANE_GEMM_MAX:
        return np.matmul(u, lane_matrix(s, u.dtype), out=out)
    return np.fft.fft(u, axis=-1, out=out)


def segment_fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward DFT of every row of *a* (last axis), via pocketfft.

    Without ``out`` the result is a new C-contiguous array, whatever the
    layout of *a* (callers pass transposed views).
    """
    if out is None:
        out = np.empty(a.shape, dtype=np.complex64
                       if a.dtype == np.complex64 else np.complex128)
    return np.fft.fft(a, axis=-1, out=out)
