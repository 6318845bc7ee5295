"""Self-verifying execution of the SOI pipelines.

Two verifier engines share the ABFT primitives:

* :class:`PipelineVerifier` rides :class:`repro.core.soi_single.SoiFFT`:
  after each planned block executes, it checks every stage transition
  still resident in the pooled buffers (conv checksum carried through
  the lane transform, permutation energy, per-segment Parseval + the
  DFT sum invariant on the batched segment FFT, demodulation
  consistency), repairs the *earliest* corrupt stage at segment/lane
  granularity, and recomputes downstream only for the affected rows.
* :class:`DistVerifier` rides the distributed pipelines
  (:mod:`repro.core.soi_dist`, :mod:`repro.core.soi_spmd`): per-rank
  conv+lane checksum before data crosses the wire (so the post-conv
  checkpoint is verified before it is trusted), per-destination segment
  Parseval + sum invariant after the all-to-all, and demodulation
  consistency on the output.  Verification time is charged to the rank
  clocks under ``"abft verify"`` (compute) and repairs under
  ``"abft repair"`` (the ``"retry"`` category — the cost of resilience,
  like re-flown transfers).

Both follow the same escalation ladder (:class:`VerifyPolicy`): repair
attempt 1 recomputes only the flagged segments from in-memory stage
inputs, attempt 2 recomputes the whole stage, and past ``max_strikes``
the run raises :class:`VerificationError` instead of returning silently
corrupt output.
"""

from __future__ import annotations

import numpy as np

from repro.core.convolution import convolve, convolve_lanes
from repro.core.demodulate import demodulate
from repro.core.error_model import verification_thresholds
from repro.core.localfft import (
    LANE_GEMM_MAX,
    lane_fft,
    lane_matrix,
    segment_fft,
)
from repro.core.window import SoiTables
from repro.verify.abft import ConvChecksum, checksum_weights
from repro.verify.invariants import energy_cols, energy_rows, parseval_check
from repro.telemetry.metrics import get_registry
from repro.verify.policy import (
    VerificationError,
    VerificationReport,
    VerifyPolicy,
)

__all__ = ["DistVerifier", "PipelineVerifier"]

_TINY = np.finfo(np.float64).tiny

#: Report counters mirrored into ``repro_verify_<field>_total`` metrics.
_REPORT_FIELDS = ("checks", "detections", "segment_repairs",
                  "stage_repairs", "escalations")


class _MetricsMirror:
    """Publishes a report's counter *deltas* into a metric registry.

    The verifiers bump plain integers on their report as they run; the
    mirror remembers what it last published so each verification site
    can flush at its exit without double-counting (and without the hot
    invariant loops touching the registry)."""

    def __init__(self) -> None:
        self._last = dict.fromkeys(_REPORT_FIELDS, 0)

    def reset(self) -> None:
        self._last = dict.fromkeys(_REPORT_FIELDS, 0)

    def publish(self, report: VerificationReport, registry) -> None:
        for f in _REPORT_FIELDS:
            val = getattr(report, f)
            delta = val - self._last[f]
            if delta > 0:
                registry.counter(
                    f"repro_verify_{f}_total",
                    f"ABFT {f.replace('_', ' ')} across all verifiers"
                ).inc(delta)
                self._last[f] = val

#: Largest S for which the lane transform's DFT matrix is materialized to
#: repair single columns; beyond this, lane repair recomputes the rank's
#: whole lane stage (still O(1/P) of the transform).
_MAX_LANE_MATRIX = 512


def _abs2(a: np.ndarray) -> np.ndarray:
    return a.real * a.real + a.imag * a.imag


class PipelineVerifier:
    """ABFT checks + segment-level repair for one :class:`SoiFFT` plan."""

    def __init__(self, soi, policy: VerifyPolicy):
        self.policy = policy
        self.report = VerificationReport()
        self.thresholds = verification_thresholds(
            soi.tables, dtype=soi.dtype, safety=policy.safety,
            use_alias=policy.use_alias)
        self._soi = soi
        p = soi.params
        self._w_rows = checksum_weights(p.m_oversampled, dtype=soi.dtype)
        self._vdemod = np.ascontiguousarray(
            (1.0 / soi.tables.demod).astype(soi.dtype))
        self._conv_chk: ConvChecksum | None = None
        self._mirror = _MetricsMirror()

    # -- hooks called by SoiFFT._execute -----------------------------------

    def stage_hook(self, stage: str, arr: np.ndarray) -> None:
        """Stage-boundary hook; the test injection point for silent
        corruption in the single-node pipeline."""
        if self.policy.inject is not None:
            self.policy.inject(stage, arr)

    # -- detection ---------------------------------------------------------

    def _conv_checksum(self) -> ConvChecksum:
        if self._conv_chk is None:
            soi = self._soi
            self._conv_chk = ConvChecksum(
                soi.tables, 0, soi.params.m_oversampled, soi._block_lo,
                self._w_rows, dtype=soi.dtype)
        return self._conv_chk

    def _first_failure(self, bufs, res3):
        """Earliest stage whose invariant fails; returns (stage, units).

        *units* is a list of ``(batch_row, segment_or_lane)`` pairs.
        Checks run in pipeline order so repairs always start from a
        trusted upstream buffer.
        """
        soi = self._soi
        p = soi.params
        mp, m = p.m_oversampled, p.m
        th = self.thresholds
        u, alpha, beta = bufs["u"], bufs["alpha"], bufs["beta"]
        z = bufs.get("z", u)
        has_lane = soi._has_lanes

        # conv + lane: the operator checksum predicted from the staged
        # input rides the lane transform, so one comparison on the wire
        # buffer covers both stages in the clean path; only on failure
        # does the u-side check run, to attribute the error to the
        # stage that produced it.
        self.report.checks += 1
        c_pred_u = self._conv_checksum().predict(bufs["x_ext"])
        c_pred_z = lane_fft(c_pred_u)
        c_obs_z = np.matmul(self._w_rows, z)
        e_z = energy_cols(z)  # (b, s)
        bad = _abs2(c_obs_z - c_pred_z) > th.checksum_rtol ** 2 * (
            mp * e_z + _TINY)
        if bad.any():
            if has_lane:
                c_obs_u = np.matmul(self._w_rows, u)
                e_u = energy_cols(u)
                bad_u = _abs2(c_obs_u - c_pred_u) > th.checksum_rtol ** 2 * (
                    mp * e_u + _TINY)
                if bad_u.any():
                    return "conv", np.argwhere(bad_u)
                return "lane", np.argwhere(bad)
            return "conv", np.argwhere(bad)

        # permutation: pure data movement preserves each segment's energy
        self.report.checks += 1
        e_alpha = energy_rows(alpha)  # (b, s)
        bad = np.abs(e_alpha - e_z) > th.energy_rtol * (e_z + _TINY)
        if bad.any():
            return "permute", np.argwhere(bad)

        # segment FFTs: per-segment Parseval + the DFT sum invariant
        # (``sum_k beta[k] == M' * alpha[0]`` for an unscaled forward
        # DFT).  Any single corrupted spectrum element shifts the sum;
        # an energy-preserving error that fools Parseval still moves it.
        self.report.checks += 1
        e_beta = energy_rows(beta)  # (b, s)
        bad = parseval_check(e_alpha, e_beta, mp, th.energy_rtol)
        dc = beta.sum(axis=-1) - mp * alpha[..., 0]
        bad |= _abs2(dc) > th.checksum_rtol ** 2 * (mp * e_beta + _TINY)
        if bad.any():
            return "segment-fft", np.argwhere(bad)

        # demodulation: weighted-sum consistency res * demod == beta[:M]
        self.report.checks += 1
        lhs = res3.sum(axis=-1)  # sum_m res (v * demod == 1)
        rhs = np.matmul(beta[..., :m], self._vdemod)
        e_res = energy_rows(res3)
        bad = _abs2(lhs - rhs) > th.checksum_rtol ** 2 * (m * e_res + _TINY)
        if bad.any():
            return "demod", np.argwhere(bad)
        return None

    # -- repair ------------------------------------------------------------

    def _redo_downstream(self, bufs, res3, bi: int, ts) -> None:
        """Recompute permute/segment/demod for segments *ts* of row *bi*."""
        soi = self._soi
        z = bufs.get("z", bufs["u"])
        alpha, beta = bufs["alpha"], bufs["beta"]
        ts = list(ts)
        alpha[bi, ts] = z[bi][:, ts].T
        beta[bi, ts] = segment_fft(alpha[bi, ts])
        for t in ts:
            res3[bi, t] = beta[bi, t, : soi.params.m] / soi.tables.demod

    def _repair(self, bufs, res3, stage: str, units) -> None:
        soi = self._soi
        p = soi.params
        s = p.n_segments
        u, alpha, beta = bufs["u"], bufs["alpha"], bufs["beta"]
        z = bufs.get("z", u)
        by_row: dict[int, list[int]] = {}
        for bi, t in units:
            by_row.setdefault(int(bi), []).append(int(t))
        for bi, ts in by_row.items():
            if stage == "conv":
                u[bi][:, ts] = convolve_lanes(
                    bufs["x_ext"][bi], soi.tables, 0, p.m_oversampled,
                    soi._block_lo, ts)
                # the lane FFT mixes lanes: everything downstream of a
                # repaired lane is suspect for this batch row
                if soi._has_lanes:
                    lane_fft(u[bi], out=z[bi])
                self._redo_downstream(bufs, res3, bi, range(s))
            elif stage == "lane":
                if s <= LANE_GEMM_MAX:
                    z[bi][:, ts] = np.matmul(u[bi],
                                             lane_matrix(s, u.dtype)[:, ts])
                else:
                    lane_fft(u[bi], out=z[bi])
                    ts = range(s)
                self._redo_downstream(bufs, res3, bi, ts)
            elif stage == "permute":
                self._redo_downstream(bufs, res3, bi, ts)
            elif stage == "segment-fft":
                beta[bi, ts] = segment_fft(alpha[bi, ts])
                for t in ts:
                    res3[bi, t] = beta[bi, t, : p.m] / soi.tables.demod
            else:  # demod
                for t in ts:
                    res3[bi, t] = beta[bi, t, : p.m] / soi.tables.demod
            self.report.segment_repairs += 1

    def check_and_repair(self, xs: np.ndarray, res: np.ndarray) -> None:
        """Verify one executed block; repair and re-verify until clean.

        Called by ``SoiFFT._run`` after the pipeline stages.  Raises
        :class:`VerificationError` if the invariants stay violated after
        the escalation ladder (persistent corruption)."""
        soi = self._soi
        p = soi.params
        bufs = soi._bufpool[xs.shape[0]]
        res3 = res.reshape(xs.shape[0], p.n_segments, p.m)
        strike = 0
        try:
            while True:
                fail = self._first_failure(bufs, res3)
                if fail is None:
                    return
                stage, units = fail
                strike += 1
                self.report.record(stage, -1,
                                   sorted({int(t) for _, t in units}),
                                   strike)
                if strike > self.policy.max_strikes:
                    raise VerificationError(
                        f"stage '{stage}' failed verification after "
                        f"{self.policy.max_strikes} repair attempts "
                        f"(segments {sorted({int(t) for _, t in units})})")
                if strike == 1:
                    self._repair(bufs, res3, stage, units)
                else:
                    # escalation: re-execute the whole block from the input
                    self.report.escalations += 1
                    self.report.stage_repairs += 1
                    soi._execute(xs, res)
        finally:
            telem = soi.telemetry
            self._mirror.publish(
                self.report,
                telem.metrics if telem is not None else get_registry())


class DistVerifier:
    """ABFT checks + segment-level repair for the distributed pipelines.

    One verifier serves every rank of a run (the per-rank convolution
    geometry is identical, so the precomputed checksum functional and
    weights are shared); detections carry the rank they fired on.
    """

    def __init__(self, tables: SoiTables, policy: VerifyPolicy | None = None,
                 dtype=np.complex128):
        self.tables = tables
        self.policy = policy or VerifyPolicy()
        self.report = VerificationReport()
        self.thresholds = verification_thresholds(
            tables, dtype=dtype, safety=self.policy.safety,
            use_alias=self.policy.use_alias)
        p = tables.params
        self._rows = p.rows_per_process
        self._left_g = p.ghost_blocks[0]
        self._w_rows = checksum_weights(self._rows)
        self._vdemod = np.ascontiguousarray(1.0 / tables.demod)
        self._conv_chk: ConvChecksum | None = None
        self._mirror = _MetricsMirror()

    def reset_report(self) -> VerificationReport:
        """Fresh counters for a new run; returns the new report."""
        self.report = VerificationReport()
        self._mirror.reset()
        return self.report

    def _publish(self, cluster) -> None:
        self._mirror.publish(
            self.report,
            cluster.metrics if cluster is not None else get_registry())

    def _conv_checksum(self) -> ConvChecksum:
        if self._conv_chk is None:
            # every rank's local geometry is the same shifted window:
            # rank r's (j_start = r*rows, block_lo = own_lo - left_g)
            # reduces to (0, -left_g) in local coordinates
            self._conv_chk = ConvChecksum(
                self.tables, 0, self._rows, -self._left_g, self._w_rows)
        return self._conv_chk

    def _charge(self, cluster, rank: int, label: str, seconds: float,
                category: str = "compute") -> None:
        if cluster is None:
            return
        cluster.charge_seconds(rank, label, seconds, category=category)
        # itemize verification/repair work in the per-request budget of
        # an installed deadline, so serving-layer post-mortems see where
        # the time went (the clocks already advanced either way)
        deadline = getattr(cluster.comm, "deadline", None)
        if deadline is not None:
            deadline.charge(category, seconds)

    # -- per-rank conv + lane stage (before the wire) -----------------------

    def check_conv(self, cluster, rank: int, x_ext: np.ndarray,
                   u: np.ndarray, z: np.ndarray, j_start: int,
                   block_lo: int, conv_seconds: float = 0.0,
                   lane_seconds: float = 0.0) -> np.ndarray:
        """Verify (and if needed repair) one rank's post-conv segments.

        Returns the trusted ``z`` — the array that must feed both the
        checkpoint and the all-to-all.  Localization: the checksum
        syndrome's column support names the corrupt segment columns.
        """
        th = self.thresholds
        p = self.tables.params
        s = p.n_segments
        self.report.checks += 1
        if cluster is not None:
            self._charge(cluster, rank, "abft verify",
                         cluster.machine_of(rank).mem_time(
                             z.nbytes + x_ext.nbytes))
        c_pred = lane_fft(self._conv_checksum().predict(x_ext))
        strike = 0
        try:
            while True:
                c_obs = np.matmul(self._w_rows, z)
                e_z = energy_cols(z)
                bad = _abs2(c_obs - c_pred) > th.checksum_rtol ** 2 * (
                    self._rows * e_z + _TINY)
                if not bad.any():
                    return z
                strike += 1
                segs = np.nonzero(bad)[0]
                self.report.record("conv", rank, segs, strike)
                if strike > self.policy.max_strikes:
                    raise VerificationError(
                        f"rank {rank}: conv stage failed verification after "
                        f"{self.policy.max_strikes} repair attempts "
                        f"(segments {segs.tolist()})")
                if strike == 1 and 1 < s <= _MAX_LANE_MATRIX:
                    # segment-level: re-derive only the corrupt z columns
                    z[:, segs] = np.matmul(u, lane_matrix(s)[:, segs])
                    self.report.segment_repairs += 1
                    self._charge(cluster, rank, "abft repair",
                                 lane_seconds * len(segs) / s,
                                 category="retry")
                else:
                    u = convolve(x_ext, self.tables, j_start, self._rows,
                                 block_lo)
                    z = lane_fft(u)
                    self.report.stage_repairs += 1
                    self.report.escalations += 1
                    self._charge(cluster, rank, "abft repair",
                                 conv_seconds + lane_seconds,
                                 category="retry")
        finally:
            self._publish(cluster)

    # -- per-destination segment FFTs (after the wire) ----------------------

    def check_segments(self, cluster, rank: int, alpha: np.ndarray,
                       beta: np.ndarray, slot_ids,
                       fft_seconds: float = 0.0) -> np.ndarray:
        """Verify one destination's segment spectra against Parseval and
        the DFT sum invariant (``sum_k beta[i, k] == M' * alpha[0, i]``
        for an unscaled forward DFT); repair flagged segments from
        ``alpha`` (still in memory — the natural per-destination
        checkpoint).

        ``alpha`` is (M', k) with k owned segments in ``slot_ids``
        (global ids, for localization records); ``beta`` is (k, M').
        Returns the trusted ``beta``.
        """
        th = self.thresholds
        p = self.tables.params
        mp = p.m_oversampled
        slot_ids = list(slot_ids)
        self.report.checks += 1
        if cluster is not None:
            self._charge(cluster, rank, "abft verify",
                         cluster.machine_of(rank).mem_time(
                             alpha.nbytes + beta.nbytes))
        e_a = energy_cols(alpha)  # (k,) per owned segment
        dc_pred = mp * alpha[0]  # the sum invariant, from the input side
        strike = 0
        try:
            while True:
                e_b = energy_rows(beta)
                bad = parseval_check(e_a, e_b, mp, th.energy_rtol)
                dc = beta.sum(axis=-1) - dc_pred
                bad = bad | (_abs2(dc) > th.checksum_rtol ** 2 * (
                    mp * e_b + _TINY))
                if not bad.any():
                    return beta
                strike += 1
                rows_bad = np.nonzero(bad)[0]
                self.report.record("segment-fft", rank,
                                   [slot_ids[i] for i in rows_bad], strike)
                if strike > self.policy.max_strikes:
                    raise VerificationError(
                        f"rank {rank}: segment FFTs failed verification "
                        f"after {self.policy.max_strikes} repair attempts "
                        f"(segments {[slot_ids[i] for i in rows_bad]})")
                if strike == 1:
                    beta[rows_bad] = segment_fft(alpha.T[rows_bad])
                    self.report.segment_repairs += 1
                    self._charge(cluster, rank, "abft repair",
                                 fft_seconds * len(rows_bad) / max(
                                     beta.shape[0], 1),
                                 category="retry")
                else:
                    beta = segment_fft(alpha.T)
                    self.report.stage_repairs += 1
                    self.report.escalations += 1
                    self._charge(cluster, rank, "abft repair", fft_seconds,
                                 category="retry")
        finally:
            self._publish(cluster)

    def check_demod(self, cluster, rank: int, beta: np.ndarray,
                    seg: np.ndarray, slot_ids) -> np.ndarray:
        """Weighted-sum consistency of ``seg * demod == beta[:, :M]``."""
        th = self.thresholds
        m = self.tables.params.m
        self.report.checks += 1
        slot_ids = list(slot_ids)
        strike = 0
        try:
            while True:
                lhs = seg.sum(axis=-1)
                rhs = np.matmul(beta[:, :m], self._vdemod)
                e_res = energy_rows(seg)
                bad = _abs2(lhs - rhs) > th.checksum_rtol ** 2 * (
                    m * e_res + _TINY)
                if not bad.any():
                    return seg
                strike += 1
                rows_bad = np.nonzero(bad)[0]
                self.report.record("demod", rank,
                                   [slot_ids[i] for i in rows_bad], strike)
                if strike > self.policy.max_strikes:
                    raise VerificationError(
                        f"rank {rank}: demodulation failed verification "
                        f"after {self.policy.max_strikes} repair attempts")
                rows = rows_bad if strike == 1 else np.arange(seg.shape[0])
                seg[rows] = demodulate(beta[rows], self.tables)
                if strike == 1:
                    self.report.segment_repairs += 1
                else:
                    self.report.stage_repairs += 1
                    self.report.escalations += 1
        finally:
            self._publish(cluster)
