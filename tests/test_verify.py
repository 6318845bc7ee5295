"""Tests for the ABFT layer: self-verifying stages, segment-level
localization and repair, detection coverage against seeded SDC, and
straggler hedging."""

import numpy as np
import pytest

from repro.bench.faultsweep import (
    detection_coverage,
    sdc_ground_truth,
    verify_params,
)
from repro.cluster.faults import FaultPlan, chaos_cluster
from repro.cluster.simcluster import SimCluster
from repro.core.error_model import verification_thresholds
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.core.soi_spmd import spmd_soi_fft
from repro.core.window import build_tables
from repro.util.validate import relative_l2_error
from repro.verify import (
    ConvChecksum,
    DistVerifier,
    HedgePolicy,
    VerificationError,
    VerifyPolicy,
    batch_checksum,
    checksum_weights,
    energy_cols,
    energy_rows,
    parseval_check,
)
from tests.conftest import random_complex

pytestmark = pytest.mark.abft

PARAMS = SoiParams(n=8 * 448, n_procs=1, segments_per_process=8,
                   n_mu=8, d_mu=7, b=48)
STAGES = ["conv", "lane", "permute", "segment-fft", "demod"]


def one_shot_injector(stage: str, seg: int, amplitude: float = 3.0):
    """Perturb one element of *stage*'s buffer by amplitude*rms, once."""
    fired = []

    def inject(st, arr):
        if st != stage or fired:
            return
        fired.append(1)
        rms = np.sqrt((np.abs(arr) ** 2).mean())
        if st in ("conv", "lane"):  # (batch, rows, S): columns are lanes
            arr[0, 100, seg] += amplitude * rms
        else:  # (batch, S, M'): rows are segments
            arr[0, seg, 37] += amplitude * rms

    return inject


class TestChecksumPrimitives:
    def test_weights_unit_modulus_and_distinct(self):
        w = checksum_weights(64)
        assert np.allclose(np.abs(w), 1.0)
        assert len(np.unique(np.round(w, 9))) == 64

    def test_batch_checksum_commutes_with_fft(self, rng):
        rows = random_complex(rng, 16, 32)
        w = checksum_weights(16)
        lhs = np.fft.fft(batch_checksum(rows, w))
        rhs = batch_checksum(np.fft.fft(rows, axis=-1), w)
        assert np.allclose(lhs, rhs)

    def test_conv_checksum_predicts_staged_output(self, rng):
        f = SoiFFT(PARAMS, verify=True)
        x = random_complex(rng, PARAMS.n)
        f(x)
        bufs = f._bufpool[1]
        chk = f.verifier._conv_checksum()
        assert isinstance(chk, ConvChecksum)
        pred = chk.predict(bufs["x_ext"])
        obs = batch_checksum(bufs["u"], f.verifier._w_rows)
        assert np.allclose(pred, obs)

    def test_conv_checksum_rejects_bad_weights(self):
        tables = build_tables(PARAMS)
        with pytest.raises(ValueError, match="one weight per"):
            ConvChecksum(tables, 0, PARAMS.m_oversampled, 0,
                         checksum_weights(7))


class TestEnergyInvariants:
    def test_energy_matches_reference(self, rng):
        a = random_complex(rng, 3, 16, 5)
        assert np.allclose(energy_rows(a), np.sum(np.abs(a) ** 2, axis=-1))
        assert np.allclose(energy_cols(a), np.sum(np.abs(a) ** 2, axis=-2))

    def test_contiguous_and_strided_paths_agree(self, rng):
        a = random_complex(rng, 4, 8, 6)
        strided = np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(
            0, 2, 1)
        assert not strided.flags.c_contiguous
        assert np.allclose(energy_rows(a), energy_rows(strided))
        assert np.allclose(energy_cols(a), energy_cols(strided))

    def test_parseval_check_on_fft(self, rng):
        x = random_complex(rng, 6, 256)
        y = np.fft.fft(x, axis=-1)
        e_in, e_out = energy_rows(x), energy_rows(y)
        assert not parseval_check(e_in, e_out, 256, 1e-12).any()
        y[3, 17] *= 1.5
        bad = parseval_check(e_in, energy_rows(y), 256, 1e-12)
        assert bad.tolist() == [False, False, False, True, False, False]


class TestThresholds:
    def test_calibration_sane(self):
        th = verification_thresholds(build_tables(PARAMS))
        assert 0.0 < th.checksum_rtol < 1e-10
        assert 0.0 < th.energy_rtol < 1e-10
        assert th.output_rtol >= 10.0 * build_tables(PARAMS).expected_stopband
        assert 0.0 < th.min_detectable_amplitude < 1e-3


class TestSingleNodeVerification:
    @pytest.mark.parametrize("seed", range(5))
    def test_clean_runs_have_zero_false_positives(self, seed):
        rng = np.random.default_rng(seed)
        f = SoiFFT(PARAMS, verify=True)
        y = f(random_complex(rng, PARAMS.n))
        rep = f.verifier.report
        assert rep.checks > 0
        assert rep.detections == 0
        assert y is not None

    @pytest.mark.parametrize("stage", STAGES)
    def test_injected_corruption_is_detected_localized_repaired(
            self, rng, stage):
        x = random_complex(rng, PARAMS.n)
        clean = SoiFFT(PARAMS)(x)
        base = relative_l2_error(clean, np.fft.fft(x))

        seg = 5
        policy = VerifyPolicy(inject=one_shot_injector(stage, seg))
        f = SoiFFT(PARAMS, verify=policy)
        y = f(x)
        rep = f.verifier.report
        assert stage in rep.detected_stages
        assert seg in rep.detected_segments
        assert rep.repairs >= 1
        # repair restores numpy.fft agreement to the clean-run level
        assert relative_l2_error(y, np.fft.fft(x)) <= base * 1.0001

    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_repair_is_bitwise_clean(self, rng, batch):
        # a repaired lane is recomputed by the same GEMMs as the clean
        # run, and everything downstream of it is redone row by row
        xs = random_complex(rng, batch, PARAMS.n)
        clean = SoiFFT(PARAMS).batch(xs)
        f = SoiFFT(PARAMS, verify=VerifyPolicy(
            inject=one_shot_injector("conv", 5)))
        ys = f.batch(xs)
        assert f.verifier.report.detected_stages == {"conv"}
        assert np.array_equal(ys, clean)

    def test_small_amplitude_still_detected(self, rng):
        x = random_complex(rng, PARAMS.n)
        policy = VerifyPolicy(
            inject=one_shot_injector("segment-fft", 4, amplitude=1e-8))
        f = SoiFFT(PARAMS, verify=policy)
        f(x)
        assert f.verifier.report.detections == 1

    def test_batch_verification(self, rng):
        xs = random_complex(rng, 3, PARAMS.n)
        f = SoiFFT(PARAMS, verify=True)
        ys = f.batch(xs)
        assert f.verifier.report.detections == 0
        for i in range(3):
            err = relative_l2_error(ys[i], np.fft.fft(xs[i]))
            assert err < f.verifier.thresholds.output_rtol

    def test_persistent_corruption_escalates_then_raises(self, rng):
        """With repair disabled the strike ladder must end in an error,
        never in silently corrupt output."""
        def always_inject(st, arr):
            if st == "segment-fft":
                arr[0, 2, 37] += 10.0 * np.sqrt((np.abs(arr) ** 2).mean())

        f = SoiFFT(PARAMS, verify=VerifyPolicy(inject=always_inject))
        f.verifier._repair = lambda *a, **k: None
        with pytest.raises(VerificationError, match="segment-fft"):
            f(random_complex(rng, PARAMS.n))
        assert f.verifier.report.escalations >= 1

    def test_verify_requires_direct_local_fft(self):
        with pytest.raises(ValueError, match="verify"):
            SoiFFT(PARAMS, local_fft="sixstep", verify=True)


class TestDistributedVerification:
    @pytest.mark.parametrize("seed", range(4))
    def test_clean_runs_have_zero_false_positives(self, seed):
        params = verify_params(4)
        rng = np.random.default_rng(seed)
        cl = SimCluster(4)
        soi = DistributedSoiFFT(cl, params, verify=True)
        x = random_complex(rng, params.n)
        soi.assemble(soi(soi.scatter(x)))
        assert soi.last_verification.detections == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_sdc_detected_localized_repaired(self, rng, seed):
        params = verify_params(4)
        cl = SimCluster(4)
        plan = FaultPlan.random(seed, 4, sdc_rate=0.5, sdc_amplitude=5.0,
                                horizon_sdc=2 * 4)
        chaos_cluster(cl, plan)
        soi = DistributedSoiFFT(cl, params, verify=True)
        x = random_complex(rng, params.n)
        y = soi.assemble(soi(soi.scatter(x)))

        cov = detection_coverage(soi.last_verification, plan, params)
        assert cov["detected"] == cov["injected"]
        assert cov["localized"] == cov["injected"]
        err = relative_l2_error(y, np.fft.fft(x))
        assert err < soi.verifier.thresholds.output_rtol
        if cov["injected"]:
            assert cov["repairs"] >= 1
            # the price of resilience lands in the retry trace category
            assert any(e.label == "abft repair" and e.category == "retry"
                       for e in cl.trace.events)

    def test_ground_truth_mapping(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        plan = FaultPlan.random(3, 4, sdc_rate=0.5, sdc_amplitude=5.0,
                                horizon_sdc=8)
        chaos_cluster(cl, plan)
        soi = DistributedSoiFFT(cl, params, verify=True)
        soi(soi.scatter(random_complex(rng, params.n)))
        truth = sdc_ground_truth(plan, params)
        assert len(truth) == len(plan.sdc_log) > 0
        for stage, rank, seg in truth:
            assert stage in ("conv", "segment-fft")
            assert 0 <= rank < 4
            assert 0 <= seg < params.n_segments

    def test_verification_time_is_charged(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        soi = DistributedSoiFFT(cl, params, verify=True)
        soi(soi.scatter(random_complex(rng, params.n)))
        verify_evs = [e for e in cl.trace.events if e.label == "abft verify"]
        assert verify_evs and all(e.category == "compute"
                                  for e in verify_evs)


class TestSpmdVerification:
    def test_sdc_detected_and_output_correct(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        plan = FaultPlan.random(3, 4, sdc_rate=0.5, sdc_amplitude=5.0,
                                horizon_sdc=8)
        chaos_cluster(cl, plan)
        ver = DistVerifier(build_tables(params))
        x = random_complex(rng, params.n)
        y = spmd_soi_fft(cl, params, x, verify=ver)
        assert len(plan.sdc_log) > 0
        cov = detection_coverage(ver.report, plan, params)
        assert cov["detected"] == cov["injected"]
        err = relative_l2_error(y, np.fft.fft(x))
        assert err < ver.thresholds.output_rtol

    def test_clean_spmd_zero_detections(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        ver = DistVerifier(build_tables(params))
        spmd_soi_fft(cl, params, random_complex(rng, params.n), verify=ver)
        assert ver.report.detections == 0


class TestHedging:
    PARAMS8 = SoiParams(n=8 * 2 * 448, n_procs=8, segments_per_process=2,
                        n_mu=8, d_mu=7, b=48)

    def _run(self, hedge):
        rng = np.random.default_rng(42)
        x = random_complex(rng, self.PARAMS8.n)
        plan = FaultPlan.random(5, 8, n_stragglers=2,
                                straggler_slowdown=2.0, jitter=0.02)
        cl = SimCluster(8)
        chaos_cluster(cl, plan)
        y = spmd_soi_fft(cl, self.PARAMS8, x, hedge=hedge)
        return cl, x, y

    def test_hedging_reduces_makespan_with_stragglers(self):
        cl_base, x, y0 = self._run(None)
        hp = HedgePolicy()
        cl_hedge, _, y1 = self._run(hp)
        assert hp.launched > 0
        assert hp.won > 0
        assert cl_hedge.elapsed < cl_base.elapsed
        assert np.allclose(y0, y1)
        assert relative_l2_error(y1, np.fft.fft(x)) < 1e-4

    def test_hedge_events_land_in_hedge_category(self):
        hp = HedgePolicy()
        cl, _, _ = self._run(hp)
        hedge_evs = [e for e in cl.trace.events if e.category == "hedge"]
        assert len(hedge_evs) == hp.launched
        assert all(e.label.startswith("hedge ") for e in hedge_evs)
        assert hp.time_saved > 0.0

    def test_quiet_without_stragglers(self, rng):
        params = verify_params(4)
        cl = SimCluster(4)
        hp = HedgePolicy()
        spmd_soi_fft(cl, params, random_complex(rng, params.n), hedge=hp)
        assert hp.launched == 0

    def test_min_ranks_guards_the_median(self):
        hp = HedgePolicy(min_ranks=3)
        cl = SimCluster(2)
        hp.review(cl, [(0, "x", 0.0, 1.0), (1, "x", 0.0, 100.0)])
        assert hp.launched == 0

    def test_summary_mentions_wins(self):
        hp = HedgePolicy()
        assert "hedges=0" in hp.summary()
