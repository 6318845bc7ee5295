"""Tests for checksums and detect-only wire verification.

The deprecated :mod:`repro.cluster.integrity` shims (``FaultInjector``,
``checksummed_cluster``) are gone; the unified fault layer covers the
same ground directly: a :class:`~repro.cluster.faults.FaultPlan` plus a
``RetryPolicy(max_retries=0)`` is the old detect-only mode.
"""

import numpy as np
import pytest

from repro.cluster.faults import (
    CorruptionDetected,
    FaultPlan,
    RetryPolicy,
    checksum,
)
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from tests.conftest import random_complex


def detect_only_cluster(cl: SimCluster, plan: FaultPlan | None = None
                        ) -> SimCluster:
    """Arm the verified path in detect-only mode (no retries)."""
    cl.comm.install_faults(plan if plan is not None else FaultPlan(),
                           RetryPolicy(max_retries=0))
    return cl


class TestChecksum:
    def test_deterministic(self, rng):
        a = random_complex(rng, 32)
        assert checksum(a) == checksum(a.copy())

    def test_sensitive_to_any_change(self, rng):
        a = random_complex(rng, 32)
        b = a.copy()
        b[17] += 1e-12
        assert checksum(a) != checksum(b)

    def test_order_sensitive(self, rng):
        a = random_complex(rng, 8)
        assert checksum(a) != checksum(a[::-1])


class TestCleanRuns:
    def test_checksummed_run_is_transparent(self, rng):
        params = SoiParams(n=8 * 448, n_procs=4, segments_per_process=2,
                           n_mu=8, d_mu=7, b=48)
        x = random_complex(rng, params.n)
        cl = detect_only_cluster(SimCluster(4))
        soi = DistributedSoiFFT(cl, params)
        y = soi.assemble(soi(soi.scatter(x)))
        ref = np.fft.fft(x)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-4

    def test_plan_counts_messages(self, rng):
        plan = FaultPlan()
        cl = detect_only_cluster(SimCluster(3), plan)
        send = [[random_complex(rng, 2) for _ in range(3)] for _ in range(3)]
        cl.comm.alltoall(send)
        assert plan.messages_seen == 6  # 3*2 non-self payloads
        assert plan.corruptions_injected == 0


class TestFaultDetection:
    def test_corruption_is_detected(self, rng):
        plan = FaultPlan(corrupt_messages=(3,))
        cl = detect_only_cluster(SimCluster(3), plan)
        send = [[random_complex(rng, 4) for _ in range(3)] for _ in range(3)]
        with pytest.raises(CorruptionDetected, match="failed its checksum"):
            cl.comm.alltoall(send)
        assert plan.corruptions_injected == 1

    def test_corruption_in_soi_run_detected(self, rng):
        params = SoiParams(n=8 * 448, n_procs=4, segments_per_process=2,
                           n_mu=8, d_mu=7, b=48)
        cl = detect_only_cluster(SimCluster(4),
                                 FaultPlan(corrupt_messages=(5,)))
        soi = DistributedSoiFFT(cl, params)
        with pytest.raises(CorruptionDetected):
            soi(soi.scatter(random_complex(rng, params.n)))

    def test_zero_size_payloads_survive(self):
        cl = detect_only_cluster(SimCluster(2),
                                 FaultPlan(corrupt_messages=(1,)))
        send = [[np.zeros(0, dtype=np.complex128)] * 2 for _ in range(2)]
        cl.comm.alltoall(send)  # nothing to corrupt, nothing to detect

    def test_same_fault_heals_under_a_retrying_policy(self, rng):
        """What detect-only mode can only report, retries ride out."""
        send = [[random_complex(rng, 4) for _ in range(3)] for _ in range(3)]

        cl = detect_only_cluster(SimCluster(3),
                                 FaultPlan(corrupt_messages=(3,)))
        with pytest.raises(CorruptionDetected):
            cl.comm.alltoall(send)

        cl = SimCluster(3)
        cl.comm.install_faults(FaultPlan(corrupt_messages=(3,)),
                               RetryPolicy(max_retries=2))
        recv = cl.comm.alltoall(send)
        assert np.array_equal(recv[2][0], send[0][2])
        assert cl.comm.retry_count == 1

    def test_bcast_verified_too(self, rng):
        """Every collective runs the verified path, not just alltoall."""
        cl = detect_only_cluster(SimCluster(3),
                                 FaultPlan(corrupt_messages=(1,)))
        with pytest.raises(CorruptionDetected, match="bcast"):
            cl.comm.bcast(random_complex(rng, 4), root=0)

    def test_clear_faults_disarms(self, rng):
        plan = FaultPlan(corrupt_messages=(1,))
        cl = detect_only_cluster(SimCluster(2), plan)
        cl.comm.clear_faults()
        send = [[random_complex(rng, 2) for _ in range(2)] for _ in range(2)]
        cl.comm.alltoall(send)  # no verification, no injection
        assert plan.messages_seen == 0


class TestShimsAreGone:
    def test_integrity_module_removed(self):
        with pytest.raises(ImportError):
            import repro.cluster.integrity  # noqa: F401

    def test_package_no_longer_exports_shims(self):
        import repro.cluster as pkg

        assert not hasattr(pkg, "FaultInjector")
        assert not hasattr(pkg, "checksummed_cluster")
        assert "FaultInjector" not in pkg.__all__


class TestBatchApi:
    def test_batch_matches_per_vector(self, rng):
        from repro.core.soi_single import SoiFFT

        params = SoiParams(n=4 * 448, n_procs=1, segments_per_process=4,
                           n_mu=8, d_mu=7, b=32)
        f = SoiFFT(params)
        xs = random_complex(rng, 3, params.n)
        ys = f.batch(xs)
        for i in range(3):
            assert np.array_equal(ys[i], f(xs[i]))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("batch", range(1, 10))
    def test_batch_matches_per_vector_every_size(self, rng, batch, dtype):
        # odd sizes and single rows hit the kernels' tail paths
        from repro.core.soi_single import SoiFFT

        params = SoiParams(n=4 * 448, n_procs=1, segments_per_process=4,
                           n_mu=8, d_mu=7, b=32)
        f = SoiFFT(params, dtype=dtype)
        xs = random_complex(rng, batch, params.n).astype(dtype)
        ys = f.batch(xs)
        for i in range(batch):
            assert np.array_equal(ys[i], f(xs[i]))

    def test_batch_validates_shape(self, rng):
        from repro.core.soi_single import SoiFFT

        params = SoiParams(n=4 * 448, n_procs=1, segments_per_process=4,
                           n_mu=8, d_mu=7, b=32)
        f = SoiFFT(params)
        with pytest.raises(ValueError):
            f.batch(random_complex(rng, 3, 10))
        with pytest.raises(ValueError):
            f.batch(random_complex(rng, params.n))
