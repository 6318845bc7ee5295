"""Property-based differential tests for the plan autotuner.

The contract under test: the autotuner may only change *speed*, never
*answers*.  Every candidate the search may pick — any radix ladder, any
strategy, any SOI configuration that survives the accuracy guard — must
produce output equivalent to the default plan's, across a randomized
(n, dtype, candidate) matrix that includes r2c and Bluestein sizes.
Equivalence is bitwise when tuned and default configurations coincide,
and within floating-point schedule tolerance otherwise (different radix
orders legitimately round differently).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft.autotune import (TuneBudget, autotune, default_radices,
                                default_soi_config, kernel_candidates,
                                soi_candidates, tune_kernel, tune_soi)
from repro.fft.bluestein import BluesteinPlan
from repro.fft.plan import (cache_clear, get_active_wisdom, get_plan,
                            set_active_wisdom)
from repro.fft.real import rfft
from repro.fft.stockham import StockhamPlan
from repro.fft.wisdom import Wisdom, machine_fingerprint
from tests.conftest import random_complex

pytestmark = pytest.mark.autotune

# double-precision schedule tolerance: different radix orders round
# differently but agree to ~n*eps; 1e-9 relative is orders above that
TOL = 1e-9

SMOOTH_SIZES = [16, 48, 64, 120, 256, 360, 504, 1008, 1024]
BLUESTEIN_SIZES = [11, 97, 1009]  # primes: no smooth factorization


@pytest.fixture(autouse=True)
def _no_leaked_wisdom():
    """Every test starts and ends with no wisdom installed."""
    prev = set_active_wisdom(None)
    yield
    set_active_wisdom(prev)
    cache_clear()


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b))) or 1.0
    return float(np.max(np.abs(a - b))) / scale


class TestKernelCandidateEquivalence:
    """Any candidate the search may pick must match the default plan."""

    @given(st.sampled_from(SMOOTH_SIZES), st.integers(0, 7),
           st.integers(0, 2 ** 31 - 1), st.sampled_from([-1, +1]))
    @settings(max_examples=25, deadline=None)
    def test_every_candidate_matches_default(self, n, cand_idx, seed, sign):
        cands = kernel_candidates(n)
        cand = cands[cand_idx % len(cands)]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        base = StockhamPlan(n, sign)(x[None, :])[0]
        tuned = StockhamPlan(n, sign, radices=cand["radices"])(x[None, :])[0]
        assert _rel_err(tuned, base) < TOL

    @given(st.sampled_from(SMOOTH_SIZES), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_complex64_candidates_match_default(self, n, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal(n)
             + 1j * rng.standard_normal(n)).astype(np.complex64)
        base = StockhamPlan(n, dtype=np.complex64)(x[None, :])[0]
        for cand in kernel_candidates(n, np.complex64):
            tuned = StockhamPlan(n, radices=cand["radices"],
                                 dtype=np.complex64)(x[None, :])[0]
            assert _rel_err(tuned, base) < 1e-4  # single precision

    @pytest.mark.parametrize("n", BLUESTEIN_SIZES)
    def test_bluestein_sizes_have_one_candidate(self, n, rng):
        cands = kernel_candidates(n)
        assert cands == [{"strategy": "bluestein", "radices": []}]
        # the only candidate IS the default: tuned output is bitwise
        # identical because it is the same plan construction
        x = random_complex(rng, n)
        a = BluesteinPlan(n)(x[None, :])[0]
        b = BluesteinPlan(n)(x[None, :])[0]
        assert np.array_equal(a, b)

    def test_default_candidate_is_first(self):
        for n in SMOOTH_SIZES:
            assert kernel_candidates(n)[0]["radices"] == default_radices(n)


class TestTunedPlanEquivalence:
    """End-to-end: tune -> install wisdom -> get_plan answers match."""

    @given(st.sampled_from([64, 360, 1008]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_tuned_get_plan_matches_untuned(self, n, seed):
        res = tune_kernel(n, reps=1, batch=1,
                          budget=TuneBudget(seconds=5.0))
        w = Wisdom()
        w.record_kernel(n, res.sign, res.dtype, machine_fingerprint(),
                        res.winner["strategy"], res.winner["radices"])
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        set_active_wisdom(None)
        base = get_plan(n)(x[None, :])[0]
        set_active_wisdom(w)
        tuned = get_plan(n)(x[None, :])[0]
        set_active_wisdom(None)
        assert _rel_err(tuned, base) < TOL

    def test_tuned_plan_uses_winning_radices(self):
        res = tune_kernel(256, reps=1, batch=1)
        w = Wisdom()
        w.record_kernel(256, -1, "complex128", machine_fingerprint(),
                        res.winner["strategy"], res.winner["radices"])
        set_active_wisdom(w)
        plan = get_plan(256)
        set_active_wisdom(None)
        assert list(plan.radices) == list(res.winner["radices"])

    def test_set_active_wisdom_returns_previous_and_clears_cache(self):
        w1, w2 = Wisdom(), Wisdom()
        assert set_active_wisdom(w1) is None
        get_plan(64)
        assert set_active_wisdom(w2) is w1
        assert get_active_wisdom() is w2
        assert set_active_wisdom(None) is w2

    def test_r2c_path_consumes_wisdom_and_matches(self, rng):
        # rfft plans the half-length complex transform through get_plan,
        # so installed wisdom must flow through without changing answers
        n = 1008  # half = 504, smooth
        res = tune_kernel(n // 2, reps=1, batch=1)
        w = Wisdom()
        w.record_kernel(n // 2, -1, "complex128", machine_fingerprint(),
                        res.winner["strategy"], res.winner["radices"])
        x = rng.standard_normal(n)
        set_active_wisdom(None)
        base = rfft(x)
        cache_clear()
        set_active_wisdom(w)
        tuned = rfft(x)
        set_active_wisdom(None)
        assert _rel_err(tuned, base) < TOL
        assert _rel_err(tuned, np.fft.rfft(x)) < TOL

    def test_wisdom_for_other_machine_still_correct(self, rng):
        # foreign-machine entries are fallbacks (AccFFT portability):
        # possibly not optimal here, but must still be a correct plan
        res = tune_kernel(360, reps=1, batch=1)
        w = Wisdom()
        w.record_kernel(360, -1, "complex128", "feedfacecafe",
                        res.winner["strategy"], res.winner["radices"])
        x = random_complex(rng, 360)
        set_active_wisdom(w)
        tuned = get_plan(360)(x[None, :])[0]
        set_active_wisdom(None)
        assert _rel_err(tuned, np.fft.fft(x)) < TOL

    def test_complex64_wisdom_ignored_for_nonsmooth(self, rng):
        # a (corrupt or foreign) stockham entry for a non-smooth length
        # must not be applied to complex64 (Bluestein is c128-only), and
        # plan building must still dispatch correctly for c128
        w = Wisdom()
        w.record_kernel(1009, -1, "complex128", machine_fingerprint(),
                        "bluestein", [])
        x = random_complex(rng, 1009)
        set_active_wisdom(w)
        y = get_plan(1009)(x[None, :])[0]
        set_active_wisdom(None)
        assert _rel_err(y, np.fft.fft(x)) < 1e-8


class TestSoiCandidateEquivalence:
    """Every SOI configuration the search may pick stays within the
    default's accuracy envelope and computes the same DFT."""

    @given(st.sampled_from([2048, 3584, 8192]), st.integers(0, 5),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_soi_candidates_match_numpy(self, n, cand_idx, seed):
        from repro.core.soi_single import SoiFFT
        from repro.core.params import SoiParams

        cands = soi_candidates(n)
        cand = cands[cand_idx % len(cands)]
        params = SoiParams(n=n, n_procs=1,
                           segments_per_process=cand["segments"],
                           n_mu=cand["n_mu"], d_mu=cand["d_mu"],
                           b=cand["b"])
        f = SoiFFT(params)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = np.fft.fft(x)
        err = np.linalg.norm(f(x) - ref) / np.linalg.norm(ref)
        # every candidate passed the accuracy guard, so the default's
        # design envelope bounds them all (10x slack as in core tests)
        assert err < 10 * f.expected_stopband + 1e-12

    def test_candidates_never_looser_than_default(self):
        from repro.core.window import kaiser_attenuation_db

        for n in (2048, 3584):
            default = default_soi_config(n)
            floor = kaiser_attenuation_db(default["b"],
                                          default["n_mu"] / default["d_mu"])
            for cand in soi_candidates(n):
                att = kaiser_attenuation_db(cand["b"],
                                            cand["n_mu"] / cand["d_mu"])
                assert att >= floor - 1e-9

    def test_tuned_soi_matches_default_soi(self, rng):
        n = 2048
        res = tune_soi(n, reps=1, batch=1,
                       budget=TuneBudget(seconds=10.0))
        from repro.core.soi_single import SoiFFT

        f_def = SoiFFT(_soi_params_for(n, default_soi_config(n)))
        f_tuned = SoiFFT(_soi_params_for(n, res.winner))
        x = random_complex(rng, n)
        ref = np.fft.fft(x)
        err_def = np.linalg.norm(f_def(x) - ref) / np.linalg.norm(ref)
        err_tuned = np.linalg.norm(f_tuned(x) - ref) / np.linalg.norm(ref)
        assert err_tuned < 10 * f_tuned.expected_stopband + 1e-12
        # tuned accuracy stays within one design envelope of the default
        assert err_tuned < max(10 * f_def.expected_stopband, err_def * 10) \
            + 1e-12


def _soi_params_for(n, cand):
    from repro.core.params import SoiParams
    return SoiParams(n=n, n_procs=1,
                     segments_per_process=cand["segments"],
                     n_mu=cand["n_mu"], d_mu=cand["d_mu"], b=cand["b"])


class TestSearchDriver:
    def test_default_measured_even_when_budget_exhausted(self):
        budget = TuneBudget(seconds=0.0)  # exhausted before it starts
        res = tune_kernel(256, reps=1, batch=1, budget=budget)
        assert res.trials == 1  # the default, unconditionally
        assert res.tuned_is_default
        assert res.speedup == 1.0

    def test_trial_cap_respected(self):
        budget = TuneBudget(seconds=60.0, max_trials=2)
        res = tune_kernel(1024, reps=1, batch=1, budget=budget)
        assert res.trials <= 2
        assert budget.trials <= 2

    def test_winner_is_measured_minimum(self):
        res = tune_kernel(512, reps=1, batch=1)
        assert res.tuned_s == min(res.timings.values())
        assert res.tuned_s <= res.default_s

    def test_soi_winner_is_measured_minimum(self):
        res = tune_soi(2048, reps=1, batch=1,
                       budget=TuneBudget(seconds=10.0))
        assert res.tuned_s == min(res.timings.values())
        assert res.tuned_s <= res.default_s

    def test_autotune_records_into_wisdom(self):
        w = Wisdom()
        report = autotune(sizes=[64, 97], soi_sizes=[2048],
                          budget=TuneBudget(seconds=10.0), reps=1,
                          batch=1, wisdom=w, machine="testmachine01")
        assert len(report.kernel_results) == 2
        assert len(report.soi_results) == 1
        assert w.lookup_kernel(64, -1, "complex128",
                               machine="testmachine01") is not None
        assert w.lookup_kernel(97, -1, "complex128",
                               machine="testmachine01") is not None
        assert w.lookup_soi(2048, "complex128",
                            machine="testmachine01") is not None

    def test_report_rows_and_render(self):
        from repro.fft.autotune import render_speedup_table

        report = autotune(sizes=[64], budget=TuneBudget(seconds=5.0),
                          reps=1, batch=1)
        rows = report.rows()
        assert rows and rows[0]["workload"] == "kernel"
        text = render_speedup_table(report)
        assert "speedup" in text and "64" in text
