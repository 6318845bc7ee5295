"""Tests for plan tuning and wisdom persistence."""

import json

import numpy as np
import pytest

from repro.fft.wisdom import (WISDOM_VERSION, Wisdom,
                              candidate_radix_plans,
                              machine_fingerprint, tune)
from tests.conftest import random_complex


class TestCandidates:
    def test_pow2_candidates(self):
        plans = candidate_radix_plans(64)
        assert [4, 4, 4] in plans
        assert [8, 8] in plans
        assert [2] * 6 in plans
        for p in plans:
            assert int(np.prod(p)) == 64

    def test_smooth_candidates(self):
        plans = candidate_radix_plans(360)
        for p in plans:
            assert int(np.prod(p)) == 360
        assert len(plans) >= 1

    def test_palindromic_factorization_not_duplicated(self):
        plans = candidate_radix_plans(9)  # factors [3, 3]
        assert plans == [[3, 3]]

    def test_rejects_non_smooth(self):
        with pytest.raises(ValueError):
            candidate_radix_plans(11)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            candidate_radix_plans(1)


class TestTune:
    def test_returns_valid_plan_and_timings(self):
        best, timings = tune(64, reps=1, batch=1)
        assert int(np.prod(best)) == 64
        assert len(timings) == len(candidate_radix_plans(64))
        assert all(t > 0 for t in timings.values())

    def test_best_is_minimum(self):
        best, timings = tune(128, reps=1, batch=1)
        key = ",".join(map(str, best))
        assert timings[key] == min(timings.values())


class TestWisdom:
    def test_learn_and_plan(self, rng):
        w = Wisdom()
        radices = w.learn(64, reps=1, batch=1)
        assert (64, -1) in w
        x = random_complex(rng, 64)
        assert np.allclose(w.plan(64)(x), np.fft.fft(x))

    def test_learn_is_cached(self):
        w = Wisdom()
        a = w.learn(64, reps=1, batch=1)
        b = w.learn(64)  # no tuning kwargs needed: cached
        assert a == b and len(w) == 1

    def test_json_roundtrip(self):
        w = Wisdom()
        w.learn(64, reps=1, batch=1)
        w.learn(60, reps=1, batch=1)
        restored = Wisdom.from_json(w.to_json())
        assert len(restored) == 2
        assert restored.learn(64) == w.learn(64)

    def test_corrupt_json_rejected(self):
        bad = json.dumps([{"n": 64, "sign": -1, "radices": [4, 4]}])
        with pytest.raises(ValueError, match="corrupt"):
            Wisdom.from_json(bad)


class TestMachineFingerprint:
    def test_stable_and_short(self):
        a = machine_fingerprint()
        assert a == machine_fingerprint()
        assert len(a) == 12
        int(a, 16)  # hex


class TestKernelEntries:
    def test_record_and_lookup_exact_machine(self):
        w = Wisdom()
        w.record_kernel(64, -1, "complex128", "machineaaaa1", "stockham",
                        [8, 8], tuned_s=1e-4, default_s=2e-4)
        e = w.lookup_kernel(64, -1, "complex128", machine="machineaaaa1")
        assert e["radices"] == [8, 8] and e["strategy"] == "stockham"
        assert w.hits == 1 and w.misses == 0

    def test_foreign_machine_entry_is_fallback(self):
        w = Wisdom()
        w.record_kernel(64, -1, "complex128", "otherm000001", "stockham",
                        [4, 4, 4])
        e = w.lookup_kernel(64, -1, "complex128", machine="thismachine1")
        assert e is not None and e["machine"] == "otherm000001"

    def test_exact_machine_wins_over_foreign(self):
        w = Wisdom()
        w.record_kernel(64, -1, "complex128", "foreign00001", "stockham",
                        [2] * 6)
        w.record_kernel(64, -1, "complex128", "local0000001", "stockham",
                        [8, 8])
        e = w.lookup_kernel(64, -1, "complex128", machine="local0000001")
        assert e["radices"] == [8, 8]

    def test_miss_counts(self):
        w = Wisdom()
        assert w.lookup_kernel(2 ** 20, -1, "complex128") is None
        assert w.misses == 1 and w.hits == 0

    def test_bad_radices_rejected_at_record(self):
        w = Wisdom()
        with pytest.raises(ValueError, match="corrupt"):
            w.record_kernel(64, -1, "complex128", "m", "stockham", [4, 4])

    def test_bad_strategy_rejected(self):
        w = Wisdom()
        with pytest.raises(ValueError, match="strategy"):
            w.record_kernel(64, -1, "complex128", "m", "sixstep", [8, 8])

    def test_soi_record_and_lookup(self):
        w = Wisdom()
        w.record_soi(3584, "complex128", "m000000000001", segments=8,
                     n_mu=8, d_mu=7, b=72)
        e = w.lookup_soi(3584, "complex128")
        assert e["segments"] == 8 and "conv_inner" not in e

    def test_lookup_publishes_wisdom_metrics(self):
        from repro.telemetry.metrics import MetricsRegistry, set_registry

        reg = MetricsRegistry()
        prev = set_registry(reg)
        try:
            w = Wisdom()
            w.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
            w.lookup_kernel(64, -1, "complex128")
            w.lookup_kernel(128, -1, "complex128")
        finally:
            set_registry(prev)
        assert reg.get("repro_fft_wisdom_hits_total").value == 1
        assert reg.get("repro_fft_wisdom_misses_total").value == 1


class TestRoundTrip:
    def test_save_load_identical_plan_choice(self, tmp_path):
        w = Wisdom()
        w.record_kernel(256, -1, "complex128", "m000000000001", "stockham",
                        [2] * 8, tuned_s=1e-4, default_s=2e-4)
        w.record_soi(3584, "complex128", "m000000000001", segments=16,
                     n_mu=5, d_mu=4, b=48)
        path = tmp_path / "wisdom.json"
        w.save(path)
        restored = Wisdom.load(path, strict=True)
        assert len(restored) == len(w)
        assert restored.lookup_kernel(256, -1, "complex128") \
            == w.lookup_kernel(256, -1, "complex128")
        assert restored.lookup_soi(3584, "complex128") \
            == w.lookup_soi(3584, "complex128")

    def test_v2_envelope_written(self, tmp_path):
        w = Wisdom()
        w.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
        path = tmp_path / "w.json"
        w.save(path)
        payload = json.loads(path.read_text())
        assert payload["version"] == WISDOM_VERSION
        assert payload["entries"][0]["kind"] == "kernel"

    def test_soi_entries_with_conv_inner_still_load(self, tmp_path):
        # stores written before the single GEMM convolution record the
        # removed convolution kernel choice; it is read and dropped
        old = {"version": 2, "entries": [
            {"kind": "soi", "n": 3584, "dtype": "complex128",
             "machine": "4600919bbdd8", "segments": 32, "n_mu": 5,
             "d_mu": 4, "b": 48, "conv_inner": "matmul",
             "tuned_s": 0.0014, "default_s": 0.0023}]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(old))
        w = Wisdom.load(path, strict=True)
        e = w.lookup_soi(3584, "complex128")
        assert (e["segments"], e["n_mu"], e["d_mu"], e["b"]) == (32, 5, 4, 48)
        assert "conv_inner" not in e

    def test_v1_bare_list_still_readable(self):
        v1 = json.dumps([{"n": 64, "sign": -1, "radices": [8, 8]}])
        w = Wisdom.from_json(v1)
        assert (64, -1) in w

    def test_save_merges_with_existing_store(self, tmp_path):
        path = tmp_path / "w.json"
        a = Wisdom()
        a.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
        a.save(path)
        b = Wisdom()
        b.record_kernel(128, -1, "complex128", "m", "stockham", [8, 4, 4])
        b.save(path)
        merged = Wisdom.load(path, strict=True)
        assert merged.lookup_kernel(64, -1, "complex128") is not None
        assert merged.lookup_kernel(128, -1, "complex128") is not None

    def test_own_entries_win_merge_conflicts(self, tmp_path):
        path = tmp_path / "w.json"
        a = Wisdom()
        a.record_kernel(64, -1, "complex128", "m", "stockham", [4, 4, 4])
        a.save(path)
        b = Wisdom()
        b.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
        b.save(path)
        assert Wisdom.load(path).lookup_kernel(
            64, -1, "complex128")["radices"] == [8, 8]


class TestCorruptionFallback:
    def test_missing_file_is_silent_empty(self, tmp_path):
        w = Wisdom.load(tmp_path / "absent.json")
        assert len(w) == 0

    def test_truncated_file_warns_and_falls_back(self, tmp_path):
        path = tmp_path / "w.json"
        good = Wisdom()
        good.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
        path.write_text(good.to_json()[:25])  # torn mid-write
        with pytest.warns(UserWarning, match="falling back to default"):
            w = Wisdom.load(path)
        assert len(w) == 0

    def test_garbled_file_warns_and_falls_back(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_bytes(b"\x00\xff not json at all \x80")
        with pytest.warns(UserWarning):
            assert len(Wisdom.load(path)) == 0

    def test_version_bumped_file_warns_and_falls_back(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"version": WISDOM_VERSION + 1,
                                    "entries": []}))
        with pytest.warns(UserWarning, match="version"):
            assert len(Wisdom.load(path)) == 0

    def test_corrupt_entry_warns_and_falls_back(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"version": WISDOM_VERSION, "entries": [
            {"kind": "kernel", "n": 64, "sign": -1, "dtype": "complex128",
             "machine": "m", "strategy": "stockham", "radices": [4, 4]}]}))
        with pytest.warns(UserWarning):
            assert len(Wisdom.load(path)) == 0

    def test_strict_load_raises(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{broken")
        with pytest.raises(ValueError):
            Wisdom.load(path, strict=True)

    def test_save_overwrites_corrupt_on_disk_store(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{utterly broken")
        w = Wisdom()
        w.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
        w.save(path)
        assert Wisdom.load(path, strict=True).lookup_kernel(
            64, -1, "complex128") is not None

    def test_from_json_rejects_non_container(self):
        with pytest.raises(ValueError, match="list or object"):
            Wisdom.from_json('"just a string"')


def _concurrent_writer(path_str: str, idx: int) -> None:
    """Child-process body for the concurrent-writer tests (module level
    so it pickles under the spawn start method)."""
    from repro.fft.wisdom import Wisdom

    n = 2 ** (6 + idx)
    w = Wisdom()
    w.record_kernel(n, -1, "complex128", f"machine{idx:06d}", "stockham",
                    [2] * (6 + idx))
    w.save(path_str)


class TestConcurrentWriters:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_parallel_writers_do_not_corrupt_store(self, tmp_path, method):
        import multiprocessing as mp

        ctx = mp.get_context(method)
        path = tmp_path / "wisdom.json"
        n_writers = 4
        procs = [ctx.Process(target=_concurrent_writer,
                             args=(str(path), i)) for i in range(n_writers)]
        for pr in procs:
            pr.start()
        for pr in procs:
            pr.join(timeout=60)
            assert pr.exitcode == 0
        merged = Wisdom.load(path, strict=True)  # parseable == untorn
        for i in range(n_writers):
            assert merged.lookup_kernel(2 ** (6 + i), -1,
                                        "complex128") is not None
        assert not path.with_suffix(".json.lock").exists()

    def test_wisdom_pickles_without_lock(self):
        import pickle

        w = Wisdom()
        w.record_kernel(64, -1, "complex128", "m", "stockham", [8, 8])
        w2 = pickle.loads(pickle.dumps(w))
        assert w2.lookup_kernel(64, -1, "complex128") is not None
        w2.record_kernel(128, -1, "complex128", "m", "stockham",
                         [8, 4, 4])  # lock was recreated: mutation works

    def test_stale_lock_is_broken(self, tmp_path):
        import os
        import time as _time

        from repro.fft.wisdom import _acquire_lockfile, _release_lockfile

        lock = tmp_path / "w.json.lock"
        lock.write_text("12345")
        old = _time.time() - 3600
        os.utime(lock, (old, old))
        fd = _acquire_lockfile(lock, timeout=1.0, stale_after=30.0)
        assert fd is not None  # stale lock from a dead writer was broken
        _release_lockfile(lock, fd)
        assert not lock.exists()

    def test_live_lock_times_out_to_none(self, tmp_path):
        from repro.fft.wisdom import _acquire_lockfile, _release_lockfile

        lock = tmp_path / "w.json.lock"
        fd1 = _acquire_lockfile(lock)
        assert fd1 is not None
        fd2 = _acquire_lockfile(lock, timeout=0.05, stale_after=3600.0)
        assert fd2 is None  # held and fresh: second writer backs off
        _release_lockfile(lock, fd1)
