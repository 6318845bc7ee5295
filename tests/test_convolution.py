"""Tests for convolution-and-oversampling: numerics, structure, strategies."""

import numpy as np
import pytest

from repro.core.convolution import (
    ConvStrategy,
    block_range_for_rows,
    conv_time_model,
    convolve,
    convolve_lanes,
    convolve_reference,
    input_block_offsets,
)
from repro.core.params import SoiParams
from repro.core.window import build_tables
from repro.machine.cache import CacheSim
from repro.machine.spec import XEON_E5_2680, XEON_PHI_SE10
from tests.conftest import random_complex


def params(n=4 * 448, s=4, n_mu=8, d_mu=7, b=16, p=1):
    return SoiParams(n=n, n_procs=p, segments_per_process=s // p,
                     n_mu=n_mu, d_mu=d_mu, b=b)


@pytest.fixture(scope="module")
def tables():
    return build_tables(params())


class TestBlockOffsets:
    def test_chunk_shift_is_d_mu(self):
        # Fig 6(a): "the same chunk repeats while shifting by d_mu blocks"
        p = params()
        m0 = input_block_offsets(p, 0, 4 * p.n_mu)
        chunk0 = m0[: p.n_mu]
        for c in range(1, 4):
            assert np.array_equal(m0[c * p.n_mu:(c + 1) * p.n_mu],
                                  chunk0 + c * p.d_mu)

    def test_phase_offsets_within_chunk(self):
        p = params()
        m0 = input_block_offsets(p, 0, p.n_mu)
        q_r = (np.arange(p.n_mu) * p.d_mu) // p.n_mu
        assert np.array_equal(m0, q_r - p.b // 2 + 1)

    def test_rejects_unaligned(self):
        p = params()
        with pytest.raises(ValueError):
            input_block_offsets(p, 3, p.n_mu)
        with pytest.raises(ValueError):
            input_block_offsets(p, 0, p.n_mu + 1)

    def test_block_range_covers_all_offsets(self):
        p = params()
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        m0 = input_block_offsets(p, 0, rows)
        assert lo == m0.min()
        assert hi == m0.max() + p.b


class TestConvolveNumerics:
    def test_matches_reference(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        s = p.n_segments
        idx = np.arange(lo * s, hi * s) % p.n
        x = random_complex(rng, p.n)
        x_ext = x[idx]
        fast = convolve(x_ext, tables, 0, rows, lo)
        slow = convolve_reference(x_ext, tables, 0, rows, lo)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_partial_row_range_matches_full(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        s = p.n_segments
        x = random_complex(rng, p.n)
        x_ext = x[np.arange(lo * s, hi * s) % p.n]
        full = convolve(x_ext, tables, 0, rows, lo)
        half = rows // 2
        lo2, hi2 = block_range_for_rows(p, half, half)
        x_ext2 = x[np.arange(lo2 * s, hi2 * s) % p.n]
        part = convolve(x_ext2, tables, half, half, lo2)
        assert np.allclose(part, full[half:], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_partial_row_range_bitwise_equals_full(self, rng, tables, dtype):
        # partition and recovery rely on a row not depending on the row
        # range it is computed in; one-chunk ranges hit the tail path
        p = tables.params
        rows, s, n_mu = p.m_oversampled, p.n_segments, p.n_mu
        x = random_complex(rng, p.n).astype(dtype)

        def rows_of(j0, n):
            lo, hi = block_range_for_rows(p, j0, n)
            return convolve(x[np.arange(lo * s, hi * s) % p.n], tables,
                            j0, n, lo)

        full = rows_of(0, rows)
        for j0, n in [(0, n_mu), (n_mu, n_mu), (3 * n_mu, 5 * n_mu),
                      (rows // 2, rows // 2), (7 * n_mu, rows - 9 * n_mu),
                      (rows - n_mu, n_mu)]:
            assert np.array_equal(rows_of(j0, n), full[j0:j0 + n])

    def test_lane_subset_bitwise_equals_full(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        s = p.n_segments
        x_ext = random_complex(rng, p.n)[np.arange(lo * s, hi * s) % p.n]
        full = convolve(x_ext, tables, 0, rows, lo)
        lanes = [s - 1, 0]
        part = convolve_lanes(x_ext, tables, 0, rows, lo, lanes)
        assert np.array_equal(part, full[:, lanes])

    def test_out_parameter(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        s = p.n_segments
        x_ext = random_complex(rng, (hi - lo) * s)
        out = np.empty((rows, s), dtype=np.complex128)
        res = convolve(x_ext, tables, 0, rows, lo, out=out)
        assert res is out

    def test_rejects_insufficient_extension(self, rng, tables):
        p = tables.params
        with pytest.raises(ValueError, match="cover"):
            convolve(random_complex(rng, p.n_segments * 4), tables, 0,
                     p.m_oversampled, 0)

    def test_rejects_non_multiple_length(self, rng, tables):
        with pytest.raises(ValueError, match="multiple"):
            convolve(random_complex(rng, 7), tables, 0, 8, 0)

    def test_rejects_wrong_out_shape(self, rng, tables):
        p = tables.params
        rows = p.m_oversampled
        lo, hi = block_range_for_rows(p, 0, rows)
        x_ext = random_complex(rng, (hi - lo) * p.n_segments)
        with pytest.raises(ValueError, match="out"):
            convolve(x_ext, tables, 0, rows, lo,
                     out=np.empty((1, 1), dtype=np.complex128))


class TestStrategies:
    def test_working_sets(self):
        p = params(s=16)
        base = ConvStrategy.BASELINE.working_set_bytes(p)
        inter = ConvStrategy.INTERCHANGE.working_set_bytes(p)
        # §5.3: baseline's set is proportional to S; decomposed is not
        assert base == inter * p.n_segments
        p2 = params(n=32 * 448 * 2, s=32)
        assert ConvStrategy.BASELINE.working_set_bytes(p2) > base
        assert ConvStrategy.INTERCHANGE.working_set_bytes(p2) == inter

    def test_input_strides(self):
        p = params(s=16)
        assert ConvStrategy.BUFFERED.input_stride_bytes(p) == 16
        assert ConvStrategy.INTERCHANGE.input_stride_bytes(p) == 16 * 16

    def test_extra_sweeps(self):
        assert ConvStrategy.BASELINE.extra_sweeps() == 0.0
        assert ConvStrategy.INTERCHANGE.extra_sweeps() == 1.0
        assert ConvStrategy.BUFFERED.extra_sweeps() == 1.0

    def test_ledgers_contain_expected_passes(self):
        p = params()
        for strat in ConvStrategy:
            led = strat.ledger(p, p.m_oversampled)
            labels = {r.label for r in led.records}
            assert "conv input" in labels and "conv output" in labels
        buf = ConvStrategy.BUFFERED.ledger(p, p.m_oversampled)
        assert any("staging" in r.label for r in buf.records)


class TestCacheTraces:
    """Drive the strategies' address traces through the cache simulator and
    check the paper's §5.3 claims *directionally* at reduced scale."""

    def _misses(self, strategy, s, cache_kb=16):
        p = SoiParams(n=s * 448, n_procs=1, segments_per_process=s,
                      n_mu=8, d_mu=7, b=16)
        cache = CacheSim(size_bytes=cache_kb * 1024, line_bytes=64, assoc=8)
        trace = strategy.address_trace(p, n_chunks=4)
        cache.access(trace)
        return cache.stats.misses / max(1, cache.stats.accesses)

    def test_buffered_has_fewest_misses_at_large_stride(self):
        s = 64  # stride 1 KB: conflict-prone
        m_base = self._misses(ConvStrategy.BASELINE, s)
        m_int = self._misses(ConvStrategy.INTERCHANGE, s)
        m_buf = self._misses(ConvStrategy.BUFFERED, s)
        assert m_buf < m_int
        assert m_buf < m_base

    def test_interchange_beats_baseline_reuse(self):
        # lane-major traversal reuses each window B times before moving on
        s = 32
        assert self._misses(ConvStrategy.INTERCHANGE, s, cache_kb=8) <= \
            self._misses(ConvStrategy.BASELINE, s, cache_kb=8)


class TestTimeModel:
    def test_buffered_is_flat_in_nodes(self):
        # Fig 11: buffering achieves "close-to-ideal scalability"
        times = []
        for nodes in (4, 8, 16, 32, 64):
            p = SoiParams(n=(7 * 2 ** 18) * nodes, n_procs=nodes,
                          segments_per_process=8, b=72)
            times.append(conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BUFFERED))
        assert max(times) / min(times) < 1.05

    def test_baseline_degrades_with_nodes(self):
        # Fig 11: baseline "degrades with more nodes" (working set ~ S)
        p4 = SoiParams(n=(7 * 2 ** 18) * 4, n_procs=4,
                       segments_per_process=8, b=72)
        p64 = SoiParams(n=(7 * 2 ** 18) * 64, n_procs=64,
                        segments_per_process=8, b=72)
        t4 = conv_time_model(p4, XEON_PHI_SE10, ConvStrategy.BASELINE)
        t64 = conv_time_model(p64, XEON_PHI_SE10, ConvStrategy.BASELINE)
        assert t64 > 2.0 * t4

    def test_strategy_ordering_at_scale(self):
        p = SoiParams(n=(7 * 2 ** 18) * 64, n_procs=64,
                      segments_per_process=8, b=72)
        tb = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BASELINE)
        ti = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.INTERCHANGE)
        tf = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BUFFERED)
        assert tf < ti < tb

    def test_xeon_shared_llc_tolerates_baseline_longer(self):
        # §5.3: the table spill is "particularly problematic in Xeon Phi
        # with private llcs" — the Xeon's 20 MB shared L3 absorbs it
        p = SoiParams(n=(7 * 2 ** 18) * 32, n_procs=32,
                      segments_per_process=8, b=72)
        phi_ratio = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BASELINE) / \
            conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BUFFERED)
        xeon_ratio = conv_time_model(p, XEON_E5_2680, ConvStrategy.BASELINE) / \
            conv_time_model(p, XEON_E5_2680, ConvStrategy.BUFFERED)
        assert phi_ratio > xeon_ratio

    def test_conv_efficiency_comparable_both_machines(self):
        # §5.3/§6.3: the buffered convolution runs at ~40% on both machines,
        # "leading to similar execution times" relative to flops
        p = SoiParams(n=(7 * 2 ** 18) * 8, n_procs=8,
                      segments_per_process=1, b=72)
        t_phi = conv_time_model(p, XEON_PHI_SE10, ConvStrategy.BUFFERED)
        flops = p.conv_flops / p.n_procs
        implied = flops / (t_phi * XEON_PHI_SE10.peak_gflops * 1e9)
        assert implied == pytest.approx(0.40, abs=0.05)
