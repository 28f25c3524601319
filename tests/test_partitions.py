import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathqv as pq
import strategies as strat
from pathqv.partitions import snap_to_grid


class TestKadic:
    def test_dyadic_is_exact_with_unit_ratio(self):
        seq = pq.gen_kadic(2, range(0, 6), 10, 1.0)
        lvl3 = seq.level(3)
        assert np.array_equal(lvl3.times, np.arange(9) / 8)
        assert all(p.ratio == 1.0 for p in seq)

    def test_level_zero_single_interval(self):
        p = pq.gen_kadic(2, [0], 8, 1.0).level(0)
        assert p.n_intervals == 1
        assert list(p.indices) == [0, 256]

    def test_triadic_snapping_bound(self):
        # oracle: enumerate the snapped points directly
        M, n = 10, 2
        seq = pq.gen_kadic(3, [n], M, 1.0)
        p = seq.level(n)
        assert p.n_intervals == 9
        oracle = snap_to_grid(np.arange(10) * (2**M / 9.0))
        oracle[0], oracle[-1] = 0, 2**M
        assert np.array_equal(p.indices, oracle)
        assert p.ratio <= 1.0 + 2.0**-M * 9 * 2

    def test_resolution_guard(self):
        with pytest.raises(pq.ResolutionError):
            pq.gen_kadic(3, [5], 8, 1.0)  # 4*3^5 > 2^8

    def test_k_below_two_rejected(self):
        with pytest.raises(pq.ParameterError):
            pq.gen_kadic(1, [2], 8, 1.0)


class TestMasterLevelRange:
    # before the check, gen_dyadic([2], 64, 1.0) wrapped int64 to a last index
    # of -2^63, Partition(..., -1, 1.0) raised a bare "negative shift count",
    # and gen_random_balanced at M = 64 warned and then raised OverflowError
    @pytest.mark.parametrize("M", [-1, 3, 31, 64])
    @pytest.mark.parametrize("build", [
        lambda M: pq.Partition(np.array([0, 1, 2]), M, 1.0),
        lambda M: pq.gen_dyadic([2], M, 1.0),
        lambda M: pq.gen_kadic(3, [1], M, 1.0),
        lambda M: pq.gen_random_balanced(1, [2], M, 1.0, 2.0),
    ], ids=["partition", "dyadic", "triadic", "random_balanced"])
    def test_refused_outside_the_path_range(self, build, M):
        with pytest.raises(pq.ParameterError,
                           match=rf"master level must be an integer in 4\.\.30, got {M}$"):
            build(M)

    def test_bounds_are_accepted(self):
        assert pq.gen_dyadic([4], 4, 1.0).level(4).n_intervals == 16
        top = pq.gen_dyadic([0, 30], 30, 1.0)
        assert top.level(30).n_intervals == 1 << 30 and top.level(30).mesh == 2.0**-30


class TestLazyDyadic:
    """Dyadic levels are held as ranges; they must read as the old arrays."""

    SCALARS = ("n_intervals", "mesh", "min_step", "ratio", "span")

    @pytest.mark.parametrize("M", [4, 14, 23])
    def test_matches_the_array_form(self, M):
        for n in range(M + 1):
            expected = np.arange((1 << n) + 1, dtype=np.int64) * (1 << (M - n))
            lazy = pq.gen_dyadic([n], M, 1.0).level(n)
            eager = pq.Partition(expected, M, 1.0)
            for name in self.SCALARS:
                a, b = getattr(lazy, name), getattr(eager, name)
                assert type(a) is type(b) and a == b, (n, name)
            assert lazy.first_index == eager.first_index == 0
            assert lazy.last_index == eager.last_index == 1 << M
            assert "indices" not in vars(lazy)      # answered without the array
            idx = lazy.indices
            assert idx.dtype == np.int64 and not idx.flags.writeable
            assert np.array_equal(idx, expected)    # int64 values equal: bytes equal
            assert lazy.indices is idx              # cached after the first read
            del lazy, eager, idx
            for name in ("index_steps", "times"):   # fresh objects keep 2^23 peaks small
                a = getattr(pq.gen_dyadic([n], M, 1.0).level(n), name)
                b = getattr(pq.Partition(expected, M, 1.0), name)
                assert a.dtype == b.dtype and not a.flags.writeable
                assert np.array_equal(a, b), (n, name)
                del a, b

    def test_array_and_range_agree_off_the_full_horizon(self):
        lazy = pq.Partition(range(48, 977, 16), 10, 2.0)
        eager = pq.Partition(np.arange(48, 977, 16), 10, 2.0)
        for name in self.SCALARS:
            assert getattr(lazy, name) == getattr(eager, name), name
        assert lazy.first_index == eager.first_index == 48
        assert lazy.last_index == eager.last_index == 976
        pos = np.array([0, 3, 58])
        assert np.array_equal(lazy.indices_at(pos), eager.indices_at(pos))
        assert lazy.range_stride == 16 and eager.range_stride == 0
        assert "indices" not in vars(lazy)

    @pytest.mark.parametrize("pts, msg", [
        (range(16, 0, -4), "strictly increasing"),
        (range(16, -1, -1), "strictly increasing"),
        (range(0, 16, -4), "at least 2 indices"),
        (range(0, 1), "at least 2 indices"),
        (range(0, 0), "at least 2 indices"),
        (range(0, 21, 4), "outside the master grid"),
        (range(-4, 17, 4), "outside the master grid"),
    ])
    def test_malformed_range_refused(self, pts, msg):
        with pytest.raises(pq.ParameterError, match=msg):
            pq.Partition(pts, 4, 1.0)

    def test_frozen(self):
        p = pq.gen_dyadic([3], 6, 1.0).level(3)
        with pytest.raises(AttributeError):
            p.master_level = 7
        with pytest.raises(AttributeError):
            p.indices = np.arange(3)


class TestLebesgue:
    def test_constant_path_degenerates(self):
        p = pq.gen_deterministic("constant", {"c": 2.0}, 8, 1.0)
        with pytest.warns(UserWarning):
            part = pq.gen_lebesgue(p, 4)
        assert list(part.indices) == [0, 256]

    def test_linear_hits_quarters(self):
        path = pq.gen_deterministic("linear", {"slope": 1.0}, 10, 1.0)
        part = pq.gen_lebesgue(path, 2)
        expect = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.max(np.abs(part.times - expect)) <= path.master_step

    def test_brownian_hitting_increments_in_band(self):
        # direct scan of the generated partition; final forced point excluded
        path = pq.gen_brownian(11, 16, 1.0)
        part = pq.gen_lebesgue(path, 4)
        x = path.scalar()
        osc = np.abs(np.diff(x)).max()
        incs = np.abs(np.diff(x[part.indices]))[:-1]
        assert np.all(incs >= 2.0**-4)
        assert np.all(incs <= 2.0**-4 + osc)

    def test_detectability_precondition(self):
        path = pq.gen_brownian(0, 10, 1.0)
        with pytest.raises(pq.ParameterError):
            pq.gen_lebesgue(path, 12)


def _lebesgue_full_scan(path, n):
    """Hitting indices found by rescanning the whole remaining path at each hit."""
    x = path.scalar()
    eps = 2.0**-n
    hits, cur, last = [0], 0, len(x) - 1
    while cur < last:
        exceed = np.abs(x[cur + 1 :] - x[cur]) >= eps
        if not exceed.any():
            break
        cur = cur + 1 + int(np.argmax(exceed))
        hits.append(cur)
    if len(hits) < 2:
        hits = [0]
    if hits[-1] != last:
        hits.append(last)
    return np.asarray(hits, dtype=np.int64)


class TestLebesgueGallopingParity:
    @pytest.mark.parametrize("M,n", [(12, 2), (12, 3), (16, 3), (16, 4), (20, 5)])
    def test_brownian(self, M, n):
        for seed in (0, 1):
            path = pq.gen_brownian(seed, M, 1.0)
            assert np.array_equal(pq.gen_lebesgue(path, n).indices, _lebesgue_full_scan(path, n))

    def test_mixed_path(self):
        path = pq.gen_mixed(21, 16, 1.0, 0.75, 1.0)
        assert np.array_equal(pq.gen_lebesgue(path, 4).indices, _lebesgue_full_scan(path, 4))

    def test_one_long_excursion(self):
        # a flat stretch far longer than many doubled windows, then a climb
        M = 14
        t = np.arange(2**M + 1) / 2**M
        x = np.where(t < 0.9, 1e-3 * np.sin(40 * t), 1e-3 * np.sin(36) + (t - 0.9) * 2.0)
        path = pq.SampledPath(1.0, M, 1, x, pq.PathMeta("custom"))
        got = pq.gen_lebesgue(path, 3).indices
        assert np.array_equal(got, _lebesgue_full_scan(path, 3))
        assert got[1] > 0.9 * 2**M

    def test_no_hit_still_warns(self):
        M = 12
        x = 0.01 * np.sin(np.arange(2**M + 1) / 2**M)
        path = pq.SampledPath(1.0, M, 1, x, pq.PathMeta("custom"))
        with pytest.warns(UserWarning, match="no hitting times"):
            part = pq.gen_lebesgue(path, 2)
        assert np.array_equal(part.indices, _lebesgue_full_scan(path, 2))
        assert list(part.indices) == [0, 2**M]


class TestRandomBalanced:
    def test_unit_target_is_uniform(self):
        seq = pq.gen_random_balanced(0, range(2, 6), 10, 1.0, 1.0)
        dy = pq.gen_dyadic(range(2, 6), 10, 1.0)
        for a, b in zip(seq, dy):
            assert np.array_equal(a.indices, b.indices)

    def test_ratio_within_snapped_target(self):
        # oracle: rebuild the pre-snap lengths and bound the snap distortion
        seq = pq.gen_random_balanced(7, [8], 12, 1.0, 3.0)
        p = seq.level(8)
        rng = np.random.default_rng(pq.derive_subseed(7, "rb-8"))
        u = rng.uniform(1.0, 3.0, 256)
        lengths = u / u.sum() * 2**12
        bound = (lengths.max() + 1.0) / (lengths.min() - 1.0)
        assert p.ratio <= bound
        assert p.ratio <= 3.0 * (1.0 + 2.0 / lengths.min())

    def test_two_seeds_differ_same_counts(self):
        a = pq.gen_random_balanced(1, [6], 12, 1.0, 3.0).level(6)
        b = pq.gen_random_balanced(2, [6], 12, 1.0, 3.0).level(6)
        assert a.n_intervals == b.n_intervals == 64
        assert not np.array_equal(a.indices, b.indices)

    def test_mesh_condition_for_log_scaling(self):
        # (log n)^2 * mesh decreasing from n = 3 on under the default schedule
        # ((log 3 / log 2)^2 > 2, so the very first step can rise)
        seq = pq.gen_random_balanced(3, range(3, 12), 14, 1.0, 3.0)
        vals = [np.log(n) ** 2 * p.mesh for n, p in zip(seq.level_ids, seq)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_infeasible_level(self):
        with pytest.raises(pq.ResolutionError):
            pq.gen_random_balanced(0, [9], 10, 1.0, 3.0)


class TestBalanceReport:
    def test_dyadic_all_ones(self):
        seq = pq.gen_dyadic(range(2, 8), 10, 1.0)
        rep = pq.balance_report(seq, h=0.25)
        assert np.all(rep.ratios == 1.0)
        assert rep.c_hat == 1.0
        assert rep.balanced
        assert rep.sandwich_exact

    def test_constructed_double_interval(self):
        # one interval twice the rest
        idx = np.array([0, 2, 4, 6, 8, 12, 14, 16])
        part = pq.Partition(idx, 4, 1.0)
        seq = pq.PartitionSequence((part, part), (1, 2), "fixture")
        rep = pq.balance_report(seq, h=0.5)
        assert np.all(rep.ratios == 2.0)

    def test_dyadic_window_ratio_exactly_one(self):
        # direct count of points per half-open window over a probe grid
        seq = pq.gen_dyadic(range(3, 9), 10, 1.0)
        rep = pq.balance_report(seq, h=0.25)
        assert np.all(rep.window_ratios == 1.0)

    def test_window_larger_than_horizon(self):
        seq = pq.gen_dyadic(range(2, 5), 10, 1.0)
        with pytest.raises(pq.ParameterError):
            pq.balance_report(seq, h=2.0)

    def test_growth_ratios_for_dyadic(self):
        seq = pq.gen_dyadic(range(2, 8), 10, 1.0)
        rep = pq.balance_report(seq, h=0.25)
        assert np.all(rep.growth_counts == 2.0)
        assert np.all(rep.growth_mesh == 2.0)
        assert np.all(rep.growth_min == 2.0)


@given(strat.partitions_on(M=6))
def test_prop_i_sandwich_holds_exactly(part):
    # N * min <= span <= N * mesh, exact on integer index steps
    n = part.n_intervals
    span = int(part.indices[-1] - part.indices[0])
    assert n * int(part.index_steps.min()) <= span <= n * int(part.index_steps.max())


class TestComparability:
    def test_same_sequence_ratio_one(self):
        seq = pq.gen_dyadic(range(2, 9), 12, 1.0)
        rep = pq.comparability(seq, seq)
        assert np.all(rep.mesh_ratios == 1.0)
        assert rep.comparable and rep.verdicts_agree

    def test_dyadic_vs_triadic_not_comparable(self):
        tau = pq.gen_dyadic(range(1, 6), 12, 1.0)
        sig = pq.gen_kadic(3, range(1, 6), 12, 1.0)
        rep = pq.comparability(tau, sig)
        assert not rep.comparable
        assert rep.trend_mesh < -0.2

    def test_level_shift_is_comparable(self):
        M = 12
        tau = pq.gen_dyadic(range(2, 9), M, 1.0)
        shifted = pq.PartitionSequence(
            tuple(pq.gen_dyadic([n + 1], M, 1.0).level(n + 1) for n in range(2, 9)),
            tuple(range(2, 9)),
            "dyadic shifted",
        )
        rep = pq.comparability(tau, shifted)
        assert np.all(rep.mesh_ratios == 0.5)
        assert rep.comparable

    def test_mismatched_horizon(self):
        a = pq.gen_dyadic(range(2, 5), 10, 1.0)
        b = pq.gen_dyadic(range(2, 5), 10, 2.0)
        with pytest.raises(pq.ParameterError):
            pq.comparability(a, b)


class TestAdjustSubsequence:
    def _shifted(self, M, rng_levels, shift):
        return pq.PartitionSequence(
            tuple(pq.gen_dyadic([n + shift], M, 1.0).level(n + shift) for n in rng_levels),
            tuple(rng_levels),
            f"dyadic+{shift}",
        )

    def test_one_level_shift(self):
        M = 14
        tau = pq.gen_dyadic(range(1, 13), M, 1.0)
        sigma = self._shifted(M, range(1, 12), 1)  # |sigma^n| = 2^-(n+1)
        amap = pq.adjust_subsequence(tau, sigma, "i")
        assert all(k == n + 1 for n, k in amap.as_dict().items())
        assert all(amap.sandwich_ok)

    def test_square_mesh_gives_doubling(self):
        M = 14
        tau = pq.gen_dyadic(range(1, 15), M, 1.0)
        sigma = pq.PartitionSequence(
            tuple(pq.gen_dyadic([2 * n], M, 1.0).level(2 * n) for n in range(1, 8)),
            tuple(range(1, 8)),
            "dyadic squared",
        )  # |sigma^n| = 4^-n
        amap = pq.adjust_subsequence(tau, sigma, "ii")
        assert all(k == 2 * n for n, k in amap.as_dict().items())
        assert np.all(amap.sub_ratios >= 1.0)
        assert amap.precondition_ok

    def test_mode_iii_against_bruteforce(self):
        M = 14
        tau = pq.gen_dyadic(range(1, 13), M, 1.0)
        sigma = pq.PartitionSequence(
            tuple(pq.gen_dyadic([min(2 * n, M)], M, 1.0).level(min(2 * n, M)) for n in range(1, 8)),
            tuple(range(1, 8)),
            "dyadic squared",
        )
        amap = pq.adjust_subsequence(tau, sigma, "iii")
        got = amap.as_dict()
        for n in tau.level_ids:
            if n in sigma.level_ids and sigma.level(n).mesh >= tau.level(n).mesh:
                assert got[n] == n
                continue
            brute = [r for r in sigma.level_ids if r <= n and sigma.level(r).mesh > tau.level(n).mesh]
            if brute:
                assert got[n] == max(brute)
            else:
                assert got[n] == sigma.level_ids[0]
                assert n in amap.fallback_levels

    def test_exhaustion_error_names_level(self):
        tau = pq.gen_dyadic(range(1, 4), 14, 1.0)
        sigma = self._shifted(14, range(1, 8), 4)
        with pytest.raises(pq.ExhaustionError) as err:
            pq.adjust_subsequence(tau, sigma, "i")
        assert err.value.level is not None


class TestMapPartition:
    def test_identity_map(self):
        seq = pq.gen_dyadic(range(2, 7), 8, 1.0)
        g = np.arange(257) / 256
        out = pq.map_partition(seq, g)
        for a, b in zip(seq, out):
            assert np.array_equal(a.indices, b.indices)

    def test_doubling_map_keeps_unit_ratio(self):
        seq = pq.gen_dyadic(range(2, 7), 8, 1.0)
        g = 2.0 * np.arange(257) / 256
        out = pq.map_partition(seq, g)
        assert out.horizon == 2.0
        assert all(p.ratio == 1.0 for p in out)

    def test_quadratic_map_ratio_bound(self):
        # slope bound oracle: ratio <= (sup g' / inf g') * input ratio (+snap)
        M = 12
        seq = pq.gen_dyadic([6], M, 1.0)
        t = np.arange(2**M + 1) / 2**M
        g = t + t**2 / 2.0
        out = pq.map_partition(seq, g)
        p = out.level(6)
        assert p.ratio <= 2.0 * (1.0 + 4.0 * p.master_step / p.min_step)

    def test_non_monotone_rejected(self):
        seq = pq.gen_dyadic(range(2, 5), 8, 1.0)
        g = np.sin(np.arange(257) / 40.0)
        with pytest.raises(pq.ParameterError):
            pq.map_partition(seq, g)


class TestStopPartition:
    def test_full_interval_is_identity(self):
        seq = pq.gen_dyadic(range(2, 7), 8, 1.0)
        out = pq.stop_partition(seq, (0.0, 1.0))
        for a, b in zip(seq, out):
            assert np.array_equal(a.indices, b.indices)

    def test_dyadic_level3_quarter_window(self):
        seq = pq.gen_dyadic([3], 8, 1.0)
        out = pq.stop_partition(seq, (0.25, 0.75))
        assert np.allclose(out.level(3).times, [0.25, 0.375, 0.5, 0.625, 0.75])

    def test_endpoints_adjoined_interior_preserved(self):
        # brute-force filter oracle
        seq = pq.gen_random_balanced(5, range(3, 8), 12, 1.0, 3.0)
        out = pq.stop_partition(seq, (0.1, 0.9))
        ia, ib = snap_to_grid(np.array([0.1, 0.9]) * 2**12)
        for orig, stopped in zip(seq, out):
            inner = orig.indices[(orig.indices > ia) & (orig.indices < ib)]
            assert np.array_equal(stopped.indices, np.concatenate([[ia], inner, [ib]]))

    def test_empty_intersection_gives_two_points(self):
        seq = pq.gen_dyadic([1], 8, 1.0)  # points 0, 1/2, 1
        out = pq.stop_partition(seq, (0.125, 0.375))
        assert out.level(1).n_intervals == 1
