import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathqv as pq
import strategies as strat


def _labelled_dyadic(level_ids, actual_levels, M, T=1.0):
    """Sequence whose level n holds the dyadic partition at actual_levels[n]."""
    parts = tuple(pq.gen_dyadic([l], M, T).level(l) for l in actual_levels)
    return pq.PartitionSequence(parts, tuple(level_ids), "labelled dyadic")


class TestSelection:
    def test_dyadic_mesh_beta_half_gives_doubling(self):
        M = 14
        seq = pq.gen_dyadic(range(1, 7), M, 1.0)
        ref = pq.gen_dyadic(range(1, 15), M, 1.0)
        sel = pq.select_dyadic_subsequence(seq, 0.5, ref)
        assert sel.branch == "infimum"
        assert all(l == 2 * n for n, l in zip(sel.level_ids, sel.l))
        assert all(sel.sandwich_ok)

    def test_beta_point_eight_ceiling(self):
        M = 14
        seq = pq.gen_dyadic(range(2, 8), M, 1.0)
        ref = pq.gen_dyadic(range(2, 15), M, 1.0)
        sel = pq.select_dyadic_subsequence(seq, 0.8, ref)
        import math

        assert all(l == math.ceil(n / 0.8) for n, l in zip(sel.level_ids, sel.l))

    def test_random_balanced_sandwich_recorded(self):
        M = 23
        seq = pq.gen_random_balanced(7, range(4, 13), M, 1.0, 3.0)
        ref = pq.gen_dyadic(range(4, M + 1), M, 1.0)
        sel = pq.select_dyadic_subsequence(seq, 0.5, ref)
        assert all(sel.sandwich_ok)
        # direct check of the recorded inequalities
        for n, l in zip(sel.level_ids, sel.l):
            mesh = seq.level(n).mesh
            assert ref.level(l).mesh <= mesh ** (1.0 / 0.5) * (1 + 1e-12)
            if l - 1 >= n:
                assert mesh ** (1.0 / 0.5) < ref.level(l - 1).mesh

    def test_identity_branch_when_ratio_bounded(self):
        M = 12
        seq = pq.gen_dyadic(range(3, 9), M, 1.0)
        ref = pq.gen_dyadic(range(3, 13), M, 1.0)
        # |T^n|^beta = 2^(-n/2) >= |pi^n| = 2^-n always, so with a generous
        # threshold the identity branch fires
        sel = pq.select_dyadic_subsequence(seq, 0.5, ref, big_o_ratio=2.0**6)
        assert sel.branch == "identity"
        assert tuple(sel.l) == seq.level_ids

    def test_exhaustion_names_required_depth(self):
        M = 12
        seq = pq.gen_dyadic(range(8, 11), M, 1.0)
        ref = pq.gen_dyadic(range(8, 13), M, 1.0)
        with pytest.raises(pq.ExhaustionError):
            pq.select_dyadic_subsequence(seq, 0.5, ref)

    def test_beta_monotone_coarsening(self):
        M = 20
        seq = pq.gen_random_balanced(7, range(5, 10), M, 1.0, 3.0)
        ref = pq.gen_dyadic(range(5, M + 1), M, 1.0)
        l_beta = pq.select_dyadic_subsequence(seq, 0.5, ref).l
        l_gamma = pq.select_dyadic_subsequence(seq, 0.75, ref).l
        assert all(g <= b for g, b in zip(l_gamma, l_beta))

    def test_beta_range(self):
        seq = pq.gen_dyadic(range(2, 6), 10, 1.0)
        with pytest.raises(pq.ParameterError):
            pq.select_dyadic_subsequence(seq, 1.0, seq)


class TestGrouping:
    def test_dyadic_three_vs_five(self):
        M = 10
        coarse = pq.gen_dyadic([3], M, 1.0).level(3)
        fine = pq.gen_dyadic([5], M, 1.0).level(5)
        gi = pq.grouping(coarse, fine)
        assert np.all(gi.cell_points == 4)
        assert gi.max_cell_points == 4

    def test_coarse_equals_fine(self):
        M = 10
        part = pq.gen_dyadic([5], M, 1.0).level(5)
        gi = pq.grouping(part, part)
        assert np.all(gi.cell_points == 1)

    def test_balanced_vs_dyadic_cell_bound(self):
        # direct count against the mesh-ratio bound
        M = 14
        coarse = pq.gen_random_balanced(7, [6], M, 1.0, 3.0).level(6)
        fine = pq.gen_dyadic([12], M, 1.0).level(12)
        gi = pq.grouping(coarse, fine)
        direct = max(
            np.sum((fine.indices > a) & (fine.indices <= b))
            for a, b in zip(coarse.indices[:-1], coarse.indices[1:])
        )
        assert gi.max_cell_points == direct
        assert gi.max_cell_points <= 3.0 * 2 ** (12 - 6) * (1 + 2 ** (6 + 2 - M))

    def test_sandwich_invariant(self):
        M = 12
        coarse = pq.gen_random_balanced(1, [5], M, 1.0, 2.0).level(5)
        fine = pq.gen_dyadic([9], M, 1.0).level(9)
        gi = pq.grouping(coarse, fine)
        p = gi.p
        assert np.all(np.diff(p) > 0)
        assert np.all(fine.indices[p - 1] <= coarse.indices[:-1])
        assert np.all(coarse.indices[:-1] < fine.indices[p])

    def test_empty_cell_rejected(self):
        M = 10
        coarse = pq.gen_dyadic([5], M, 1.0).level(5)
        fine = pq.gen_dyadic([3], M, 1.0).level(3)
        with pytest.raises(pq.GroupingError):
            pq.grouping(coarse, fine)


class TestRoughnessStatistic:
    def test_constant_path_zero(self):
        p = pq.gen_deterministic("constant", {"c": 2.0}, 10, 1.0)
        st_ = pq.roughness_statistic(
            p, pq.gen_dyadic([3], 10, 1.0).level(3), pq.gen_dyadic([7], 10, 1.0).level(7)
        )
        assert st_.S == 0.0

    @pytest.mark.parametrize("n,m", [(2, 5), (3, 6), (4, 9)])
    def test_linear_closed_form(self, n, m):
        p = pq.gen_deterministic("linear", {"slope": 1.0}, 12, 1.0)
        st_ = pq.roughness_statistic(
            p, pq.gen_dyadic([n], 12, 1.0).level(n), pq.gen_dyadic([m], 12, 1.0).level(m)
        )
        assert abs(st_.S - (2.0**-n - 2.0**-m)) < 1e-14

    def test_profile_matches_qv_difference(self):
        w = pq.gen_brownian(4, 12, 1.0)
        coarse = pq.gen_dyadic([5], 12, 1.0).level(5)
        fine = pq.gen_dyadic([9], 12, 1.0).level(9)
        st_ = pq.roughness_statistic(w, coarse, fine, profile_times=[0.25, 0.5, 1.0])
        for t, s_t in zip(st_.profile_times, st_.profile):
            by_t = pq.roughness_statistic(w, coarse, fine, t=t)
            assert abs(s_t - by_t.S) < 1e-12

    def test_boundary_terms_vanish_when_coarse_nested(self):
        # every coarse point is a fine point: cell boundaries hit coarse points
        w = pq.gen_brownian(2, 12, 1.0)
        st_ = pq.roughness_statistic(
            w, pq.gen_dyadic([4], 12, 1.0).level(4), pq.gen_dyadic([9], 12, 1.0).level(9)
        )
        assert st_.boundary_max == 0.0

    def test_in_place_square_keeps_the_bits(self):
        # the reference squares the fine increments into a fresh array
        M = 12
        w = pq.gen_mixed(3, M, 1.0, 0.75, 0.5)
        coarse = pq.gen_random_balanced(4, [5], M, 1.0, 3.0).level(5)
        fines = [pq.gen_dyadic([10], M, 1.0).level(10),                # strided view of x
                 pq.gen_random_balanced(6, [9], M, 1.0, 3.0).level(9)]  # gathered x
        for fine in fines:
            for t in (None, 0.5 + 3 * 2.0**-M):                         # truncated at t
                got = pq.roughness_statistic(w, coarse, fine, t=t)
                gi = pq.roughness.grouping(coarse, fine)
                b = gi.boundaries
                e = int(fine.indices[-1]) if t is None else int(round(t * 2**M))
                xf = w.samples[np.minimum(fine.indices, e)]
                dxf = np.diff(xf, axis=0)
                q = dxf[:, 0] * dxf[:, 0]
                c = xf[b[1:]] - xf[b[:-1]]
                per_cell = np.einsum("ij,ij->i", c, c) - np.add.reduceat(q, b[:-1])
                s_qv = pq.roughness._trace_qv_at(
                    w, pq.roughness.cell_partition(fine, gi), e) - float(q.sum())
                want = np.array([per_cell.sum(), np.abs(per_cell).max(),
                                 abs(float(per_cell.sum()) - s_qv)])
                have = np.array([got.S, got.per_cell_max, got.decomposition_gap])
                assert have.tobytes() == want.tobytes()

    def test_median_abs_decreasing_smoke(self):
        # small-scale version of the Brownian decay: levels 5 and 8
        M = 17
        dy = pq.gen_dyadic(range(5, M + 1), M, 1.0)
        s5, s8 = [], []
        for seed in range(40):
            w = pq.gen_brownian(seed, M, 1.0)
            s5.append(abs(pq.roughness_statistic(w, dy.level(5), dy.level(10)).S))
            s8.append(abs(pq.roughness_statistic(w, dy.level(8), dy.level(16)).S))
        assert np.median(s8) < np.median(s5)


@given(strat.small_paths(max_level=7), st.data())
@settings(max_examples=30)
def test_decomposition_identity_property(path, data):
    coarse, fine = data.draw(strat.nested_partition_pairs(path.master_level))
    st_ = pq.roughness_statistic(path, coarse, fine)
    scale = max(1.0, abs(st_.S))
    assert st_.decomposition_gap <= 1e-12 * scale
    # grouped-minus-fine QV computed through the public curve API
    grouped = pq.Partition(
        fine.indices[pq.grouping(coarse, fine).boundaries], path.master_level, 1.0
    )
    qv_g = pq.qv_level(path, grouped, [1.0]).at(1.0)
    qv_f = pq.qv_level(path, fine, [1.0]).at(1.0)
    want = (np.trace(qv_g[0]) - np.trace(qv_f[0])) if path.dim > 1 else qv_g[0] - qv_f[0]
    assert abs(st_.S - want) <= 1e-10 * scale


@given(strat.small_paths(max_level=6), st.data(),
       st.floats(-2.0, 2.0, allow_nan=False))
@settings(max_examples=30)
def test_scaling_is_quadratic(path, data, lam):
    coarse, fine = data.draw(strat.nested_partition_pairs(path.master_level))
    s1 = pq.roughness_statistic(path, coarse, fine).S
    scaled = pq.SampledPath(path.horizon, path.master_level, path.dim,
                            lam * path.samples, path.meta)
    s2 = pq.roughness_statistic(scaled, coarse, fine).S
    assert abs(s2 - lam**2 * s1) <= 1e-12 * max(1.0, abs(s1))


@given(strat.small_paths(max_level=6), st.data())
@settings(max_examples=30)
def test_double_loop_oracle_property(path, data):
    coarse, fine = data.draw(strat.nested_partition_pairs(path.master_level))
    s_fast = pq.roughness_statistic(path, coarse, fine).S
    s_slow = pq.roughness_double_loop(path, coarse, fine)
    assert abs(s_fast - s_slow) <= 1e-12 * max(1.0, abs(s_slow))


class TestStoppedRoughness:
    def test_stop_matches_truncated_profile(self):
        w = pq.gen_brownian(9, 12, 1.0)
        seq_c = pq.gen_dyadic([4], 12, 1.0)
        seq_f = pq.gen_dyadic([8], 12, 1.0)
        a = 0.5
        sc = pq.stop_partition(seq_c, (0.0, a)).level(4)
        sf = pq.stop_partition(seq_f, (0.0, a)).level(8)
        s_stopped = pq.roughness_statistic(w, sc, sf).S
        s_trunc = pq.roughness_statistic(
            w, seq_c.level(4), seq_f.level(8), t=a
        ).S
        assert abs(s_stopped - s_trunc) < 1e-12


class TestAveraging:
    def test_constant_zero_everywhere(self):
        p = pq.gen_deterministic("constant", {"c": 1.0}, 12, 1.0)
        seq = pq.gen_dyadic(range(3, 13), 12, 1.0)
        rep = pq.averaging_statistic(p, seq, 1.5, 0.9, levels=range(3, 7))
        assert np.all(rep.sums == 0.0)

    def test_linear_matches_roughness_closed_form(self):
        p = pq.gen_deterministic("linear", {"slope": 1.0}, 14, 1.0)
        seq = pq.gen_dyadic(range(3, 15), 14, 1.0)
        rep = pq.averaging_statistic(p, seq, 1.5, 0.9, levels=range(3, 8))
        for n, l, s in zip(rep.level_ids, rep.l, rep.sums):
            assert abs(s - (2.0**-n - 2.0**-l)) < 1e-14

    def test_brownian_sums_shrink(self):
        M = 19
        seq = pq.gen_dyadic(range(6, M + 1), M, 1.0)
        finals, firsts = [], []
        for seed in range(30):
            w = pq.gen_brownian(seed, M, 1.0)
            rep = pq.averaging_statistic(w, seq, 1.5, 0.45, levels=range(6, 13))
            finals.append(abs(rep.sums[-1]))
            firsts.append(abs(rep.sums[0]))
        assert np.median(finals) < 0.05
        assert np.median(finals) < np.median(firsts)

    def test_kappa_warning(self):
        p = pq.gen_brownian(0, 12, 1.0)
        seq = pq.gen_dyadic(range(4, 13), 12, 1.0)
        with pytest.warns(UserWarning):
            pq.averaging_statistic(p, seq, 0.9, 0.45, levels=range(4, 6))

    def test_exhaustion(self):
        p = pq.gen_brownian(0, 12, 1.0)
        seq = pq.gen_dyadic(range(8, 12), 12, 1.0)
        with pytest.raises(pq.ExhaustionError):
            pq.averaging_statistic(p, seq, 1.5, 0.45)


class TestFvPerturbation:
    def test_linear_drift_does_not_move_S(self):
        M = 21
        rb = pq.gen_random_balanced(7, [10], M, 1.0, 3.0)
        dy = pq.gen_dyadic(range(10, M + 1), M, 1.0)
        sel = pq.select_dyadic_subsequence(rb, 0.5, dy)
        l10 = sel.l[0]
        lin = pq.gen_deterministic("linear", {"slope": 1.0}, M, 1.0)
        diffs = []
        for seed in range(30):
            w = pq.gen_brownian(seed, M, 1.0)
            xy = pq.SampledPath(1.0, M, 1, w.samples + lin.samples, w.meta)
            s_x = pq.roughness_statistic(w, rb.level(10), dy.level(l10)).S
            s_xy = pq.roughness_statistic(xy, rb.level(10), dy.level(l10)).S
            diffs.append(abs(s_xy - s_x))
        assert np.median(diffs) < 0.02


class TestTailCheck:
    def _stats(self, n_seeds=120, level=8, M=16):
        dy = pq.gen_dyadic(range(level, M + 1), M, 1.0)
        out = []
        for seed in range(n_seeds):
            w = pq.gen_brownian(seed, M, 1.0)
            out.append(
                pq.roughness_statistic(w, dy.level(level), dy.level(2 * level),
                                       coarse_level=level, fine_level=2 * level)
            )
        return out

    def test_delta_beyond_max_has_zero_frequency(self):
        stats = self._stats()
        top = max(abs(s.S) for s in stats)
        rep = pq.hw_tail_check(stats, [top * 1.01, top * 2], min_seeds=100)
        assert np.all(rep.exceedance == 0.0)

    def test_variance_budget_and_slope(self):
        stats = self._stats()
        rep = pq.hw_tail_check(stats, [0.01, 0.02, 0.04, 0.08], min_seeds=100)
        assert rep.var_ok.all()
        assert rep.decay_slope[0] < 0.0

    def test_power_guard(self):
        stats = self._stats(n_seeds=20)
        with pytest.raises(pq.StatisticalPowerError):
            pq.hw_tail_check(stats, [0.05], min_seeds=100)
