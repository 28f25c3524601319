import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathqv as pq
import strategies as strat
from pathqv.cli import build_partitions, parse_config, run_seeds


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

    def test_coarse_meshes_select_their_own_level(self):
        # |T^n|^0.9 <= |pi^n| at every level, so the rule stops at l_n = n
        M = 16
        seq = pq.gen_random_balanced(7, range(0, 5), M, 1.0, 3.0)
        ref = pq.gen_dyadic(range(0, M + 1), M, 1.0)
        sel = pq.select_dyadic_subsequence(seq, 0.9, ref)
        assert sel.l == seq.level_ids
        assert sel.sandwich_ok == (True,) * len(seq) and np.all(sel.ratio <= 1.0)

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


@given(st.data())
@settings(max_examples=40)
def test_arithmetic_grouping_matches_searchsorted(data):
    """On dyadic fine levels grouping counts points by arithmetic, not search."""
    M = data.draw(st.integers(4, 9))
    coarse = data.draw(strat.partitions_on(M, max_interior=20))
    for n in range(M + 1):
        fine = pq.gen_dyadic([n], M, 1.0).level(n)
        try:
            gi = pq.grouping(coarse, fine)
        except pq.GroupingError as exc:
            gi, err = None, str(exc)
        assert "indices" not in vars(fine)
        p_ext = np.searchsorted(fine.indices, coarse.indices, side="right")
        empty = np.flatnonzero(np.diff(p_ext) < 1)
        if empty.size:
            assert gi is None and err.startswith(f"coarse cell {empty[0]} contains no fine point")
        else:
            assert np.array_equal(gi.p, p_ext[:-1])
            assert np.array_equal(gi.cell_points, np.diff(p_ext))


class TestLazyReference:
    def test_m23_reference_and_selection_allocate_no_level_arrays(self):
        rb = pq.gen_random_balanced(7, range(6, 13), 23, 1.0, 3.0)
        tracemalloc.start()
        try:
            ref = pq.gen_dyadic(range(6, 24), 23, 1.0)
            sel = pq.select_dyadic_subsequence(rb, 0.5, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sel.l == (11, 13, 15, 17, 19, 21, 23)
        assert peak < 1 << 20       # the level arrays alone would be 128 MiB

    @pytest.mark.parametrize("t", [None, 0.5])
    def test_statistic_leaves_the_fine_level_unbuilt(self, t):
        M = 16
        w = pq.gen_brownian(5, M, 1.0, 2)
        coarse = pq.gen_random_balanced(7, [6], M, 1.0, 3.0).level(6)
        fine = pq.gen_dyadic([13], M, 1.0).level(13)
        eager = pq.Partition(np.arange((1 << 13) + 1, dtype=np.int64) << 3, M, 1.0)
        got = pq.roughness_statistic(w, coarse, fine, t=t)
        assert "indices" not in vars(fine)
        want = pq.roughness_statistic(w, coarse, eager, t=t)
        assert got == want


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
        balanced = pq.gen_random_balanced(4, [5], M, 1.0, 3.0)
        dyadic = pq.gen_dyadic([10], M, 1.0)
        ends = (5 / 64, 60 / 64)                  # on the level-10 grid: 320 and 3840
        stopped = pq.stop_partition(balanced, ends).level(5)
        cases = [(balanced.level(5), dyadic.level(10)),                       # strided view
                 (balanced.level(5),
                  pq.gen_random_balanced(6, [9], M, 1.0, 3.0).level(9)),     # gathered
                 (stopped, pq.stop_partition(dyadic, ends).level(10)),       # uniform array
                 (stopped, pq.Partition(range(320, 3841, 4), M, 1.0))]       # range after 0
        for coarse, fine in cases:
            # no t, t before the first point of the stopped levels, inside, in the
            # last interval
            for t in (None, 1 / 16, 0.5 + 3 * 2.0**-M, (fine.last_index - 1) * 2.0**-M):
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


def _tail_samples(partition: dict, n_seeds: int):
    """The configured sequence and {level: S over seeds 0..n_seeds-1} of a Brownian
    path at beta = 0.5, through the mc engine."""
    cfg = parse_config({"path": {"kind": "brownian", "M": partition["M"]},
                        "partition": partition, "analysis": {"beta": 0.5}})
    records = run_seeds("roughness", cfg, range(n_seeds), workers=2)
    seq = build_partitions(cfg["partition"])
    return seq, {n: np.array([rec[f"S_{n}"] for _, rec in records]) for n in seq.level_ids}


def _tail_check_by_records(stats, delta_grid, min_seeds=100, var_margin=0.5):
    """hw_tail_check as it grouped RoughnessStat records by coarse level; the oracle."""
    deltas = np.asarray(delta_grid, dtype=np.float64)
    groups: dict = {}
    for st in stats:
        groups.setdefault(st.coarse_level, []).append(st)
    levels = tuple(sorted(groups))
    exc, slopes, var_e, var_b, var_ok, counts = [], [], [], [], [], []
    for lev in levels:
        grp = groups[lev]
        if len(grp) < min_seeds:
            raise pq.StatisticalPowerError(
                f"level {lev} has {len(grp)} samples; need >= {min_seeds}"
            )
        s = np.array([g.S for g in grp])
        mesh = grp[0].coarse_mesh
        c_hat = max(g.coarse_ratio for g in grp)
        horizon = grp[0].horizon
        freq = np.array([(np.abs(s) > d).mean() for d in deltas])
        pos = freq > 0
        if pos.sum() >= 2:
            slope = float(np.polyfit(deltas[pos] / math.sqrt(mesh), np.log(freq[pos]), 1)[0])
        else:
            slope = float("nan")
        budget = 2.0 * c_hat * horizon * mesh * (1.0 + var_margin)
        v = float(s.var(ddof=1))
        exc.append(freq)
        slopes.append(slope)
        var_e.append(v)
        var_b.append(budget)
        var_ok.append(v <= budget)
        counts.append(len(grp))
    return pq.roughness.TailReport(
        levels=levels,
        deltas=deltas,
        exceedance=np.asarray(exc),
        decay_slope=np.asarray(slopes),
        var_emp=np.asarray(var_e),
        var_budget=np.asarray(var_b),
        var_ok=np.asarray(var_ok),
        n_seeds=np.asarray(counts),
    )


_DYADIC8_M16 = {"generator": "dyadic", "levels": [8, 8], "M": 16}       # l = 16


class TestTailCheck:
    @pytest.fixture(scope="class")
    def level8(self):
        return _tail_samples(_DYADIC8_M16, 120)

    def test_delta_beyond_max_has_zero_frequency(self, level8):
        seq, samples = level8
        top = float(np.abs(samples[8]).max())
        rep = pq.hw_tail_check(seq, samples, [top * 1.01, top * 2], min_seeds=100)
        assert np.all(rep.exceedance == 0.0)

    def test_variance_budget_and_slope(self, level8):
        seq, samples = level8
        rep = pq.hw_tail_check(seq, samples, [0.01, 0.02, 0.04, 0.08], min_seeds=100)
        assert rep.var_ok.all()
        assert rep.decay_slope[0] < 0.0

    def test_power_guard(self, level8):
        seq, samples = level8
        with pytest.raises(pq.StatisticalPowerError):
            pq.hw_tail_check(seq, {8: samples[8][:20]}, [0.05], min_seeds=100)

    @pytest.mark.parametrize("partition,n_seeds,deltas", [
        (_DYADIC8_M16, 120, [0.01, 0.02, 0.04, 0.08]),
        # criterion 9: l = 20
        ({"generator": "dyadic", "levels": [10, 10], "M": 20}, 200,
         [0.025, 0.05, 0.075, 0.1, 0.125]),
        # several levels, each with a mesh ratio above 1 (a dyadic level's is 1)
        ({"generator": "random_balanced", "levels": [4, 6], "M": 14, "seed": 7,
          "c_target": 3.0}, 100, [0.02, 0.05, 0.1, 0.2]),
    ])
    def test_matches_the_record_grouping_oracle(self, partition, n_seeds, deltas):
        seq, samples = _tail_samples(partition, n_seeds)
        M = seq.master_level
        ref = pq.gen_dyadic(range(min(seq.level_ids), M + 1), M, 1.0)
        sel = pq.select_dyadic_subsequence(seq, 0.5, ref)
        stats = []
        for seed in range(n_seeds):
            w = pq.gen_brownian(seed, M, 1.0)
            stats.extend(pq.roughness_statistic(w, seq.level(n), ref.level(l),
                                                coarse_level=n, fine_level=l)
                         for n, l in zip(sel.level_ids, sel.l))
        got = pq.hw_tail_check(seq, samples, deltas, min_seeds=n_seeds)
        want = _tail_check_by_records(stats, deltas, min_seeds=n_seeds)
        assert got.levels == want.levels
        for f in fields(pq.roughness.TailReport)[1:]:
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
