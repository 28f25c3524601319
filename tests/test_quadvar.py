import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathqv as pq
import strategies as strat


class TestQvLevel:
    def test_constant_path_is_zero(self):
        p = pq.gen_deterministic("constant", {"c": 5.0}, 10, 1.0)
        part = pq.gen_dyadic([4], 10, 1.0).level(4)
        curve = pq.qv_level(p, part)
        assert np.all(curve.values == 0.0)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_linear_closed_form(self, n):
        p = pq.gen_deterministic("linear", {"slope": 1.0}, 12, 1.0)
        part = pq.gen_dyadic([n], 12, 1.0).level(n)
        val = pq.qv_level(p, part, [1.0]).at(1.0)
        assert abs(val - 2.0**-n) < 1e-14

    def test_brownian_level14_concentrates(self, bm14_batch):
        part = pq.gen_dyadic([14], 14, 1.0).level(14)
        vals = np.array([pq.qv_level(w, part, [1.0]).at(1.0)[0] for w in bm14_batch[:20]])
        assert np.all(np.abs(vals - 1.0) < 0.05)

    def test_zero_at_time_zero_and_curve_invariants(self):
        w = pq.gen_brownian(4, 10, 1.0)
        part = pq.gen_dyadic([6], 10, 1.0).level(6)
        curve = pq.qv_level(w, part)
        assert curve.eval_times[0] == 0.0 and curve.values[0] == 0.0
        assert curve.eval_times[-1] == 1.0

    def test_grid_mismatch_rejected(self):
        w = pq.gen_brownian(0, 10, 1.0)
        part = pq.gen_dyadic([4], 10, 1.0).level(4)
        with pytest.raises(pq.ParameterError):
            pq.qv_level(w, part, [0.3])


@given(strat.small_paths(max_level=7), st.data())
def test_qv_non_decreasing_on_partition_points(path, data):
    # the truncated sum is monotone along partition points; between them the
    # straddling increment (x(t) - x(t_j))^2 can revert, so no claim there
    part = data.draw(strat.partitions_on(path.master_level))
    curve = pq.qv_level(path, part, part.times)
    on_part = np.isin(curve.eval_times, part.times)
    assert np.all(np.diff(curve.values[on_part]) >= -1e-15)


@given(strat.small_paths(max_level=7), st.data(),
       st.floats(-3.0, 3.0, allow_nan=False))
def test_qv_scales_quadratically(path, data, lam):
    part = data.draw(strat.partitions_on(path.master_level))
    curve = pq.qv_level(path, part)
    scaled = pq.SampledPath(path.horizon, path.master_level, path.dim,
                            lam * path.samples, path.meta)
    curve2 = pq.qv_level(scaled, part)
    assert np.allclose(curve2.values, lam**2 * curve.values, rtol=1e-10, atol=1e-14)


@given(strat.small_paths(max_level=6, d=2), st.data())
@settings(max_examples=25)
def test_polarisation_matches_direct_cross_sum(path, data):
    part = data.draw(strat.partitions_on(path.master_level))
    direct = pq.quadvar._qv_values(
        path, part, pq.quadvar.default_eval_indices(path, part)
    )
    curve = pq.qv_matrix(path, part)  # raises IdentityCheckError on mismatch
    assert np.allclose(curve.values, direct, rtol=1e-9, atol=1e-12)


def _qv_values_oracle(path, part, eval_idx):
    """The gather-and-searchsorted QV kernel, kept as the oracle of _qv_values."""
    x = path.samples
    pidx = part.indices
    dx = x[pidx[1:]] - x[pidx[:-1]]                     # (N, d)
    d = path.dim
    if d == 1:
        sq = dx[:, 0] ** 2
        cum = np.concatenate([[0.0], np.cumsum(sq)])
    else:
        sq = dx[:, :, None] * dx[:, None, :]            # (N, d, d)
        cum = np.concatenate([np.zeros((1, d, d)), np.cumsum(sq, axis=0)])
    k = np.searchsorted(pidx, eval_idx, side="right") - 1
    inside = (k >= 0) & (k < len(pidx) - 1)
    kin = np.where(inside, k, 0)
    straddle = np.where(inside[:, None], x[eval_idx] - x[pidx[kin]], 0.0)
    base = np.where(k < 0, 0, np.where(inside, kin, len(pidx) - 1))
    if d == 1:
        vals = cum[base] + straddle[:, 0] ** 2
    else:
        vals = cum[base] + straddle[:, :, None] * straddle[:, None, :]
    return vals


class TestQvKernelOracle:
    """_qv_values keeps the oracle's bytes, signed zeros included."""

    M = 10

    def _partitions(self):
        M = self.M
        dyadic = pq.gen_dyadic([1, 4, 7, M], M, 1.0)
        balanced = pq.gen_random_balanced(5, [3, M - 2], M, 1.0, 3.0)
        return [
            *dyadic,                                             # ranges
            *pq.gen_kadic(3, [2, 4], M, 1.0),                    # 3-adic, snapped
            *balanced,
            pq.Partition(dyadic.level(4).indices[1:-1], M, 1.0),  # stopped, uniform
            pq.Partition(range(64, 961, 64), M, 1.0),            # stopped range
            pq.Partition(balanced.level(3).indices[1:-1], M, 1.0),
            *pq.stop_partition(pq.gen_dyadic([5], M, 1.0), (0.3, 0.7)),
        ]

    def _eval_grids(self):
        rng = np.random.default_rng(11)
        on_grid = rng.integers(0, (1 << self.M) + 1, 24) / (1 << self.M)
        return [None, [0.5, 1.0], on_grid, [0.0]]

    @pytest.mark.parametrize("make_path", [
        lambda M: pq.gen_brownian(0, M, 1.0),
        lambda M: pq.gen_brownian(1, M, 1.0),
        lambda M: pq.gen_brownian(2, M, 1.0, 3),
        lambda M: pq.gen_deterministic("constant", {"c": 0.0}, M, 1.0),
        lambda M: pq.gen_deterministic("constant", {"c": 5.0}, M, 1.0),
        lambda M: pq.gen_deterministic("linear", {"slope": -1.5}, M, 1.0),
    ], ids=["bm-0", "bm-1", "bm-3d", "zero", "constant", "linear"])
    def test_matches_oracle_bytes(self, make_path):
        path = make_path(self.M)
        samples = path.samples.tobytes()
        for part in self._partitions():
            for times in self._eval_grids():
                if times is None:
                    eval_idx = pq.quadvar.default_eval_indices(path, part)
                else:
                    eval_idx = pq.quadvar._resolve_eval(path, None, times)
                got = pq.quadvar._qv_values(path, part, eval_idx)
                want = _qv_values_oracle(path, part, eval_idx)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (part, times)
        assert path.samples.tobytes() == samples    # strided views are only read


@given(st.integers(4, 9), st.data())
def test_uniform_interval_lookup_matches_searchsorted(M, data):
    # any partition held as a range, stopped or not, against unsorted eval
    # indices before, inside and after it
    full = 1 << M
    stride = data.draw(st.integers(1, full))
    first = data.draw(st.integers(0, full - stride))
    count = data.draw(st.integers(1, (full - first) // stride))
    part = pq.Partition(range(first, first + stride * count + 1, stride), M, 1.0)
    assert part.range_stride == stride
    eval_idx = np.array(data.draw(st.lists(st.integers(0, full), min_size=1, max_size=20)),
                        dtype=np.int64)
    path = pq.gen_brownian(data.draw(st.integers(0, 2**32 - 1)), M, 1.0,
                           data.draw(st.sampled_from([1, 2])))
    got = pq.quadvar._qv_values(path, part, eval_idx)
    assert got.tobytes() == _qv_values_oracle(path, part, eval_idx).tobytes()


class TestRunningSum:
    def test_leading_negative_zero_keeps_its_sign(self):
        # square has f1(x(0)) = 0 on a path from 0: the first term is -0.0
        # whenever the first increment is negative; 0.0 + -0.0 would be +0.0
        cum = pq.quadvar._running_sum(np.array([-0.0, -0.0, 1.5]))
        assert not np.signbit(cum[0])
        assert np.signbit(cum[1]) and np.signbit(cum[2])
        assert cum[3] == 1.5

    @pytest.mark.parametrize("shape", [(257,), (64, 3, 3)])
    def test_equals_prepended_zeros_and_cumsum(self, shape):
        terms = np.random.default_rng(3).standard_normal(shape)
        terms[:2] = -0.0
        want = np.concatenate([np.zeros((1,) + shape[1:]), np.cumsum(terms, axis=0)])
        got = pq.quadvar._running_sum(terms)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("held", [range, np.array], ids=["range", "array"])
    def test_level_samples_place_like_nested_where(self, held):
        # a range that starts after 0: k runs below -1 there before the first point
        pts = range(48, 977, 16)
        part = pq.Partition(pts if held is range else np.array(pts), 10, 1.0)
        eval_idx = np.array([0, 31, 47, 48, 49, 64, 975, 976, 977, 1024])
        x = np.arange(1025.0)
        xp, xe, inside, kin, base = pq.quadvar._level_samples(x, part, eval_idx)
        k = np.searchsorted(np.array(pts), eval_idx, side="right") - 1
        n_int = part.n_intervals
        assert np.array_equal(xp, x[48:977:16]) and np.array_equal(xe, x[eval_idx])
        assert np.array_equal(inside, (k >= 0) & (k < n_int))
        assert np.array_equal(kin, np.where(inside, k, 0))
        assert np.array_equal(base, np.where(k < 0, 0, np.where(inside, kin, n_int)))


class TestQvMatrix:
    def test_duplicated_component_all_entries_equal(self):
        w = pq.gen_brownian(2, 10, 1.0)
        x = np.hstack([w.samples, w.samples])
        dup = pq.SampledPath(1.0, 10, 2, x, pq.PathMeta("custom", 2, {}))
        part = pq.gen_dyadic([7], 10, 1.0).level(7)
        curve = pq.qv_matrix(dup, part)
        last = curve.values[-1]
        assert np.allclose(last, last[0, 0])

    def test_independent_components(self):
        # Monte Carlo: diagonal near t, off-diagonal near 0
        offs, diags = [], []
        part = pq.gen_dyadic([14], 14, 1.0).level(14)
        for seed in range(50):
            w = pq.gen_brownian(seed, 14, 1.0, 2)
            last = pq.qv_matrix(w, part, [1.0]).values[-1]
            offs.append(last[0, 1])
            diags.extend([last[0, 0], last[1, 1]])
        assert abs(np.mean(offs)) < 0.05
        assert abs(np.mean(diags) - 1.0) < 0.05

    def test_constant_second_component(self):
        w = pq.gen_brownian(3, 10, 1.0)
        x = np.hstack([w.samples, np.full_like(w.samples, 2.0)])
        path = pq.SampledPath(1.0, 10, 2, x, pq.PathMeta("custom", 3, {}))
        part = pq.gen_dyadic([6], 10, 1.0).level(6)
        curve = pq.qv_matrix(path, part)
        scalar = pq.qv_level(w, part)
        assert np.allclose(curve.values[:, 0, 0], scalar.values)
        # polarisation of (x, const) leaves rounding dust, nothing more
        assert np.all(np.abs(curve.values[:, 1, 1]) < 1e-12)
        assert np.all(np.abs(curve.values[:, 0, 1]) < 1e-12)

    def test_needs_two_dims(self):
        w = pq.gen_brownian(0, 8, 1.0)
        part = pq.gen_dyadic([4], 8, 1.0).level(4)
        with pytest.raises(pq.ParameterError):
            pq.qv_matrix(w, part)

    def test_psd_increments_on_partition_points(self):
        w = pq.gen_brownian(8, 10, 1.0, 3)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        curve = pq.qv_matrix(w, part, part.times)
        on_part = [np.argmin(np.abs(curve.eval_times - t)) for t in part.times]
        vals = curve.values[on_part]
        for a, b in zip(vals, vals[1:]):
            eig = np.linalg.eigvalsh(b - a)
            assert eig.min() > -1e-12


def _qv_matrix_oracle(path, part, eval_times=None):
    """qv_matrix with a SampledPath per component and per pair sum, kept as its oracle."""
    eval_idx = pq.quadvar._resolve_eval(path, part, eval_times)
    d = path.dim
    x = path.samples

    def scalar_qv(series):
        p = pq.SampledPath(path.horizon, path.master_level, 1, series[:, None], path.meta)
        return _qv_values_oracle(p, part, eval_idx)

    comp = [scalar_qv(x[:, i]) for i in range(d)]
    vals = np.empty((len(eval_idx), d, d))
    for i in range(d):
        vals[:, i, i] = comp[i]
        for j in range(i + 1, d):
            pol = (scalar_qv(x[:, i] + x[:, j]) - comp[i] - comp[j]) / 2.0
            vals[:, i, j] = pol
            vals[:, j, i] = pol
    return pq.QVCurve(eval_idx * path.master_step, vals)


class TestQvMatrixOracle:
    """qv_matrix, reading only partition and evaluation samples, keeps the oracle's bytes."""

    M = 10

    def _paths(self, d):
        w = pq.gen_brownian(20 + d, self.M, 1.0, d)
        zero = w.samples.copy()
        zero[:, 1] = 0.0                       # every pair sum with x_1 is x_i + 0
        neg = w.samples.copy()
        neg[:, 1] = -neg[:, 0]                 # x_0 + x_1 is a zero everywhere
        meta = pq.PathMeta("custom")
        return [w, pq.SampledPath(1.0, self.M, d, zero, meta),
                pq.SampledPath(1.0, self.M, d, neg, meta)]

    def _partitions(self):
        dyadic = pq.gen_dyadic([3, 6, 9], self.M, 1.0)
        balanced = pq.gen_random_balanced(5, [4, 7], self.M, 1.0, 3.0)
        return [*dyadic, *balanced, *pq.stop_partition(dyadic, (0.3, 0.7)),
                *pq.stop_partition(balanced, (0.3, 0.7))]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_oracle_bytes(self, d):
        rng = np.random.default_rng(d)
        on_grid = rng.integers(0, (1 << self.M) + 1, 24) / (1 << self.M)
        for path in self._paths(d):
            for part in self._partitions():
                for times in (None, [0.5, 1.0], [0.0], on_grid):
                    got = pq.qv_matrix(path, part, times)
                    want = _qv_matrix_oracle(path, part, times)
                    assert got.values.shape == want.values.shape
                    assert got.values.tobytes() == want.values.tobytes(), (part, times)
                    assert got.eval_times.tobytes() == want.eval_times.tobytes()


class TestEvalIndices:
    """The sort-based union keeps the values and dtype of np.union1d."""

    M = 10

    def _assert_union(self, got, want):
        assert got.dtype == np.int64 and want.dtype == np.int64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("times", [
        [0.75, 0.25, 0.5],                       # unsorted
        [0.5, 0.5, 0.25, 0.5, 0.25],             # duplicated
        [1.0, 0.0],                              # only the two ends
        [0.0, 0.0, 1.0, 1.0, 0.5],               # ends duplicated
        [],                                      # none: the ends alone
        np.arange(1025)[::-3] / 1024,            # reversed, off the 2^8 grid
    ])
    def test_resolve_eval_matches_union1d(self, times):
        w = pq.gen_brownian(1, self.M, 1.0)
        for part in (None, pq.gen_dyadic([7], self.M, 1.0).level(7)):
            want = np.union1d(pq.paths.master_index_of(times, self.M, 1.0),
                              [0, 1 << self.M])
            self._assert_union(pq.quadvar._resolve_eval(w, part, times), want)

    @pytest.mark.parametrize("M", [6, 8, 12])
    def test_default_grid_matches_union1d(self, M):
        w = pq.gen_brownian(1, M, 1.0)
        coarse = np.arange(0, (1 << M) + 1, 1 << (M - min(M, 8)), dtype=np.int64)
        parts = [*pq.gen_dyadic([3, M], M, 1.0),
                 *pq.gen_random_balanced(2, [M - 2], M, 1.0, 3.0),
                 *pq.stop_partition(pq.gen_dyadic([M - 1], M, 1.0), (0.25, 0.75))]
        self._assert_union(pq.quadvar.default_eval_indices(w, None), coarse)
        for part in parts:
            self._assert_union(pq.quadvar.default_eval_indices(w, part),
                               np.union1d(coarse, part.indices))


class TestStoppedConsistency:
    def test_qv_on_stopped_equals_full_before_stop(self):
        w = pq.gen_brownian(6, 12, 1.0)
        seq = pq.gen_dyadic([6], 12, 1.0)
        a = 0.5  # partition point of level 6
        stopped = pq.stop_partition(seq, (0.0, a))
        ts = np.arange(0, 17) / 32.0  # times up to 0.5 on the master grid
        full_curve = pq.qv_level(w, seq.level(6), ts).at(ts)
        stop_curve = pq.qv_level(w, stopped.level(6), ts).at(ts)
        assert np.allclose(full_curve, stop_curve, rtol=0, atol=1e-14)


class TestLimitDiagnostic:
    def test_linear_closed_form_distances(self):
        p = pq.gen_deterministic("linear", {"slope": 1.0}, 12, 1.0)
        seq = pq.gen_dyadic(range(4, 13), 12, 1.0)
        diag = pq.qv_limit_diagnostic(p, seq, tol=0.01)
        for n, sup in zip(diag.level_ids[:-1], diag.sup_to_finest[:-1]):
            expect = 2.0**-n - 2.0**-12
            if n >= 8:
                assert abs(sup - expect) < 1e-12
            else:
                assert expect - 2.0 ** (-2 * n) <= sup <= 2.0**-n
        assert diag.cauchy_at_tol

    def test_constant_all_zero(self):
        p = pq.gen_deterministic("constant", {"c": 1.0}, 10, 1.0)
        seq = pq.gen_dyadic(range(3, 8), 10, 1.0)
        diag = pq.qv_limit_diagnostic(p, seq, tol=1e-12)
        assert np.all(diag.sup_to_finest == 0.0)
        assert diag.cauchy_at_tol

    def test_brownian_cauchy_verdict(self):
        passes = 0
        for seed in range(20):
            w = pq.gen_brownian(seed, 14, 1.0)
            seq = pq.gen_dyadic(range(8, 15), 14, 1.0)
            passes += pq.qv_limit_diagnostic(w, seq, tol=0.05).cauchy_at_tol
        assert passes >= 18

    def test_needs_three_levels(self):
        w = pq.gen_brownian(0, 10, 1.0)
        seq = pq.gen_dyadic([4, 5], 10, 1.0)
        with pytest.raises(pq.ParameterError):
            pq.qv_limit_diagnostic(w, seq)


class TestInvariance:
    def test_same_sequence_distance_zero(self):
        w = pq.gen_brownian(1, 12, 1.0)
        seq = pq.gen_dyadic(range(6, 12), 12, 1.0)
        rep = pq.invariance_check(w, seq, seq)
        assert np.all(rep.sup_distances == 0.0)
        assert rep.passed

    def test_linear_path_both_curves_vanish(self):
        p = pq.gen_deterministic("linear", {"slope": 1.0}, 14, 1.0)
        a = pq.gen_dyadic(range(8, 13), 14, 1.0)
        b = pq.gen_random_balanced(4, range(8, 13), 14, 1.0, 3.0)
        rep = pq.invariance_check(p, a, b, tol=0.01)
        assert rep.passed
        assert rep.sup_distances[-1] < 2.0**-7

    def test_unbalanced_rejected(self):
        w = pq.gen_brownian(0, 12, 1.0)
        idx = np.array([0, 1, 2**12])
        lop = pq.PartitionSequence(
            (pq.Partition(idx, 12, 1.0), pq.Partition(np.array([0, 1, 8, 2**12]), 12, 1.0)),
            (1, 2), "lopsided")
        seq = pq.gen_dyadic(range(4, 8), 12, 1.0)
        with pytest.raises(pq.ParameterError):
            pq.invariance_check(w, lop, seq)

    def test_no_matching_mesh_pairing(self):
        w = pq.gen_brownian(0, 12, 1.0)
        a = pq.gen_dyadic([1], 12, 1.0)
        b = pq.gen_dyadic([10, 11], 12, 1.0)
        with pytest.raises(pq.PairingError):
            pq.invariance_check(w, a, b)

    def test_each_level_computed_once(self, monkeypatch):
        w = pq.gen_brownian(3, 12, 1.0)
        a = pq.gen_dyadic(range(4, 11), 12, 1.0)
        b = pq.gen_random_balanced(7, range(4, 11), 12, 1.0, 3.0)
        kernel = pq.quadvar._qv_values
        calls = []

        def counting(path, part, eval_idx):
            calls.append(part)
            return kernel(path, part, eval_idx)

        monkeypatch.setattr(pq.quadvar, "_qv_values", counting)
        rep = pq.invariance_check(w, a, b)
        levels = {("a", na) for na, _ in rep.pairs} | {("b", nb) for _, nb in rep.pairs}
        assert len(levels) < 2 * len(rep.pairs)     # some level serves two pairs
        assert len(calls) == len(levels)
        eval_idx = pq.quadvar._resolve_eval(w, None, None)
        per_pair = [np.abs(kernel(w, a.level(na), eval_idx)
                           - kernel(w, b.level(nb), eval_idx)).max()
                    for na, nb in rep.pairs]
        assert rep.sup_distances.tobytes() == np.asarray(per_pair).tobytes()

    # B levels 4-7: levels 9 and 10 of A have no partner, so the finest pair is (8, 7)
    @pytest.mark.parametrize("b_levels,want", [(range(4, 11), (10, 10)), (range(4, 8), (8, 7))])
    def test_finest_pair_alone_gives_the_finest_sup(self, b_levels, want):
        w = pq.gen_brownian(3, 12, 1.0)
        a = pq.gen_dyadic(range(4, 11), 12, 1.0)
        b = pq.gen_random_balanced(7, b_levels, 12, 1.0, 3.0)
        rep = pq.invariance_check(w, a, b)
        pairs, mesh_a, mesh_b, finest = pq.quadvar._pair_levels(w, a, b, 8.0)
        assert (tuple(pairs), mesh_a, mesh_b) == (rep.pairs, list(rep.mesh_a), list(rep.mesh_b))
        na, nb = pairs[finest]
        assert (na, nb) == want
        one = pq.invariance_check(w, pq.PartitionSequence((a.level(na),), (na,)),
                                  pq.PartitionSequence((b.level(nb),), (nb,)))
        assert one.sup_distances.tobytes() == rep.sup_distances[finest:finest + 1].tobytes()

    def test_brownian_dyadic_vs_balanced_smoke(self):
        a = pq.gen_dyadic([10], 12, 1.0)
        b = pq.gen_random_balanced(7, [10], 12, 1.0, 3.0)
        hits = 0
        for seed in range(10):
            w = pq.gen_brownian(seed, 12, 1.0)
            rep = pq.invariance_check(w, a, b, tol=0.1)
            hits += rep.passed
        assert hits >= 9
