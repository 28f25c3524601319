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

    def test_brownian_dyadic_vs_balanced_smoke(self):
        a = pq.gen_dyadic([10], 12, 1.0)
        b = pq.gen_random_balanced(7, [10], 12, 1.0, 3.0)
        hits = 0
        for seed in range(10):
            w = pq.gen_brownian(seed, 12, 1.0)
            rep = pq.invariance_check(w, a, b, tol=0.1)
            hits += rep.passed
        assert hits >= 9
