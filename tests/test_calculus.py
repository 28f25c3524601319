import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathqv as pq
import strategies as strat
from pathqv import calculus
from pathqv.calculus import default_test_bank, default_u_grid, tabulated_function
from pathqv.paths import master_index_of


CATALOGUE = ["square", "cubic", "sin", "exp", "identity", "abs_smooth"]


class TestFunctionCatalogue:
    @pytest.mark.parametrize("name", CATALOGUE)
    def test_derivatives_match_finite_differences(self, name):
        # first differences at h=1e-6; second at h=1e-4 where the central
        # stencil's roundoff (eps/h^2) stays below the 1e-6 relative target
        fn = pq.function_catalogue(name)
        x = np.linspace(-3.0, 3.0, 301)
        h1, h2 = 1e-6, 1e-4
        fd1 = (fn.f(x + h1) - fn.f(x - h1)) / (2 * h1)
        fd2 = (fn.f(x + h2) - 2 * fn.f(x) + fn.f(x - h2)) / h2**2
        assert np.allclose(fn.f1(x), fd1, rtol=1e-6, atol=1e-6)
        assert np.allclose(fn.f2(x), fd2, rtol=1e-6, atol=1e-5)

    def test_unknown_name(self):
        with pytest.raises(pq.ParameterError):
            pq.function_catalogue("tanh")

    def test_numpy_scalar_params_accepted(self):
        fn = pq.function_catalogue("abs_smooth", a=np.float64(0.5), eps=np.int64(1))
        assert fn.f(np.array([0.5]))[0] == 1.0

    def test_tabulated_interpolates(self):
        u = np.linspace(-2, 2, 401)
        fn = tabulated_function("sq", u, u**2, 2 * u, np.full_like(u, 2.0))
        x = np.array([-1.5, 0.25, 1.75])
        assert np.allclose(fn.f(x), x**2, atol=1e-3)
        assert np.allclose(fn.f1(x), 2 * x, atol=1e-3)


class TestFollmerIntegral:
    def test_unit_gradient_telescopes(self):
        w = pq.gen_brownian(3, 10, 1.0)
        part = pq.gen_random_balanced(1, [5], 10, 1.0, 2.0).level(5)
        x = w.scalar()
        for t in (0.25, 0.5, 1.0):
            val = pq.follmer_integral(w, lambda v: np.ones_like(v), part, t)
            e = int(t * 2**10)
            assert abs(val - (x[e] - x[0])) < 1e-14

    def test_square_closed_form_at_partition_points(self):
        w = pq.gen_brownian(5, 12, 1.0)
        part = pq.gen_dyadic([7], 12, 1.0).level(7)
        fn = pq.function_catalogue("square")
        x = w.scalar()
        for t in part.times[1:]:
            val = pq.follmer_integral(w, fn.f1, part, float(t))
            qv = float(pq.qv_level(w, part, [float(t)]).at(float(t))[0])
            e = int(round(t * 2**12))
            assert abs((x[e] ** 2 - x[0] ** 2) - (val + qv)) < 1e-12

    def test_cubic_cauchy_between_levels(self):
        # independent Cauchy-convergence oracle, frozen from a 100-seed run:
        # gaps halve per level and the finer pair sits well under 0.05
        f3 = pq.function_catalogue("cubic")
        parts = {n: pq.gen_dyadic([n], 14, 1.0).level(n) for n in (10, 12, 14)}
        d10, d12 = [], []
        for s in range(100):
            w = pq.gen_brownian(s, 14, 1.0)
            i14 = pq.follmer_integral(w, f3.f1, parts[14], 1.0)
            d10.append(abs(pq.follmer_integral(w, f3.f1, parts[10], 1.0) - i14))
            d12.append(abs(pq.follmer_integral(w, f3.f1, parts[12], 1.0) - i14))
        assert np.median(d10) < 0.06
        assert np.median(d12) < 0.03
        assert np.median(d12) < np.median(d10)

    def test_linearity_in_integrand(self):
        w = pq.gen_brownian(1, 10, 1.0)
        part = pq.gen_dyadic([6], 10, 1.0).level(6)
        a = pq.follmer_integral(w, np.cos, part, 1.0)
        b = pq.follmer_integral(w, np.sin, part, 1.0)
        both = pq.follmer_integral(w, lambda v: 2.0 * np.cos(v) - 3.0 * np.sin(v), part, 1.0)
        assert abs(both - (2 * a - 3 * b)) < 1e-12

    def test_additive_over_adjacent_windows(self):
        w = pq.gen_brownian(2, 10, 1.0)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        full = pq.follmer_integral(w, np.cos, part, 1.0)
        # split at the partition point 0.5: left-sum over [0, .5] + [.5, 1]
        seq = pq.PartitionSequence((part,), (5,), "one")
        left = pq.follmer_integral(w, np.cos, pq.stop_partition(seq, (0.0, 0.5)).level(5), 0.5)
        right = pq.follmer_integral(w, np.cos, pq.stop_partition(seq, (0.5, 1.0)).level(5), 1.0)
        assert abs(full - (left + right)) < 1e-12

    def test_before_partition_start_is_zero(self):
        w = pq.gen_brownian(2, 10, 1.0)
        seq = pq.PartitionSequence((pq.gen_dyadic([5], 10, 1.0).level(5),), (5,), "one")
        stopped = pq.stop_partition(seq, (0.5, 1.0)).level(5)
        assert pq.follmer_integral(w, np.cos, stopped, 0.25) == 0.0


def follmer_integral_oracle(path, f1, part, t):
    """The pairwise-sum integral, kept as the scalar oracle of follmer_integral.

    It sums the complete intervals with one einsum (numpy sums pairwise) and
    the straddling interval apart, so it rounds differently from the running
    sum that follmer_integral now shares with follmer_path.
    """
    e = int(master_index_of([t], path.master_level, path.horizon)[0])
    x = path.samples
    pidx = part.indices
    k = int(np.searchsorted(pidx, e, side="right")) - 1
    if k < 0:
        return 0.0
    xl = x[pidx[:k]]
    g = calculus._eval_grad(f1, xl, path.dim)
    dx = x[pidx[1 : k + 1]] - xl
    total = float(np.einsum("ij,ij->", g, dx))
    if k < part.n_intervals and e > pidx[k]:
        anchor = x[pidx[k]]
        gl = calculus._eval_grad(f1, anchor[None, :], path.dim)[0]
        total += float(np.dot(gl, x[e] - anchor))
    return total


class TestFollmerIntegralOracle:
    """The running sum stays within 1e-13 of the pairwise sum.

    On the first test's matrix (20 Brownian seeds at M = 20; dyadic and
    random balanced level 14; sin, cubic and square; t = 0.3125 + 2^-20 and
    1) 236 of the 240 values differ, by at most 2.8e-14.
    """

    TOL = 1e-13

    def test_running_sum_within_tol_of_pairwise_sum(self):
        M = 20
        parts = [pq.gen_dyadic([14], M, 1.0).level(14),
                 pq.gen_random_balanced(5, [14], M, 1.0, 3.0).level(14)]
        fns = [pq.function_catalogue(name) for name in ("sin", "cubic", "square")]
        gaps = []
        for seed in range(20):
            w = pq.gen_brownian(seed, M, 1.0)
            for part in parts:
                for fn in fns:
                    for t in (0.3125 + 2.0**-M, 1.0):
                        got = pq.follmer_integral(w, fn.f1, part, t)
                        gaps.append(abs(got - follmer_integral_oracle(w, fn.f1, part, t)))
        assert max(gaps) <= self.TOL

    @pytest.mark.parametrize("M", [8, 11])
    def test_stopped_levels_and_several_dimensions(self, M):
        fns = [pq.function_catalogue(name) for name in CATALOGUE]
        times = [0.0, 2.0**-M, 1 / 16, 0.25 + 2.0**-M, 0.5, 0.75, 1.0]
        for w in [*(_oracle_path(kind, M) for kind in ("brownian", "mixed", "fbm")),
                  pq.gen_brownian(3, M, 1.0, 3)]:
            for part in _kernel_oracle_partitions(M):
                for fn in fns:
                    for t in times:
                        got = pq.follmer_integral(w, fn.f1, part, t)
                        want = follmer_integral_oracle(w, fn.f1, part, t)
                        assert abs(got - want) <= self.TOL, (part, fn.name, t)


@given(strat.small_paths(max_level=7), st.data(), st.integers(0, 255))
@settings(max_examples=30)
def test_follmer_path_matches_pointwise_integral(path, data, pick):
    part = data.draw(strat.partitions_on(path.master_level))
    ipath = pq.follmer_path(path, np.cos, part)
    e = pick % path.n_points
    t = float(path.times[e])
    want = pq.follmer_integral(path, np.cos, part, t)
    assert ipath.scalar()[e].tobytes() == np.float64(want).tobytes()


class TestItoResidual:
    def test_square_exact_at_partition_points(self):
        w = pq.gen_brownian(7, 12, 1.0)
        part = pq.gen_dyadic([8], 12, 1.0).level(8)
        fn = pq.function_catalogue("square")
        et, resid = pq.ito_residual_level(w, fn, part, eval_times=part.times)
        on_part = np.isin(et, part.times)
        assert np.max(np.abs(resid[on_part])) < 1e-12

    def test_identity_function_zero_everywhere(self):
        w = pq.gen_brownian(4, 12, 1.0)
        seq = pq.gen_dyadic(range(4, 10), 12, 1.0)
        fn = pq.function_catalogue("identity")
        rep = pq.ito_residual(w, fn, seq)
        assert np.max(rep.sup) < 1e-12

    def test_sin_residual_shrinks_with_level(self):
        fn = pq.function_catalogue("sin")
        sups = []
        for s in range(20):
            w = pq.gen_brownian(s, 14, 1.0)
            rep = pq.ito_residual(w, fn, pq.gen_dyadic([10, 14], 14, 1.0))
            sups.append(rep.sup)
        sups = np.array(sups)
        assert np.median(sups[:, 1]) < 0.02
        assert np.median(sups[:, 1]) < np.median(sups[:, 0])

    def test_supplied_curve_against_same_level(self):
        w = pq.gen_brownian(9, 12, 1.0)
        part = pq.gen_dyadic([9], 12, 1.0).level(9)
        fn = pq.function_catalogue("sin")
        curve = pq.qv_level(w, part)
        et, r_curve = pq.ito_residual_level(w, fn, part, qv=curve, eval_times=part.times)
        et2, r_exact = pq.ito_residual_level(w, fn, part, eval_times=part.times)
        on = np.isin(et, part.times)
        assert np.allclose(r_curve[on], r_exact[np.isin(et2, part.times)], atol=1e-10)


def stieltjes_loop(f2_at_left, part_times, curve, eval_times):
    """Reference Stieltjes sum: one truncated left sum per evaluation time."""
    q_at_part = curve.at(part_times)
    out = np.empty(len(eval_times))
    cum = np.concatenate([[0.0], np.cumsum(f2_at_left * np.diff(q_at_part))])
    k = np.searchsorted(part_times, eval_times, side="right") - 1
    q_at_eval = curve.at(eval_times)
    for i in range(len(eval_times)):
        kk = k[i]
        if kk < 0:
            out[i] = 0.0
        elif kk >= len(part_times) - 1:
            out[i] = cum[-1]
        else:
            out[i] = cum[kk] + f2_at_left[kk] * (q_at_eval[i] - q_at_part[kk])
    return out


class TestStieltjesAgainstCurve:
    """The Stieltjes sum on the running sum keeps the bits of the per-time loop."""

    M = 12

    def _partitions(self):
        dyadic = pq.gen_dyadic([5, 9], self.M, 1.0)
        rb = pq.gen_random_balanced(3, [7], self.M, 1.0, 3.0)
        # stopped levels and ranges that start after 0 put evaluation times
        # before their first point and after their last
        stopped = pq.stop_partition(dyadic, (0.25, 0.75))
        return [*dyadic, *rb, *stopped, *_stopped_ranges(self.M)]

    def _paths(self):
        # on the constant path sin has f2 = -0.0 and every Stieltjes term is -0.0
        flat = pq.SampledPath(1.0, self.M, 1, np.zeros((2**self.M + 1, 1)),
                              pq.PathMeta("custom", 0, {}))
        return [pq.gen_brownian(5, self.M, 1.0), flat]

    def test_matches_loop_bit_for_bit(self):
        f2 = pq.function_catalogue("sin").f2
        grids = [np.arange(0, 4097, 7), np.array([0, 1280, 4096]), np.arange(0, 4097, 128)]
        for w in self._paths():
            curve = pq.qv_level(w, pq.gen_dyadic([10], self.M, 1.0).level(10))
            for part in self._partitions():
                f2l = np.asarray(f2(w.scalar()[part.indices[:-1]]))
                for eval_idx in grids:
                    et = eval_idx * w.master_step
                    _, _, *place = pq.quadvar._level_samples(w.samples, part, eval_idx)
                    got = calculus._stieltjes_against_curve(f2l, part, curve, et, *place)
                    want = stieltjes_loop(f2l, part.times, curve, et)
                    assert got.tobytes() == want.tobytes(), (part, eval_idx)

    def test_residual_and_isometry_with_curve(self):
        seq = pq.gen_dyadic([6, 8, 10], self.M, 1.0)
        grids = [None, np.arange(0, 4097, 5) / 4096, [0.0, 1 / 16, 0.5, 1.0]]
        for w in self._paths():
            curves = [pq.qv_level(w, seq.level(10)),
                      pq.qv_level(w, seq.level(6), np.arange(0, 33) / 32)]
            seqs = [seq, pq.stop_partition(seq, (0.25, 0.75)),
                    pq.PartitionSequence(tuple(_stopped_ranges(self.M)), (4, 6), "ranges")]
            for fn in (pq.function_catalogue("sin"), pq.function_catalogue("cubic")):
                for qv in curves:
                    for et in grids:
                        for part in self._partitions():
                            t_got, got = pq.ito_residual_level(w, fn, part, qv, et)
                            t_want, want = ito_residual_level_oracle(w, fn, part, qv, et)
                            assert t_got.tobytes() == t_want.tobytes()
                            assert got.tobytes() == want.tobytes(), (part, fn.name, et)
                        for s in seqs:
                            rep = pq.isometry_check(w, fn, s, qv=qv, eval_times=et)
                            times, sups, ivals = isometry_whole_grid(w, fn, s, qv, et)
                            assert rep.eval_times.tobytes() == times.tobytes()
                            assert rep.sup_distances.tobytes() == sups.tobytes()
                            assert rep.integral_values.tobytes() == ivals.tobytes()


class TestIsometry:
    def test_unit_gradient_equals_qv_both_sides(self):
        w = pq.gen_brownian(3, 12, 1.0)
        seq = pq.gen_dyadic([6, 9], 12, 1.0)
        fn = pq.function_catalogue("identity")
        rep = pq.isometry_check(w, fn, seq)
        assert np.all(rep.sup_distances < 1e-12)

    def test_zero_gradient(self):
        w = pq.gen_brownian(3, 12, 1.0)
        seq = pq.gen_dyadic([6], 12, 1.0)
        fn = pq.FunctionTriple("const", lambda x: np.ones_like(x),
                               lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))
        rep = pq.isometry_check(w, fn, seq)
        assert np.all(rep.sup_distances == 0.0)
        assert np.all(rep.integral_values == 0.0)

    def test_same_level_square_is_algebraic_identity(self):
        w = pq.gen_brownian(11, 12, 1.0)
        seq = pq.gen_dyadic([10], 12, 1.0)
        rep = pq.isometry_check(w, pq.function_catalogue("square"), seq)
        assert rep.sup_distances[0] < 1e-10


def follmer_path_oracle(path, f1, part):
    """The gather-and-searchsorted integral path, kept as the oracle of follmer_path.

    Returns the (n_points,) values of the running integral.
    """
    x = path.samples
    pidx = part.indices
    xl = x[pidx[:-1]]
    g = calculus._eval_grad(f1, xl, path.dim)          # (N, d)
    dx = x[pidx[1:]] - xl
    terms = np.einsum("ij,ij->i", g, dx)
    cum = np.concatenate([[0.0], np.cumsum(terms)])    # value at each partition point
    all_idx = np.arange(path.n_points)
    k = np.searchsorted(pidx, all_idx, side="right") - 1
    inside = (k >= 0) & (k < len(pidx) - 1)
    kin = np.where(inside, k, 0)
    anchor = x[pidx[kin]]
    gk = g[np.minimum(kin, len(pidx) - 2)]
    straddle = np.where(inside, np.einsum("ij,ij->i", gk, x[all_idx] - anchor), 0.0)
    base = np.where(k < 0, 0, np.where(inside, kin, len(pidx) - 1))
    return cum[base] + straddle


def isometry_whole_grid(path, fn, seq, qv=None, eval_times=None):
    """Reference isometry: the integral path on the whole master grid, then its QV."""
    x = path.scalar()
    sups, ivals, times = [], [], None
    for part in seq:
        pidx = part.indices
        ipath = follmer_path_oracle(path, fn.f1, part)
        eval_idx = pq.quadvar.default_eval_indices(path, part) if eval_times is None else \
            np.union1d(master_index_of(eval_times, path.master_level, path.horizon),
                       [0, 1 << path.master_level])
        et = eval_idx * path.master_step
        k = np.searchsorted(pidx, eval_idx, side="right") - 1
        inside = (k >= 0) & (k < len(pidx) - 1)
        kin = np.where(inside, k, 0)
        base = np.where(k < 0, 0, np.where(inside, kin, len(pidx) - 1))
        # the QV of the integral path along the level, as the kept QV oracle sums it
        cq = np.concatenate([[0.0], np.cumsum((ipath[pidx[1:]] - ipath[pidx[:-1]]) ** 2)])
        lhs = cq[base] + np.where(inside, ipath[eval_idx] - ipath[pidx[kin]], 0.0) ** 2
        f1l = np.asarray(fn.f1(x[pidx[:-1]])) ** 2
        if qv is None:
            dx = np.diff(x[pidx])
            cum = np.concatenate([[0.0], np.cumsum(f1l * dx**2)])
            stra = np.where(inside, x[eval_idx] - x[pidx[kin]], 0.0)
            rhs = cum[base] + np.where(inside, f1l[np.minimum(kin, len(f1l) - 1)] * stra**2, 0.0)
        else:
            rhs = stieltjes_loop(f1l, part.times, qv, et)
        sups.append(float(np.abs(lhs - rhs).max()))
        ivals.append(float(ipath[-1]))
        times = et
    return times, np.asarray(sups), np.asarray(ivals)


def _isometry_functions():
    u = np.linspace(-3.0, 3.0, 301)
    return [*(pq.function_catalogue(n) for n in ("sin", "cubic", "square", "exp")),
            pq.function_catalogue("abs_smooth", a=0.1, eps=0.05),
            tabulated_function("tab_sin", u, np.sin(u), np.cos(u), -np.sin(u))]


class TestIsometryOracle:
    """The eval-only isometry keeps the bits of the whole-grid integral path."""

    @pytest.mark.parametrize("M", [8, 11, 14])
    @pytest.mark.parametrize("kind", ["brownian", "mixed", "fbm"])
    def test_matches_whole_grid(self, kind, M):
        w = _oracle_path(kind, M)
        seqs = [pq.gen_dyadic(range(M - 6, M + 1), M, 1.0),
                pq.gen_random_balanced(5, [M - 5, M - 3], M, 1.0, 3.0),
                pq.stop_partition(pq.gen_dyadic([M - 4, M - 1], M, 1.0), (0.25, 0.75)),
                pq.PartitionSequence(tuple(_stopped_ranges(M)), (4, 6), "ranges")]
        curves = [None, pq.qv_level(w, pq.gen_dyadic([M - 2], M, 1.0).level(M - 2))]
        # the last grid is unsorted and holds both ends
        grids = [None, [0.25, 0.5, 1.0], (np.arange(33) / 32)[::-1]]
        fns = _isometry_functions()[::{8: 1, 11: 2, 14: 3}[M]]
        for seq in seqs:
            for fn in fns:
                for qv in curves:
                    for et in grids:
                        rep = pq.isometry_check(w, fn, seq, qv=qv, eval_times=et)
                        times, sups, ivals = isometry_whole_grid(w, fn, seq, qv, et)
                        assert rep.eval_times.tobytes() == times.tobytes()
                        assert rep.sup_distances.tobytes() == sups.tobytes()
                        assert rep.integral_values.tobytes() == ivals.tobytes()

    def test_integral_values_end_follmer_path(self):
        w = _oracle_path("mixed", 10)
        seqs = [pq.gen_dyadic(range(4, 11), 10, 1.0),
                pq.stop_partition(pq.gen_dyadic([6, 9], 10, 1.0), (0.25, 0.75))]
        for fn in _isometry_functions():
            for seq in seqs:
                rep = pq.isometry_check(w, fn, seq)
                want = [pq.follmer_path(w, fn.f1, part).scalar()[-1] for part in seq]
                assert rep.integral_values.tobytes() == np.asarray(want).tobytes()

    def test_one_gradient_call_per_level(self):
        w = _oracle_path("brownian", 10)
        seq = pq.gen_dyadic([5, 7, 9], 10, 1.0)
        calls = []

        def f1(v):
            calls.append(len(v))
            return np.cos(v)

        pq.isometry_check(w, pq.FunctionTriple("sin", np.sin, f1, lambda v: -np.sin(v)), seq)
        assert calls == [p.n_intervals for p in seq]


def ito_residual_level_oracle(path, fn, part, qv=None, eval_times=None):
    """The gather-and-searchsorted residual, kept as the oracle of ito_residual_level."""
    x = path.scalar()
    pidx = part.indices
    eval_idx = pq.quadvar._resolve_eval(path, part, eval_times)
    et = eval_idx * path.master_step

    xl = x[pidx[:-1]]
    g = np.asarray(fn.f1(xl))
    dx = x[pidx[1:]] - xl
    cum_int = np.concatenate([[0.0], np.cumsum(g * dx)])

    f2l = np.asarray(fn.f2(xl))
    if qv is None:
        cum_st = np.concatenate([[0.0], np.cumsum(f2l * dx**2)])
    k = np.searchsorted(pidx, eval_idx, side="right") - 1
    inside = (k >= 0) & (k < len(pidx) - 1)
    kin = np.where(inside, k, 0)
    anchor = x[pidx[kin]]
    stra = np.where(inside, x[eval_idx] - anchor, 0.0)
    base = np.where(k < 0, 0, np.where(inside, kin, len(pidx) - 1))
    integral = cum_int[base] + np.where(inside, g[np.minimum(kin, len(g) - 1)] * stra, 0.0)
    if qv is None:
        stieltjes = cum_st[base] + np.where(
            inside, f2l[np.minimum(kin, len(f2l) - 1)] * stra**2, 0.0
        )
    else:
        stieltjes = stieltjes_loop(f2l, part.times, qv, et)
    resid = np.asarray(fn.f(x[eval_idx])) - float(fn.f(x[0])) - integral - 0.5 * stieltjes
    return et, resid


def occupation_rhs_oracle(field, path, part, bands):
    """The gather-and-searchsorted right side of occupation_check, one row per band."""
    x = path.scalar()
    t_idx = master_index_of(field.t_grid, path.master_level, path.horizon)
    pidx = part.indices
    xl = x[pidx[:-1]]
    rhs = np.empty((len(bands), len(t_idx)))
    dx = np.diff(x[pidx])
    k = np.searchsorted(pidx, t_idx, side="right") - 1
    inside = (k >= 0) & (k < len(pidx) - 1)
    kin = np.where(inside, k, 0)
    stra = np.where(inside, x[t_idx] - x[pidx[kin]], 0.0)
    base = np.where(k < 0, 0, np.where(inside, kin, len(pidx) - 1))
    for si, (lo, hi) in enumerate(bands):
        ind = ((xl >= lo) & (xl < hi)).astype(np.float64)
        cum = np.concatenate([[0.0], np.cumsum(ind * dx**2)])
        rhs[si] = cum[base] + np.where(inside, ind[kin] * stra**2, 0.0)
    return rhs


def _stopped_ranges(M):
    """Levels held as ranges that start after 0: one stride from 0, and five."""
    s = 1 << (M - 4)
    r = 1 << (M - 6)
    return [pq.Partition(range(s, 15 * s + 1, s), M, 1.0),
            pq.Partition(range(5 * r, 60 * r + 1, r), M, 1.0)]


def _kernel_oracle_partitions(M):
    return [*pq.gen_dyadic(range(M - 6, M + 1), M, 1.0),
            *pq.gen_random_balanced(5, [M - 5, M - 3], M, 1.0, 3.0),
            *pq.stop_partition(pq.gen_dyadic([M - 4], M, 1.0), (0.25, 0.75)),
            *_stopped_ranges(M)]


def _kernel_oracle_grids(M):
    # random on-grid times, and times before the first point of a stopped range
    on_grid = np.sort(np.random.default_rng(M).integers(0, (1 << M) + 1, 16)) / (1 << M)
    return [None, [0.5, 1.0], on_grid, [0.0, 2.0**-M, 2.0**-4 - 2.0**-M, 0.75]]


class TestRunningSumOracles:
    """The kernels on the shared running sum keep the bytes of their kept bodies.

    Paths start at 0, so ``square`` has f1(x(0)) = 0 and its first terms are
    signed zeros.
    """

    @pytest.mark.parametrize("M", [8, 11, 14])
    @pytest.mark.parametrize("kind", ["brownian", "mixed", "fbm"])
    def test_ito_residual_level(self, kind, M):
        w = _oracle_path(kind, M)
        curves = [None, pq.qv_level(w, pq.gen_dyadic([M - 2], M, 1.0).level(M - 2))]
        fns = [pq.function_catalogue(name) for name in CATALOGUE]
        for part in _kernel_oracle_partitions(M):
            for fn in fns:
                for qv in curves:
                    for et in _kernel_oracle_grids(M):
                        t_got, got = pq.ito_residual_level(w, fn, part, qv, et)
                        t_want, want = ito_residual_level_oracle(w, fn, part, qv, et)
                        assert t_got.tobytes() == t_want.tobytes()
                        assert got.tobytes() == want.tobytes(), (part, fn.name, et)

    @pytest.mark.parametrize("M", [8, 11, 14])
    @pytest.mark.parametrize("kind", ["brownian", "mixed", "fbm"])
    def test_occupation_check(self, kind, M):
        w = _oracle_path(kind, M)
        u = default_u_grid(w, n_u=256)
        sets = [(u[32], u[128]), (u[128], u[224]), (0.0, np.inf)]
        bands = [*sets, (-np.inf, np.inf)]
        for part in _kernel_oracle_partitions(M):
            # rows at every point of a fine level make the field slow to build
            grids = _kernel_oracle_grids(M)[part.n_intervals > 2048:]
            for t_grid in grids:
                fld = pq.local_time_discrete(w, part, t_grid, u)
                rep = pq.occupation_check(fld, w, part, sets)
                want = occupation_rhs_oracle(fld, w, part, bands)
                assert rep.rhs_full.tobytes() == want.tobytes(), (part, t_grid)
                assert rep.rhs_half.tobytes() == (0.5 * want).tobytes()

    @pytest.mark.parametrize("M", [8, 11, 14])
    def test_follmer_path(self, M):
        fns = [pq.function_catalogue(name) for name in CATALOGUE]
        for w in [*(_oracle_path(kind, M) for kind in ("brownian", "mixed", "fbm")),
                  pq.gen_brownian(3, M, 1.0, 3)]:
            for part in _kernel_oracle_partitions(M):
                for fn in fns:
                    got = pq.follmer_path(w, fn.f1, part).scalar()
                    assert got.tobytes() == follmer_path_oracle(w, fn.f1, part).tobytes()


class TestDyadicLevelStaysARange:
    """A dyadic level is read as a strided view: no kernel builds its indices."""

    def _level(self):
        return pq.gen_dyadic([6], 10, 1.0).level(6)

    def test_ito_residual_level(self):
        part = self._level()
        pq.ito_residual_level(pq.gen_brownian(1, 10, 1.0), pq.function_catalogue("sin"),
                              part, eval_times=[0.25, 1.0])
        assert "indices" not in vars(part)

    def test_isometry_check(self):
        seq = pq.gen_dyadic([6], 10, 1.0)
        pq.isometry_check(pq.gen_brownian(1, 10, 1.0), pq.function_catalogue("sin"), seq,
                          eval_times=[0.25, 1.0])
        assert "indices" not in vars(seq.level(6))

    def test_occupation_check(self):
        w = pq.gen_brownian(1, 10, 1.0)
        u = default_u_grid(w, n_u=256)
        fld = pq.local_time_discrete(w, self._level(), [0.25, 1.0], u)
        part = self._level()
        pq.occupation_check(fld, w, part, [(u[32], u[128])])
        assert "indices" not in vars(part)

    @pytest.mark.parametrize("t_grid", [None, [0.25, 321 / 1024, 1.0]])
    def test_local_time_discrete(self, t_grid):
        w = pq.gen_brownian(1, 10, 1.0)
        part = self._level()
        pq.local_time_discrete(w, part, t_grid, default_u_grid(w, n_u=256))
        assert "indices" not in vars(part)

    def test_follmer_path(self):
        part = self._level()
        pq.follmer_path(pq.gen_brownian(1, 10, 1.0), np.cos, part)
        assert "indices" not in vars(part)

    def test_follmer_integral(self):
        part = self._level()
        pq.follmer_integral(pq.gen_brownian(1, 10, 1.0), np.cos, part, 321 / 1024)
        assert "indices" not in vars(part)

    def _curve(self, w):
        return pq.qv_level(w, pq.gen_dyadic([8], 10, 1.0).level(8), np.arange(0, 65) / 64)

    def test_ito_residual_level_with_curve(self):
        w = pq.gen_brownian(1, 10, 1.0)
        part = self._level()
        pq.ito_residual_level(w, pq.function_catalogue("sin"), part, qv=self._curve(w),
                              eval_times=[0.25, 321 / 1024, 1.0])
        assert "indices" not in vars(part)

    def test_isometry_check_with_curve(self):
        w = pq.gen_brownian(1, 10, 1.0)
        seq = pq.gen_dyadic([6], 10, 1.0)
        pq.isometry_check(w, pq.function_catalogue("sin"), seq, qv=self._curve(w),
                          eval_times=[0.25, 321 / 1024, 1.0])
        assert "indices" not in vars(seq.level(6))


def _never(x):
    raise AssertionError("evaluated before the QV curve was checked")


class TestMatrixCurveRefused:
    """A matrix-valued QV curve is refused by name before any work."""

    def _inputs(self):
        seq = pq.gen_dyadic([6, 8], 10, 1.0)
        w2 = pq.gen_brownian(4, 10, 1.0, 2)
        fn = pq.FunctionTriple("never", _never, _never, _never)
        return pq.gen_brownian(3, 10, 1.0), fn, seq, pq.qv_matrix(w2, seq.level(8))

    def test_ito_residual_level(self):
        w, fn, seq, curve = self._inputs()
        with pytest.raises(pq.ParameterError, match="ito_residual_level.*dim 2"):
            pq.ito_residual_level(w, fn, seq.level(8), qv=curve)
        with pytest.raises(pq.ParameterError, match="dim 2"):
            pq.ito_residual(w, fn, seq, qv=curve)

    def test_isometry_check(self):
        w, fn, seq, curve = self._inputs()
        with pytest.raises(pq.ParameterError, match="isometry_check.*dim 2"):
            pq.isometry_check(w, fn, seq, qv=curve)


class TestLocalTime:
    def test_constant_path_zero_field(self):
        p = pq.gen_deterministic("constant", {"c": 1.0}, 10, 1.0)
        u = np.linspace(0.0, 2.0, 256)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        fld = pq.local_time_discrete(p, part, t_grid=[1.0], u_grid=u)
        assert np.all(fld.values == 0.0)

    def test_linear_path_closed_form(self):
        n, M = 4, 10
        p = pq.gen_deterministic("linear", {"slope": 1.0}, M, 1.0)
        part = pq.gen_dyadic([n], M, 1.0).level(n)
        u = np.linspace(0.0, 1.0, 513)
        fld = pq.local_time_discrete(p, part, t_grid=[1.0], u_grid=u)
        row = fld.values[0]
        tj = np.floor(u * 2**n) / 2**n
        expect = 2.0 * (tj + 2.0**-n - u)
        inside = u < 1.0
        assert np.allclose(row[inside], expect[inside], atol=1e-12)
        assert row.max() <= 2.0 * 2.0**-n + 1e-12

    def test_tent_integral_identity_at_partition_points(self):
        w = pq.gen_brownian(3, 12, 1.0)
        part = pq.gen_dyadic([8], 12, 1.0).level(8)
        u = default_u_grid(w, n_u=1024)
        ts = [0.25, 0.5, 1.0]
        fld = pq.local_time_discrete(w, part, t_grid=ts, u_grid=u)
        qv = pq.qv_level(w, part, ts).at(ts)
        bound = 4.0 * part.n_intervals * fld.du**2
        assert np.all(np.abs(fld.integrate() - qv) <= bound)

    def test_nonnegative_and_supported_on_range(self):
        w = pq.gen_brownian(8, 10, 1.0)
        part = pq.gen_dyadic([6], 10, 1.0).level(6)
        u = default_u_grid(w, n_u=512, margin=0.2)
        fld = pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)
        x = w.scalar()
        assert np.all(fld.values >= 0.0)
        outside = (u < x.min()) | (u > x.max())
        assert np.all(fld.values[:, outside] == 0.0)

    def test_brownian_level_density_oracle(self):
        # occupation-measure oracle: L(t=1, 0) against the time spent near 0
        part = pq.gen_dyadic([12], 14, 1.0).level(12)
        ratios = []
        for s in range(50):
            w = pq.gen_brownian(s, 14, 1.0)
            u = default_u_grid(w, n_u=512)
            fld = pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)
            L0 = np.interp(0.0, u, fld.values[0])
            assert L0 >= 0.0
            dens = np.mean(np.abs(w.scalar()[:-1]) < 0.025) / 0.05
            if dens > 0:
                ratios.append(L0 / dens)
        # the discrete field integrates to the plain QV, so its scale is the
        # occupation density itself (the half-normalised reading would sit at 2)
        assert 0.5 <= np.median(ratios) <= 1.5

    def test_uncovering_grid_rejected(self):
        w = pq.gen_brownian(0, 10, 1.0)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        u = np.linspace(0.0, 0.1, 256)
        with pytest.raises(pq.ParameterError):
            pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)

    def test_short_grid_rejected(self):
        # the 2^8-point floor holds for a given grid and for the default one
        w = pq.gen_brownian(0, 10, 1.0)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        x = w.scalar()
        u = np.linspace(x.min() - 0.1, x.max() + 0.1, 255)
        with pytest.raises(pq.ParameterError, match="at least 2\\^8 points, got 255"):
            pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)
        for n_u in (-1, 0, 255):
            with pytest.raises(pq.ParameterError, match=f"at least 2\\^8 points, got {n_u}"):
                default_u_grid(w, n_u=n_u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, bad):
        w = pq.gen_brownian(0, 10, 1.0)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        u = default_u_grid(w, n_u=256)
        u[-1] = bad
        with pytest.raises(pq.ParameterError, match="finite, uniform and increasing"):
            pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)

    def test_non_uniform_grid_rejected(self):
        w = pq.gen_brownian(0, 10, 1.0)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        u = default_u_grid(w, n_u=256)
        u[100] += 1e-8 * (u[-1] - u[0])
        with pytest.raises(pq.ParameterError, match="finite, uniform and increasing"):
            pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)

    def test_needs_scalar_path(self):
        w = pq.gen_brownian(0, 10, 1.0, 2)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        with pytest.raises(pq.ParameterError):
            pq.local_time_discrete(w, part, t_grid=[1.0])


def _tent_add(acc, u, a, b, peak):
    lo, hi = (a, b) if a <= b else (b, a)
    i0 = np.searchsorted(u, lo, side="left")
    i1 = np.searchsorted(u, hi, side="left")
    if i1 > i0:
        acc[i0:i1] += 2.0 * np.abs(peak - u[i0:i1])


def local_time_loop(path, part, t_grid, u):
    """Reference field: one slice add per partition interval, in interval order."""
    x = path.scalar()
    pidx = part.indices
    if t_grid is None:
        t_idx = pidx.copy()
    else:
        t_idx = master_index_of(t_grid, path.master_level, path.horizon)
    acc = np.zeros(len(u))
    values = np.empty((len(t_idx), len(u)))
    j = 0
    for row, e in enumerate(t_idx):
        while j < len(pidx) - 1 and pidx[j + 1] <= e:
            _tent_add(acc, u, x[pidx[j]], x[pidx[j + 1]], x[pidx[j + 1]])
            j += 1
        values[row] = acc
        if j < len(pidx) - 1 and pidx[j] < e:
            _tent_add(values[row], u, x[pidx[j]], x[pidx[j + 1]], x[e])
    return t_idx * path.master_step, values


def _oracle_path(kind, M):
    if kind == "brownian":
        return pq.gen_brownian(7, M, 1.0)
    if kind == "mixed":
        return pq.gen_mixed(11, M, 1.0, 0.75, 0.5)
    return pq.gen_fbm(13, M, 1.0, 0.3)


def _oracle_t_grids(M):
    n = 1 << M
    return [None, [1.0], [0.5, 1.0], [3 / n, (n // 3) / n, 0.5 + 1 / n, (n - 5) / n, 1.0],
            [0.0], [0.0, 2.0**-8]]


def _assert_loop_bits(path, part, t_grid, u):
    fld = pq.local_time_discrete(path, part, t_grid=t_grid, u_grid=u)
    t_ref, v_ref = local_time_loop(path, part, t_grid, u)
    assert fld.values.tobytes() == v_ref.tobytes()
    assert fld.t_grid.tobytes() == t_ref.tobytes()
    return fld


def _summed_grid(lo, hi, n):
    """lo plus n - 1 equal steps summed one by one: uniform to rounding, but not
    np.linspace(lo, hi, n) bit for bit."""
    return lo + np.concatenate([[0.0], np.cumsum(np.full(n - 1, (hi - lo) / (n - 1)))])


def _edge_grid(lo, hi, n):
    """Steps h (1 + e) over the first half and h (1 - e) over the second, with
    ptp(du) = 0.98e-9 of the span: admitted, yet mid-grid nodes drift more than
    one step from where the end points put them."""
    h = (hi - lo) / (n - 1)
    e = 0.49e-9 * (n - 1)
    steps = np.where(np.arange(n - 1) < (n - 1) // 2, h * (1 + e), h * (1 - e))
    return lo + np.concatenate([[0.0], np.cumsum(steps)])


def _arithmetic_guess(u, v):
    """The node a uniform grid's end points put each value at, before any search."""
    n = len(u)
    return np.clip(np.ceil((v - u[0]) * ((n - 1) / (u[-1] - u[0]))), 0, n).astype(np.intp)


class TestUniformSearch:
    """calculus._uniform_search equals np.searchsorted(u, v) on admitted grids."""

    @staticmethod
    def _grids():
        yield np.linspace(-0.37, 1.21, 256)
        yield np.linspace(0.0, 1.0, 513)
        yield np.linspace(-3.5, 2.25, 1000)
        yield _summed_grid(-0.37, 1.21, 1000)
        yield _summed_grid(0.0, 1.0 + 1 / 384, 386)
        yield _edge_grid(-0.5, 0.5, 1 << 16)

    @staticmethod
    def _values(u, rng):
        span = u[-1] - u[0]
        return np.concatenate([
            rng.uniform(u[0] - 0.1 * span, u[-1] + 0.1 * span, 20000),
            u, np.nextafter(u, np.inf), np.nextafter(u, -np.inf),
            [u[0], u[-1], u[0] - span, u[-1] + span, u[0] - 1e-300, u[-1] + 1e-300]])

    def test_matches_searchsorted(self):
        rng = np.random.default_rng(3)
        for u in self._grids():
            v = self._values(u, rng)
            got = calculus._uniform_search(u, v)
            assert got.dtype == np.intp
            assert np.array_equal(got, np.searchsorted(u, v, side="left"))

    def test_grids_reach_the_fallback(self):
        # the matrix is only a gate if some guesses miss by two nodes or more,
        # which only the fallback search puts right
        rng = np.random.default_rng(3)
        far = 0
        for u in self._grids():
            v = self._values(u, rng)
            far += np.count_nonzero(np.abs(_arithmetic_guess(u, v) - np.searchsorted(u, v)) >= 2)
        assert far > 0

    def test_summed_and_edge_grids_are_admitted_and_not_linspaces(self):
        w = pq.gen_brownian(7, 10, 1.0)
        part = pq.gen_dyadic([6], 10, 1.0).level(6)
        for u in (_summed_grid(-3.1, 0.1, 1000), _edge_grid(-3.1, 0.1, 1 << 16)):
            assert not np.array_equal(u, np.linspace(u[0], u[-1], len(u)))
            pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)


class TestLocalTimeOracle:
    """The blocked bincount field equals the per-interval tent loop byte for byte."""

    @pytest.mark.parametrize("M", [8, 11, 14])
    @pytest.mark.parametrize("kind", ["brownian", "mixed", "fbm"])
    def test_matches_tent_loop(self, kind, M):
        w = _oracle_path(kind, M)
        # at M = 14 the reference loop is slow: fewer levels, one u grid and
        # no row per partition point (test_block_boundaries covers that case)
        levels = range(M - 6, M + 1) if M < 14 else (8, 11, 12, 13)
        parts = [*pq.gen_dyadic(levels, M, 1.0),
                 *pq.gen_random_balanced(5, [M - 5, M - 3], M, 1.0, 3.0),
                 *pq.stop_partition(pq.gen_dyadic([M - 4], M, 1.0), (0.25, 0.75))]
        grids = _oracle_t_grids(M) if M < 14 else _oracle_t_grids(M)[1:]
        for n_u in (256, 512, 1000) if M < 14 else (512,):
            u = default_u_grid(w, n_u=n_u)
            for part in parts:
                for t_grid in grids:
                    _assert_loop_bits(w, part, t_grid, u)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_boundaries(self, block, monkeypatch):
        # small blocks make rows span several blocks and blocks span several rows
        monkeypatch.setattr(calculus, "_TENT_BLOCK", block)
        w = _oracle_path("brownian", 10)
        u = default_u_grid(w, n_u=256)
        for part in (*pq.gen_dyadic([4, 7, 10], 10, 1.0),
                     *pq.gen_random_balanced(2, [6], 10, 1.0, 3.0)):
            for t_grid in _oracle_t_grids(10):
                _assert_loop_bits(w, part, t_grid, u)

    def test_row_after_several_blocks(self):
        w = _oracle_path("brownian", 14)
        part = pq.gen_dyadic([13], 14, 1.0).level(13)
        assert part.n_intervals > 2 * calculus._TENT_BLOCK
        _assert_loop_bits(w, part, [1.0], default_u_grid(w, n_u=512))

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_path_values_on_u_nodes(self, slope):
        # every partition value is a u node, so the half-open band ends are exercised
        w = pq.gen_deterministic("linear", {"slope": slope}, 10, 1.0)
        u = np.linspace(min(0.0, slope), max(0.0, slope), 513)
        for lev in (4, 9, 10):
            part = pq.gen_dyadic([lev], 10, 1.0).level(lev)
            _assert_loop_bits(w, part, None, u)
            _assert_loop_bits(w, part, [0.25, 0.3125 + 2.0**-10, 1.0], u)

    @pytest.mark.parametrize("kind", ["brownian", "mixed", "fbm"])
    def test_summed_grid(self, kind):
        # uniform to rounding but not a linspace: nodes sit an ulp or so off
        # the arithmetic of their end points
        w = _oracle_path(kind, 11)
        lin = default_u_grid(w, n_u=1000)
        u = _summed_grid(lin[0], lin[-1], 1000)
        for part in (*pq.gen_dyadic([6, 9, 11], 11, 1.0),
                     *pq.gen_random_balanced(5, [7], 11, 1.0, 3.0)):
            for t_grid in _oracle_t_grids(11):
                _assert_loop_bits(w, part, t_grid, u)

    def test_path_values_near_summed_grid_nodes(self):
        # values j / 2^10 on or within rounding of the nodes k / 384
        w = pq.gen_deterministic("linear", {"slope": 1.0}, 10, 1.0)
        u = _summed_grid(0.0, 1.0 + 1 / 384, 386)
        for lev in (7, 10):
            part = pq.gen_dyadic([lev], 10, 1.0).level(lev)
            _assert_loop_bits(w, part, None, u)

    def test_grid_at_the_edge_of_admission(self):
        # 2^16 nodes whose middle drifts more than a step from the end-point
        # arithmetic: some path points need the fallback search
        w = _oracle_path("brownian", 10)
        x = w.scalar()
        lo, hi = float(x.min()), float(x.max())
        u = _edge_grid(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), 1 << 16)
        guess_off = _arithmetic_guess(u, x) - np.searchsorted(u, x)
        assert np.abs(guess_off).max() >= 2
        for lev in (6, 10):
            part = pq.gen_dyadic([lev], 10, 1.0).level(lev)
            _assert_loop_bits(w, part, [0.5, 1.0], u)

    def test_rows_without_new_tents(self):
        # level 6 completes no interval by 2^-8; repeated times add nothing
        w = _oracle_path("mixed", 12)
        part = pq.gen_dyadic([6], 12, 1.0).level(6)
        t_grid = [0.0, 0.0, 2.0**-8, 2.0**-8, 0.5, 0.5, 1.0, 1.0]
        fld = _assert_loop_bits(w, part, t_grid, default_u_grid(w, n_u=512))
        assert np.all(fld.values[0] == 0.0)
        assert np.array_equal(fld.values[4], fld.values[5])


class TestOccupation:
    def test_full_band_matches_qv(self):
        w = pq.gen_brownian(5, 12, 1.0)
        part = pq.gen_dyadic([9], 12, 1.0).level(9)
        u = default_u_grid(w, n_u=1024)
        fld = pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)
        rep = pq.occupation_check(fld, w, part, [])
        qv = float(pq.qv_level(w, part, [1.0]).at(1.0)[0])
        assert abs(rep.lhs[-1, -1] - qv) < 4.0 * part.n_intervals * fld.du**2
        assert rep.matched[-1] == "full"

    def test_constant_path_both_sides_zero(self):
        p = pq.gen_deterministic("constant", {"c": 0.5}, 10, 1.0)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        u = np.linspace(0.0, 1.0, 256)
        fld = pq.local_time_discrete(p, part, t_grid=[1.0], u_grid=u)
        rep = pq.occupation_check(fld, p, part, [(0.25, 0.75)])
        assert np.all(rep.lhs == 0.0)
        assert np.all(rep.rhs_full == 0.0)

    def test_positive_halfline_within_ten_percent(self):
        part = pq.gen_dyadic([12], 14, 1.0).level(12)
        errs = []
        for s in range(30):
            w = pq.gen_brownian(s, 14, 1.0)
            u = default_u_grid(w, n_u=512)
            fld = pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)
            rep = pq.occupation_check(fld, w, part, [(0.0, np.inf)])
            if rep.rhs_full[0, -1] > 0.05:
                errs.append(abs(rep.lhs[0, -1] / rep.rhs_full[0, -1] - 1.0))
        assert np.median(errs) < 0.1


class TestTanaka:
    def test_square_reduces_to_telescoping(self):
        w = pq.gen_brownian(1, 12, 1.0)
        part = pq.gen_dyadic([10], 12, 1.0).level(10)
        u = default_u_grid(w, n_u=1024)
        fld = pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)
        res = pq.tanaka_residual(w, pq.function_catalogue("square"), part, fld, 1.0)
        assert abs(res) < 4.0 * part.n_intervals * fld.du**2

    def test_identity_function_exact(self):
        w = pq.gen_brownian(1, 12, 1.0)
        part = pq.gen_dyadic([8], 12, 1.0).level(8)
        u = default_u_grid(w, n_u=512)
        fld = pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)
        res = pq.tanaka_residual(w, pq.function_catalogue("identity"), part, fld, 1.0)
        assert abs(res) < 1e-12

    def test_smoothed_abs_small_residual(self):
        fn = pq.function_catalogue("abs_smooth", a=0.0, eps=0.1)
        part = pq.gen_dyadic([12], 14, 1.0).level(12)
        res = []
        for s in range(30):
            w = pq.gen_brownian(s, 14, 1.0)
            u = default_u_grid(w, n_u=512)
            fld = pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u)
            res.append(abs(pq.tanaka_residual(w, fn, part, fld, 1.0)))
        assert np.median(res) < 0.05

    def test_time_not_in_field_rejected(self):
        w = pq.gen_brownian(1, 10, 1.0)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        fld = pq.local_time_discrete(w, part, t_grid=[0.5])
        with pytest.raises(pq.ParameterError):
            pq.tanaka_residual(w, pq.function_catalogue("square"), part, fld, 1.0)


class TestWeakL2:
    def _fields(self, w, levels, u):
        out = []
        for lev in levels:
            part = pq.gen_dyadic([lev], w.master_level, 1.0).level(lev)
            out.append(pq.local_time_discrete(w, part, t_grid=[1.0], u_grid=u, level=lev))
        return out

    def test_zero_function_pairs_to_zero(self):
        w = pq.gen_brownian(2, 13, 1.0)
        u = default_u_grid(w, n_u=512)
        fields = self._fields(w, range(7, 12), u)
        rep = pq.weak_l2_convergence(fields, bank=[("zero", np.zeros_like(u))])
        assert np.all(rep.pairings == 0.0)

    def test_unit_function_recovers_qv_trajectory(self):
        w = pq.gen_brownian(2, 13, 1.0)
        u = default_u_grid(w, n_u=1024)
        fields = self._fields(w, [8, 10, 12], u)
        rep = pq.weak_l2_convergence(fields, bank=[("one", np.ones_like(u))])
        for lev, pairing in zip([8, 10, 12], rep.pairings[0]):
            part = pq.gen_dyadic([lev], 13, 1.0).level(lev)
            qv = float(pq.qv_level(w, part, [1.0]).at(1.0)[0])
            assert abs(pairing - qv) < 4.0 * part.n_intervals * (u[1] - u[0]) ** 2

    def test_gaussian_bump_cauchy(self):
        w = pq.gen_brownian(6, 14, 1.0)
        u = default_u_grid(w, n_u=512)
        fields = self._fields(w, range(8, 14), u)
        rep = pq.weak_l2_convergence(fields, tol=0.05)
        assert rep.passed

    def test_mismatched_grids_rejected(self):
        w = pq.gen_brownian(2, 12, 1.0)
        u1 = default_u_grid(w, n_u=512)
        u2 = default_u_grid(w, n_u=300)
        parts = pq.gen_dyadic([6, 7, 8], 12, 1.0)
        fields = [
            pq.local_time_discrete(w, parts.level(6), t_grid=[1.0], u_grid=u1),
            pq.local_time_discrete(w, parts.level(7), t_grid=[1.0], u_grid=u2),
            pq.local_time_discrete(w, parts.level(8), t_grid=[1.0], u_grid=u1),
        ]
        with pytest.raises(pq.ParameterError):
            pq.weak_l2_convergence(fields)

    def test_levels_must_name_every_field(self):
        w = pq.gen_brownian(2, 12, 1.0)
        fields = self._fields(w, [6, 7, 8], default_u_grid(w, n_u=256))
        with pytest.raises(pq.ParameterError, match="1 levels for 3 fields"):
            pq.weak_l2_convergence(fields, levels=(1,))
        assert pq.weak_l2_convergence(fields, levels=(1, 2, 3)).level_ids == (1, 2, 3)

    def test_default_bank_shapes(self):
        u = np.linspace(-1, 1, 300)
        bank = default_test_bank(u)
        names = [n for n, _ in bank]
        assert "one" in names and any(n.startswith("bump") for n in names)
        assert all(vals.shape == u.shape for _, vals in bank)
