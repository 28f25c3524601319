"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Deterministic identities
are checked to 1e-10 relative; Monte Carlo instantiations use frozen seed
ranges, so every run reproduces the same numbers.
"""

import time

import numpy as np
import pytest

import pathqv as pq
from pathqv.calculus import default_u_grid
from pathqv.cli import parse_config, run_seeds


def _report(cid, ok, detail=""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


# -- 1. exact identities ------------------------------------------------------

def test_criterion_1a_telescoping_square():
    w = pq.gen_brownian(17, 12, 1.0)
    part = pq.gen_random_balanced(3, [7], 12, 1.0, 2.0).level(7)
    fn = pq.function_catalogue("square")
    et, resid = pq.ito_residual_level(w, fn, part, eval_times=part.times)
    on_part = np.isin(et, part.times)
    worst = float(np.max(np.abs(resid[on_part])))
    _report("1a", worst < 1e-10, f"max telescoping residual {worst:.3e}")


def test_criterion_1b_roughness_decomposition():
    w = pq.gen_brownian(23, 12, 1.0)
    coarse = pq.gen_random_balanced(5, [5], 12, 1.0, 3.0).level(5)
    fine = pq.gen_dyadic([9], 12, 1.0).level(9)
    stat = pq.roughness_statistic(w, coarse, fine)
    grouped = pq.Partition(
        fine.indices[pq.grouping(coarse, fine).boundaries], 12, 1.0
    )
    qv_diff = float(
        pq.qv_level(w, grouped, [1.0]).at(1.0)[0] - pq.qv_level(w, fine, [1.0]).at(1.0)[0]
    )
    gap = abs(stat.S - qv_diff)
    ok = gap < 1e-10 and stat.decomposition_gap < 1e-10
    _report("1b", ok, f"S={stat.S:.6f} vs QV difference gap {gap:.3e}")


def test_criterion_1c_tent_integral_identity():
    w = pq.gen_brownian(29, 12, 1.0)
    part = pq.gen_dyadic([8], 12, 1.0).level(8)
    u = default_u_grid(w, n_u=2048)
    fld = pq.local_time_discrete(w, part, t_grid=[0.5, 1.0], u_grid=u)
    qv = pq.qv_level(w, part, [0.5, 1.0]).at([0.5, 1.0])
    gap = np.abs(fld.integrate() - qv)
    bound = 4.0 * part.n_intervals * fld.du**2
    relative = 2.0 * fld.du * np.maximum(qv, 1.0)
    ok = bool(np.all(gap <= bound) and np.all(gap <= relative))
    _report("1c", ok, f"max gap {gap.max():.2e} vs kink bound {bound:.2e}")


def test_criterion_1d_partition_sandwich_exact():
    w = pq.gen_brownian(31, 12, 1.0)
    candidates = []
    candidates.extend(pq.gen_dyadic(range(0, 11), 12, 1.0))
    candidates.extend(pq.gen_kadic(3, range(1, 5), 12, 1.0))
    candidates.extend(pq.gen_random_balanced(11, range(2, 10), 12, 1.0, 3.0))
    candidates.append(pq.gen_lebesgue(w, 3))
    ok = True
    for p in candidates:
        span = int(p.indices[-1] - p.indices[0])
        ok &= p.n_intervals * int(p.index_steps.min()) <= span
        ok &= span <= p.n_intervals * int(p.index_steps.max())
    _report("1d", ok, f"{len(candidates)} partitions, exact integer sandwich")


def test_criterion_1e_closed_forms():
    lin = pq.gen_deterministic("linear", {"slope": 1.0}, 14, 1.0)
    ok = True
    for n in (4, 8):
        val = float(pq.qv_level(lin, pq.gen_dyadic([n], 14, 1.0).level(n), [1.0]).at(1.0)[0])
        ok &= abs(val - 2.0**-n) < 1e-10 * 2.0**-n + 1e-16
    s = pq.roughness_statistic(
        lin, pq.gen_dyadic([4], 14, 1.0).level(4), pq.gen_dyadic([9], 14, 1.0).level(9)
    ).S
    ok &= abs(s - (2.0**-4 - 2.0**-9)) < 1e-12
    seq = pq.gen_dyadic(range(1, 8), 14, 1.0)
    ref = pq.gen_dyadic(range(1, 15), 14, 1.0)
    sel = pq.select_dyadic_subsequence(seq, 0.5, ref)
    ok &= all(l == 2 * n for n, l in zip(sel.level_ids, sel.l))
    _report("1e", ok, "linear QV, linear S, l_n = 2n selections")


# -- Monte Carlo criteria 2-6 and 9 run on the `pqv mc` engine ---------------

def _mc_columns(experiment, doc, n_seeds):
    """Per-key columns of the mc records for seeds 0..n_seeds-1, in seed order."""
    records = run_seeds(experiment, parse_config(doc), range(n_seeds), workers=2)
    return {k: np.array([rec[k] for _, rec in records]) for k in records[0][1]}


_BM14 = {"kind": "brownian", "M": 14}
_DYADIC14 = {"generator": "dyadic", "levels": [14, 14], "M": 14}


def _balanced(level, M):
    return {"generator": "random_balanced", "levels": [level, level], "M": M, "seed": 7,
            "c_target": 3.0}


# -- 2. Brownian QV at level 14 ----------------------------------------------

def test_criterion_2_brownian_qv():
    t0 = time.perf_counter()
    cols = _mc_columns("qv", {"path": _BM14, "partition": _DYADIC14}, 100)
    frac = float(np.mean(cols["abs_err"] < 0.05))
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.95 and elapsed < 30.0
    _report("2", ok, f"{frac:.0%} of 100 seeds within 0.05; {elapsed:.1f}s")


# -- 3. Brownian roughness decay ----------------------------------------------

def test_criterion_3_brownian_roughness_decay():
    t0 = time.perf_counter()
    M, n_seeds = 23, 200
    rb = {"generator": "random_balanced", "levels": [6, 12], "M": M, "seed": 7,
          "c_target": 3.0}
    cols = _mc_columns("roughness", {"path": {"kind": "brownian", "M": M}, "partition": rb,
                                     "analysis": {"beta": 0.5}}, n_seeds)
    levels = sorted(int(k[2:]) for k in cols)
    last4 = [float(np.median(np.abs(cols[f"S_{n}"]))) for n in levels[-4:]]
    decreasing = all(b < a for a, b in zip(last4, last4[1:]))
    final_ok = last4[-1] < 0.05
    var12 = float(np.var(cols["S_12"], ddof=1))
    mesh12 = pq.gen_random_balanced(7, range(6, 13), M, 1.0, 3.0).level(12).mesh
    budget = 2.0 * 1.0 * mesh12 * 1.5
    elapsed = time.perf_counter() - t0
    ok = decreasing and final_ok and var12 <= budget and elapsed < 120.0
    _report(
        "3",
        ok,
        f"medians {[round(m, 4) for m in last4]}, Var(S_12)={var12:.2e} "
        f"<= {budget:.2e}; {elapsed:.0f}s",
    )


# -- 4. invariance across balanced sequences ----------------------------------

def test_criterion_4_qv_invariance():
    doc = {"path": _BM14, "partition": {"generator": "dyadic", "levels": [12, 12], "M": 14},
           "partition_b": _balanced(12, 14), "analysis": {"tol": 0.05}}
    frac = float(np.mean(_mc_columns("invariance", doc, 100)["sup_distance"] < 0.05))
    _report("4", frac >= 0.90, f"{frac:.0%} of 100 seeds with sup distance < 0.05")


# -- 5. mixed fractional path --------------------------------------------------

def test_criterion_5_mixed_path_qv():
    mixed = {"kind": "mixed", "M": 14, "H": 0.75, "delta": 1.0}
    fbm = {"kind": "fbm", "M": 14, "H": 0.75}
    frac_err = float(np.mean(_mc_columns("qv", {"path": mixed, "partition": _DYADIC14},
                                         100)["abs_err"]))
    fbm_qv = _mc_columns("qv", {"path": fbm, "partition": _DYADIC14}, 100)["qv_T"]
    ok = frac_err < 0.1 and float(np.mean(fbm_qv)) < 0.05
    _report("5", ok, f"mean |[M](1)-1|={frac_err:.4f}, mean [B^H](1)={np.mean(fbm_qv):.4f}")


# -- 6. pathwise integral invariance -------------------------------------------

def test_criterion_6_integral_invariance():
    M = 16
    doc = {"path": {"kind": "brownian", "M": M},
           "partition": {"generator": "dyadic", "levels": [14, 14], "M": M},
           "partition_b": _balanced(14, M), "analysis": {"function": "sin"}}
    cols = _mc_columns("integrate", doc, 100)
    diffs, resids = cols["abs_diff"], cols["residual_sup"]
    ok = np.median(diffs) < 0.05 and np.median(resids) < 0.02
    _report(
        "6",
        ok,
        f"median |I_dyadic - I_balanced| = {np.median(diffs):.4f}, "
        f"median residual sup = {np.median(resids):.2e}",
    )


# -- 7. isometry of the integral map -------------------------------------------

def test_criterion_7_isometry(bm14_batch):
    # level-12 dyadic under test against the QV curve of a mesh-matched
    # balanced partition (the reference the isometry identity is stated for)
    M = 14
    fn = pq.function_catalogue("square")
    seq = pq.gen_dyadic([12], M, 1.0)
    ref_part = pq.gen_random_balanced(7, [12], M, 1.0, 3.0).partitions[0]
    uni = np.arange(0, 2**M + 1, 2 ** (M - 8)) * (1.0 / 2**M)
    sups = []
    for w in bm14_batch:
        ref_curve = pq.qv_level(w, ref_part)
        rep = pq.isometry_check(w, fn, seq, qv=ref_curve, eval_times=uni)
        sups.append(rep.sup_distances[0])
    sups = np.array(sups)
    frac = float(np.mean(sups < 0.1))
    ok = frac >= 0.80 and np.median(sups) < 0.1
    _report("7", ok, f"{frac:.0%} of 100 seeds with sup distance < 0.1")


# -- 8. local time --------------------------------------------------------------

def test_criterion_8_local_time(bm14_batch):
    part12 = pq.gen_dyadic([12], 14, 1.0).level(12)
    parts = {l: pq.gen_dyadic([l], 14, 1.0).level(l) for l in range(8, 14)}
    fn = pq.function_catalogue("abs_smooth", a=0.0, eps=0.1)
    occ_errs, weak_diffs, tanaka = [], [], []
    for w in bm14_batch:
        u = default_u_grid(w, n_u=512)
        fld = pq.local_time_discrete(w, part12, t_grid=[1.0], u_grid=u)
        rep = pq.occupation_check(fld, w, part12, [(0.0, np.inf)])
        if rep.rhs_full[0, -1] > 1e-6:
            occ_errs.append(abs(rep.lhs[0, -1] / rep.rhs_full[0, -1] - 1.0))
        fields = [
            pq.local_time_discrete(w, parts[l], t_grid=[1.0], u_grid=u, level=l)
            for l in range(8, 14)
        ]
        weak = pq.weak_l2_convergence(fields, tol=0.05)
        weak_diffs.append(float(weak.cauchy[:, -1].max()))
        tanaka.append(abs(pq.tanaka_residual(w, fn, part12, fld, 1.0)))
    ok = (
        np.median(occ_errs) < 0.10
        and np.median(weak_diffs) < 0.05
        and np.median(tanaka) < 0.05
    )
    _report(
        "8",
        ok,
        f"occupation median {np.median(occ_errs):.4f}, weak-L2 last pair "
        f"{np.median(weak_diffs):.4f}, Tanaka median {np.median(tanaka):.4f}",
    )


# -- 9. tail of the roughness statistic -----------------------------------------

def test_criterion_9_tail_decay():
    M = 20
    doc = {"path": {"kind": "brownian", "M": M},
           "partition": {"generator": "dyadic", "levels": [10, 10], "M": M},
           "analysis": {"beta": 0.5}}
    cols = _mc_columns("roughness", doc, 200)  # beta = 0.5 selects l = 20
    rep = pq.hw_tail_check(pq.gen_dyadic([10], M, 1.0), {10: cols["S_10"]},
                           [0.025, 0.05, 0.075, 0.1, 0.125], min_seeds=200)
    exceed = float(rep.exceedance[0][3])  # delta = 0.1
    ok = exceed < 0.05 and rep.decay_slope[0] < 0.0 and bool(rep.var_ok[0])
    _report(
        "9",
        ok,
        f"exceedance@0.1 = {exceed:.3f}, decay slope {rep.decay_slope[0]:.2f}, "
        f"Var {rep.var_emp[0]:.2e} <= {rep.var_budget[0]:.2e}",
    )


# -- 10. oracle equivalence on small instances -----------------------------------

def test_criterion_10_oracle_equivalence():
    ok = True
    worst_s, worst_p = 0.0, 0.0
    for seed in range(5):
        w = pq.gen_brownian(seed, 8, 1.0)  # 2^8 + 1 points
        coarse = pq.gen_random_balanced(seed, [3], 8, 1.0, 2.0).level(3)
        fine = pq.gen_dyadic([6], 8, 1.0).level(6)
        fast = pq.roughness_statistic(w, coarse, fine).S
        slow = pq.roughness_double_loop(w, coarse, fine)
        worst_s = max(worst_s, abs(fast - slow))
        ok &= abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))
    for seed in range(5):
        w = pq.gen_brownian(seed, 8, 1.0, 2)
        part = pq.gen_dyadic([5], 8, 1.0).level(5)
        pol = pq.qv_matrix(w, part).values
        direct = pq.quadvar._qv_values(
            w, part, pq.quadvar.default_eval_indices(w, part)
        )
        worst_p = max(worst_p, float(np.max(np.abs(pol - direct))))
        ok &= worst_p <= 1e-12
    _report("10", ok, f"double-loop gap {worst_s:.2e}, polarisation gap {worst_p:.2e}")
