import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pathqv import cli, paths
from pathqv.io import fmt_float, read_path_binary


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _run(*argv):
    return cli.main(list(argv))


def _usable_cpus():
    """The CPUs this process may run on (the CPU count where the OS has no
    affinity call), at most 8: the default number of mc workers."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(len(affinity(0)) if affinity else os.cpu_count() or 1, 8)


class TestConfigValidation:
    def test_malformed_json_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert _run("qv", str(p)) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, {"path": {"kind": "brownian"}, "bogus": 1})
        assert _run("qv", cfg) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, {"path": {"kind": "brownian", "hurst": 0.5},
                                "partition": {}})
        assert _run("qv", cfg) == 1
        assert "hurst" in capsys.readouterr().err
        for key in ("kappa", "h"):  # no command reads them
            cfg = _write(tmp_path, {"path": {"kind": "brownian"}, "partition": {},
                                    "analysis": {key: 0.25}})
            assert _run("qv", cfg) == 1
            assert f"unknown keys in analysis: ['{key}']" in capsys.readouterr().err

    def test_bad_seed_range(self, tmp_path):
        cfg = _write(tmp_path, {"experiment": "qv", "seeds": [5, 5],
                                "path": {"kind": "brownian"}, "partition": {}})
        assert _run("mc", cfg) == 1


class TestPipelines:
    def test_qv_constant_path_zero_table(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "path": {"kind": "constant", "M": 10, "params": {"value": 2.0}},
            "partition": {"generator": "dyadic", "levels": [4, 8], "M": 10},
            "analysis": {"tol": 1e-9},
        })
        assert _run("qv", cfg, "--out-dir", str(out)) == 0
        rows = (out / "qv.csv").read_text().strip().splitlines()
        assert rows[0] == "t,i,j,value,level"
        vals = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(v == 0.0 for v in vals)
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["cauchy_at_tol"] is True

    def test_gen_path_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {"path": {"kind": "brownian", "seed": 9, "M": 8}})
        assert _run("gen-path", cfg, "--out-dir", str(out)) == 0
        path = read_path_binary(str(out / "path.pqv"))
        assert path.meta.seed == 9 and path.master_level == 8

    def test_gen_partition_writes_sidecar(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "partition": {"generator": "random_balanced", "levels": [3, 6],
                          "M": 10, "seed": 4, "c_target": 2.0},
        })
        assert _run("gen-partition", cfg, "--out-dir", str(out)) == 0
        sidecar = json.loads((out / "partition.json").read_text())
        assert sidecar["M"] == 10 and sidecar["levels"] == [3, 4, 5, 6]

    def test_integrate_verdict(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "path": {"kind": "brownian", "seed": 1, "M": 12},
            "partition": {"generator": "dyadic", "levels": [8, 12], "M": 12},
            "analysis": {"function": "sin", "tol": 0.02},
        })
        assert _run("integrate", cfg, "--out-dir", str(out)) == 0
        assert (out / "residual.csv").exists()

    def test_invariance_and_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "path": {"kind": "brownian", "seed": 3, "M": 12},
            "partition": {"generator": "dyadic", "levels": [8, 10], "M": 12},
            "partition_b": {"generator": "random_balanced", "levels": [8, 10],
                            "M": 12, "seed": 7, "c_target": 3.0},
            "analysis": {"tol": 0.1},
        })
        code = _run("invariance", cfg, "--out-dir", str(out))
        assert code in (0, 2)
        capsys.readouterr()
        assert _run("report", str(out / "report.json")) == code

    def test_localtime_pipeline(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "path": {"kind": "brownian", "seed": 5, "M": 12},
            "partition": {"generator": "dyadic", "levels": [8, 10], "M": 12},
            "analysis": {"function": "square", "tol": 0.05, "u_points": 512},
        })
        assert _run("localtime", cfg, "--out-dir", str(out)) == 0
        head = (out / "localtime.csv").read_text().splitlines()[0]
        assert head == "t,u,L"

    @pytest.mark.parametrize("u_points", [-5, 0, 100, 255])
    def test_localtime_refuses_few_u_points(self, tmp_path, capsys, u_points):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "path": {"kind": "brownian", "seed": 5, "M": 12},
            "partition": {"generator": "dyadic", "levels": [8, 10], "M": 12},
            "analysis": {"u_points": u_points},
        })
        assert _run("localtime", cfg, "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.strip() == f"error: u_grid needs at least 2^8 points, got {u_points}"
        assert not (out / "report.json").exists()

    def test_localtime_runs_its_u_points(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "path": {"kind": "brownian", "seed": 5, "M": 12},
            "partition": {"generator": "dyadic", "levels": [8, 10], "M": 12},
            "analysis": {"u_points": 256},
        })
        assert _run("localtime", cfg, "--out-dir", str(out)) in (0, 2)
        rows = (out / "localtime.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 256

    def test_roughness_pipeline(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "path": {"kind": "brownian", "seed": 2, "M": 16},
            "partition": {"generator": "random_balanced", "levels": [4, 7],
                          "M": 16, "seed": 7, "c_target": 3.0},
            "analysis": {"beta": 0.5},
        })
        assert _run("roughness", cfg, "--out-dir", str(out)) == 0
        head = (out / "roughness.csv").read_text().splitlines()[0]
        assert head == "level,seed,S,fine_level,cells"


class TestMonteCarlo:
    def _mc_cfg(self, tmp_path):
        return _write(tmp_path, {
            "experiment": "qv",
            "seeds": [0, 8],
            "path": {"kind": "brownian", "M": 12},
            "partition": {"generator": "dyadic", "levels": [8, 12], "M": 12},
            "analysis": {"tol": 0.05},
        })

    def test_mc_runs_and_orders_by_seed(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._mc_cfg(tmp_path)
        assert _run("mc", cfg, "--out-dir", str(out), "--workers", "1") == 0
        rows = (out / "mc.csv").read_text().strip().splitlines()
        seeds = [int(r.split(",")[0]) for r in rows[1:]]
        assert seeds == list(range(8))

    def test_mc_parallel_matches_serial(self, tmp_path):
        cfg = self._mc_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert _run("mc", cfg, "--out-dir", str(out1), "--workers", "1") == 0
        assert _run("mc", cfg, "--out-dir", str(out2), "--workers", "4") == 0
        assert (out1 / "mc.csv").read_text() == (out2 / "mc.csv").read_text()

    def test_mc_verdict_failure_exits_two(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, {
            "experiment": "qv",
            "seeds": [0, 6],
            "path": {"kind": "brownian", "M": 10},
            "partition": {"generator": "dyadic", "levels": [4, 6], "M": 10},
            "analysis": {"tol": 1e-9},
        })
        assert _run("mc", cfg, "--out-dir", str(out), "--workers", "1") == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._mc_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        _run("mc", cfg, "--out-dir", str(out1), "--workers", "1")
        _run("mc", cfg, "--out-dir", str(out2), "--workers", "1")
        assert (out1 / "mc.csv").read_bytes() == (out2 / "mc.csv").read_bytes()

    def test_roughness_verdict_reads_the_finest_level(self, tmp_path):
        # coarse levels 9 and 10: "S_9" sorts after "S_10" as a string
        doc = {"experiment": "roughness", "seeds": [0, 1], "path": {"kind": "brownian", "M": 20},
               "partition": {"generator": "dyadic", "levels": [9, 10], "M": 20}}
        assert _run("mc", _write(tmp_path, doc), "--out-dir", str(tmp_path / "a")) in (0, 2)
        head, row = (tmp_path / "a" / "mc.csv").read_text().splitlines()
        s = {k: abs(float(v)) for k, v in zip(head.split(","), row.split(","))}
        tol = (s["S_9"] + s["S_10"]) / 2.0
        doc["analysis"] = {"tol": tol}
        code = _run("mc", _write(tmp_path, doc, "b.json"), "--out-dir", str(tmp_path / "b"))
        assert code == (0 if s["S_10"] < tol else 2)

    def test_grouping_error_names_its_levels(self, tmp_path, capsys):
        # beta = 0.9 selects l_n = n on random balanced levels from 0, whose
        # cells can be finer than the dyadic reference level's
        doc = {"path": {"kind": "brownian", "M": 16, "seed": 1},
               "partition": {"generator": "random_balanced", "levels": [0, 4], "M": 16,
                             "seed": 7, "c_target": 3.0},
               "analysis": {"beta": 0.9}}
        assert _run("roughness", _write(tmp_path, doc), "--out-dir", str(tmp_path / "a")) == 1
        msg = ("coarse level n = 2 against reference level l_n = 2: coarse cell 1 contains "
               "no fine point (fine mesh 0.25 vs coarse min step 0.149612)")
        assert capsys.readouterr().err.strip() == f"error: {msg}"
        doc.update(experiment="roughness", seeds=[0, 2])
        cfg = _write(tmp_path, doc, "mc.json")
        assert _run("mc", cfg, "--out-dir", str(tmp_path / "b"), "--workers", "1") == 1
        assert capsys.readouterr().err.strip() == f"error: seed 0: {msg}"

    def test_stats_carry_sample_variance(self, tmp_path):
        out = tmp_path / "out"
        assert _run("mc", self._mc_cfg(tmp_path), "--out-dir", str(out), "--workers", "2") == 0
        col = np.array([float(r.split(",")[1])
                        for r in (out / "mc.csv").read_text().splitlines()[1:]])
        stats = json.loads((out / "mc_stats.json").read_text())
        assert stats["var_abs_err"] == float(col.var(ddof=1))
        assert {k.split("_", 1)[0] for k in stats} == {"mean", "median", "var"}

    def test_one_seed_has_no_variance(self, tmp_path):
        doc = json.loads(Path(self._mc_cfg(tmp_path)).read_text())
        cfg = _write(tmp_path, dict(doc, seeds=[0, 1]), "one.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run("mc", cfg, "--out-dir", str(tmp_path / "out")) == 0
        stats = json.loads((tmp_path / "out" / "mc_stats.json").read_text())
        assert sorted(stats) == ["mean_abs_err", "mean_qv_T", "median_abs_err", "median_qv_T"]

    @pytest.mark.parametrize("workers", [None, "0", "3"])
    def test_workers_count(self, tmp_path, workers):
        out = tmp_path / "out"
        extra = () if workers is None else ("--workers", workers)
        assert _run("mc", self._mc_cfg(tmp_path), "--out-dir", str(out), *extra) == 0
        report = json.loads((out / "report.json").read_text())
        expect = _usable_cpus() if workers is None else max(1, int(workers))
        assert report["timings"]["workers"] == expect

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "no_affinity_call"])
    def test_default_workers_follow_the_cpu_affinity(self, tmp_path, monkeypatch, pinned):
        if pinned:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
            expect = 1
        else:  # an OS without the call: the machine's CPU count, at most 8
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            expect = min(os.cpu_count() or 1, 8)
        out = tmp_path / "out"
        assert _run("mc", self._mc_cfg(tmp_path), "--out-dir", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["timings"]["workers"] == expect


# Monte Carlo configs on small grids, one per experiment and path kind, each
# paired with a per-seed loop that rebuilds the path and every partition
# sequence from the public kernels.
_DYADIC = {"generator": "dyadic", "levels": [6, 10], "M": 12}
_BALANCED = {"generator": "random_balanced", "levels": [6, 10], "M": 12, "seed": 7,
             "c_target": 3.0}
_FBM = {"kind": "fbm", "M": 12, "H": 0.3}
_MIXED = {"kind": "mixed", "M": 12, "H": 0.75, "delta": 0.5}
_MC_CASES = {
    "qv": {"experiment": "qv", "path": {"kind": "brownian", "M": 12}, "partition": _DYADIC},
    "invariance": {"experiment": "invariance", "path": {"kind": "brownian", "M": 12},
                   "partition": _DYADIC, "partition_b": _BALANCED, "analysis": {"tol": 0.1}},
    "integrate": {"experiment": "integrate", "path": {"kind": "brownian", "M": 12},
                  "partition": _DYADIC, "partition_b": _BALANCED,
                  "analysis": {"function": "sin", "tol": 0.05}},
    "roughness": {"experiment": "roughness", "path": {"kind": "brownian", "M": 14},
                  "partition": {"generator": "random_balanced", "levels": [4, 6], "M": 14,
                                "seed": 7, "c_target": 3.0},
                  "analysis": {"beta": 0.5, "tol": 1.0}},
    "lebesgue": {"experiment": "qv", "path": {"kind": "brownian", "M": 14},
                 "partition": {"generator": "lebesgue", "lebesgue_n": 3, "M": 14},
                 "analysis": {"tol": 1.0}},
    "fbm_qv": {"experiment": "qv", "path": _FBM, "partition": _DYADIC},
    "fbm_invariance": {"experiment": "invariance", "path": _FBM, "partition": _DYADIC,
                       "partition_b": _BALANCED},
    "mixed_integrate": {"experiment": "integrate", "path": _MIXED, "partition": _DYADIC,
                        "partition_b": _BALANCED, "analysis": {"function": "cubic"}},
    "mixed_invariance": {"experiment": "invariance", "path": _MIXED, "partition": _DYADIC,
                         "partition_b": _BALANCED},
    # level 10 of A has no level of B within x4, so the record reads the pair (9, 7)
    "no_finest_partner": {"experiment": "invariance", "path": {"kind": "brownian", "M": 12},
                          "partition": _DYADIC,
                          "partition_b": {"generator": "dyadic", "levels": [6, 7], "M": 12}},
    "lebesgue_b": {"experiment": "invariance", "path": {"kind": "brownian", "M": 12},
                   "partition": {"generator": "dyadic", "levels": [2, 10], "M": 12},
                   "partition_b": {"generator": "lebesgue", "lebesgue_n": 2, "M": 12},
                   "analysis": {"balance_threshold": 1e3}},
}


def _reference_path(section: dict, seed: int):
    import pathqv as pq

    M = section["M"]
    if section["kind"] == "fbm":
        return pq.gen_fbm(seed, M, 1.0, section["H"])
    if section["kind"] == "mixed":
        return pq.gen_mixed(seed, M, 1.0, section["H"], section["delta"])
    return pq.gen_brownian(seed, M, 1.0)


def _reference_seq(section: dict, path):
    import pathqv as pq

    if section["generator"] == "lebesgue":
        n = section["lebesgue_n"]
        return pq.PartitionSequence((pq.gen_lebesgue(path, n),), (n,), "lebesgue")
    levels = range(section["levels"][0], section["levels"][1] + 1)
    if section["generator"] == "dyadic":
        return pq.gen_dyadic(levels, section["M"], 1.0)
    return pq.gen_random_balanced(section["seed"], levels, section["M"], 1.0,
                                  section["c_target"])


def _reference_record(case: str, seed: int) -> dict:
    """The record of one seed, by the full public kernels."""
    import pathqv as pq

    doc = _MC_CASES[case]
    ana = doc.get("analysis", {})
    path = _reference_path(doc["path"], seed)
    seq = _reference_seq(doc["partition"], path)
    seq_b = _reference_seq(doc["partition_b"], path) if "partition_b" in doc else None
    if doc["experiment"] == "qv":
        val = float(pq.qv_level(path, seq.partitions[-1], [1.0]).values[-1])
        return {"qv_T": val, "abs_err": abs(val - 1.0)}
    if doc["experiment"] == "invariance":
        rep = pq.invariance_check(path, seq, seq_b, tol=ana.get("tol"),
                                  balance_threshold=ana.get("balance_threshold", 8.0))
        return {"sup_distance": float(rep.sup_distances[int(np.argmin(rep.mesh_a))])}
    if doc["experiment"] == "integrate":
        fn = pq.function_catalogue(ana["function"])
        a = pq.follmer_integral(path, fn.f1, seq.partitions[-1], 1.0)
        b = pq.follmer_integral(path, fn.f1, seq_b.partitions[-1], 1.0)
        return {"integral_a": a, "integral_b": b, "abs_diff": abs(a - b),
                "residual_sup": float(pq.ito_residual(path, fn, seq).sup[-1])}
    reference = pq.gen_dyadic(range(min(seq.level_ids), path.master_level + 1),
                              path.master_level, 1.0)
    sel = pq.select_dyadic_subsequence(seq, ana["beta"], reference)
    return {f"S_{n}": pq.roughness_statistic(path, seq.level(n), reference.level(l)).S
            for n, l in zip(sel.level_ids, sel.l)}


def test_finest_pair_without_a_partner_is_a_coarser_one():
    import pathqv as pq

    path = pq.gen_brownian(3, 12, 1.0)
    doc = _MC_CASES["no_finest_partner"]
    rep = pq.invariance_check(path, _reference_seq(doc["partition"], path),
                              _reference_seq(doc["partition_b"], path))
    assert rep.pairs[int(np.argmin(rep.mesh_a))] == (9, 7)


class TestConfigTypes:
    def _gen_path(self, tmp_path, path_section):
        cfg = _write(tmp_path, {"path": path_section})
        return _run("gen-path", cfg, "--out-dir", str(tmp_path / "out"))

    def test_string_for_int_names_field_and_type(self, tmp_path, capsys):
        assert self._gen_path(tmp_path, {"kind": "brownian", "M": "14"}) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "path.M" in err and "int" in err

    def test_float_seed_exits_one_without_traceback(self, tmp_path, capsys):
        assert self._gen_path(tmp_path, {"kind": "brownian", "seed": 1.5, "M": 8}) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "path.seed" in err and "int" in err

    @pytest.mark.parametrize("section,key,value", [
        ("path", "d", True), ("path", "T", "1.0"), ("partition", "levels", 4),
        ("analysis", "tol", False), ("partition_b", "c_target", None),
    ])
    def test_wrong_types_rejected_before_any_seed(self, tmp_path, capsys, section, key, value):
        doc = {"experiment": "qv", "seeds": [0, 2], "path": {"kind": "brownian", "M": 10},
               "partition": {"M": 10}, "partition_b": {"M": 10}, "analysis": {}}
        doc[section][key] = value
        assert _run("mc", _write(tmp_path, doc), "--out-dir", str(tmp_path / "out")) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_bool_seed_bound_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, dict(_MC_CASES["qv"], seeds=[True, 3]))
        assert _run("mc", cfg, "--out-dir", str(tmp_path / "out")) == 1
        assert "seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section,key,value", [
        ("qv", "path", "T", float("nan")),
        ("localtime", "partition", "T", float("inf")),
        ("integrate", "analysis", "tol", float("nan")),
        ("roughness", "analysis", "beta", float("-inf")),
    ])
    def test_non_finite_numbers_exit_one(self, tmp_path, capsys, command, section, key, value):
        # json writes NaN and Infinity, and json.load reads them back as floats
        doc = {"path": {"kind": "brownian", "M": 8}, "partition": {"M": 8, "levels": [4, 6]},
               "analysis": {}}
        doc[section][key] = value
        assert _run(command, _write(tmp_path, doc), "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {section}.{key} must be finite, got {value!r}\n"

    @pytest.mark.parametrize("section,value,message", [
        ("partition", {"M": 8, "levels": ["a", 3]},
         "partition.levels must be list[int], got ['a', 3]"),
        ("partition", {"M": 8, "levels": [4.5, 6]},
         "partition.levels must be list[int], got [4.5, 6]"),
        ("partition", {"M": 8, "levels": [True, 6]},
         "partition.levels must be list[int], got [True, 6]"),
        ("path", {"kind": "linear", "M": 8, "params": {"slope": "abc"}},
         "linear parameter slope must be a finite real, got 'abc'"),
    ])
    def test_wrongly_typed_values_exit_one(self, tmp_path, capsys, section, value, message):
        doc = {"path": {"kind": "brownian", "M": 8}, "partition": {"M": 8, "levels": [4, 6]}}
        doc[section] = value
        assert _run("qv", _write(tmp_path, doc), "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_integral_weierstrass_b_exits_one(self, tmp_path, capsys):
        section = {"kind": "weierstrass", "M": 8, "params": {"a": 0.5, "b": 7.5}}
        assert self._gen_path(tmp_path, section) == 1
        assert capsys.readouterr().err == "error: weierstrass b must be an odd integer >= 3, got 7.5\n"

    @pytest.mark.parametrize("command,section", [("roughness", "partition"),
                                                 ("invariance", "partition_b")])
    def test_negative_random_balanced_level_exits_one(self, tmp_path, capsys, command, section):
        # a level of -1 once reached 1 << n in gen_random_balanced: a traceback
        doc = {"path": {"kind": "brownian", "M": 12},
               "partition": {"generator": "dyadic", "levels": [2, 5], "M": 12},
               section: {"generator": "random_balanced", "levels": [-1, 3], "M": 12}}
        assert _run(command, _write(tmp_path, doc), "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "error: levels must be non-negative\n"

    def test_int_for_float_and_null_for_optional_accepted(self, tmp_path):
        section = {"kind": "brownian", "seed": 1, "M": 8, "T": 2, "H": None, "file": None}
        assert self._gen_path(tmp_path, section) == 0
        assert read_path_binary(str(tmp_path / "out" / "path.pqv")).horizon == 2.0


class TestMonteCarloEngine:
    SEEDS = (3, 9)

    def _mc(self, tmp_path, doc, name, *extra):
        cfg = _write(tmp_path, dict(doc, seeds=list(self.SEEDS)), f"{name}.json")
        return _run("mc", cfg, "--out-dir", str(tmp_path / name), *extra)

    @pytest.mark.parametrize("case", sorted(_MC_CASES))
    def test_threads_serial_and_reference_loop_agree(self, tmp_path, case):
        doc = _MC_CASES[case]
        assert self._mc(tmp_path, doc, "w1", "--workers", "1") in (0, 2)
        assert self._mc(tmp_path, doc, "w2", "--workers", "2") in (0, 2)
        serial = (tmp_path / "w1" / "mc.csv").read_bytes()
        assert (tmp_path / "w2" / "mc.csv").read_bytes() == serial
        records = [(s, _reference_record(case, s)) for s in range(*self.SEEDS)]
        keys = sorted(records[0][1])
        expect = "seed," + ",".join(keys) + "\n" + "".join(
            f"{s}," + ",".join(fmt_float(rec[k]) for k in keys) + "\n" for s, rec in records)
        assert serial == expect.encode()

    @pytest.mark.parametrize("case", sorted(_MC_CASES))
    def test_records_match_the_public_kernels_bit_for_bit(self, case):
        cfg = cli.parse_config(dict(_MC_CASES[case], seeds=list(self.SEEDS)))
        for seed, rec in cli.run_seeds(cfg["experiment"], cfg, cfg["seeds"]):
            want = _reference_record(case, seed)
            assert sorted(rec) == sorted(want)
            assert all(np.float64(rec[k]).tobytes() == np.float64(want[k]).tobytes()
                       for k in want)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("partition_b,analysis", [
        (_BALANCED, {"balance_threshold": 1.5}),  # sequence B is not balanced
        ({"generator": "dyadic", "levels": [2, 3], "M": 12}, {}),  # no admissible pair
    ])
    def test_refused_pairing_names_the_seed(self, tmp_path, capsys, workers, partition_b,
                                            analysis):
        import pathqv as pq

        doc = dict(_MC_CASES["invariance"], partition_b=partition_b, analysis=analysis)
        path = pq.gen_brownian(self.SEEDS[0], 12, 1.0)
        with pytest.raises(pq.PQVError) as refused:
            pq.invariance_check(path, _reference_seq(doc["partition"], path),
                                _reference_seq(partition_b, path), **analysis)
        assert self._mc(tmp_path, doc, "out", "--workers", workers) == 1
        assert capsys.readouterr().err == f"error: seed {self.SEEDS[0]}: {refused.value}\n"
        assert not (tmp_path / "out" / "mc.csv").exists()

    def test_many_threads_with_fast_switching_match_serial(self, tmp_path):
        # the shared partition sequences fill their cached properties lazily
        doc = dict(_MC_CASES["integrate"], seeds=[0, 24])
        cfg = _write(tmp_path, doc)
        assert _run("mc", cfg, "--out-dir", str(tmp_path / "w1"), "--workers", "1") in (0, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = _run("mc", cfg, "--out-dir", str(tmp_path / "w8"), "--workers", "8")
        finally:
            sys.setswitchinterval(interval)
        assert code in (0, 2)
        assert ((tmp_path / "w8" / "mc.csv").read_bytes()
                == (tmp_path / "w1" / "mc.csv").read_bytes())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_partitions_built_once_per_run(self, tmp_path, monkeypatch, workers):
        calls = []
        real = cli.gen_random_balanced

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "gen_random_balanced", counting)
        doc = dict(_MC_CASES["invariance"], seeds=[0, 8])
        assert _run("mc", _write(tmp_path, doc), "--out-dir", str(tmp_path / "out"),
                    "--workers", workers) in (0, 2)
        assert len(calls) == 1
        assert len((tmp_path / "out" / "mc.csv").read_text().splitlines()) == 9

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", ["fbm_qv", "mixed_integrate"])
    def test_fgn_weights_built_once_per_run(self, tmp_path, monkeypatch, workers, case):
        builds, draws = [], []
        real_scale, real_draw = paths._fgn_scale, paths._fgn_circulant

        def counting(*args):
            builds.append(args)
            return real_scale(*args)

        def drawing(rng, M, scale):
            draws.append(scale)
            return real_draw(rng, M, scale)

        monkeypatch.setattr(paths, "_fgn_scale", counting)
        monkeypatch.setattr(paths, "_fgn_circulant", drawing)
        assert self._mc(tmp_path, _MC_CASES[case], "out", "--workers", workers) in (0, 2)
        assert builds == [(12, _MC_CASES[case]["path"]["H"])]
        assert len(draws) == len(range(*self.SEEDS))
        assert all(scale is draws[0] for scale in draws)

    @pytest.mark.parametrize("path,message", [
        (dict(_FBM, H=1.5), "Hurst parameter must lie in (0,1), got 1.5"),
        (dict(_MIXED, H=0.3), "mixed paths require H > 1/2, got 0.3"),
        (dict(_MIXED, delta=-1.0), "delta must be >= 0, got -1.0"),
    ])
    def test_refused_fgn_path_names_the_seed(self, tmp_path, capsys, path, message):
        assert self._mc(tmp_path, dict(_MC_CASES["fbm_qv"], path=path), "out") == 1
        assert capsys.readouterr().err == f"error: seed {self.SEEDS[0]}: {message}\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_seed_is_named(self, tmp_path, monkeypatch, capsys, workers):
        real = cli.gen_brownian

        def flaky(seed, *args, **kwargs):
            if seed == 5:
                raise RuntimeError("synthetic failure")
            return real(seed, *args, **kwargs)

        monkeypatch.setattr(cli, "gen_brownian", flaky)
        code = self._mc(tmp_path, _MC_CASES["qv"], "out", "--workers", workers)
        assert code == 1
        assert capsys.readouterr().err == "error: seed 5: synthetic failure\n"
        assert not (tmp_path / "out" / "mc.csv").exists()

    def test_set_up_error_keeps_its_message(self, tmp_path, capsys):
        # level 6 of a 2^12 grid needs a reference level near 2 * 6 at beta = 1/2,
        # so levels 6-10 exhaust the dyadic levels <= 12 during set-up
        doc = dict(_MC_CASES["roughness"], path={"kind": "brownian", "M": 12},
                   partition=_BALANCED, analysis={"beta": 0.5})
        assert self._mc(tmp_path, doc, "out", "--workers", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no reference level") and "seed" not in err


class TestMonteCarloOnAPathFile:
    """mc evaluates a path read from file at the file's horizon.

    The config leaves path.T at its default 1.0 while the file holds T = 2.
    """

    def _run(self, tmp_path, experiment):
        import pathqv as pq

        path = pq.gen_brownian(4, 12, 2.0)
        pq.io.write_path_binary(path, str(tmp_path / "w.pqv"))
        doc = {"experiment": experiment, "seeds": [0, 2],
               "path": {"file": str(tmp_path / "w.pqv")},
               "partition": {"generator": "dyadic", "levels": [8, 10], "M": 12, "T": 2.0},
               "analysis": {"function": "sin", "tol": 0.5}}
        code = _run("mc", _write(tmp_path, doc), "--out-dir", str(tmp_path / "out"),
                    "--workers", "1")
        head, *rows = (tmp_path / "out" / "mc.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[0].split(",")[1:] == rows[1].split(",")[1:]
        record = dict(zip(head.split(",")[1:], rows[0].split(",")[1:]))
        return code, path, pq.gen_dyadic([8, 9, 10], 12, 2.0), record

    def test_qv_at_the_file_horizon(self, tmp_path):
        import pathqv as pq

        code, path, seq, record = self._run(tmp_path, "qv")
        val = float(pq.qv_level(path, seq.partitions[-1], [2.0]).values[-1])
        assert record == {"abs_err": fmt_float(abs(val - 2.0)), "qv_T": fmt_float(val)}
        assert code == 0

    def test_integral_at_the_file_horizon(self, tmp_path):
        import pathqv as pq

        _, path, seq, record = self._run(tmp_path, "integrate")
        fn = pq.function_catalogue("sin")
        want = pq.follmer_integral(path, fn.f1, seq.partitions[-1], 2.0)
        assert record["integral_a"] == fmt_float(want)
        assert want != pq.follmer_integral(path, fn.f1, seq.partitions[-1], 1.0)


class TestMissingSections:
    _PATH = {"kind": "brownian", "M": 8}
    _PART = {"generator": "dyadic", "levels": [2, 4], "M": 8}

    @pytest.mark.parametrize("command,doc,missing", [
        ("gen-path", {"partition": _PART}, ["path"]),
        ("gen-partition", {"path": _PATH}, ["partition"]),
        ("qv", {"path": _PATH}, ["partition"]),
        ("qv", {}, ["path", "partition"]),
        ("roughness", {"partition": _PART}, ["path"]),
        ("integrate", {"path": _PATH}, ["partition"]),
        ("localtime", {"path": _PATH}, ["partition"]),
        ("invariance", {"path": _PATH, "partition": _PART}, ["partition_b"]),
    ])
    def test_exits_one_naming_the_sections(self, tmp_path, capsys, command, doc, missing):
        assert _run(command, _write(tmp_path, doc), "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {command} needs the sections {missing}\n"

    def test_mc_keeps_its_wording(self, tmp_path, capsys):
        doc = {"experiment": "invariance", "seeds": [0, 2], "path": self._PATH,
               "partition": self._PART}
        assert _run("mc", _write(tmp_path, doc), "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "error: mc invariance needs the sections ['partition_b']\n"


class TestFunctionParams:
    _DOC = {"path": {"kind": "brownian", "seed": 1, "M": 8},
            "partition": {"generator": "dyadic", "levels": [4, 6], "M": 8}}
    _RUNS = {"integrate": {}, "localtime": {},
             "mc": {"experiment": "integrate", "seeds": [0, 2]}}

    def _run_with(self, tmp_path, command, fn_params):
        doc = dict(self._DOC, **self._RUNS[command],
                   analysis={"function": "abs_smooth", "fn_params": fn_params, "tol": 1.0})
        return _run(command, _write(tmp_path, doc), "--out-dir", str(tmp_path / "out"))

    @pytest.mark.parametrize("command", sorted(_RUNS))
    @pytest.mark.parametrize("fn_params,message", [
        ({"a": 0.0, "eps": float("nan")}, "abs_smooth parameter eps must be a finite real, got nan"),
        ({"eps": float("inf")}, "abs_smooth parameter eps must be a finite real, got inf"),
        ({"epsilon": 0.5}, "abs_smooth takes the parameters ['a', 'eps'], got ['epsilon']"),
        ({"eps": "0.1x"}, "abs_smooth parameter eps must be a finite real, got '0.1x'"),
        ({"a": True}, "abs_smooth parameter a must be a finite real, got True"),
        ({"eps": 0}, "abs_smooth parameter eps must be > 0, got 0.0"),
        ({"eps": -0.1}, "abs_smooth parameter eps must be > 0, got -0.1"),
    ])
    def test_bad_params_exit_one(self, tmp_path, capsys, command, fn_params, message):
        assert self._run_with(tmp_path, command, fn_params) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", sorted(_RUNS))
    def test_benchmark_params_run(self, tmp_path, command):
        assert self._run_with(tmp_path, command, {"a": 0.0, "eps": 0.1}) in (0, 2)

    def test_parameters_of_a_function_without_any(self, tmp_path, capsys):
        doc = dict(self._DOC, analysis={"function": "square", "fn_params": {"eps": 0.1}})
        assert _run("integrate", _write(tmp_path, doc), "--out-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "error: square takes the parameters [], got ['eps']\n"


class TestSeedsOnlyForMc:
    _DOC = {"path": {"kind": "brownian", "M": 8},
            "partition": {"generator": "dyadic", "levels": [4, 6], "M": 8},
            "partition_b": {"generator": "dyadic", "levels": [4, 6], "M": 8}}

    @pytest.mark.parametrize("command", ["gen-path", "gen-partition", "qv", "roughness",
                                         "integrate", "localtime", "invariance"])
    @pytest.mark.parametrize("extra", [{"seeds": [0, 100]}, {"experiment": "qv"}])
    def test_other_subcommands_refuse(self, tmp_path, capsys, command, extra):
        cfg = _write(tmp_path, dict(self._DOC, **extra))
        assert _run(command, cfg, "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {command} runs one path; run 'seeds' and 'experiment' "
                       "with pqv mc\n")
        assert not (tmp_path / "out" / "report.json").exists()


# The subcommand each shipped config is written for, and the sections it needs.
_CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"
_SHIPPED = {"invariance.json": "mc", "localtime.json": "localtime", "qv_mc.json": "mc",
            "roughness_decay.json": "mc"}
_NEEDS = {"qv": ["path", "partition"], "roughness": ["path", "partition"],
          "integrate": ["path", "partition"], "localtime": ["path", "partition"],
          "invariance": ["path", "partition", "partition_b"]}


class TestShippedConfigs:
    def test_every_config_is_listed(self):
        assert sorted(p.name for p in _CONFIGS.glob("*.json")) == sorted(_SHIPPED)

    @pytest.mark.parametrize("name", sorted(_SHIPPED))
    def test_parses_with_the_sections_it_needs(self, name):
        cfg = cli.parse_config(json.loads((_CONFIGS / name).read_text()))
        command = _SHIPPED[name]
        if command == "mc":
            assert "experiment" in cfg and "seeds" in cfg
            command = cfg["experiment"]
        else:
            assert "experiment" not in cfg and "seeds" not in cfg
        cli._sections(cfg, command, *_NEEDS[command])
        for key in _NEEDS[command][1:]:  # every partition on the path's master grid
            assert (cfg[key].M, cfg[key].T) == (cfg["path"].M, cfg["path"].T)
