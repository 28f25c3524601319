import json
import os
import sys

import numpy as np
import pytest

from pathqv import cli
from pathqv.io import fmt_float, read_path_binary


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _run(*argv):
    return cli.main(list(argv))


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
    def _mc_cfg(self, tmp_path, workers_env=None):
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

    def test_workers_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PQV_WORKERS", "2")
        cfg = self._mc_cfg(tmp_path)
        out = tmp_path / "out"
        assert _run("mc", cfg, "--out-dir", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["timings"]["workers"] == 2

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


# Monte Carlo configs on small grids, one per experiment, each paired with a
# per-seed loop that rebuilds the path and every partition sequence from the
# public kernels.
_DYADIC = {"generator": "dyadic", "levels": [6, 10], "M": 12}
_BALANCED = {"generator": "random_balanced", "levels": [6, 10], "M": 12, "seed": 7,
             "c_target": 3.0}
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
}


def _reference_record(case: str, seed: int) -> dict:
    import pathqv as pq

    M = _MC_CASES[case]["path"]["M"]
    path = pq.gen_brownian(seed, M, 1.0)
    dyadic = pq.gen_dyadic(range(6, 11), 12, 1.0)
    balanced = pq.gen_random_balanced(7, range(6, 11), 12, 1.0, 3.0)
    if case == "qv":
        val = float(pq.qv_level(path, dyadic.partitions[-1], [1.0]).values[-1])
        return {"qv_T": val, "abs_err": abs(val - 1.0)}
    if case == "lebesgue":
        val = float(pq.qv_level(path, pq.gen_lebesgue(path, 3), [1.0]).values[-1])
        return {"qv_T": val, "abs_err": abs(val - 1.0)}
    if case == "invariance":
        rep = pq.invariance_check(path, dyadic, balanced, tol=0.1)
        return {"sup_distance": float(rep.sup_distances[int(np.argmin(rep.mesh_a))])}
    if case == "integrate":
        fn = pq.function_catalogue("sin")
        a = pq.follmer_integral(path, fn.f1, dyadic.partitions[-1], 1.0)
        b = pq.follmer_integral(path, fn.f1, balanced.partitions[-1], 1.0)
        return {"integral_a": a, "integral_b": b, "abs_diff": abs(a - b),
                "residual_sup": float(pq.ito_residual(path, fn, dyadic).sup[-1])}
    seq = pq.gen_random_balanced(7, range(4, 7), 14, 1.0, 3.0)
    reference = pq.gen_dyadic(range(4, 15), 14, 1.0)
    sel = pq.select_dyadic_subsequence(seq, 0.5, reference)
    return {f"S_{n}": pq.roughness_statistic(path, seq.level(n), reference.level(l)).S
            for n, l in zip(sel.level_ids, sel.l)}


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

    def test_non_numeric_workers_env_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PQV_WORKERS", "two")
        cfg = _write(tmp_path, dict(_MC_CASES["qv"], seeds=[0, 2]))
        assert _run("mc", cfg, "--out-dir", str(tmp_path / "out")) == 1
        assert "PQV_WORKERS" in capsys.readouterr().err

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
