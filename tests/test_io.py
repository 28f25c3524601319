import io as _stdio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathqv as pq
from pathqv import io as pio


class TestBinaryPathFile:
    def test_roundtrip_brownian(self, tmp_path):
        path = pq.gen_brownian(42, 6, 2.0, 3)
        target = tmp_path / "w.pqv"
        pio.write_path_binary(path, str(target))
        back = pio.read_path_binary(str(target))
        assert back.master_level == 6 and back.dim == 3 and back.horizon == 2.0
        assert back.meta.kind == "brownian" and back.meta.seed == 42
        assert np.array_equal(back.samples, path.samples)

    def test_roundtrip_params(self, tmp_path):
        path = pq.gen_mixed(7, 5, 1.0, 0.75, 0.5)
        target = tmp_path / "m.pqv"
        pio.write_path_binary(path, str(target))
        back = pio.read_path_binary(str(target))
        assert back.meta.params == {"H": 0.75, "delta": 0.5}

    def test_reads_file_with_retired_fallback_flag(self):
        # fBm files written before the Cholesky fallback was removed carry a
        # cholesky_fallback parameter; they still read back whole
        old = pq.SampledPath(1.0, 4, 1, np.linspace(0.0, 1.0, 17),
                             pq.PathMeta("fbm", 5, {"H": 0.75, "cholesky_fallback": 0.0}))
        buf = _stdio.BytesIO()
        pio.write_path_binary(old, buf)
        buf.seek(0)
        back = pio.read_path_binary(buf)
        assert back.meta == old.meta
        assert back.samples.tobytes() == old.samples.tobytes()

    def test_magic_guard(self, tmp_path):
        bad = tmp_path / "bad.pqv"
        bad.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(pq.ParameterError):
            pio.read_path_binary(str(bad))

    def test_header_layout(self):
        path = pq.gen_brownian(1, 4, 1.0, 1)
        buf = _stdio.BytesIO()
        pio.write_path_binary(path, buf)
        raw = buf.getvalue()
        assert raw[:4] == b"PQV1"
        assert int.from_bytes(raw[4:8], "little") == 4       # M
        assert int.from_bytes(raw[8:12], "little") == 1      # d
        assert np.frombuffer(raw[12:20], dtype="<f8")[0] == 1.0  # T


@given(seed=st.integers(0, 2**32 - 1), M=st.integers(4, 6))
@settings(max_examples=15)
def test_binary_roundtrip_property(tmp_path_factory, seed, M):
    path = pq.gen_brownian(seed, M, 1.0, 1)
    buf = _stdio.BytesIO()
    pio.write_path_binary(path, buf)
    buf.seek(0)
    back = pio.read_path_binary(buf)
    assert np.array_equal(back.samples, path.samples)


class TestCsv:
    def test_path_csv_roundtrips_exactly(self, tmp_path):
        path = pq.gen_brownian(3, 5, 1.0, 2)
        target = tmp_path / "p.csv"
        pio.write_path_csv(path, str(target))
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2"
        vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(vals[:, 1:], path.samples)
        assert np.array_equal(vals[:, 0], path.times)

    def test_partition_roundtrip(self, tmp_path):
        seq = pq.gen_random_balanced(3, range(2, 6), 10, 1.0, 2.0)
        csvf, sidecar = tmp_path / "part.csv", tmp_path / "part.json"
        pio.write_partition_csv(seq, str(csvf), str(sidecar))
        back = pio.read_partition_csv(str(csvf), 10, 1.0)
        assert back.level_ids == seq.level_ids
        for a, b in zip(seq, back):
            assert np.array_equal(a.indices, b.indices)
        assert sidecar.exists()

    @pytest.mark.parametrize("row", ["3,abc", "3,0,1", "3", "", "x,5"])
    def test_partition_csv_malformed_row_names_file_and_line(self, tmp_path, row):
        csvf = tmp_path / "part.csv"
        csvf.write_text(f"level,index\n3,0\n{row}\n3,1024\n")
        with pytest.raises(pq.ParameterError, match=r"part\.csv, line 3: expected 'level,index'"):
            pio.read_partition_csv(str(csvf), 10, 1.0)

    def test_qv_csv_column_order_and_roundtrip(self, tmp_path):
        w = pq.gen_brownian(1, 8, 1.0, 2)
        part = pq.gen_dyadic([4], 8, 1.0).level(4)
        curve = pq.qv_matrix(w, part, part.times)
        target = tmp_path / "qv.csv"
        pio.write_qv_csv([(4, curve)], str(target))
        header = target.read_text().splitlines()[0]
        assert header == "t,i,j,value,level"
        back = pio.read_qv_csv(str(target))
        level, times, vals = back[0]
        assert level == 4
        assert np.array_equal(times, curve.eval_times)
        assert np.array_equal(vals, curve.values)

    def test_empty_results_header_only(self, tmp_path):
        target = tmp_path / "empty.csv"
        pio.write_qv_csv([], str(target))
        assert target.read_text() == "t,i,j,value,level\n"

    def test_float_formatting_is_bit_exact(self):
        vals = [1 / 3, np.pi, 2.0**-52, 1e300, -0.0]
        for v in vals:
            assert float(pio.fmt_float(v)) == v

    def test_localtime_and_residual_headers(self, tmp_path):
        w = pq.gen_brownian(2, 10, 1.0)
        part = pq.gen_dyadic([5], 10, 1.0).level(5)
        fld = pq.local_time_discrete(w, part, t_grid=[1.0])
        f1 = tmp_path / "lt.csv"
        pio.write_localtime_csv(fld, str(f1))
        assert f1.read_text().splitlines()[0] == "t,u,L"

        seq = pq.gen_dyadic([4, 5], 10, 1.0)
        resid = pq.ito_residual(w, pq.function_catalogue("square"), seq)
        f2 = tmp_path / "resid.csv"
        pio.write_residual_csv(resid, str(f2))
        assert f2.read_text().splitlines()[0] == "level,t,residual"


# --- per-row reference writers: the formatting the batched writers must keep byte for byte


def _ref_write_path_csv(path, fh):
    cols = ",".join(f"x{i + 1}" for i in range(path.dim))
    fh.write(f"t,{cols}\n")
    for t, row in zip(path.times, path.samples):
        fh.write(pio.fmt_float(t) + "," + ",".join(pio.fmt_float(v) for v in row) + "\n")


def _ref_write_qv_csv(curves, fh):
    fh.write("t,i,j,value,level\n")
    for level, curve in curves:
        d = curve.dim
        for row, t in enumerate(curve.eval_times):
            if d == 1:
                fh.write(f"{pio.fmt_float(t)},1,1,{pio.fmt_float(curve.values[row])},{level}\n")
            else:
                for i in range(d):
                    for j in range(d):
                        fh.write(f"{pio.fmt_float(t)},{i + 1},{j + 1},"
                                 f"{pio.fmt_float(curve.values[row, i, j])},{level}\n")


def _ref_write_localtime_csv(field, fh):
    fh.write("t,u,L\n")
    for ti, t in enumerate(field.t_grid):
        for ui, u in enumerate(field.u_grid):
            fh.write(f"{pio.fmt_float(t)},{pio.fmt_float(u)},"
                     f"{pio.fmt_float(field.values[ti, ui])}\n")


def _ref_write_residual_csv(residual, fh):
    fh.write("level,t,residual\n")
    for li, level in enumerate(residual.level_ids):
        for t, r in zip(residual.eval_times, residual.residuals[li]):
            fh.write(f"{level},{pio.fmt_float(t)},{pio.fmt_float(r)}\n")


def _ref_write_partition_csv(seq, fh):
    fh.write("level,index\n")
    for n, part in zip(seq.level_ids, seq):
        for i in part.indices:
            fh.write(f"{n},{i}\n")


def _same_bytes(writer, ref, obj):
    got, want = _stdio.StringIO(), _stdio.StringIO()
    writer(obj, got)
    ref(obj, want)
    if got.getvalue() != want.getvalue():
        # the first differing line, not a pytest diff of every line, which takes minutes
        pairs = zip(got.getvalue().splitlines(), want.getvalue().splitlines())
        first = next(((k, g, w) for k, (g, w) in enumerate(pairs) if g != w), "line count")
        pytest.fail(f"writer and per-row reference differ: {first}")


_EDGE = np.array([-0.0, 1e300, 2.0**-1074, -1e-300, 1 / 3, 0.1, -2.5, 2.0**53 + 2])


class TestBatchedWritersMatchPerRow:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_qv_from_kernels(self, d):
        w = pq.gen_brownian(5, 10, 1.0, d)
        seq = pq.gen_dyadic(range(3, 6), 10, 1.0)
        curves = [(n, pq.qv_matrix(w, part) if d > 1 else pq.qv_level(w, part))
                  for n, part in zip(seq.level_ids, seq)]
        _same_bytes(pio.write_qv_csv, _ref_write_qv_csv, curves)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_qv_edge_values_across_blocks(self, d):
        # 4099 eval times: one full block of 4096 and a short second one
        n = pio._BLOCK_ROWS + 3
        rng = np.random.default_rng(d)
        vals = rng.choice(_EDGE, size=(n,) if d == 1 else (n, d, d))
        times = np.concatenate([_EDGE, np.arange(n - len(_EDGE)) * 2.0**-12])
        curve = pq.QVCurve(times, vals)
        _same_bytes(pio.write_qv_csv, _ref_write_qv_csv, [(7, curve), (np.int64(9), curve)])

    def test_qv_empty_curve_list(self):
        _same_bytes(pio.write_qv_csv, _ref_write_qv_csv, [])

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_path_csv(self, d):
        # 2^12 + 1 rows: one point past a full block
        path = pq.gen_brownian(6, 12, 3.0, d)
        _same_bytes(pio.write_path_csv, _ref_write_path_csv, path)
        edge = np.tile(_EDGE, (2**4 + 1) * d)[: (2**4 + 1) * d].reshape(-1, d)
        _same_bytes(pio.write_path_csv, _ref_write_path_csv,
                    pq.SampledPath(1.0, 4, d, edge, pq.PathMeta("custom")))

    def test_localtime_csv(self):
        w = pq.gen_brownian(2, 12, 1.0)
        part = pq.gen_dyadic([8], 12, 1.0).level(8)
        fld = pq.local_time_discrete(w, part, t_grid=[0.25, 1.0])
        _same_bytes(pio.write_localtime_csv, _ref_write_localtime_csv, fld)
        n_u = pio._BLOCK_ROWS + 5
        rng = np.random.default_rng(0)
        wide = pq.LocalTimeField(np.linspace(-1.0, 1.0, n_u), np.array([-0.0, 0.5, 1e300]),
                                 rng.choice(_EDGE, size=(3, n_u)))
        _same_bytes(pio.write_localtime_csv, _ref_write_localtime_csv, wide)

    def test_residual_csv(self):
        w = pq.gen_brownian(2, 10, 1.0)
        seq = pq.gen_dyadic([4, 5, 8], 10, 1.0)
        resid = pq.ito_residual(w, pq.function_catalogue("square"), seq)
        _same_bytes(pio.write_residual_csv, _ref_write_residual_csv, resid)
        n = pio._BLOCK_ROWS * 2
        rng = np.random.default_rng(1)
        long = pq.ItoResidual((3, 11), np.linspace(0.0, 1.0, n),
                              rng.choice(_EDGE, size=(2, n)), np.zeros(2))
        _same_bytes(pio.write_residual_csv, _ref_write_residual_csv, long)

    @pytest.mark.parametrize("n", [0, 1, pio._BLOCK_ROWS, pio._BLOCK_ROWS + 1])
    def test_row_count_edges(self, n):
        # no rows, one row, a full block and one past it, for every template
        # writer; the repeated column of each is formatted and split, even when empty
        rng = np.random.default_rng(n)
        times = rng.choice(_EDGE, size=n)
        for d in (1, 3):
            vals = rng.choice(_EDGE, size=(n,) if d == 1 else (n, d, d))
            _same_bytes(pio.write_qv_csv, _ref_write_qv_csv,
                        [(np.int64(n), pq.QVCurve(times, vals))])
        field = pq.LocalTimeField(times, np.array([0.5]), rng.choice(_EDGE, size=(1, n)))
        _same_bytes(pio.write_localtime_csv, _ref_write_localtime_csv, field)
        residual = pq.ItoResidual((np.int64(4),), times, rng.choice(_EDGE, size=(1, n)),
                                  np.zeros(1))
        _same_bytes(pio.write_residual_csv, _ref_write_residual_csv, residual)

    def test_partition_csv(self):
        # level 13 of a 2^14 grid has 8193 indices: two full blocks and one row
        seq = pq.gen_dyadic([2, 13], 14, 1.0)
        _same_bytes(pio.write_partition_csv, _ref_write_partition_csv, seq)

    def test_named_file_equals_stream(self, tmp_path):
        path = pq.gen_brownian(1, 6, 1.0, 2)
        buf = _stdio.StringIO()
        pio.write_path_csv(path, buf)
        pio.write_path_csv(path, str(tmp_path / "p.csv"))
        assert (tmp_path / "p.csv").read_text() == buf.getvalue()


class TestTruncatedPathFile:
    @staticmethod
    def _valid():
        buf = _stdio.BytesIO()
        pio.write_path_binary(pq.gen_mixed(3, 4, 1.0, 0.75, 0.5), buf)
        raw = buf.getvalue()
        return raw, len(raw) - 8 * (2**4 + 1)  # file and header length

    def test_every_header_cut_and_sample_boundary(self):
        raw, header = self._valid()
        cuts = list(range(header + 1)) + [header + 8, header + 8 * 9, len(raw) - 8, len(raw) - 1]
        for cut in cuts:
            with pytest.raises(pq.ParameterError):
                pio.read_path_binary(_stdio.BytesIO(raw[:cut]))
        assert np.array_equal(pio.read_path_binary(_stdio.BytesIO(raw)).samples,
                              pq.gen_mixed(3, 4, 1.0, 0.75, 0.5).samples)

    @pytest.mark.parametrize("m,d", [(3, 1), (31, 1), (2**32 - 1, 1), (10, 0)])
    def test_header_out_of_range(self, m, d):
        raw, _ = self._valid()
        bad = raw[:4] + m.to_bytes(4, "little") + d.to_bytes(4, "little") + raw[12:]
        with pytest.raises(pq.ParameterError):
            pio.read_path_binary(_stdio.BytesIO(bad))

    def test_reader_accepts_every_level_a_path_may_have(self):
        # a header at the shared bound passes the range check and fails only
        # for its missing samples: the reader refuses no level a path can have
        raw, _ = self._valid()
        bad = raw[:4] + pq.paths.MAX_LEVEL.to_bytes(4, "little") + raw[8:]
        with pytest.raises(pq.ParameterError, match="truncated"):
            pio.read_path_binary(_stdio.BytesIO(bad))

    def test_trailing_bytes_are_refused(self):
        raw, _ = self._valid()
        with pytest.raises(pq.ParameterError, match="trailing bytes"):
            pio.read_path_binary(_stdio.BytesIO(raw + bytes(8)))

    def test_huge_dim_is_checked_against_the_data(self):
        raw, _ = self._valid()
        bad = raw[:8] + (2**32 - 1).to_bytes(4, "little") + raw[12:]
        with pytest.raises(pq.ParameterError, match="truncated"):
            pio.read_path_binary(_stdio.BytesIO(bad))

    @pytest.mark.parametrize("size", [10, 40])
    def test_short_file_exits_one_with_one_line(self, tmp_path, capsys, size):
        from pathqv import cli

        raw, _ = self._valid()
        (tmp_path / "p.pqv").write_bytes(raw[:size])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"path": {"file": str(tmp_path / "p.pqv")},
                                   "partition": {"generator": "lebesgue", "M": 4}}))
        assert cli.main(["gen-partition", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated PQV1 file") and err.count("\n") == 1
