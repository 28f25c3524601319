"""File formats: binary path files, CSV tables, JSON sidecars.

Floats are serialised with 17 significant digits so CSV round-trips are
bit-exact; column orders are fixed so identical runs produce byte-identical
files.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .errors import ParameterError
from .partitions import PartitionSequence
from .paths import MAX_LEVEL, PATH_KINDS, PathMeta, SampledPath

MAGIC = b"PQV1"

_KIND_CODE = {k: i for i, k in enumerate(PATH_KINDS)}
_CODE_KIND = {i: k for k, i in _KIND_CODE.items()}

#: Longest parameter name a path file may declare.
_MAX_NAME = 1024


def fmt_float(v: float) -> str:
    return f"{v:.17g}"


#: Rows formatted with one ``%`` and written with one ``write`` at a time.
_BLOCK_ROWS = 4096


@contextlib.contextmanager
def _opened(file, mode: str):
    """``file`` itself if it is an open stream, else the named file opened in ``mode``."""
    if isinstance(file, (str, bytes, os.PathLike)):
        with open(file, mode) as fh:
            yield fh
    else:
        yield file


def _row_slices(n_rows: int):
    """Consecutive slices of up to _BLOCK_ROWS rows covering range(n_rows)."""
    return (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, n_rows, _BLOCK_ROWS))


def _fill(row: str, *columns) -> str:
    """``row`` once per entry along the columns' first axis, filled with one ``%``.

    The columns broadcast to one shape; entry i of each, in turn, fills the
    fields of copy i of ``row`` (a 2-d shape interleaves the columns along
    its second axis).  ``"%.17g" % v`` and ``fmt_float(v)`` both call
    ``PyOS_double_to_string(v, 'g', 17)``, so the text is the same.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    args = np.empty(shape + (len(columns),), dtype=object)
    for k, column in enumerate(columns):
        args[..., k] = column
    return row * len(args) % tuple(args.ravel())


def _fmt_column(values) -> np.ndarray:
    """fmt_float of each value, for a column repeated across a block."""
    vals = np.asarray(values).tolist()
    return np.array(("%.17g\n" * len(vals) % tuple(vals)).split("\n")[:-1], dtype=object)


def _write_csv(file, header: str, blocks) -> None:
    """The header line, then each block of text with a single write."""
    with _opened(file, "w") as fh:
        fh.write(header)
        for text in blocks:
            fh.write(text)


def _read_exact(fh, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ParameterError(f"truncated PQV1 file: {what} needs {n} bytes, got {len(raw)}")
    return raw


def write_path_binary(path: SampledPath, file) -> None:
    """magic, u32 M, u32 d, f64 T, u64 seed, u32 kind, params, f64 samples."""
    with _opened(file, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIdQI", path.master_level, path.dim, path.horizon,
                             path.meta.seed, _KIND_CODE[path.meta.kind]))
        items = sorted(path.meta.params.items())
        fh.write(struct.pack("<I", len(items)))
        for name, value in items:
            raw = name.encode()
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<d", float(value)))
        fh.write(np.ascontiguousarray(path.samples, dtype="<f8").tobytes())


def read_path_binary(file) -> SampledPath:
    """Inverse of write_path_binary; a short or malformed file is a ParameterError."""
    with _opened(file, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ParameterError("not a PQV1 path file")
        m, d, T, seed, kind_code = struct.unpack("<IIdQI", _read_exact(fh, 28, "header"))
        if not 4 <= m <= MAX_LEVEL or d < 1:
            raise ParameterError(f"PQV1 header out of range: M={m}, d={d}")
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4, "parameter count"))
        params = {}
        for _ in range(n_params):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4, "parameter name length"))
            if nlen > _MAX_NAME:
                raise ParameterError(f"PQV1 parameter name of {nlen} bytes")
            try:
                name = _read_exact(fh, nlen, "parameter name").decode()
            except UnicodeDecodeError as exc:
                raise ParameterError(f"PQV1 parameter name is not UTF-8: {exc}") from exc
            (params[name],) = struct.unpack("<d", _read_exact(fh, 8, f"parameter {name}"))
        # read what is there rather than ask for the header's byte count, so a
        # bogus d cannot make the reader allocate it
        rest = fh.read()
        count = ((1 << m) + 1) * d
        if len(rest) != 8 * count:
            what = "truncated" if len(rest) < 8 * count else "trailing bytes in"
            raise ParameterError(
                f"{what} PQV1 file: samples need {8 * count} bytes, got {len(rest)}"
            )
        samples = np.frombuffer(rest, dtype="<f8", count=count).reshape(-1, d)
    kind = _CODE_KIND.get(kind_code, "custom")
    return SampledPath(T, m, d, samples.copy(), PathMeta(kind, seed, params))


def write_path_csv(path: SampledPath, file) -> None:
    """Columns t, x1..xd."""
    cols = ",".join(f"x{i + 1}" for i in range(path.dim))
    row = "%.17g" + ",%.17g" * path.dim + "\n"
    blocks = (_fill(row, np.column_stack([path.times[s], path.samples[s]]))
              for s in _row_slices(path.n_points))
    _write_csv(file, f"t,{cols}\n", blocks)


def write_partition_csv(seq: PartitionSequence, csv_file, sidecar_file=None) -> None:
    """Columns level, index; JSON sidecar with generator metadata."""
    blocks = (_fill(f"{n},%s\n", part.indices[s])
              for n, part in zip(seq.level_ids, seq) for s in _row_slices(len(part.indices)))
    _write_csv(csv_file, "level,index\n", blocks)
    if sidecar_file is not None:
        meta = {
            "generator": seq.generator_meta,
            "params": dict(seq.generator_params),
            "M": seq.master_level,
            "T": seq.horizon,
            "levels": list(seq.level_ids),
        }
        write_json(meta, sidecar_file)


def read_partition_csv(csv_file, M: int, T: float) -> PartitionSequence:
    from .partitions import Partition

    by_level: dict = {}
    with open(csv_file) as fh:
        header = fh.readline().strip()
        if header != "level,index":
            raise ParameterError(f"unexpected partition CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                lev, idx = map(int, line.strip().split(","))
            except ValueError:
                raise ParameterError(
                    f"{csv_file}, line {lineno}: expected 'level,index', got {line.strip()!r}"
                ) from None
            by_level.setdefault(lev, []).append(idx)
    levels = sorted(by_level)
    parts = tuple(Partition(np.array(by_level[n]), M, T) for n in levels)
    return PartitionSequence(parts, tuple(levels), "from_csv")


def write_qv_csv(curves, file) -> None:
    """Columns t, i, j, value, level (component indices are 1-based)."""

    def blocks():
        for level, curve in curves:
            d = curve.dim
            # one eval time: its d * d rows, each filled by (t, value)
            row = "".join(f"%s,{i + 1},{j + 1},%.17g,{level}\n"
                          for i in range(d) for j in range(d))
            values = curve.values.reshape(len(curve.values), d * d)
            for s in _row_slices(len(values)):
                yield _fill(row, _fmt_column(curve.eval_times[s])[:, None], values[s])

    _write_csv(file, "t,i,j,value,level\n", blocks())


def read_qv_csv(file):
    """Inverse of write_qv_csv: list of (level, eval_times, values) tuples."""
    rows: dict = {}
    with open(file) as fh:
        header = fh.readline().strip()
        if header != "t,i,j,value,level":
            raise ParameterError(f"unexpected QV CSV header {header!r}")
        for line in fh:
            t, i, j, v, level = line.strip().split(",")
            rows.setdefault(int(level), []).append((float(t), int(i), int(j), float(v)))
    out = []
    for level in sorted(rows):
        recs = rows[level]
        d = max(r[1] for r in recs)
        times = sorted({r[0] for r in recs})
        tpos = {t: k for k, t in enumerate(times)}
        if d == 1:
            vals = np.zeros(len(times))
            for t, i, j, v in recs:
                vals[tpos[t]] = v
        else:
            vals = np.zeros((len(times), d, d))
            for t, i, j, v in recs:
                vals[tpos[t], i - 1, j - 1] = v
        out.append((level, np.asarray(times), vals))
    return out


def write_localtime_csv(field, file) -> None:
    """Columns t, u, L."""
    us = _fmt_column(field.u_grid)

    def blocks():
        for t, values in zip(_fmt_column(field.t_grid), field.values):
            row = f"{t},%s,%.17g\n"
            for s in _row_slices(len(us)):
                yield _fill(row, us[s], values[s])

    _write_csv(file, "t,u,L\n", blocks())


def write_residual_csv(residual, file) -> None:
    """Columns level, t, residual."""
    ts = _fmt_column(residual.eval_times)

    def blocks():
        for level, values in zip(residual.level_ids, residual.residuals):
            row = f"{level},%s,%.17g\n"
            for s in _row_slices(len(ts)):
                yield _fill(row, ts[s], values[s])

    _write_csv(file, "level,t,residual\n", blocks())


def write_roughness_csv(records, file) -> None:
    """Columns level, seed, S, fine_level, cells."""
    text = "".join(f"{level},{seed},{fmt_float(stat.S)},{stat.fine_level},{stat.n_cells}\n"
                   for level, seed, stat in records)
    _write_csv(file, "level,seed,S,fine_level,cells\n", [text])


def write_json(obj, file) -> None:
    with open(file, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
