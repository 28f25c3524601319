"""Every public kernel refuses a partition on another master grid than its path."""

import json

import numpy as np
import pytest

import pathqv as pq
from pathqv import cli
from pathqv.calculus import default_u_grid
from pathqv.errors import GridMismatchError

W14 = pq.gen_brownian(1, 14, 1.0)
W14_2D = pq.gen_brownian(1, 14, 1.0, 2)
SEQ12 = pq.gen_dyadic([8, 10, 12], 12, 1.0)
P12 = SEQ12.level(12)
SIN = pq.function_catalogue("sin")


def _field14():
    part = pq.gen_dyadic([12], 14, 1.0).level(12)
    return pq.local_time_discrete(W14, part, t_grid=[1.0], u_grid=default_u_grid(W14))


KERNELS = {
    "qv_level": lambda: pq.qv_level(W14, P12),
    "qv_matrix": lambda: pq.qv_matrix(W14_2D, P12),
    "qv_limit_diagnostic": lambda: pq.qv_limit_diagnostic(W14, SEQ12),
    "invariance_check": lambda: pq.invariance_check(W14, SEQ12, SEQ12),
    "roughness_statistic": lambda: pq.roughness_statistic(W14, SEQ12.level(8), P12),
    "roughness_double_loop": lambda: pq.roughness_double_loop(W14, SEQ12.level(8), P12),
    "averaging_statistic": lambda: pq.averaging_statistic(W14, SEQ12, 1.2, 0.45),
    "follmer_integral": lambda: pq.follmer_integral(W14, np.cos, P12, 0.5),
    "follmer_path": lambda: pq.follmer_path(W14, np.cos, P12),
    "ito_residual_level": lambda: pq.ito_residual_level(W14, SIN, P12),
    "ito_residual": lambda: pq.ito_residual(W14, SIN, SEQ12),
    "isometry_check": lambda: pq.isometry_check(W14, SIN, SEQ12),
    "local_time_discrete": lambda: pq.local_time_discrete(W14, P12, t_grid=[1.0]),
    "occupation_check": lambda: pq.occupation_check(_field14(), W14, P12, []),
    "tanaka_residual": lambda: pq.tanaka_residual(W14, SIN, P12, _field14(), 1.0),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_m12_partition_on_m14_path_refused(kernel):
    with pytest.raises(GridMismatchError, match="2\\^14 steps on \\[0, 1\\] against 2\\^12"):
        KERNELS[kernel]()


def test_horizon_mismatch_refused():
    with pytest.raises(GridMismatchError):
        pq.qv_level(W14, pq.gen_dyadic([12], 14, 2.0).level(12))


def test_cli_exits_one_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "path": {"kind": "brownian", "M": 14, "T": 1.0},
        "partition": {"generator": "dyadic", "levels": [8, 12], "M": 12, "T": 1.0},
    }))
    assert cli.main(["localtime", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: master grids differ: 2^14 steps on [0, 1] against 2^12 steps on [0, 1]"]
