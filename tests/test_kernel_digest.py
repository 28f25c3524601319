import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_digest.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("kernel_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_at_m8_and_is_deterministic():
    kd = _load_script()
    first = kd.digests((8,))
    assert list(first) == list(kd.FAMILIES)
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in first.values())
    assert kd.digests((8,)) == first
    lines = kd.format_digests(first).splitlines()
    assert [line.split() for line in lines] == [[k, v] for k, v in first.items()]
