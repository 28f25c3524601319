import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_digest.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("kernel_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def kd():
    return _load_script()


@pytest.fixture(scope="module")
def m8(kd):
    return kd.digests((8,))


def test_runs_at_m8_and_is_deterministic(kd, m8):
    assert list(m8) == list(kd.FAMILIES)
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in m8.values())
    assert kd.digests((8,)) == m8
    lines = kd.format_digests(m8).splitlines()
    assert [line.split() for line in lines] == [[k, v] for k, v in m8.items()]


def _differences(key: dict, pinned: dict) -> list:
    """Each key field in which this platform differs from a pin, named."""
    out = []
    for name in ("numpy", "machine"):
        if key[name] != pinned[name]:
            out.append(f"{name} {key[name]} (pinned {pinned[name]})")
    extra = sorted(set(key["cpu_features"]) - set(pinned["cpu_features"]))
    missing = sorted(set(pinned["cpu_features"]) - set(key["cpu_features"]))
    if extra or missing:
        out.append(f"cpu_features +{extra} -{missing}")
    return out


def test_m8_lines_match_the_pin(kd, m8):
    # every output byte of the M = 8 matrix; a change that moves bytes on
    # purpose updates kernel_digest_m8.json in its own diff
    key = kd.platform_key()
    pins = json.loads(kd.PIN_FILE.read_text())
    diffs = [_differences(key, p) for p in pins]
    pinned = [p for p, d in zip(pins, diffs) if not d]
    if not pinned:
        nearest = min(diffs, key=len)
        pytest.skip("no digest pin for this platform: " + "; ".join(nearest))
    assert kd.format_digests(m8).splitlines() == pinned[0]["lines"]
