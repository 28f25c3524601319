"""pathqv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload roughness-m23 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics from a
traced run.  The lines before it repeat the metrics with their units, the
error rate, the machine, the sample counts and the Monte Carlo verdicts.

The script itself imports only the standard library.  It starts
``workload.py`` SETUP_SAMPLES times to sample set-up time, then once more
to time ops, and reports the median set-up time of all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4          # set-up-only processes per run, besides the timed one
DEADLINE_S = 170.0         # a run must end well within 180 s


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def child(args, run_dir: Path, name: str, deadline: float, setup_only: bool) -> dict:
    """Start workload.py, wait for it, and return its report."""
    report = run_dir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(run_dir / name), "--report", str(report)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        spans = ROOT / ".perfbench-run" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    cmd += ["--t-start", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the process and any pool workers
        proc.wait()
        raise RuntimeError(f"{name} exceeded the {DEADLINE_S:.0f} s deadline") from None
    finally:
        try:   # kill any process of the group still alive, such as a pool worker
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if rc != 0:
        raise RuntimeError(f"{name} exited with code {rc}")
    return json.loads(report.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "pathqv" / "__init__.py").is_file():
        return fail(f"no pathqv sources under {ROOT / 'src'}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = ROOT / ".perfbench-run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        deadline = start + DEADLINE_S
        setups = [child(args, run_dir, f"setup-{k}", deadline, True)["setup_s"]
                  for k in range(SETUP_SAMPLES)]
        rep = child(args, run_dir, "timed", deadline, False)
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = dict(rep["metrics"])
    if not args.trace:
        setups.append(rep["setup_s"])
        measured["setup_s"] = statistics.median(setups)
    names = [m["name"] for m in wanted]
    if sorted(measured) != sorted(names):
        return fail(f"metric set mismatch: {sorted(set(measured) ^ set(names))}")

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in rep["lines"]:
        print(f"# {line}")
    if not args.trace:
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for m in wanted:
        print(f"{m['name']:34s} {measured[m['name']]:.6g} {m['unit']}")
    print(f"{'error_rate':34s} {rep['failed'] / rep['attempted']:.6g} fraction "
          f"({rep['failed']} of {rep['attempted']} ops failed)")
    print(json.dumps({
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
