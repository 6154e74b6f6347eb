"""Run one GARL benchmark workload and print its metrics.

    python3 garlbench/run.py --workload train-k1 --seed 3 --seconds 25 --trace 0

Run from the root of a repository checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``).  The lines before it hold the full run
record, host record included (with ``--trace 1`` also the rollup of
every span name: count, total and self time); the same record, and
with ``--trace 1`` the spans as a Chrome trace, are written under
``.garlbench/``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".garlbench"

WORKLOADS = ("train-k1", "train-k8", "serve-http")

#: End-to-end metrics with their units (all reported by every workload).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "iter_p50_ms": "ms",
    "steps_per_s": "1/s",
    "throughput_per_s": "1/s",
    "ugv_p50_ms": "ms",
    "ugv_p99_ms": "ms",
    "uav_p50_ms": "ms",
    "uav_p99_ms": "ms",
}


def _source_digest() -> str:
    """Hash of the program's and the benchmark's source, so stored
    digests are only compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "garlbench").rglob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(SRC), str(ROOT)]  # in place of this script's dir

    from garlbench.host import HostMonitor, hold_cpus
    from garlbench.layers import PER_LAYER
    from garlbench.serve import run_serve
    from garlbench.tracing import rollup, write_chrome_trace
    from garlbench.train import run_train

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = STATE / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with hold_cpus(ROOT) as held:
            monitor = HostMonitor()
            if args.workload == "serve-http":
                result = run_serve(args.seed, args.seconds, bool(args.trace),
                                   ROOT, workdir)
            else:
                result = run_train(1 if args.workload == "train-k1" else 8,
                                   args.seed, args.seconds, bool(args.trace),
                                   STATE, _source_digest())
            host = monitor.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["cpus_held_out_of_idle"] = held

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"].get(name), "unit": unit}
               for name, unit in units.items()}
    checks = [{"check": name, "ok": bool(ok), "detail": detail}
              for name, ok, detail in result["checks"]]
    correct = all(c["ok"] for c in checks)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "checks": checks, "host": host, **result["record"],
              "metrics": metrics}
    if "spans" in result:
        record["rollup"] = {
            name: {"count": r.count, "total_s": r.total, "self_s": r.self_total}
            for name, r in sorted(rollup(result["spans"]).items())}
        path = write_chrome_trace(STATE / "traces" / f"{tag}.json",
                                  result["spans"])
        record["trace_file"] = str(path.relative_to(ROOT))
    (STATE / "runs").mkdir(parents=True, exist_ok=True)
    (STATE / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
