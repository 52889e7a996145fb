"""One pass of one workload, in a fresh interpreter.

Started by run.py; prints one JSON line with the set-up time, the pass's
time, peak memory and, per op, its latency, verdict and a digest of its
output.  Times are in seconds at the reference speed of speedclock.py,
with the wall times beside them (*_wall_*).  With --trace it also reports
the per-layer metrics, timed in wall seconds, and writes the spans to
--spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import speedclock

ROOT = Path(__file__).resolve().parents[1]


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import holomon

    if not Path(holomon.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"holomon imported from {holomon.__file__}, not {ROOT / 'src'}")


def digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() just before this interpreter was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    args = ap.parse_args(argv)

    # Set-up runs before any clock can: its speed is probed on each side.
    probe_before = speedclock.probe_time()
    _import_library()
    import mpmath
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_wall_s = time.time() - args.spawned
    probe_s = (probe_before + speedclock.probe_time()) / 2
    result = {"setup_s": speedclock.at_reference(setup_wall_s, probe_s),
              "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    rows, outputs = [], []
    clock = speedclock.SpeedClock().start()
    start, wall_start = clock.now(), time.perf_counter()
    for i, op in enumerate(ops):
        t0, wall_t0 = clock.now(), time.perf_counter()
        if tracer:
            tracer.begin_op(i, op.name)
        error = None
        try:
            output = op.run()
            verdict = op.check(output)
        except Exception:  # noqa: BLE001 - an op that raises counts as failed
            output, verdict = None, workloads.Verdict(False)
            error = traceback.format_exc(limit=3)
        if tracer:
            tracer.end_op()
        latency_ms = (clock.now() - t0) * 1e3
        wall_ms = (time.perf_counter() - wall_t0) * 1e3
        margin = verdict.margin if verdict.margin is not None \
            and math.isfinite(verdict.margin) else None
        rows.append({"name": op.name, "ms": latency_ms, "wall_ms": wall_ms,
                     "ok": verdict.ok, "margin": margin, "error": error})
        outputs.append(output)
    result["verify_s"] = clock.now() - start
    result["verify_wall_s"] = time.perf_counter() - wall_start
    clock.stop()
    result["probe_share"] = clock.handler_s / result["verify_wall_s"]
    result["mpmath"] = mpmath.__version__
    result["backend"] = mpmath.libmp.BACKEND
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    for row, output in zip(rows, outputs):
        row["digest"] = digest(output)
    result["ops"] = rows
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
