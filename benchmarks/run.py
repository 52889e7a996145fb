"""holomon benchmark: one command for every end-to-end or per-layer metric.

    python3 benchmarks/run.py --workload tau-sum --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh interpreter (worker.py), one at a time, so no
pass reuses a cache filled by an earlier one, and set-up is measured from
interpreter start.  Passes repeat until --seconds is spent, after a
minimum that gives the latency percentiles enough samples.  Every op's
output is checked by the benchmark itself, and must be identical in every
pass, traced or not.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics and the tracing overhead.
End-to-end times are seconds at the reference speed of speedclock.py, so
a neighbour slowing the shared host does not show as a slower program;
the wall times are printed beside them.
Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The full record
of a run, environment included, goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_PASSES = 3
TAIL_SAMPLES = 35        # pooled op latencies the minimum passes must give
SETUP_SAMPLES = 9        # set-ups per run, topped up with set-up-only starts
HARD_LIMIT_S = 165       # the whole run, whatever --seconds says

sys.path.insert(0, str(HERE))
import speedclock  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402

E2E_UNITS = {"setup_s": "s", "verify_s": "s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    src = ROOT / "src" / "holomon"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": "0",
        "reference_probe_s": speedclock.REF_PROBE_S,
        "probe_tick_s": speedclock.TICK_S,
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git so
    nothing outside the checkout is consulted."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return None
    return ref


def nearest_rank(values: list, p: float):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def min_passes(n_ops: int) -> int:
    return max(MIN_PASSES, math.ceil(TAIL_SAMPLES / n_ops))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max((p for p in range(50, 100) if n - math.ceil(p * n / 100) >= 10),
               default=50)


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, *flags) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time limit of {HARD_LIMIT_S} s reached")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed)] + list(flags)
        spawned = time.time()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass exceeded the {HARD_LIMIT_S} s limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(runner: Runner, seconds: float, trace: bool) -> list:
    """Passes until the minimum is met and another would overrun --seconds.
    With tracing, passes alternate traced, untraced, traced, ..."""
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 0
        flags = []
        if traced:
            flags.append("--trace")
            if not any(p["traced"] for p in passes):
                RESULTS.mkdir(exist_ok=True)
                flags += ["--spans", str(RESULTS / f"{runner.workload}-seed{runner.seed}"
                                                    ".spans.json")]
        result = runner.spawn(*flags)
        result["traced"] = traced
        passes.append(result)
        needed = MIN_PASSES if trace else min_passes(len(passes[0]["ops"]))
        elapsed = time.monotonic() - start
        if len(passes) >= needed and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def tally(passes: list) -> tuple:
    """(attempted, failures): an op fails when its check fails, it raises,
    or its output differs from the first pass's."""
    reference = [(op["name"], op["digest"]) for op in passes[0]["ops"]]
    attempted, failures = 0, []
    for i, p in enumerate(passes):
        if [op["name"] for op in p["ops"]] != [name for name, _ in reference]:
            raise BenchError("passes ran different op lists")
        for op, (_, digest) in zip(p["ops"], reference):
            attempted += 1
            why = ("check failed" if op["error"] is None else op["error"]) \
                if not op["ok"] else ("output differs from pass 0"
                                      if op["digest"] != digest else None)
            if why:
                failures.append({"pass": i, "traced": p["traced"], "op": op["name"],
                                 "why": why})
    return attempted, failures


def _line(name, value, unit, note=""):
    return f"  {name:30s} {value:>14.6g} {unit:7s} {note}"


def end_to_end(runner: Runner, passes: list, attempted: int, failed: int) -> tuple:
    """(metrics, lines): the named end-to-end metrics, and a line for each
    with its sample count.  failed_frac and margin_decades get lines only:
    the first is carried by failed/attempted, the second is undefined on
    exact workloads."""
    setups = [{k: p[k] for k in ("setup_s", "setup_wall_s")} for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("--setup-only"))
    latencies = [op["ms"] for p in passes for op in p["ops"]]
    n_ops = len(passes[0]["ops"])
    # Each op's own median across passes first: it filters the pass-to-pass
    # swings of a shared machine out of the median op.
    op_medians = [statistics.median(p["ops"][i]["ms"] for p in passes)
                  for i in range(n_ops)]
    tail_p = tail_percentile(n_ops * min_passes(n_ops))
    beyond = len(latencies) - math.ceil(tail_p * len(latencies) / 100)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "verify_s": statistics.median(p["verify_s"] for p in passes),
        "op_p50_ms": statistics.median(op_medians),
        # The percentile within each pass, then the median over passes: one
        # op slowed once by the host does not move it.
        "op_tail_ms": statistics.median(
            nearest_rank([op["ms"] for op in p["ops"]], tail_p) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "verify_s": f"median of {len(passes)} passes",
        "op_p50_ms": f"median of {n_ops} ops' medians over {len(passes)} passes",
        "op_tail_ms": f"p{tail_p} of each pass's {n_ops} ops, median over "
                      f"{len(passes)} passes; {beyond} of {len(latencies)} beyond",
        "peak_rss_mb": f"median of {len(passes)} pass processes",
    }
    lines = [_line(k, v, E2E_UNITS[k], notes[k]) for k, v in metrics.items()]
    wall = {"setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
            "verify_wall_s": statistics.median(p["verify_wall_s"] for p in passes),
            "op_p50_wall_ms": statistics.median(
                statistics.median(p["ops"][i]["wall_ms"] for p in passes)
                for i in range(n_ops))}
    lines += [_line(k, v, "s" if k.endswith("_s") else "ms", "wall time, same medians")
              for k, v in wall.items()]
    lines.append(_line("probe_share", statistics.median(p["probe_share"] for p in passes),
                       "ratio", "share of a pass spent probing the host's speed"))
    lines.append(_line("failed_frac", failed / attempted, "ratio",
                       f"{failed} of {attempted} ops"))
    margins = [op["margin"] for op in passes[0]["ops"] if op["margin"] is not None]
    lines.append(_line("margin_decades", min(margins), "decades",
                       f"min over {len(margins)} numeric ops") if margins else
                 f"  {'margin_decades':30s} {'n/a':>14s} {'decades':7s} exact workload")
    return metrics, lines


def per_layer(passes: list) -> tuple:
    """(metrics, lines, problems): counts from the traced passes, which must
    agree exactly; times as medians; the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics, problems = {}, []
    for name, unit in LAYER_METRICS.items():
        values = [p["layers"][name] for p in traced]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced passes: {values}")
    metrics["trace_overhead_s"] = statistics.median(p["verify_s"] for p in traced) \
        - statistics.median(p["verify_s"] for p in untraced)
    lines = [_line(k, v, LAYER_METRICS.get(k, "s")) for k, v in metrics.items()]
    lines.append(f"  {len(traced)} traced and {len(untraced)} untraced passes, "
                 f"{traced[0]['spans']} spans per traced pass, benchmark's own time "
                 f"{statistics.median(p['layers']['bench.self_s'] for p in traced):.4g} s")
    return metrics, lines, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the pass that is running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if "HOLOMON_PRECISION" in os.environ:
        # blocks.default_digits() reads it silently wherever digits is not
        # passed, so a run under it would not measure the pinned precision.
        print("HOLOMON_PRECISION is set; unset it to run the benchmark",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "holomon").is_dir():
        print(f"no library source at {ROOT / 'src' / 'holomon'}", file=sys.stderr)
        return 2

    env = environment()
    runner = Runner(args.workload, args.seed, time.monotonic() + HARD_LIMIT_S)
    try:
        passes = run_passes(runner, args.seconds, bool(args.trace))
        attempted, failures = tally(passes)
        if args.trace:
            metrics, lines, problems = per_layer(passes)
        else:
            metrics, lines = end_to_end(runner, passes, attempted, len(failures))
            problems = []
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env.update(mpmath=passes[0]["mpmath"], mpmath_backend=passes[0]["backend"])
    units = dict(LAYER_METRICS, trace_overhead_s="s", **E2E_UNITS)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(passes[0]['ops'])} ops")
    print("\n".join(lines))
    for f in failures[:10]:
        print(f"  FAILED pass {f['pass']}: {f['op']}: {f['why']}")
    for problem in problems:
        print(f"  INCONSISTENT {problem}")

    RESULTS.mkdir(exist_ok=True)
    record = dict(result, env=env, args=vars(args), lines=lines, failures=failures,
                  problems=problems,
                  passes=[{k: p[k] for k in ("traced", "setup_s", "setup_wall_s",
                                             "verify_s", "verify_wall_s",
                                             "probe_share", "peak_rss_mb")}
                          for p in passes],
                  ops=[{"name": op["name"], "margin": op["margin"],
                        "median_ms": statistics.median(p["ops"][i]["ms"]
                                                       for p in passes)}
                       for i, op in enumerate(passes[0]["ops"])])
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
