"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest benchmarks/selftest.py -q

They show that every workload's checker rejects a perturbed output, that a
traced pass gives the same results as an untraced one with counts that
repeat exactly, that layers predicted to be bypassed read zero, that the
speed clock leaves out its own probes, and that the benchmark refuses to
run where it cannot measure the library.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speedclock  # noqa: E402
import workloads as wl  # noqa: E402
from holomon import holonomy, qtorus, reference, surfaces, tau  # noqa: E402
from tracer import METRICS  # noqa: E402


def _op(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


# -- the checkers reject perturbed outputs --------------------------------------

def test_exact_algebra_rejects_wrong_sign():
    ops = wl.exact_algebra(0)
    traces = _op(ops, "c04: traces").run()
    vals = wl._generator_values("c04", traces)
    flipped = dict(vals, u=-vals["u"])
    assert wl.check_relation_zero(holonomy.relation_poly("c04", vals)).ok
    assert not wl.check_relation_zero(holonomy.relation_poly("c04", flipped)).ok

    lhs, rhs = _op(ops, "c04: bracket").run()
    assert wl.check_equal_pair((lhs, rhs)).ok
    assert not wl.check_equal_pair((-lhs, rhs)).ok

    _op(ops, "c04: quantize").run()
    n = surfaces.exchange_matrix(reference.reference_setup("c04")[0])
    qops = {k: qtorus.quantize_trace(v, n) for k, v in flipped.items()}
    assert not wl.check_relation_zero(qtorus.q_relation("c04", 3, qops)).ok


def test_shift_operators_rejects_shifted_residual():
    ops = wl.shift_operators(0)
    residuals = ops[0].run()
    assert wl.check_pants(residuals).ok
    assert not wl.check_pants(tuple(r * mp.mpf(10) ** 25 for r in residuals)).ok
    low, high = _op(ops, "c04: residual falls").run()
    assert wl.check_precision_pair((low, high)).ok
    assert not wl.check_precision_pair((low, low * mp.mpf(10) ** -19)).ok


def test_tau_sum_rejects_unweighted_sum():
    theta, lam, kappa = wl.tau_draw(random.Random(0))
    kwargs = dict(N=wl.TAU_ORDER, M=wl.TAU_SHIFTS[0], digits=wl.TAU_DIGITS)
    weighted = wl._max_residual(tau.tau_series(theta, lam, kappa, **kwargs))
    plain = wl._max_residual(tau.tau_series(theta, lam, kappa, normalization="plain",
                                            **kwargs))
    assert wl.check_tau_residual(weighted).ok
    assert not wl.check_tau_residual(plain).ok
    assert wl.check_tau_negative(plain).ok
    assert not wl.check_tau_negative(weighted).ok
    assert not wl.check_tau_draw((weighted, mp.mpf("1e-9"))).ok


def test_exact_blocks_rejects_nonzero_residual():
    ops = wl.exact_blocks(0)
    fused = _op(ops, "fused channel -1/2").run()
    generic = _op(ops, "generic channel").run()
    assert wl.check_bpz_zero(fused).ok and wl.check_generic_channel(generic).ok
    assert not wl.check_bpz_zero(generic).ok
    assert not wl.check_generic_channel(fused).ok
    frob, coeffs = _op(ops, "Frobenius").run()
    assert wl.check_equal_pair((frob, coeffs)).ok
    assert not wl.check_equal_pair((frob, coeffs[:-1] + [coeffs[-1] + 1])).ok


# -- traced passes ---------------------------------------------------------------

def _worker(workload, *flags):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--spawned", repr(time.time()), *flags],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True,
        text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# The interaction table's predictions of layers a workload never enters.
BYPASSED = {
    "exact-algebra": ("pantsrep", "virasoro", "blocks", "tau"),
    "shift-operators": ("surfaces", "laurent", "holonomy", "qcoeff", "qtorus",
                        "qmutation"),
    "tau-sum": ("pantsrep", "qcoeff", "qtorus", "qmutation"),
    "exact-blocks": ("pantsrep", "qcoeff", "qtorus", "qmutation", "tau"),
}


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_passes_match_and_repeat(workload):
    plain = _worker(workload)
    first = _worker(workload, "--trace")
    second = _worker(workload, "--trace")

    def results(p):
        return [(op["name"], op["ok"], op["margin"], op["digest"]) for op in p["ops"]]

    assert all(op["ok"] for op in plain["ops"])
    assert results(first) == results(plain) == results(second)
    counts = [name for name, unit in METRICS.items() if unit != "s"]
    assert {k: first["layers"][k] for k in counts} == \
        {k: second["layers"][k] for k in counts}
    for layer in BYPASSED[workload]:
        touched = {k: v for k, v in first["layers"].items()
                   if k.startswith(layer + ".") and v}
        assert not touched, f"{layer} should be bypassed on {workload}"
    used = {"exact-algebra": "qcoeff.norm_calls", "shift-operators": "pantsrep.site_calls",
            "tau-sum": "tau.barnesg_calls", "exact-blocks": "virasoro.pairing_calls"}
    assert first["layers"][used[workload]] > 0


# -- refusals and helpers --------------------------------------------------------------

def test_refuses_holomon_precision():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tau-sum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=dict(os.environ, HOLOMON_PRECISION="20"), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tau-sum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 35, 36, 84, 126, 303):
        p = run.tail_percentile(n)
        beyond = n - math.ceil(p * n / 100)
        assert beyond >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10


def test_inputs_follow_the_seed():
    def names(w, seed):
        return [op.name for op in wl.WORKLOADS[w](seed)]

    def first_output(w, seed):
        return wl.WORKLOADS[w](seed)[0].run()

    assert first_output("shift-operators", 3) == first_output("shift-operators", 3)
    assert first_output("shift-operators", 3) != first_output("shift-operators", 4)
    assert names("exact-algebra", 3) == names("exact-algebra", 4)
    assert wl.blocks_draw(random.Random(3)) == \
        wl.blocks_draw(random.Random(3))


def test_speed_clock_scales_to_the_reference_and_leaves_out_its_probes():
    assert speedclock.at_reference(1.0, speedclock.REF_PROBE_S) == 1.0
    assert speedclock.at_reference(1.0, 2 * speedclock.REF_PROBE_S) == 0.5
    assert speedclock.typical([1.0, 1.0, 1.0, 9.0]) == 1.0

    clock = speedclock.SpeedClock().start()
    try:
        readings, wall0 = [clock.now()], time.perf_counter()
        while time.perf_counter() - wall0 < 0.3:
            speedclock.probe()
            readings.append(clock.now())
        wall = time.perf_counter() - wall0
    finally:
        clock.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.ticks >= 5 and 0 < clock.handler_s < wall
    assert all(a < b for a, b in zip(readings, readings[1:]))
    # The same loop at the probe's own speed: the clock reads its wall time
    # without the handler's, scaled to the reference.
    expected = speedclock.at_reference(wall - clock.handler_s, clock.probe_s)
    assert 0.5 < (readings[-1] - readings[0]) / expected < 2
