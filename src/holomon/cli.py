"""Command-line orchestrator.

Subcommands load surface data, run computations or verification suites,
and emit deterministic reports.  Exit status 0 means every selected check
passed; 1 a check failed; 2 an input could not be read or parsed, or an
output file could not be written; 3 an unexpected error, which is a bug.
Commands report bad input by raising `BadInput`, option values are read
by `_Parsed` types, and the group's `invoke` is the one place where any
other exception becomes an exit status.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
import sys
from fractions import Fraction
from itertools import accumulate

import click
import mpmath as mp

from . import checks as checksuites
from . import holonomy, pantsrep
from .blocks import sphere4_block, torus1_block
from .plotting import plot_svg
from .reference import reference_curves
from .report import load_reports, render_reports, worst_residual
from .surfaces import (FlipError, PantsDecomposition, Surface, reference_triangulation,
                       surface_from_json, surface_to_json, validate_dehn)
from .surfaces import flip as flip_op
from .tau import sigma_pvi_residual, tau_series

PASS, FAIL, BADINPUT, INTERNAL = 0, 1, 2, 3


class BadInput(click.ClickException):
    """An input the user can correct: one ``error:`` line and exit status 2."""

    exit_code = BADINPUT

    def show(self, file=None):
        click.echo(f"error: {self.format_message()}", file=file, err=True)


class _Boundary(click.Group):
    """Turns every exception that escapes a command into an exit status.
    Commands print exact integers of any length, so the interpreter's
    limit on int-to-str conversion is lifted while one runs."""

    def invoke(self, ctx):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return super().invoke(ctx)
        # click's Exit and Abort are RuntimeErrors: re-raise them before the catch-all
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except OSError as exc:  # input files are read inside the commands
            raise BadInput(f"cannot write output: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - a bug, reported in one line
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(INTERNAL)
        finally:
            sys.set_int_max_str_digits(limit)


class _Parsed(click.ParamType):
    """An option value read by ``parse``, whose ValueError or
    ZeroDivisionError is bad input named after the option."""

    def __init__(self, name: str, parse):
        self.name, self.parse = name, parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadInput(f"{param.opts[0]} {value}: {exc}") from exc


def _finite(value):
    if not cmath.isfinite(value):
        raise ValueError("must be finite")
    return value


# a rational option's numerator and denominator may have at most this
# many digits, and `tau --digits` is at most this; the exact blocks, the
# shift weights and the Gamma values of the weights grow with them
MAX_DIGITS = 1000


def _rational(text: str) -> Fraction:
    """A Fraction whose numerator and denominator have at most MAX_DIGITS
    digits.  An exponent past len(text) + MAX_DIGITS, which gives any
    nonzero mantissa more, is refused first, zero mantissas too, so that
    Fraction never builds the huge 10**exponent."""
    exponent = text.lower().partition("e")[2]
    try:
        out_of_range = abs(int(exponent)) > len(text) + MAX_DIGITS
    except ValueError:  # no integer exponent: Fraction names a bad literal
        out_of_range = False
    if out_of_range:
        raise ValueError(f"exponent {exponent.strip()} is out of range")
    value = Fraction(text)
    if max(abs(value.numerator), value.denominator) >= 10 ** MAX_DIGITS:
        raise ValueError(f"numerator or denominator has more than {MAX_DIGITS} digits")
    return value


def _rationals(text: str) -> list:
    return [_rational(x) for x in text.split(",")]


def _real(text: str):
    """A rational when written with '/', else a finite float."""
    return _rational(text) if "/" in text else _finite(float(text))


def _complex(text: str) -> complex:
    """A finite 're,im' pair; 're' alone is real."""
    re, _, im = text.partition(",")
    return _finite(complex(float(re), float(im or 0)))


def _tolerance(value) -> float:
    value = _finite(float(value))
    if value <= 0:
        raise ValueError("must be above 0")
    return value


RATIONAL = _Parsed("rational", _rational)
RATIONALS = _Parsed("rationals", _rationals)


def _emit(text: str, out, what: str):
    """Write ``text`` to the file ``out`` and say so, or else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"{what} written to {out}".lstrip())
    else:  # a file gets the text as it is; stdout always ends with a newline
        click.echo(text, nl=not text.endswith("\n"))


def _write_report(reports: list, fmt: str, out):
    """Emit the reports; exit 1 unless every check passed."""
    _emit(render_reports(reports, fmt), out, "report")
    if out:
        for r in reports:
            click.echo(f"  {r.title}: {'PASS' if r.passed else 'FAIL'}")
    if not all(r.passed for r in reports):
        sys.exit(FAIL)


@click.group(cls=_Boundary)
def main():
    """Exact verification toolkit for quantized trace algebras and
    conformal-block gluing."""


# -- surfaces -----------------------------------------------------------------


@main.group()
def surface():
    """Surface-file operations."""


@surface.command("validate")
@click.argument("path", type=click.Path())
def surface_validate(path):
    """Validate a surface file (triangulation, curves, pants data)."""
    try:
        with open(path, encoding="utf-8") as fh:
            tri, curves, pants = surface_from_json(fh.read())
    except FileNotFoundError:
        raise BadInput(f"cannot read {path}") from None
    except Exception as exc:  # noqa: BLE001 - whatever the parser rejects
        raise BadInput(f"invalid surface file: {exc}") from exc
    for name, cp in curves.items():
        try:
            cp.resolve(tri)
        except ValueError as exc:
            raise BadInput(f"curve {name!r} invalid: {exc}") from exc
    click.echo(f"valid: {tri!r}, {len(curves)} curves"
               + (", pants data present" if pants else ""))


@surface.command("export")
@click.option("--surface", "name", type=click.Choice(["c11", "c04", "c05"]),
              default="c11", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def surface_export(name, out):
    """Write a reference triangulation (with curated curves) as JSON."""
    tri = reference_triangulation(name)
    curves = reference_curves(name) if name != "c05" else {}
    _emit(surface_to_json(tri, curves), out, "")


@main.command()
@click.option("--surface", "name", type=click.Choice(["c11", "c04"]), default="c11",
              show_default=True)
@click.option("--curve", "curve_name", default="s", show_default=True)
def trace(name, curve_name):
    """Print the trace polynomial of a curated curve."""
    tri = reference_triangulation(name)
    curves = reference_curves(name)
    if curve_name not in curves:
        raise BadInput(f"unknown curve {curve_name!r}; have {sorted(curves)}")
    p = holonomy.trace_function(tri, curves[curve_name])
    click.echo(f"# doubled exponent vector -> coefficient (exponents in half units)")
    for exps, c in p.sorted_terms():
        click.echo(f"{list(exps)} {c.numerator}/{c.denominator}")


@main.command("flip")
@click.option("--surface", "name", type=click.Choice(["c11", "c04", "c05"]),
              default="c11", show_default=True)
@click.option("--edge", type=int, required=True)
def flip_cmd(name, edge):
    """Flip an edge of a reference triangulation and print the result."""
    tri = reference_triangulation(name)
    try:
        tri2 = flip_op(tri, edge)
    except FlipError as exc:
        raise BadInput(str(exc)) from exc
    click.echo(surface_to_json(tri2))


@main.command("dehn")
@click.option("--surface", "name", type=click.Choice(["c11", "c04"]), default="c04",
              show_default=True)
@click.option("--params", required=True,
              help="comma-separated r:s pairs per cut curve, e.g. '0:1'")
def dehn_cmd(name, params):
    """Validate Dehn parameters against the reference pants decomposition."""
    if name == "c04":
        pd = PantsDecomposition(Surface(0, 4), [
            [("bdry", 0), ("bdry", 1), ("cut", 0)],
            [("cut", 0), ("bdry", 2), ("bdry", 3)],
        ])
    else:
        pd = PantsDecomposition(Surface(1, 1), [
            [("cut", 0), ("cut", 0), ("bdry", 0)],
        ])
    dp = {}
    try:
        for i, pair in enumerate(params.split(",")):
            r, _, s = pair.partition(":")
            dp[i] = (int(r), int(s))
    except ValueError:
        raise BadInput("params must look like '2:0' or '2:0,1:1'") from None
    if len(dp) > pd.n_curves:
        raise BadInput(f"{name} has {pd.n_curves} cut curve(s), got {len(dp)} r:s pairs")
    violations = validate_dehn(pd, dp)
    if violations:
        for v in violations:
            click.echo(f"violation {v.constraint} at {v.location}: {v.detail}")
        sys.exit(FAIL)
    click.echo("valid")


# -- verification suites --------------------------------------------------------


@main.group()
def verify():
    """Identity verification suites."""


_fmt_opt = click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
                        default="text", show_default=True)
_out_opt = click.option("--out", type=click.Path(), default=None)
# one surface, or "all" for both, passed on as the tuple of surfaces
_surfaces_opt = click.option(
    "--surface", "surfaces", type=click.Choice(["c11", "c04", "all"]), default="all",
    show_default=True,
    callback=lambda ctx, param, name: ("c11", "c04") if name == "all" else (name,))


@verify.command("classical-relations")
@_surfaces_opt
@_fmt_opt
@_out_opt
def verify_classical(surfaces, fmt, out):
    rep = checksuites.classical_checks(surfaces)
    rep2 = checksuites.mutation_checks(surfaces)
    _write_report([rep, rep2], fmt, out)


@verify.command("quantum-relations")
@_surfaces_opt
@_fmt_opt
@_out_opt
def verify_quantum(surfaces, fmt, out):
    _write_report([checksuites.quantum_checks(surfaces)], fmt, out)


@verify.command("mutation")
@_surfaces_opt
@_fmt_opt
@_out_opt
def verify_mutation(surfaces, fmt, out):
    _write_report([checksuites.mutation_checks(surfaces)], fmt, out)


@verify.command("pants-rep")
@click.option("--surface", "name", type=click.Choice(["c11", "c04"]), default="c04",
              show_default=True)
@click.option("--b2", type=_Parsed("complex", _complex), default=None,
              help="deformation parameter as 're,im' for numeric draws (exact without it)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--draws", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--tol", type=_Parsed("tolerance", _tolerance), default=1e-9,
              show_default=True, help="relative residual bound of the --b2 rows")
@click.option("--sites-csv", type=click.Path(), default=None,
              help="also write a numeric draw's per-site residuals (site, relation, residual)")
@_fmt_opt
@_out_opt
def verify_pants(name, b2, seed, draws, tol, sites_csv, fmt, out):
    try:
        rep = checksuites.pants_checks(name, seed=seed, draws=draws, tol=tol, b2=b2)
        if sites_csv:
            p = pantsrep.random_params(name, random.Random(seed))
            if b2 is not None:
                p = dataclasses.replace(p, b2=b2)
            table = pantsrep.residual_table(p, name, (2, 3), range(-2, 3))
    except ValueError as exc:
        # with the default b2 every draw is generic; a rejection is the user's b2
        if b2 is None:
            raise
        raise BadInput(f"--b2 {b2.real:g},{b2.imag:g}: {exc}") from exc
    if sites_csv:
        rows = ["site,relation,residual"]
        rows += [f"{site},{degree},{mp.nstr(r, 6)}" for site, degree, r in table]
        _emit("\n".join(rows) + "\n", sites_csv, "site residuals")
    _write_report([rep], fmt, out)


@verify.command("bpz")
@click.option("--b2", type=RATIONAL, default="2/7", show_default=True,
              help="rational deformation parameter")
@click.option("--order", type=click.IntRange(min=0), default=8, show_default=True)
@_fmt_opt
@_out_opt
def verify_bpz(b2, order, fmt, out):
    if b2 == 0:
        raise BadInput(f"--b2 {b2}: b2 must be nonzero")
    rep = checksuites.bpz_checks(b2, order)
    _write_report([checksuites.virasoro_checks(b2), rep], fmt, out)


@verify.command("all")
@click.option("--seed", type=int, default=0, show_default=True)
@_fmt_opt
@_out_opt
def verify_all(seed, fmt, out):
    _write_report(checksuites.all_checks(seed=seed), fmt, out)


# -- series commands --------------------------------------------------------------


@main.command()
@click.argument("kind", type=click.Choice(["sphere4", "torus1"]))
@click.option("--weights", type=RATIONALS, required=True,
              help="comma-separated weights: sphere4 wants d1,d2,d3,d4,dbeta; "
                   "torus1 wants d0,dbeta (rationals)")
@click.option("--central-charge", "-c", "cc", type=RATIONAL, default="25/2",
              show_default=True)
@click.option("--order", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--plot", type=click.Path(), default=None)
def block(kind, weights, cc, order, out, plot):
    """Compute a chiral partition-function series."""
    want = {"sphere4": "d1,d2,d3,d4,dbeta", "torus1": "d0,dbeta"}[kind]
    if len(weights) != want.count(",") + 1:
        raise BadInput(f"{kind} needs {want}")
    build = sphere4_block if kind == "sphere4" else torus1_block
    try:
        blk = build(*weights, cc, N=order)
    except ValueError as exc:  # a singular Gram matrix
        raise BadInput(str(exc)) from exc
    if plot:
        # drawn in floats, so checked before any output is written; once a
        # partial sum is not finite, neither is the last
        try:
            partial = list(accumulate(map(float, blk.coeffs)))
            if not math.isfinite(partial[-1]):
                raise OverflowError
        except OverflowError:
            raise BadInput("--plot draws the partial sums as floats, and this "
                           "series overflows a float") from None
    lines = [f"# channel={blk.channel} leading_exponent={blk.leading_exponent}"]
    lines += [f"{k} {ck.numerator}/{ck.denominator}" for k, ck in enumerate(blk.coeffs)]
    _emit("\n".join(lines) + "\n", out, "series")
    if plot:
        _emit(plot_svg(enumerate(partial), f"{kind} partial sums at q=1", "order",
                       "partial sum"), plot, "plot")


@main.command("tau")
@click.option("--lam", "--lambda", "lam", type=RATIONAL, required=True,
              help="internal momentum (rational)")
@click.option("--kappa", type=_Parsed("real", _real), required=True,
              help="conjugate angle (rational or float)")
@click.option("--theta", type=RATIONALS, default="1/3,2/7,3/11,5/13", show_default=True,
              help="external momenta th0,tht,th1,thinf")
@click.option("--order", type=click.IntRange(min=0), default=6, show_default=True)
@click.option("--shifts", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--digits", type=click.IntRange(min=1, max=MAX_DIGITS), default=50,
              show_default=True)
@click.option("--normalization", type=click.Choice(["isomonodromic", "plain"]),
              default="isomonodromic", show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--plot", type=click.Path(), default=None)
def tau_cmd(lam, kappa, theta, order, shifts, digits, normalization, out, plot):
    """Shift-summed series and its deformation-equation residual."""
    if len(theta) != 4:
        raise BadInput("theta needs four entries")
    # the residual keeps the grades up to order - 2, and only the weighted
    # sum is meant to solve the equation
    residual = normalization == "isomonodromic" and order >= 2
    if plot and not residual:
        raise BadInput("--plot draws the deformation-equation residual, which needs "
                       "--normalization isomonodromic and --order 2 or more")
    try:
        ts = tau_series(tuple(theta), lam, kappa, N=order, M=shifts, digits=digits,
                        normalization=normalization)
    except ValueError as exc:  # an infinite weight, or a degenerate shift 0
        raise BadInput(str(exc)) from exc
    lines = [f"# leading_exponent={ts.leading_exponent}"]
    with mp.workdps(digits):
        lines += [f"{m} {j} {mp.nstr(v, digits)}"
                  for (m, j), v in sorted(ts.series.terms.items())]
    if residual:
        # an exactly vanishing slot is not stored, so every slot may be gone
        try:
            res = sigma_pvi_residual(ts)
        except ValueError as exc:  # a coefficient beyond the decimal range
            raise BadInput(str(exc)) from exc
        with mp.workdps(digits):
            worst = worst_residual(abs(v) for v in res.values())
            lines.append(f"# deformation-equation residual (worst slot): "
                         f"{mp.nstr(worst, 6)}")
    _emit("\n".join(lines) + "\n", out, "series")
    if out and residual:
        click.echo(lines[-1][2:])
    if plot:  # the slots are real
        decay = sorted((j, abs(float(v))) for (m, j), v in res.items())
        _emit(plot_svg(decay, "residual by order", "order", "residual", logy=True),
              plot, "plot")


@main.command("report")
@click.argument("path", type=click.Path())
@_fmt_opt
def report_cmd(path, fmt):
    """Re-render JSON reports in another format.  The file may hold several
    reports back to back, as `verify all --format json` writes them."""
    try:
        with open(path, encoding="utf-8") as fh:
            reports = load_reports(fh.read())
    except (OSError, ValueError) as exc:
        # unreadable, not UTF-8, or not what `--format json` writes
        raise BadInput(f"bad report file: {exc}") from exc
    _write_report(reports, fmt, None)


if __name__ == "__main__":
    main()
