"""Command-line orchestrator.

Subcommands load surface data, run computations or verification suites,
and emit deterministic reports.  Exit status 0 means every selected check
passed; 1 a check failed; 2 an input could not be read or parsed.
HOLOMON_PRECISION overrides the default floating digits.
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction

import click

from . import checks as checksuites
from . import holonomy
from .blocks import default_digits, sphere4_block, torus1_block
from .plotting import emit_plot
from .reference import reference_curves
from .report import Report
from .surfaces import flip as flip_op
from .surfaces import (
    reference_triangulation,
    surface_from_json,
    surface_to_json,
    validate_dehn,
)
from .tau import sigma_pvi_residual, tau_series

PASS, FAIL, BADINPUT = 0, 1, 2


def _write_report(rep_or_list, fmt: str, out):
    reports = rep_or_list if isinstance(rep_or_list, list) else [rep_or_list]
    if fmt == "csv":  # one header for the whole output, so it parses as one table
        text = "".join(r.to_csv(header=i == 0) for i, r in enumerate(reports))
    else:
        text = "".join(r.render(fmt) for r in reports)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"report written to {out}")
        for r in reports:
            click.echo(f"  {r.title}: {'PASS' if r.passed else 'FAIL'}")
    else:
        click.echo(text, nl=False)
    return PASS if all(r.passed for r in reports) else FAIL


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _complex(text: str) -> complex:
    re, _, im = text.partition(",")
    return complex(float(re), float(im or 0))


@click.group()
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
        click.echo(f"error: cannot read {path}", err=True)
        sys.exit(BADINPUT)
    except Exception as exc:  # noqa: BLE001
        click.echo(f"error: invalid surface file: {exc}", err=True)
        sys.exit(BADINPUT)
    from .surfaces import dual_fat_graph

    fg = dual_fat_graph(tri)
    for name, cp in curves.items():
        try:
            cp.resolve(fg)
        except ValueError as exc:
            click.echo(f"error: curve {name!r} invalid: {exc}", err=True)
            sys.exit(BADINPUT)
    click.echo(f"valid: {tri!r}, {len(curves)} curves"
               + (", pants data present" if pants else ""))
    sys.exit(PASS)


@surface.command("export")
@click.option("--surface", "name", type=click.Choice(["c11", "c04", "c05"]),
              default="c11", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def surface_export(name, out):
    """Write a reference triangulation (with curated curves) as JSON."""
    tri = reference_triangulation(name)
    curves = reference_curves(name) if name != "c05" else {}
    text = surface_to_json(tri, curves)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"written to {out}")
    else:
        click.echo(text)


@main.command()
@click.option("--surface", "name", type=click.Choice(["c11", "c04"]), default="c11",
              show_default=True)
@click.option("--curve", "curve_name", default="s", show_default=True)
def trace(name, curve_name):
    """Print the trace polynomial of a curated curve."""
    tri = reference_triangulation(name)
    curves = reference_curves(name)
    if curve_name not in curves:
        click.echo(f"error: unknown curve {curve_name!r}; have {sorted(curves)}",
                   err=True)
        sys.exit(BADINPUT)
    p = holonomy.trace_function(tri, curves[curve_name])
    click.echo(f"# doubled exponent vector -> coefficient (exponents in half units)")
    for exps, c in p.sorted_terms():
        click.echo(f"{list(exps)} {c.numerator}/{c.denominator}")
    sys.exit(PASS)


@main.command("flip")
@click.option("--surface", "name", type=click.Choice(["c11", "c04", "c05"]),
              default="c11", show_default=True)
@click.option("--edge", type=int, required=True)
def flip_cmd(name, edge):
    """Flip an edge of a reference triangulation and print the result."""
    tri = reference_triangulation(name)
    try:
        tri2 = flip_op(tri, edge)
    except Exception as exc:  # noqa: BLE001
        click.echo(f"error: {exc}", err=True)
        sys.exit(BADINPUT)
    click.echo(surface_to_json(tri2))
    sys.exit(PASS)


@main.command("dehn")
@click.option("--surface", "name", type=click.Choice(["c11", "c04"]), default="c04",
              show_default=True)
@click.option("--params", required=True,
              help="comma-separated r:s pairs per cut curve, e.g. '0:1'")
def dehn_cmd(name, params):
    """Validate Dehn parameters against the reference pants decomposition."""
    from .surfaces import PantsDecomposition, Surface

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
        click.echo("error: params must look like '2:0' or '2:0,1:1'", err=True)
        sys.exit(BADINPUT)
    if len(dp) > pd.n_curves:
        click.echo(f"error: {name} has {pd.n_curves} cut curve(s), got {len(dp)} "
                   "r:s pairs", err=True)
        sys.exit(BADINPUT)
    violations = validate_dehn(pd, dp)
    if violations:
        for v in violations:
            click.echo(f"violation {v.constraint} at {v.location}: {v.detail}")
        sys.exit(FAIL)
    click.echo("valid")
    sys.exit(PASS)


# -- verification suites --------------------------------------------------------


@main.group()
def verify():
    """Identity verification suites."""


_fmt_opt = click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
                        default="text", show_default=True)
_out_opt = click.option("--out", type=click.Path(), default=None)


@verify.command("classical-relations")
@click.option("--surface", "name", type=click.Choice(["c11", "c04", "all"]),
              default="all", show_default=True)
@_fmt_opt
@_out_opt
def verify_classical(name, fmt, out):
    surfaces = ("c11", "c04") if name == "all" else (name,)
    rep = checksuites.classical_checks(surfaces)
    rep2 = checksuites.mutation_checks(surfaces)
    sys.exit(_write_report([rep, rep2], fmt, out))


@verify.command("quantum-relations")
@click.option("--surface", "name", type=click.Choice(["c11", "c04", "all"]),
              default="all", show_default=True)
@_fmt_opt
@_out_opt
def verify_quantum(name, fmt, out):
    surfaces = ("c11", "c04") if name == "all" else (name,)
    sys.exit(_write_report(checksuites.quantum_checks(surfaces), fmt, out))


@verify.command("mutation")
@click.option("--surface", "name", type=click.Choice(["c11", "c04", "all"]),
              default="all", show_default=True)
@_fmt_opt
@_out_opt
def verify_mutation(name, fmt, out):
    surfaces = ("c11", "c04") if name == "all" else (name,)
    sys.exit(_write_report(checksuites.mutation_checks(surfaces), fmt, out))


@verify.command("pants-rep")
@click.option("--surface", "name", type=click.Choice(["c11", "c04"]), default="c04",
              show_default=True)
@click.option("--b2", default=None, help="deformation parameter as 're,im'")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--draws", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--sites-csv", type=click.Path(), default=None,
              help="also write per-site residuals (site, relation, residual)")
@_fmt_opt
@_out_opt
def verify_pants(name, b2, seed, draws, tol, sites_csv, fmt, out):
    import dataclasses
    import random as _random

    from . import pantsrep as _pr

    try:
        b2v = _complex(b2) if b2 else None
        if b2v is not None and not cmath.isfinite(b2v):
            raise ValueError("b2 must be finite")
        rep = checksuites.pants_checks(name, seed=seed, draws=draws, tol=tol, b2=b2v)
        if sites_csv:
            p = _pr.random_params(name, _random.Random(seed))
            if b2v is not None:
                p = dataclasses.replace(p, b2=b2v)
            table = _pr.residual_table(p, name)
    except ValueError as exc:
        # with the default b2 every draw is generic; a rejection is the user's b2
        if not b2:
            raise
        click.echo(f"error: --b2 {b2}: {exc}", err=True)
        sys.exit(BADINPUT)
    if sites_csv:
        import mpmath as mp

        rows = ["site,relation,residual"]
        for site, degree, r in table:
            rows.append(f"{site},{degree},{mp.nstr(r, 6)}")
        with open(sites_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        click.echo(f"site residuals written to {sites_csv}")
    sys.exit(_write_report(rep, fmt, out))


@verify.command("bpz")
@click.option("--b2", default="2/7", show_default=True,
              help="rational deformation parameter")
@click.option("--order", type=click.IntRange(min=0), default=8, show_default=True)
@_fmt_opt
@_out_opt
def verify_bpz(b2, order, fmt, out):
    try:
        b2v = _fraction(b2)
        if b2v == 0:
            raise ValueError("b2 must be nonzero")
    except (ValueError, ZeroDivisionError) as exc:
        click.echo(f"error: --b2 {b2}: {exc}", err=True)
        sys.exit(BADINPUT)
    rep = checksuites.bpz_checks(b2v, order)
    rep2 = checksuites.virasoro_checks(b2v)
    sys.exit(_write_report([rep2, rep], fmt, out))


@verify.command("all")
@click.option("--seed", type=int, default=0, show_default=True)
@_fmt_opt
@_out_opt
def verify_all(seed, fmt, out):
    sys.exit(_write_report(checksuites.all_checks(seed=seed), fmt, out))


# -- series commands --------------------------------------------------------------


@main.command()
@click.argument("kind", type=click.Choice(["sphere4", "torus1"]))
@click.option("--weights", required=True,
              help="comma-separated weights: sphere4 wants d1,d2,d3,d4,dbeta; "
                   "torus1 wants d0,dbeta (rationals)")
@click.option("--central-charge", "-c", "cc", default="25/2", show_default=True)
@click.option("--order", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--plot", type=click.Path(), default=None)
def block(kind, weights, cc, order, out, plot):
    """Compute a chiral partition-function series."""
    try:
        ws = [_fraction(w) for w in weights.split(",")]
        c = _fraction(cc)
    except ValueError:
        click.echo("error: weights must be rationals like 3/5", err=True)
        sys.exit(BADINPUT)
    try:
        if kind == "sphere4":
            if len(ws) != 5:
                raise ValueError("sphere4 needs d1,d2,d3,d4,dbeta")
            blk = sphere4_block(*ws, c, N=order)
        else:
            if len(ws) != 2:
                raise ValueError("torus1 needs d0,dbeta")
            blk = torus1_block(*ws, c, N=order)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(BADINPUT)
    lines = [f"# channel={blk.channel} mode={blk.mode} "
             f"leading_exponent={blk.leading_exponent}"]
    for k, ck in enumerate(blk.coeffs):
        if isinstance(ck, Fraction):
            lines.append(f"{k} {ck.numerator}/{ck.denominator}")
        else:
            lines.append(f"{k} {ck}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"series written to {out}")
    else:
        click.echo(text, nl=False)
    if plot:
        partial = []
        total = 0.0
        for ck in blk.coeffs:
            total += float(ck)
            partial.append(total)
        emit_plot(partial, plot, title=f"{kind} partial sums at q=1",
                  xlabel="order", ylabel="partial sum")
        click.echo(f"plot written to {plot}")
    sys.exit(PASS)


@main.command("tau")
@click.option("--lam", "--lambda", "lam", required=True, help="internal momentum (rational)")
@click.option("--kappa", required=True, help="conjugate angle (rational or float)")
@click.option("--theta", default="1/3,2/7,3/11,5/13", show_default=True,
              help="external momenta th0,tht,th1,thinf")
@click.option("--order", type=click.IntRange(min=0), default=6, show_default=True)
@click.option("--shifts", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--digits", type=click.IntRange(min=1), default=None)
@click.option("--normalization", type=click.Choice(["isomonodromic", "plain"]),
              default="isomonodromic", show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--plot", type=click.Path(), default=None)
def tau_cmd(lam, kappa, theta, order, shifts, digits, normalization, out, plot):
    """Shift-summed series and its deformation-equation residual."""
    import mpmath as mp

    try:
        lamv = _fraction(lam)
        kapv = _fraction(kappa) if "/" in kappa else float(kappa)
        thetas = tuple(_fraction(x) for x in theta.split(","))
        if len(thetas) != 4:
            raise ValueError("theta needs four entries")
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(BADINPUT)
    try:
        digits = digits or default_digits()
        ts = tau_series(thetas, lamv, kapv, N=order, M=shifts, digits=digits,
                        normalization=normalization)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(BADINPUT)
    res = sigma_pvi_residual(ts) if normalization == "isomonodromic" else {}
    lines = [f"# mode={ts.mode} leading_exponent={ts.leading_exponent}"]
    for (m, j), v in sorted(ts.series.terms.items()):
        lines.append(f"{m} {j} {v}")
    if res:
        with mp.workdps(digits):
            worst = max(abs(v) for v in res.values())
            lines.append(f"# deformation-equation residual (worst slot): "
                         f"{mp.nstr(worst, 6)}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"series written to {out}")
        if res:
            click.echo(lines[-1][2:])
    else:
        click.echo(text, nl=False)
    if plot and res:
        with mp.workdps(digits):
            decay = sorted((j, float(abs(v))) for (m, j), v in res.items())
        emit_plot(decay, plot, title="residual by order", xlabel="order",
                  ylabel="residual", logy=True)
        click.echo(f"plot written to {plot}")
    sys.exit(PASS)


@main.command("report")
@click.argument("path", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
def report_cmd(path, fmt):
    """Re-render JSON reports in another format.  The file may hold several
    reports back to back, as `verify all --format json` writes them."""
    import json

    from .report import CheckResult

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().lstrip()
    except FileNotFoundError:
        click.echo(f"error: cannot read {path}", err=True)
        sys.exit(BADINPUT)
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file or bytes that are not UTF-8
        click.echo(f"error: bad report file: {exc}", err=True)
        sys.exit(BADINPUT)
    decode, reports = json.JSONDecoder().raw_decode, []
    try:
        while True:
            doc, end = decode(text)
            rep = Report(doc.get("title", "report"))
            for c in doc.get("checks", []):
                rep.add(CheckResult(c["name"], c["tag"], c["status"], c.get("witness", "")))
            notes = doc.get("notes", [])
            if not isinstance(notes, list):
                raise TypeError(f"notes must be a list, not {type(notes).__name__}")
            for n in notes:
                rep.note(n)
            reports.append(rep)
            text = text[end:].lstrip()
            if not text:
                break
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # bad JSON, not an object, a missing field, an unregistered tag,
        # a bad status or notes that are not a list
        click.echo(f"error: bad report file: {exc}", err=True)
        sys.exit(BADINPUT)
    sys.exit(_write_report(reports, fmt, None))


if __name__ == "__main__":
    main()
