"""Deterministic check reports.

Each check carries a stable identity tag from the registry below; reports
serialize to text, JSON or CSV with a fixed field order and fixed float
formatting, and `load_reports` reads back what `to_json` writes.
Wall-clock runtimes are kept on the objects for interactive display but
are excluded from serialized reports so that identical inputs produce
identical bytes.  `worst_residual` is the one worst of several residuals
that the suites and the CLI report, and a NaN among them wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import mpmath as mp

# registry of identity tags a check may carry: exactly the tags the suites
# emit (the tests compare it with what `verify all` writes)
KNOWN_TAGS = frozenset({
    "trace-positivity",
    "cubic-relation",
    "quartic-relation",
    "bracket-derivative",
    "mutation-covariance",
    "mutation-composition",
    "skein-product",
    "q-commutator",
    "q-cubic",
    "q-classical-limit",
    "bar-invariance",
    "flip-commutation",
    "shift-residual-quadratic",
    "shift-residual-cubic",
    "kac-level2",
    "null-vector",
    "degenerate-ode",
    "hypergeometric-match",
    "vacuum-insertion",
    "tau-deformation",
    "tau-truncation",
})


@dataclass
class CheckResult:
    name: str
    tag: str
    status: str              # "pass" | "fail" | "error"
    witness: str
    runtime: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.name, str) and isinstance(self.witness, str)):
            raise TypeError(f"name and witness must be strings: {self.name!r}, {self.witness!r}")
        if self.tag not in KNOWN_TAGS:
            raise ValueError(f"unregistered identity tag {self.tag!r}")
        if self.status not in ("pass", "fail", "error"):
            raise ValueError(f"bad status {self.status!r}")


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list, init=False)
    notes: list = field(default_factory=list)

    def add(self, check: CheckResult):
        self.checks.append(check)

    def note(self, text: str):
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_text(self) -> str:
        lines = [f"# {self.title}"]
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            lines.append(f"{c.status.upper():5s} {c.name.ljust(width)}  [{c.tag}]"
                         + (f"  {c.witness}" if c.witness else ""))
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} "
                     f"({sum(c.status == 'pass' for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "title": self.title,
            "checks": [
                {"name": c.name, "tag": c.tag, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "notes": list(self.notes),
            "passed": self.passed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_csv(self, header: bool) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(["name", "tag", "status", "witness"])
        writer.writerows([c.name, c.tag, c.status, c.witness] for c in self.checks)
        return buf.getvalue()


def render_reports(reports, fmt: str) -> str:
    """Render several reports as one document in ``fmt`` (text, json or
    csv); CSV output carries one header for the whole of it, so it parses
    as a single table."""
    if fmt == "text":
        return "".join(r.to_text() for r in reports)
    if fmt == "json":
        return "".join(r.to_json() for r in reports)
    if fmt == "csv":
        return "".join(r.to_csv(header=i == 0) for i, r in enumerate(reports))
    raise ValueError(f"unknown format {fmt!r}")


def load_reports(text: str) -> list:
    """Read the reports that `to_json` wrote back to back into ``text``.

    Raises ValueError on anything `to_json` could not have written: bad
    JSON, a report with no check, a check without its ``name``, ``tag``
    or ``status``, a field of the wrong type, an unregistered tag or a
    bad status.  A missing title, notes list or witness takes its default.
    """
    decode, reports, text = json.JSONDecoder().raw_decode, [], text.lstrip()
    try:
        while True:
            doc, end = decode(text)
            title, notes = doc.get("title", "report"), doc.get("notes", [])
            if not (isinstance(title, str) and isinstance(notes, list)
                    and all(isinstance(n, str) for n in notes)):
                raise ValueError("title must be a string and notes a list of strings")
            rep = Report(title, notes=notes)
            for c in doc.get("checks", []):
                rep.add(CheckResult(c["name"], c["tag"], c["status"], c.get("witness", "")))
            if not rep.checks:
                raise ValueError("a report holds no check")
            reports.append(rep)
            text = text[end:].lstrip()
            if not text:
                return reports
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc


def worst_residual(residuals):
    """The largest of some residuals, 0 for none, or a NaN among them: max
    keeps whichever side of a NaN comparison came first, and a NaN must
    never pass."""
    residuals = list(residuals)
    nans = [r for r in residuals if mp.isnan(r)]
    return nans[0] if nans else max(residuals, default=mp.mpf(0))


def fmt_residual(x) -> str:
    """Fixed-notation scientific formatting of an mpmath number, stable
    across runs."""
    return mp.nstr(abs(x), 3, strip_zeros=False)
