"""Deterministic check reports.

Each check carries a stable identity tag from the registry below; reports
serialize to text, JSON or CSV with a fixed field order and fixed float
formatting.  Wall-clock runtimes are kept on the objects for interactive
display but are excluded from serialized reports so that identical inputs
produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# registry of identity tags a check may carry (lint: emitted tags must be
# registered; see tests)
KNOWN_TAGS = frozenset({
    "euler-counts",
    "exchange-antisymmetry",
    "flip-involution",
    "dehn-constraints",
    "trace-positivity",
    "cubic-relation",
    "quartic-relation",
    "bracket-derivative",
    "bracket-jacobi",
    "mutation-covariance",
    "mutation-composition",
    "skein-product",
    "q-commutator",
    "q-cubic",
    "q-classical-limit",
    "bar-invariance",
    "flip-commutation",
    "double-flip",
    "simplicity-search",
    "shift-residual-quadratic",
    "shift-residual-cubic",
    "weight-dictionary",
    "braid-phase",
    "kac-level2",
    "null-vector",
    "degenerate-ode",
    "hypergeometric-match",
    "vacuum-insertion",
    "character-series",
    "tau-deformation",
    "tau-truncation",
})


@dataclass
class CheckResult:
    name: str
    tag: str
    status: str              # "pass" | "fail" | "error"
    witness: str = ""
    runtime: float = 0.0

    def __post_init__(self):
        if self.tag not in KNOWN_TAGS:
            raise ValueError(f"unregistered identity tag {self.tag!r}")
        if self.status not in ("pass", "fail", "error"):
            raise ValueError(f"bad status {self.status!r}")


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)
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

    def to_csv(self, header: bool = True) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(["name", "tag", "status", "witness"])
        writer.writerows([c.name, c.tag, c.status, c.witness] for c in self.checks)
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")


def fmt_residual(x) -> str:
    """Fixed-notation scientific formatting, stable across runs."""
    try:
        import mpmath as mp

        return mp.nstr(abs(mp.mpmathify(x)), 3, strip_zeros=False)
    except Exception:
        return f"{abs(x):.3e}"
