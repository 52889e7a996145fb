"""Per-layer spans and counts, recorded from outside the library.

``Tracer.install`` wraps every function and method that a layer module
defines, rebinds the wrapper in every namespace that imported the name,
and wraps ``mpmath.barnesg`` as part of ``tau``.  A call records a span
only when it crosses into a different layer; a call within the caller's
layer only adds to its counts, so the hundreds of thousands of nested
coefficient operations are not timed one by one.

Spans are (name, start, end, parent, op) tuples kept in memory; a layer's
self time is the duration of its spans minus the part covered by their
child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("surfaces", "laurent", "holonomy", "qcoeff", "qtorus", "qmutation",
          "pantsrep", "virasoro", "blocks", "tau")
ROOT = "bench"

# Named per-layer metrics and their units.  Counts come from hooks below;
# *_s values are self time unless the name says otherwise.
METRICS = {
    "laurent.mul_calls": "count", "laurent.mul_term_pairs": "count",
    "laurent.self_s": "s",
    "holonomy.trace_calls": "count", "holonomy.mutate_calls": "count",
    "holonomy.self_s": "s", "surfaces.self_s": "s",
    "qcoeff.norm_calls": "count", "qcoeff.trivial_den_frac": "ratio",
    "qcoeff.spoly_mul_calls": "count", "qcoeff.self_s": "s",
    "qtorus.weyl_calls": "count", "qtorus.weyl_term_pairs": "count",
    "qtorus.self_s": "s",
    "qmutation.image_calls": "count", "qmutation.self_s": "s",
    "pantsrep.q_calls": "count", "pantsrep.site_calls": "count",
    "pantsrep.site_repeat_frac": "ratio", "pantsrep.apply_calls": "count",
    "pantsrep.residual_calls": "count", "pantsrep.window_rejects": "count",
    "pantsrep.self_s": "s",
    "tau.structure_calls": "count", "tau.structure_repeat_frac": "ratio",
    "tau.barnesg_calls": "count", "tau.barnesg_s": "s",
    "tau.biseries_mul_calls": "count", "tau.skipped_shifts": "count",
    "tau.self_s": "s",
    "blocks.sphere4_calls": "count", "blocks.sphere4_repeat_frac": "ratio",
    "blocks.self_s": "s",
    "virasoro.pairing_calls": "count", "virasoro.gram_s": "s",
    "virasoro.contraction_calls": "count", "virasoro.contraction_s": "s",
    "virasoro.singular_count": "count", "virasoro.self_s": "s",
}

# Ratio metrics: (numerator count, denominator count).
RATIOS = {
    "qcoeff.trivial_den_frac": ("qcoeff.trivial_den", "qcoeff.norm_calls"),
    "pantsrep.site_repeat_frac": ("pantsrep.site_repeats", "pantsrep.site_calls"),
    "tau.structure_repeat_frac": ("tau.structure_repeats", "tau.structure_calls"),
    "blocks.sphere4_repeat_frac": ("blocks.sphere4_repeats", "blocks.sphere4_calls"),
}

# Inclusive wall time of these calls, whichever layer calls them.
INCLUSIVE = {
    "virasoro.VermaModule.gram": "virasoro.gram_s",
    "virasoro.solve_contraction": "virasoro.contraction_s",
    "tau.barnesg": "tau.barnesg_s",
}


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.spans = []
        self._layers = [ROOT]
        self._open = [-1]
        self._seen = defaultdict(set)
        self._op = -1
        self._hooks = self._make_hooks()

    # -- hooks: (before, after, on_raise) keyed by wrapped qualified name -----

    def _repeat(self, counter, key):
        self.counts[counter + "_calls"] += 1
        seen = self._seen[counter]
        if key in seen:
            self.counts[counter + "_repeats"] += 1
        else:
            seen.add(key)

    def _make_hooks(self):
        c = self.counts

        def laurent_mul(args, kwargs):
            a, b = args
            if type(b) is type(a):
                c["laurent.mul_calls"] += 1
                c["laurent.mul_term_pairs"] += len(a.terms) * len(b.terms)

        def weyl(args, kwargs):
            a, b = args
            if type(b) is type(a):
                c["qtorus.weyl_calls"] += 1
                c["qtorus.weyl_term_pairs"] += len(a.terms) * len(b.terms)

        def qcoeff_init(args, kwargs):
            c["qcoeff.norm_calls"] += 1
            if args[0].den.c == {0: 1}:
                c["qcoeff.trivial_den"] += 1

        def site(args, kwargs):
            p, n = args
            self._repeat("pantsrep.site", (
                _hashable(p.b2), _hashable(p.x0),
                tuple(sorted(p.boundary.items())), p.digits, n))

        def structure(args, kwargs):
            theta, sigma = args[0], args[1]
            digits = kwargs.get("digits", args[2] if len(args) > 2 else None)
            self._repeat("tau.structure", (tuple(theta), _hashable(sigma), digits))

        def sphere4(args, kwargs):
            self._repeat("blocks.sphere4", (
                tuple(_hashable(a) for a in args), tuple(sorted(kwargs.items()))))

        def count(name):
            def hook(args, kwargs):
                c[name] += 1
            return hook

        def raised(name):
            def hook(exc):
                c[name] += 1
            return hook

        def singular(exc):
            if type(exc).__name__ == "GramSingularError":
                c["virasoro.singular_count"] += 1

        def skipped(exc):
            if type(exc).__name__ == "GramSingularError":
                c["tau.skipped_shifts"] += 1

        return {
            "laurent.LaurentPoly.__mul__": (laurent_mul, None, None),
            "laurent.LaurentPoly.__rmul__": (laurent_mul, None, None),
            "holonomy.trace_function": (count("holonomy.trace_calls"), None, None),
            "holonomy.mutate_coordinate": (count("holonomy.mutate_calls"), None, None),
            "qcoeff.QCoeff.__init__": (None, qcoeff_init, None),
            "qcoeff.SPoly.__mul__": (count("qcoeff.spoly_mul_calls"), None, None),
            "qtorus.QuantumTorusElement.__mul__": (weyl, None, None),
            "qmutation.quantum_mutation": (count("qmutation.image_calls"), None, None),
            "pantsrep.RepParams.q": (count("pantsrep.q_calls"), None, None),
            "pantsrep.RepParams.site": (site, None, None),
            "pantsrep.RepParams.validate_window": (
                None, None, raised("pantsrep.window_rejects")),
            "pantsrep.DiffOperator.apply": (count("pantsrep.apply_calls"), None, None),
            "pantsrep.relation_residual": (count("pantsrep.residual_calls"), None, None),
            "tau.structure_constant": (structure, None, None),
            "tau.barnesg": (count("tau.barnesg_calls"), None, None),
            "tau.BiSeries.__mul__": (count("tau.biseries_mul_calls"), None, None),
            "tau.BiSeries.__rmul__": (count("tau.biseries_mul_calls"), None, None),
            "blocks.sphere4_block": (sphere4, None, skipped),
            "virasoro.VermaModule.pairing": (count("virasoro.pairing_calls"), None, None),
            "virasoro.solve_contraction": (
                count("virasoro.contraction_calls"), None, singular),
            "virasoro.invert_matrix": (None, None, singular),
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        layers, open_, spans = self._layers, self._open, self.spans
        before, after, on_raise = self._hooks.get(name, (None, None, None))
        inclusive = INCLUSIVE.get(name)
        totals = self.inclusive
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            crossing = layers[-1] != layer
            if not crossing and inclusive is None:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_raise is not None:
                        on_raise(exc)
                    raise
                if after is not None:
                    after(args, kwargs)
                return result
            if crossing:
                index = len(spans)
                spans.append(None)
                layers.append(layer)
                open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                end = clock()
                if inclusive is not None:
                    totals[inclusive] += end - start
                if crossing:
                    layers.pop()
                    open_.pop()
                    spans[index] = (name, start, end, open_[-1], self._op)
            if after is not None:
                after(args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every layer and rebind the wrappers wherever the originals
        were imported.  Call once, before the pass."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"holomon.{layer}")
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, layer, f"{layer}.{attr}")
        import mpmath

        barnesg = mpmath.barnesg
        replaced[id(barnesg)] = self._wrap(barnesg, "tau", "tau.barnesg")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname.startswith("holomon") or modname == "workloads"
                                   or modname == "mpmath"):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and not isinstance(obj, type):
                    setattr(mod, attr, replaced[id(obj)])
        return self

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(obj.__func__, layer, name)))
            elif callable(obj) and not isinstance(obj, type):
                setattr(cls, attr, self._wrap(obj, layer, name))

    # -- ops -----------------------------------------------------------------

    def begin_op(self, index: int, name: str):
        """Open the op's root span; repeats are judged within one op."""
        self._op = index
        self._seen.clear()
        self._root = len(self.spans)
        self.spans.append(None)
        self._open.append(self._root)
        self._root_name = name
        self._root_start = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        self._open.pop()
        self.spans[self._root] = (f"{ROOT}.{self._root_name}", self._root_start,
                                  end, -1, self._op)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Every named per-layer metric, from the counts and the spans."""
        spans = list(self.spans)
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name.split(".", 1)[0]] += end - start - covered[i]
        c = self.counts
        out = {}
        for metric in METRICS:
            layer, what = metric.split(".", 1)
            if what == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif metric in INCLUSIVE.values():
                out[metric] = self.inclusive.get(metric, 0.0)
            elif metric in RATIOS:
                part, whole = (c.get(k, 0) for k in RATIOS[metric])
                out[metric] = part / whole if whole else 0.0
            else:
                out[metric] = c.get(metric, 0)
        out["bench.self_s"] = self_s.get(ROOT, 0.0)
        return out

    def write_spans(self, path):
        """Spans as JSON: names are interned into a table to keep it small."""
        names = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, round(start, 7), round(end, 7), parent, op])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "fields": ["name", "start", "end",
                                                        "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
