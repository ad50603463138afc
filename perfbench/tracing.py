"""Spans around zetalab's layers, recorded from the benchmark's own code.

install() replaces the module-level functions and SymElem methods listed in
HOOKS with wrappers that record a span (name, layer, start, end, parent) in
a Tracer.  Nothing in zetalab changes; the wrappers are installed in the
benchmark's worker process only, and only for a traced run.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans, so nested calls are never counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time
from contextlib import contextmanager

# layer -> (module, attribute) pairs; "SymElem.x" names a method of symring.SymElem
HOOKS = {
    "lfunc.characters": [("lfunc", "all_characters"), ("lfunc", "enumerate_characters"),
                         ("lfunc", "character_by_label")],
    # the one private hook: no public function isolates the weight build
    "lfunc.afe_weights": [("lfunc", "_afe_weights")],
    # a scan modulus (lfunc.scan) less its characters and weights, and l_central's own sums
    "lfunc.sums": [("lfunc", "scan"), ("lfunc", "l_central"), ("lfunc", "gauss_sum"),
                   ("lfunc", "root_number")],
    "lfunc.hurwitz": [("lfunc", "l_oracle_hurwitz"), ("lfunc", "hurwitz_zeta")],
    "mellin.quad": [("mellin", "mellin_h0"), ("mellin", "mellin_one_minus_h0_direct")],
    "symring.arith": [("symring", f"SymElem.{m}") for m in
                      ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                       "__rmul__", "__pow__")],
    "symring.div": [("symring", f"SymElem.{m}") for m in ("__truediv__", "__rtruediv__", "inverse")],
    "symring.d_ds": [("symring", "SymElem.d_ds")],
    "symring.substitute": [("symring", "SymElem.substitute")],
    "locgl2.bound_check": [("locgl2", "bound_check")],
    "oracle.shell_sums": [("oracle", f) for f in
                          ("whittaker_value", "zeta_by_summation", "zeta_ratio_by_summation",
                           "rs_by_summation", "rs_a_by_summation", "herm_a_by_summation",
                           "herm_by_summation")],
    "oracle.coset_count": [("oracle", "coset_count")],
    "oracle.solve": [("oracle", "solve_transition_system")],
    "cli.verify": [("cli", "cmd_verify")],
    "cli.oracle": [("cli", "cmd_oracle")],
    "cli.lvalue": [("cli", "cmd_lvalue")],
}
# every public function of locgl2 except bound_check builds a closed form or a residual
CLOSED_FORMS = "locgl2.closed_forms"

# per-layer metrics: name -> (unit, better); times are self times per round
METRICS = {
    "lfunc.characters.s": ("s", "lower"),
    "lfunc.characters.built": ("count", "lower"),
    "lfunc.characters.primitive": ("count", "higher"),
    "lfunc.characters.useful_ratio": ("ratio", "higher"),
    "lfunc.characters.value_mb": ("MB", "lower"),
    "lfunc.afe_weights.s": ("s", "lower"),
    "lfunc.afe_weights.builds": ("count", "lower"),
    "lfunc.afe_weights.terms": ("count", "lower"),
    "lfunc.sums.s": ("s", "lower"),
    "lfunc.hurwitz.s": ("s", "lower"),
    "lfunc.hurwitz.rows": ("count", "lower"),
    "mellin.cutoff.s": ("s", "lower"),
    "mellin.quad.s": ("s", "lower"),
    "mellin.quad.calls": ("count", "lower"),
    "symring.arith.s": ("s", "lower"),
    "symring.arith.ops": ("count", "lower"),
    "symring.div.s": ("s", "lower"),
    "symring.div.ops": ("count", "lower"),
    "symring.d_ds.s": ("s", "lower"),
    "symring.substitute.s": ("s", "lower"),
    "symring.substitute.calls": ("count", "lower"),
    "symring.terms": ("count", "lower"),
    "locgl2.closed_forms.s": ("s", "lower"),
    "locgl2.bound_check.s": ("s", "lower"),
    "oracle.shell_sums.s": ("s", "lower"),
    "oracle.shell_sums.calls": ("count", "lower"),
    "oracle.coset_count.s": ("s", "lower"),
    "cli.verify.s": ("s", "lower"),
    "cli.oracle.s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
}
# count metric -> (layer, attribute summed over that layer's spans); "calls" counts spans
_COUNTS = {
    "lfunc.characters.built": ("lfunc.characters", "built"),
    "lfunc.characters.primitive": ("lfunc.characters", "primitive"),
    "lfunc.afe_weights.builds": ("lfunc.afe_weights", "builds"),
    "lfunc.afe_weights.terms": ("lfunc.afe_weights", "terms"),
    "lfunc.hurwitz.rows": ("lfunc.hurwitz", "rows"),
    "mellin.quad.calls": ("mellin.quad", "calls"),
    "symring.arith.ops": ("symring.arith", "calls"),
    "symring.div.ops": ("symring.div", "calls"),
    "symring.substitute.calls": ("symring.substitute", "calls"),
    "symring.terms": (CLOSED_FORMS, "terms"),
    "oracle.shell_sums.calls": ("oracle.shell_sums", "calls"),
}
# metrics of a hook target that no longer exists are reported missing, not 0
_DROPPED_WITH = {"lfunc._afe_weights": ("lfunc.afe_weights.s", "lfunc.afe_weights.builds",
                                        "lfunc.afe_weights.terms")}
# metrics computed from counts, which repeat exactly between rounds and runs
EXACT_UNITS = ("count", "ratio", "MB")


class Tracer:
    """Spans kept in memory as [name, layer, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.active = False
        self.missing: list = []

    @contextmanager
    def span(self, layer: str, name: str):
        if not self.active:
            yield None
            return
        rec = [name, layer, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def outermost(self, rec) -> bool:
        """True when no enclosing span belongs to the same layer."""
        parent = rec[4]
        while parent >= 0:
            if self.spans[parent][1] == rec[1]:
                return False
            parent = self.spans[parent][4]
        return True


def _wrap(tracer: Tracer, fn, layer: str, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer, name) as rec:
            out = fn(*args, **kwargs)
        if after is not None:
            after(rec, args, out)  # rec is None while paused; hooks still track state
        return out

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every hook target; a target that no longer exists is recorded in tracer.missing."""
    from zetalab import cli, lfunc, locgl2, mellin, oracle, symring

    modules = {"cli": cli, "lfunc": lfunc, "locgl2": locgl2, "mellin": mellin,
               "oracle": oracle, "symring": symring}
    seen_rows: set = set()

    def characters(rec, args, out):
        if rec is None:
            return
        chars = out if isinstance(out, list) else [out]
        rec[5]["built"] = len(chars)
        rec[5]["primitive"] = sum(1 for c in chars if c.is_primitive)
        # values (complex128) and phases (int64): 24 bytes per residue, computed
        rec[5]["value_bytes"] = sum(24 * c.q for c in chars)

    afe_info = getattr(getattr(lfunc, "_afe_weights", None), "cache_info", None)

    def weights(rec, args, out):
        # a call is a build when the lru cache missed (every call, if uncached)
        misses = afe_info().misses if afe_info else weights.misses + 1
        built, weights.misses = misses != weights.misses, misses
        if rec is not None and built:
            rec[5]["builds"] = 1
            rec[5]["terms"] = out.n1 + out.n2

    weights.misses = afe_info().misses if afe_info else 0

    def hurwitz(rec, args, out):
        key = (args[0].q, complex(args[1]))
        if key not in seen_rows:
            seen_rows.add(key)
            if rec is not None:
                rec[5]["rows"] = 1

    def closed_form(rec, args, out):
        if rec is not None and tracer.outermost(rec):
            rec[5]["terms"] = stored_terms(out)

    # count hooks by target; enumerate_characters is counted by its all_characters call
    after = {"lfunc.all_characters": characters, "lfunc.character_by_label": characters,
             "lfunc._afe_weights": weights, "lfunc.l_oracle_hurwitz": hurwitz}
    targets = [(layer, mod, attr) for layer, pairs in HOOKS.items() for mod, attr in pairs]
    targets += [(CLOSED_FORMS, "locgl2", f) for f in locgl2.__all__
                if f != "bound_check" and callable(getattr(locgl2, f))
                and not isinstance(getattr(locgl2, f), type)]
    for layer, mod, attr in targets:
        owner = modules[mod]
        if attr.startswith("SymElem."):
            owner, attr = owner.SymElem, attr.split(".", 1)[1]
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            tracer.missing.append(f"{mod}.{attr}")
            continue
        hook = closed_form if layer == CLOSED_FORMS else after.get(f"{mod}.{attr}")
        setattr(owner, attr, _wrap(tracer, fn, layer, f"{mod}.{attr}", hook))


def stored_terms(obj) -> int:
    """Monomials stored in the numerators and denominators of the SymElems in obj."""
    from zetalab.symring import SymElem

    if isinstance(obj, SymElem):
        return len(obj.an) + len(obj.ad) + len(obj.bn) + len(obj.bd)
    if isinstance(obj, (list, tuple)):
        return sum(stored_terms(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return sum(stored_terms(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def layer_totals(span_lists: list) -> tuple:
    """(self seconds per layer, summed attributes per layer) over lists of spans.

    Parent indices point into the span's own list (one list per process).
    """
    self_s: dict = {}
    attrs: dict = {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, layer, start, end, parent, extra in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, layer, start, end, parent, extra) in enumerate(spans):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
            acc = attrs.setdefault(layer, {"calls": 0})
            acc["calls"] += 1
            for key, val in extra.items():
                acc[key] = acc.get(key, 0) + val
    return self_s, attrs


def round_metrics(span_lists: list, wall_s: float, missing: list) -> dict:
    """Every per-layer metric for one round's spans."""
    self_s, attrs = layer_totals(span_lists)
    out = {}
    for name in METRICS:
        if name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0)
        elif name in _COUNTS:
            layer, key = _COUNTS[name]
            out[name] = attrs.get(layer, {}).get(key, 0)
    chars = attrs.get("lfunc.characters", {})
    out["lfunc.characters.useful_ratio"] = (chars.get("primitive", 0) / chars["built"]
                                            if chars.get("built") else 0.0)
    out["lfunc.characters.value_mb"] = chars.get("value_bytes", 0) / 1e6
    out["trace.wall_s"] = wall_s
    dropped = {name for target, names in _DROPPED_WITH.items() if target in missing for name in names}
    return {name: out[name] for name in METRICS if name not in dropped}


def combine_rounds(rounds: list) -> tuple:
    """Median of each time over rounds; counts must repeat exactly, else listed as unstable."""
    out, unstable = {}, []
    for name in rounds[0]:
        vals = [r[name] for r in rounds]
        exact = METRICS[name][0] in EXACT_UNITS
        if exact and len(set(vals)) > 1:
            unstable.append(name)
        out[name] = vals[0] if exact else statistics.median(vals)
    return out, unstable


def layer_shares(span_lists: list, wall_s: float) -> dict:
    self_s, _ = layer_totals(span_lists)
    return {layer: s / wall_s for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1])}
