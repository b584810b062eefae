"""Per-layer tracing of `operadlab` from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper,
in every `operadlab` module and class that holds a reference to it (a
name bound with ``from .free3 import left_lambda`` is a second reference,
and so is a class alias such as ``__rmul__ = __mul__``).  `uninstall()`
puts the originals back.

Two kinds of record are kept in memory:

* spans, at the coarse boundaries: name, start, end, parent span and the
  id of the benchmark op that caused it;
* counters, at every traced name: calls and self time (inclusive time
  minus the inclusive time of nested traced calls).  Leaf arithmetic runs
  millions of times per pass, so it gets counters only.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

perf = time.perf_counter


def _targets(ol):
    """(metric prefix, owner, attribute, records a span) for every traced
    name; `ol` is the imported `operadlab` package."""
    sc, f3, pr, ck = ol.scalar, ol.free3, ol.presentation, ol.checkers
    qz, ml = ol.quantize, ol.mlab
    return [
        ("scalar.Scalar.mul", sc.Scalar, "__mul__", False),
        ("scalar.Scalar.add", sc.Scalar, "__add__", False),
        ("scalar.Scalar.inverse", sc.Scalar, "inverse", False),
        ("scalar.RatFunc.mul", sc.RatFunc, "__mul__", False),
        ("scalar.RatFunc.add", sc.RatFunc, "__add__", False),
        ("scalar.pgcd", sc, "pgcd", False),
        ("free3.span_closure", f3, "span_closure", True),
        ("free3.Subspace.intersect", f3.Subspace, "intersect", True),
        ("free3.Subspace.reduce", f3.Subspace, "reduce", False),
        ("free3.ActionMatrix.build", f3.ActionMatrix, "__init__", False),
        ("free3.ActionMatrix.apply", f3.ActionMatrix, "apply", False),
        ("free3.apply_perm_to_basis", f3, "apply_perm_to_basis", False),
        ("free3.right_action", f3, "right_action", False),
        ("free3.left_lambda", f3, "left_lambda", False),
        ("free3.gamma_plus_split", f3, "gamma_plus_split", False),
        ("free3.SlotMap.apply", f3.SlotMap, "apply", False),
        ("presentation.parse_presentation", pr, "parse_presentation", True),
        ("presentation.relation_vector", pr, "relation_vector", False),
        ("presentation.Presentation.specialize", pr.Presentation, "specialize", True),
        ("checkers.check_cyclic", ck, "check_cyclic", True),
        ("checkers.check_dihedral", ck, "check_dihedral", True),
        ("checkers.hopf_analyze", ck, "hopf_analyze", True),
        ("checkers.check_substitution_iso", ck, "check_substitution_iso", True),
        ("checkers.BPoly.mul", ck.BPoly, "__mul__", False),
        ("rep.decompose_subspace", ol.rep, "decompose_subspace", True),
        ("quantize.check_LL", qz, "check_LL", True),
        ("quantize.is_associative", qz.StarProduct, "is_associative", True),
        ("quantize.rule", qz.StarProduct, "__init__", False),
        ("quantize.TPoly.add", qz.TPoly, "__add__", False),
        ("mlab.comp_ij", ml, "comp_ij", False),
        ("mlab.circ_plain", ml, "circ_plain", True),
        ("mlab.MultiMap.add", ml.MultiMap, "__add__", False),
    ]


# Traced names whose metrics are a count only (no self time).
COUNT_ONLY = {"free3.apply_perm_to_basis", "free3.right_action",
              "free3.left_lambda", "free3.gamma_plus_split"}


class Tracer:
    def __init__(self, package):
        self.ol = package
        self.calls: dict = {}
        self.self_s: dict = {}
        self.spans: list = []       # [name, start, end, parent, op]
        self.op_id = None
        self._child = []            # inclusive time of nested traced calls
        self._open = []             # ids of the open spans
        self._saved = []            # (holder dict owner, attribute, original)
        self.mul_calls = self.mul_rational = 0
        self.pgcd_max_deg = 0
        self.closure_offered = self.closure_kept = 0

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "operadlab" or n.startswith("operadlab.")]
        holders = []
        for m in mods:
            holders.append(m)
            holders += [v for v in vars(m).values()
                        if isinstance(v, type) and v.__module__.startswith("operadlab")]
        for name, owner, attr, span in _targets(self.ol):
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self.calls.setdefault(name, 0)
            self.self_s.setdefault(name, 0.0)
            wrapper = self._wrapper(name, orig, span)
            for h in holders:
                for key, val in list(vars(h).items()):
                    if val is orig:
                        self._saved.append((h, key, orig))
                        setattr(h, key, wrapper)
        return self

    def uninstall(self):
        for h, key, orig in reversed(self._saved):
            setattr(h, key, orig)
        self._saved.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, name, fn, span):
        if name == "free3.span_closure":
            return self._count_closure(self._timed(name, fn, span))
        if name == "quantize.rule":
            return self._time_rules(name, fn)
        return self._timed(name, fn, span)

    def _timed(self, name, fn, span):
        special = {"scalar.Scalar.mul": self._note_mul,
                   "scalar.pgcd": self._note_pgcd}.get(name)
        calls, self_s, child, spans, opened = (self.calls, self.self_s, self._child,
                                               self.spans, self._open)
        tracer = self

        def wrapper(*args, **kwargs):
            if special is not None:
                special(args)
            if span:
                sid = len(spans)
                spans.append([name, 0.0, 0.0, opened[-1] if opened else None,
                              tracer.op_id])
                opened.append(sid)
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                calls[name] += 1
                self_s[name] += dt - inner
                if span:
                    opened.pop()
                    spans[sid][1] = t0
                    spans[sid][2] = t0 + dt

        return wrapper

    def _time_rules(self, name, init):
        """StarProduct.__init__ that times the product rule it is given:
        the rules are closures, reachable only through the instance."""
        timed = self._timed

        def wrapper(obj, order, rule, *args, **kwargs):
            init(obj, order, timed(name, rule, False), *args, **kwargs)

        return wrapper

    def _count_closure(self, timed):
        """span_closure with its offered vectors counted: the input vectors
        and every image an action produces.  Kept rows are the result's
        dimension, since rows are only ever added."""
        tracer = self
        ActionMatrix = self.ol.free3.ActionMatrix

        def counted(vectors):
            for v in vectors:
                tracer.closure_offered += 1
                yield v

        def count_action(a):
            ap = a.apply if isinstance(a, ActionMatrix) else a

            def applied(vec):
                tracer.closure_offered += 1
                return ap(vec)
            return applied

        def wrapper(shape, vectors, actions=()):
            out = timed(shape, counted(vectors), [count_action(a) for a in actions])
            tracer.closure_kept += out.dim
            return out

        return wrapper

    def _note_mul(self, args):
        self.mul_calls += 1
        a, b = args
        Scalar = self.ol.scalar.Scalar
        if a.is_rational() and (isinstance(b, (int, Fraction))
                                or (isinstance(b, Scalar) and b.is_rational())):
            self.mul_rational += 1

    def _note_pgcd(self, args):
        deg = max(len(args[0]), len(args[1])) - 1
        if deg > self.pgcd_max_deg:
            self.pgcd_max_deg = deg

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int = 1) -> dict:
        """Counter values by metric name, as (value, unit), per traced pass."""
        out = {}
        for name, n in self.calls.items():
            out[name + ".calls"] = (n / passes, "count")
            if name not in COUNT_ONLY:
                out[name + ".self_s"] = (self.self_s[name] / passes, "s")
        out["scalar.Scalar.mul.rational_share"] = (
            self.mul_rational / self.mul_calls if self.mul_calls else 0.0, "ratio")
        out["scalar.pgcd.max_deg"] = (self.pgcd_max_deg, "deg")
        out["free3.span_closure.useful_ratio"] = (
            self.closure_kept / self.closure_offered if self.closure_offered else 0.0,
            "ratio")
        return out
