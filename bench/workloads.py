"""The four benchmark workloads.

Each workload is a closed loop: one process issues one op at a time, and
an op is one call to a public `operadlab` function (for `multimap`, one
trial of the randomized suite).  A workload is built from a seed, runs
one pass over its fixed op list with `run_pass(log)`, and checks every
op's output as it goes.  `cold_command()` is the CLI command a user would
run for the same work.

Why these four (see README.md for the layer table):

* results_table - the paper's main table: Q(q) Hopf reduction and free3
  row reduction on the nine published rows.
* full_tower    - coefficients that use the whole Q(q)(sqrt 2, sqrt q)
  tower, so the time goes to large Scalar products and inverses.
* star_product  - millions of small u-plane Scalar ops, and no free3,
  presentation or checkers work at all.
* multimap      - pure Fraction arithmetic: the control on which no
  scalar or free3 change may move anything.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import time
from fractions import Fraction

from operadlab import checkers, cli, free3, mlab, presentation, quantize, rep

cpu = time.process_time


class OpFailed(Exception):
    """An op raised or returned a wrong output; the rest of its input is
    skipped."""


class OpLog:
    """Times, checks and records the ops of a run.  An op's latency is the
    CPU time of this process while it runs.

    With `calibrate`, a calibration sample is timed before every op, and
    `tick()` (called from a timer signal) times more samples while an op
    runs; their time is taken out of the op's latency."""

    def __init__(self, calibrate=None):
        self.calibrate = calibrate
        self.lat_ms: list = []
        self.refs: list = []        # calibration time before each op
        self.inner: list = []       # calibration times taken during ops
        self.inner_at: list = []    # each op's slice of `inner`
        self._inner_s = 0.0
        self._in_op = False
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.outputs: list = []     # (op name, digest) of the current pass
        self.tracer = None

    def tick(self):
        if self._in_op:
            self._in_op = False     # no nested sample if the timer fires again
            t0 = cpu()
            self.inner.append(self.calibrate())
            self._inner_s += cpu() - t0
            self._in_op = True

    def op(self, name, fn, *args, check=None, digest=None):
        """Run fn(*args) as one op.  `check(result)` must hold; `digest`
        reduces the result to the value compared between traced and
        untraced passes."""
        self.attempted += 1
        if self.calibrate is not None:
            self.refs.append(self.calibrate())
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        error = None
        first, spent = len(self.inner), self._inner_s
        self._in_op = True
        t0 = cpu()
        try:
            out = fn(*args)
        except Exception as e:  # any exception is a failed op, not a crash
            error = f"raised {type(e).__name__}: {e}"
        finally:
            dt = cpu() - t0
            self._in_op = False
        self.lat_ms.append((dt - (self._inner_s - spent)) * 1e3)
        self.inner_at.append((first, len(self.inner)))
        if error is None and check is not None and not check(out):
            error = "wrong output"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {error}")
            raise OpFailed(name)
        self.outputs.append((name, digest(out) if digest else out))
        return out


def _pres_digest(p):
    return (p.R.dim, p.R.rows)


def _inputs_sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# results_table
# ---------------------------------------------------------------------------

_JACOBI = "rel b(x,b(y,z)) + b(y,b(z,x)) + b(z,b(x,y)) = 0;"
_DIST = "rel b(x,c(y,z)) - c(b(x,y),z) - c(y,b(x,z)) = 0;"

# The benchmark's own copy of the nine table presentations, so that the
# library's `builtin()` cache cannot hide the compile cost.
TABLE_TEXTS = {
    "Ass": "operad Ass { gen m: none; rel m(m(x,y),z) - m(x,m(y,z)) = 0; }",
    "Poiss": """operad Poiss { gen m: none;
        rel m(x,m(y,z)) - m(m(x,y),z) + (1/3)*m(m(x,z),y) + (1/3)*m(m(y,z),x)
            - (1/3)*m(m(y,x),z) - (1/3)*m(m(z,x),y) = 0; }""",
    "LLq": f"""operad LLq {{ params: q; gen c: comm; gen b: anti;
        {_JACOBI} {_DIST}
        rel c(c(x,y),z) - c(x,c(y,z)) - q*b(y,b(x,z)) = 0; }}""",
    "LLinf": f"""operad LLinf {{ gen c: comm; gen b: anti;
        {_JACOBI} {_DIST}
        rel b(y,b(x,z)) = 0; }}""",
    "Vinberg": """operad Vinberg { gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) - m(m(y,x),z) + m(y,m(x,z)) = 0; }""",
    "PreLie": """operad PreLie { gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) - m(m(x,z),y) + m(x,m(z,y)) = 0; }""",
    "G4": """operad G4 { gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) - m(m(z,y),x) + m(z,m(y,x)) = 0; }""",
    "G5": """operad G5 { gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) + m(m(y,z),x) - m(y,m(z,x))
            + m(m(z,x),y) - m(z,m(x,y)) = 0; }""",
    "G6": """operad G6 { gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) - m(m(y,x),z) + m(y,m(x,z))
            - m(m(x,z),y) + m(x,m(z,y)) - m(m(z,y),x) + m(z,m(y,x))
            + m(m(y,z),x) - m(y,m(z,x)) + m(m(z,x),y) - m(z,m(x,y)) = 0; }""",
}

# Criterion 1 of the paper's table: (cyclic, dihedral, has a Hopf diagonal).
CRITERION1 = {
    "Ass": (True, True, True), "Poiss": (True, True, True),
    "LLq": (True, True, True), "LLinf": (True, True, False),
    "Vinberg": (False, False, False), "PreLie": (False, False, False),
    "G4": (True, True, False), "G5": (False, True, False),
    "G6": (True, True, False),
}


def _irr(i, s, v22, v31, v211):
    return {"id": i, "sgn": s, "V22": v22, "V31": v31, "V211": v211}


GAMMA_PLUS = _irr(1, 1, 2, 0, 0)
GAMMA_MINUS = _irr(0, 0, 0, 1, 1)

# Frozen outputs: dim R, Hopf (verdict, witness), S4 decomposition of R
# (present only where R is cyclic, as the `decompose` command does).
TABLE_FROZEN = {
    "Ass": (6, ("unique", "0"), _irr(0, 1, 1, 1, 0)),
    "Poiss": (6, ("unique", "1/4"), _irr(0, 1, 1, 1, 0)),
    "LLq": (6, ("unique", "-1/4*q + 1/4"), _irr(0, 1, 1, 1, 0)),
    "LLinf": (6, ("none", None), _irr(0, 1, 1, 1, 0)),
    "Vinberg": (3, ("none", None), None),
    "PreLie": (3, ("none", None), None),
    "G4": (3, ("none", None), _irr(0, 1, 1, 0, 0)),
    "G5": (2, ("none", None), None),
    "G6": (1, ("none", None), _irr(0, 1, 0, 0, 0)),
}


class ResultsTable:
    name = "results_table"

    def __init__(self, seed: int):
        # the rows are fixed; the seed only orders them
        self.rows = list(TABLE_TEXTS)
        random.Random(seed).shuffle(self.rows)
        self.inputs_sha = _inputs_sha(self.rows)

    def run_pass(self, log: OpLog):
        for name in self.rows:
            try:
                self._row(log, name)
            except OpFailed:
                pass

    def _row(self, log, name):
        cyc, dih, hopf_yes = CRITERION1[name]
        dim, hopf, dec_r = TABLE_FROZEN[name]
        p = log.op("parse_presentation", presentation.parse_presentation,
                   TABLE_TEXTS[name], check=lambda p: p.R.dim == dim,
                   digest=_pres_digest)
        log.op("check_cyclic", checkers.check_cyclic, p, check=lambda r: r == cyc)
        log.op("check_dihedral", checkers.check_dihedral, p, check=lambda r: r == dih)
        log.op("hopf_analyze", checkers.hopf_analyze, p,
               check=lambda h: ((h.verdict, h.witness_str()) == hopf
                                and (h.verdict in ("unique", "all")) == hopf_yes),
               digest=lambda h: (h.verdict, h.witness_str()))
        gp, gm = log.op("gamma_plus_split", free3.gamma_plus_split, p.shape,
                        check=lambda s: s[0].dim + s[1].dim == p.shape.basis_size,
                        digest=lambda s: (s[0].rows, s[1].rows))
        log.op("decompose_subspace", rep.decompose_subspace, gp,
               check=lambda d: d == GAMMA_PLUS)
        log.op("decompose_subspace", rep.decompose_subspace, gm,
               check=lambda d: d == GAMMA_MINUS)
        if cyc:
            log.op("decompose_subspace", rep.decompose_subspace, p.R,
                   check=lambda d: d == dec_r)

    def cold_command(self, out_dir):
        return ["table", "--json"]

    @staticmethod
    def check_cold(doc) -> bool:
        got = {r["operad"]: (r["cyclic"], r["dihedral"],
                             r["hopf"]["verdict"] in ("unique", "all"))
               for r in doc["rows"]}
        return got == CRITERION1


# ---------------------------------------------------------------------------
# full_tower
# ---------------------------------------------------------------------------

# Templates: one relation each, 4 to 6 monomials, coefficients from a pool
# that mixes q, u = sqrt 2 and v = sqrt q: u, v, q, q+1, u*v, v+u,
# (q-1)/(q+3), u/2, 2*v, 1/3 and their negatives.
# Four cost classes: G2/G3/G4-like deformations (dim R = 3), a G5-like
# cyclic sum (dim R = 2), generic relations (dim R = 6), and a full-tower
# combination of two associators, whose span is the rational Ass space.
# check_dihedral on some other draws from the pool takes 15 to 95 s at the
# time of writing, longer than a whole run may last; these templates do
# not.
TEMPLATES = {
    "g2_vu_uv": [("(v+u)", "m(m(x,y),z)"), ("(-(u*v))", "m(x,m(y,z))"),
                 ("(-(v+u))", "m(m(y,x),z)"), ("(u*v)", "m(y,m(x,z))")],
    "g3_v_q1": [("v", "m(m(x,y),z)"), ("(-(q+1))", "m(x,m(y,z))"),
                ("(-v)", "m(m(x,z),y)"), ("(q+1)", "m(x,m(z,y))")],
    "g4_vu_qq": [("(v+u)", "m(m(x,y),z)"), ("(-((q-1)/(q+3)))", "m(x,m(y,z))"),
                 ("(-(v+u))", "m(m(z,y),x)"), ("((q-1)/(q+3))", "m(z,m(y,x))")],
    "g5_v_q1": [("v", "m(m(x,y),z)"), ("(-(q+1))", "m(x,m(y,z))"),
                ("v", "m(m(y,z),x)"), ("(-(q+1))", "m(y,m(z,x))"),
                ("v", "m(m(z,x),y)"), ("(-(q+1))", "m(z,m(x,y))")],
    "gen_v_u": [("(2*v)", "m(m(x,y),z)"), ("(v+u)", "m(y,m(z,x))"),
                ("(u/2)", "m(m(y,z),x)"), ("(v+u)", "m(x,m(z,y))")],
    "gen_v_q": [("v", "m(m(x,z),y)"), ("(2*v)", "m(z,m(x,y))"),
                ("(1/3)", "m(x,m(y,z))"), ("v", "m(m(y,x),z)")],
    "ass_vu_uv": [("(v+u)", "m(m(x,y),z)"), ("(-(v+u))", "m(x,m(y,z))"),
                  ("(u*v)", "m(m(z,y),x)"), ("(-(u*v))", "m(z,m(y,x))")],
}

# Frozen per template: (dim R, cyclic, dihedral).  Every seed's input has
# these, and so has its specialisation at each q0 below (dim R is kept
# there, so the verdicts must be too).
TOWER_FROZEN = {
    "g2_vu_uv": (3, False, False), "g3_v_q1": (3, False, False),
    "g4_vu_qq": (3, False, False), "g5_v_q1": (2, False, False),
    "gen_v_u": (6, False, False), "gen_v_q": (6, False, False),
    "ass_vu_uv": (6, True, True),
}

# Rational squares for the second route: q -> q0 sends v to sqrt(q0).
SPECIAL_Q = (Fraction(4), Fraction(9, 4), Fraction(1, 4))

# The seed may only change an input in ways that provably keep its
# verdicts: a Galois automorphism of the tower over Q(q) (u -> +-u,
# v -> +-v), a nonzero rational multiple of the relation, a relabelling
# of x, y, z (R is closed under it) and the order of the terms.
_SCALES = ("1", "(-1)", "2", "(-1/2)", "3", "(2/3)", "(-5)", "(7/2)")


def _tower_text(name, terms, rng):
    su, sv = rng.choice((1, -1)), rng.choice((1, -1))
    scale = rng.choice(_SCALES)
    perm = dict(zip("xyz", rng.sample("xyz", 3)))
    terms = list(terms)
    rng.shuffle(terms)
    body = []
    for coef, mono in terms:
        if su < 0:
            coef = re.sub(r"\bu\b", "(-u)", coef)
        if sv < 0:
            coef = re.sub(r"\bv\b", "(-v)", coef)
        mono = re.sub(r"[xyz]", lambda m: perm[m.group()], mono)
        body.append(f"({scale}*{coef})*{mono}")
    return (f"operad {name} {{ params: q; gen m: none; rel "
            + " + ".join(body) + " = 0; }")


class FullTower:
    name = "full_tower"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = [(name, _tower_text(name, terms, rng))
                       for name, terms in TEMPLATES.items()]
        self.inputs_sha = _inputs_sha(self.inputs)

    def run_pass(self, log: OpLog):
        for name, text in self.inputs:
            try:
                self._one(log, name, text)
            except OpFailed:
                pass
        try:
            self._iso(log)
        except OpFailed:
            pass

    def _one(self, log, name, text):
        dim, cyc, dih = TOWER_FROZEN[name]
        p = log.op("parse_presentation", presentation.parse_presentation, text,
                   check=lambda p: p.R.dim == dim, digest=_pres_digest)
        log.op("check_cyclic", checkers.check_cyclic, p, check=lambda r: r == cyc)
        log.op("check_dihedral", checkers.check_dihedral, p, check=lambda r: r == dih)
        for q0 in SPECIAL_Q:
            s = log.op("specialize", p.specialize, q0,
                       check=lambda s: s.R.dim == dim, digest=_pres_digest)
            log.op("check_cyclic", checkers.check_cyclic, s, check=lambda r: r == cyc)
            log.op("check_dihedral", checkers.check_dihedral, s, check=lambda r: r == dih)

    def _iso(self, log):
        ll = log.op("parse_presentation", presentation.parse_presentation,
                    TABLE_TEXTS["LLq"], check=lambda p: p.R.dim == 6,
                    digest=_pres_digest)
        ass = log.op("parse_presentation", presentation.parse_presentation,
                     TABLE_TEXTS["Ass"], check=lambda p: p.R.dim == 6,
                     digest=_pres_digest)
        dep = log.op("depolarize_presentation", presentation.depolarize_presentation,
                     ll, check=lambda p: p.R.dim == 6, digest=_pres_digest)
        log.op("check_substitution_iso", checkers.check_substitution_iso,
               ass, dep, cli._named_map("star", ass, dep), check=lambda r: r is True)

    def cold_command(self, out_dir):
        name, text = self.inputs[0]
        path = out_dir / f"{self.name}-{name}.op"
        path.write_text(text + "\n", encoding="utf-8")
        return ["check", str(path), "--cyclic", "--dihedral", "--json"]

    def check_cold(self, doc) -> bool:
        dim, cyc, dih = TOWER_FROZEN[self.inputs[0][0]]
        return doc["cyclic"] == cyc and doc["dihedral"] == dih


# ---------------------------------------------------------------------------
# star_product
# ---------------------------------------------------------------------------

ORDER = 4
DEGREE = 4


class StarProductWorkload:
    name = "star_product"

    def __init__(self, seed: int):
        basis = quantize.basis_monomials(3)
        index_pairs = list(itertools.product(range(len(basis)), repeat=2))
        random.Random(seed).shuffle(index_pairs)
        self.pairs = [(basis[i], basis[j]) for i, j in index_pairs]
        self.inputs_sha = _inputs_sha(index_pairs)

    def run_pass(self, log: OpLog):
        try:
            self._pass(log)
        except OpFailed:
            pass

    def _pass(self, log):
        s = log.op("moyal_star", quantize.moyal_star, ORDER,
                   check=lambda s: s.order == ORDER, digest=lambda s: s.order)
        log.op("commutative_mod_t", s.commutative_mod_t, min(DEGREE, 3),
               check=lambda r: r is True)
        log.op("is_associative", s.is_associative, min(DEGREE, 3),
               check=lambda r: r is True)
        data = log.op("polarize_star", quantize.polarize_star, s,
                      check=lambda d: d.bracket_order == ORDER,
                      digest=lambda d: d.bracket_order)
        log.op("check_LL", quantize.check_LL, data, DEGREE,
               check=lambda r: r == (True, None))
        star2 = log.op("star_from_LL", quantize.star_from_LL, data, False,
                       check=lambda s2: s2.order == ORDER, digest=lambda s2: s2.order)
        for a, b in self.pairs:
            log.op("roundtrip", lambda a, b: star2.rule(a, b).eq_mod(s.rule(a, b), ORDER),
                   a, b, check=lambda r: r is True)
        bad = data.mutate_bracket((1, 0), (0, 1), (0, 0, 0), 1)
        log.op("check_LL", quantize.check_LL, bad, min(DEGREE, 2),
               check=lambda r: r[0] is False)

    def cold_command(self, out_dir):
        return ["quantize", "--order", str(ORDER), "--degree", str(DEGREE),
                "--mutate", "--json"]

    @staticmethod
    def check_cold(doc) -> bool:
        return (doc["commutative_mod_t"] and doc["associative"] and doc["ll_axioms"]
                and doc["roundtrip"] and doc["mutated_ll_axioms"] is False)


# ---------------------------------------------------------------------------
# multimap
# ---------------------------------------------------------------------------

D = 2
TRIALS = 64
_ARITY3 = list(itertools.product((1, 2), repeat=3))
_COEFFS = (-3, -2, -1, 1, 2, 3)


class MultiMapWorkload:
    name = "multimap"

    def __init__(self, seed: int):
        # The arities cycle through every combination in a fixed order and
        # no coefficient is 0, so that every seed costs the same; the seed
        # draws the coefficients.
        rng = random.Random(seed)

        def R(m, n):
            return mlab.MultiMap(D, m, n, {
                (out, inp): rng.choice(_COEFFS)
                for out in itertools.product(range(D), repeat=n)
                for inp in itertools.product(range(D), repeat=m)})

        self.trials = []
        for k in range(TRIALS):
            a1, a2 = _ARITY3[k % 8], _ARITY3[(k + k // 8) % 8]
            ms, ns = _ARITY3[k % 8], _ARITY3[(k // 8) % 8]
            self.trials.append(([R(a, 1) for a in a1], [R(1, a) for a in a2],
                                (R(2, 1), R(1, 2)),
                                [R(m, n) for m, n in zip(ms, ns)]))
        self.inputs_sha = _inputs_sha([[sorted(map(repr, m.coeffs.items()))
                                        for m in (*t[0], *t[1], *t[2], *t[3])]
                                       for t in self.trials])

    def run_pass(self, log: OpLog):
        for trial in self.trials:
            try:
                log.op("trial", _trial, *trial, check=lambda r: r[:3] == (0, 0, 0))
            except OpFailed:
                pass

    def cold_command(self, out_dir):
        # The CLI draws arities at random, so its cost depends on its seed;
        # a fixed one keeps the cold run's work the same on every run.
        return ["mlab", "--seed", "1", "--trials", "20", "--json"]

    @staticmethod
    def check_cold(doc) -> bool:
        return (doc["pre_lie_failures"] == doc["vinberg_failures"]
                == doc["master_equivalence_failures"] == 0)


def _trial(single_out, single_in, pair, mixed):
    """One trial of the `mlab` suites: (pre-Lie, Vinberg, master-equation)
    failure counts, which must be 0, and whether the alternating
    associator sum (not an identity) is nonzero."""
    A, plain = mlab.circ_associator, mlab.circ_plain
    f, g, h = single_out
    pre_lie = int(A(f, g, h, compose=plain) != A(f, h, g, compose=plain))
    f, g, h = single_in
    vinberg = int(A(f, g, h, compose=plain) != A(g, f, h, compose=plain))
    mu, de = pair
    axioms_zero = all(t.is_zero() for t in mlab.infinitesimal_bialgebra_axioms(mu, de))
    master = int(mlab.master_residual_is_zero(mu, de) != axioms_zero)
    g6 = int(not mlab.alternating_associator_sum(*mixed).is_zero())
    return pre_lie, vinberg, master, g6


WORKLOADS = {w.name: w for w in (ResultsTable, FullTower, StarProductWorkload,
                                 MultiMapWorkload)}
