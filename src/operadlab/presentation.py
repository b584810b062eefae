"""Axiom DSL for quadratic presentations with binary generators.

Surface grammar (UTF-8 text)::

    presentation ::= "operad" IDENT "{" ("params:" "q" ";")? decl* rel* "}"
                   |  decl* rel*                      (bare form)
    decl  ::= "gen" IDENT ":" ("comm" | "anti" | "none") ";"
    rel   ::= "rel" sum "=" "0" ";"
    sum   ::= term (("+" | "-") term)*
    term  ::= (scalar "*")? app
    app   ::= IDENT "(" arg "," arg ")"
    arg   ::= "x" | "y" | "z" | app

Scalar literals are integers, fractions ``a/b``, the symbols ``q``,
``u`` (sqrt 2) and ``v`` (sqrt q), or a parenthesized arithmetic
expression over those, e.g. ``((q-1)/(q+3))``.  The names
x, y, z, q, u, v are reserved.

Relations compile to exact vectors in the canonical basis of the
arity-3 free-operad component; the stored relation space R is always
closed under the inner symmetric-group action.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .scalar import Scalar, as_scalar, SC0, SC1
from . import free3
from .free3 import EShape, Free3Error, VARS

RESERVED = {"x", "y", "z", "q", "u", "v", "operad", "gen", "rel", "params",
            "comm", "anti", "none"}


class ParseError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} at {line}:{col}")
        self.msg = msg
        self.line = line
        self.col = col


class PresentationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

class Var(NamedTuple):
    name: str

    @property
    def idx(self):
        return "xyz".index(self.name)

    def render(self):
        return self.name


class App(NamedTuple):
    gen: str
    a: object
    b: object
    pos: tuple = (0, 0)

    def render(self):
        return f"{self.gen}({self.a.render()},{self.b.render()})"


def var(name: str) -> Var:
    if name not in ("x", "y", "z"):
        raise PresentationError(f"not a variable: {name!r}")
    return Var(name)


def app(gen: str, a, b) -> App:
    return App(gen, a, b)


class RelationExpr:
    """A scalar-weighted sum of quadratic monomials, read as `= 0`."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple((as_scalar(c), t) for c, t in terms)

    @classmethod
    def of(cls, node: App) -> "RelationExpr":
        return cls([(SC1, node)])

    def __add__(self, other):
        return RelationExpr(self.terms + other.terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RelationExpr([(-c, t) for c, t in self.terms])

    def scale(self, s) -> "RelationExpr":
        s = as_scalar(s)
        return RelationExpr([(s * c, t) for c, t in self.terms])

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def substitute(self, mapping) -> "RelationExpr":
        """Rename variables, e.g. {'x': 'z', 'y': 'x', 'z': 'y'}."""

        def sub(node):
            if isinstance(node, Var):
                return Var(mapping.get(node.name, node.name))
            return App(node.gen, sub(node.a), sub(node.b), node.pos)

        return RelationExpr([(c, sub(t)) for c, t in self.terms])

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for k, (c, t) in enumerate(self.terms):
            body = t.render()
            if c == SC1:
                txt, sign = body, "+"
            elif c == -SC1:
                txt, sign = body, "-"
            else:
                txt, sign = f"({c.render()})*{body}", "+"
            if k == 0:
                pieces.append(txt if sign == "+" else f"-{txt}")
            else:
                pieces.append(f"{sign} {txt}")
        return " ".join(pieces)

    def __repr__(self):
        return f"RelationExpr({self.render()} = 0)"


def relation_vector(shape: EShape, expr: RelationExpr):
    """Exact coordinates of the expression in the canonical basis."""
    out = [SC0] * shape.basis_size
    for coeff, node in expr.terms:
        sign, idx = _term_index(shape, node)
        out[idx] = out[idx] + (coeff if sign == 1 else -coeff)
    return tuple(out)


def _term_index(shape, node):
    if not isinstance(node, App):
        raise PresentationError("monomial must be a generator application")

    def conv(x):
        if isinstance(x, Var):
            return ("var", x.idx)
        if isinstance(x, App):
            if not (isinstance(x.a, Var) and isinstance(x.b, Var)):
                raise PresentationError(
                    "every monomial must contain exactly two generator applications")
            return ("app", shape.slot(x.gen), x.a.idx, x.b.idx)
        raise PresentationError(f"bad argument {x!r}")

    try:
        return free3.normalize_monomial(shape, shape.slot(node.gen),
                                        conv(node.a), conv(node.b))
    except Free3Error as e:
        raise PresentationError(str(e)) from None


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class GeneratorDecl(NamedTuple):
    name: str
    symmetry: str


class Presentation:
    """Generators plus a compiled, symmetric-group-closed relation space."""

    def __init__(self, name, generators, relations, params=()):
        self.name = str(name)
        self.generators = tuple(GeneratorDecl(*g) for g in generators)
        self.relations = tuple(relations)
        self.shape = EShape(self.generators)
        used_q = any(_scalar_uses_q(c) for r in self.relations for c, _ in r.terms)
        self.params = ("q",) if ("q" in params or used_q) else ()
        vecs = [relation_vector(self.shape, r) for r in self.relations]
        self.R = free3.sigma3_closure(self.shape, vecs)

    def specialize(self, q0) -> "Presentation":
        q0 = Fraction(q0)
        rels = [RelationExpr([(c.specialize(q0), t) for c, t in r.terms])
                for r in self.relations]
        return Presentation(f"{self.name}[q={q0}]", self.generators, rels)

    def render(self) -> str:
        lines = [f"operad {self.name} {{"]
        if self.params:
            lines.append("  params: q;")
        for g in self.generators:
            lines.append(f"  gen {g.name}: {g.symmetry};")
        for r in self.relations:
            lines.append(f"  rel {r.render()} = 0;")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Presentation({self.name}, dim R = {self.R.dim})"


def _scalar_uses_q(s: Scalar) -> bool:
    c = s.c
    return (not c[0].is_constant() or not c[1].is_constant()
            or bool(c[2]) or bool(c[3]))


def expr_from_vector(shape: EShape, vec) -> RelationExpr:
    """Rewrite a coordinate vector as a relation expression (one term per
    nonzero canonical basis monomial)."""
    terms = []
    for i, coeff in enumerate(vec):
        if not coeff:
            continue
        f, g, l = shape.basis_triple(i)
        a, b = VARS[(l + 1) % 3], VARS[(l + 2) % 3]
        inner = _slot_app(shape, g, Var(a), Var(b))
        terms.append((coeff, _slot_app(shape, f, inner, Var(VARS[l]))))
    return RelationExpr(terms)


def _slot_app(shape: EShape, slot: int, s, t):
    gi, ver = shape.slots[slot]
    name = shape.gens[gi][0]
    if ver:
        s, t = t, s
    return App(name, s, t)


def presentation_from_subspace(name, generators, space) -> Presentation:
    """A presentation whose relations are the reduced basis rows of an
    already symmetric-group-closed subspace."""
    shape = EShape(generators)
    rels = [expr_from_vector(shape, row) for row in space.rows]
    return Presentation(name, generators, rels)


def polarize_presentation(p: Presentation, suffix=("_s", "_a")) -> Presentation:
    """Replace every no-symmetry generator by a commutative/anticommutative
    pair and rewrite the relation space accordingly."""
    pairing = {g.name: (g.name + suffix[0], g.name + suffix[1])
               for g in p.generators if g.symmetry == "none"}
    if not pairing:
        return p
    dst = free3.polarized_shape(p.shape, suffix)
    pm = free3.polarize_map(p.shape, dst, pairing)
    return presentation_from_subspace(p.name + "_polarized", dst.gens,
                                      pm.apply_subspace(p.R))


def depolarize_presentation(p: Presentation, pairing=None, gen_name="m") -> Presentation:
    """Assemble each (comm, anti) generator pair into one no-symmetry
    generator; by default the unique such pair becomes `gen_name`."""
    if pairing is None:
        comm = [g.name for g in p.generators if g.symmetry == "comm"]
        anti = [g.name for g in p.generators if g.symmetry == "anti"]
        if len(comm) != 1 or len(anti) != 1 or len(p.generators) != 2:
            raise PresentationError(
                "default depolarization needs exactly one comm/anti pair")
        pairing = {gen_name: (comm[0], anti[0])}
    paired_sources = {n for pair in pairing.values() for n in pair}
    gens = [(tgt, "none") for tgt in pairing]
    gens += [(g.name, g.symmetry) for g in p.generators
             if g.name not in paired_sources]
    dst = EShape(gens)
    dm = free3.depolarize_map(p.shape, dst, pairing)
    return presentation_from_subspace(p.name + "_depolarized", gens,
                                      dm.apply_subspace(p.R))


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

class _Tok(NamedTuple):
    kind: str   # IDENT NUM PUNCT EOF
    text: str
    line: int
    col: int


_PUNCT = set("{}();:,=+-*/^")


def _tokenize(text):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("NUM", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(_Tok("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"lexical error: unexpected character {ch!r}", line, col)
    last_line = toks[-1].line if toks else 1
    last_col = toks[-1].col + len(toks[-1].text) - 1 if toks else 1
    toks.append(_Tok("EOF", "", last_line, last_col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self, ahead=0):
        return self.toks[min(self.k + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.k]
        if t.kind != "EOF":
            self.k += 1
        return t

    def expect(self, text, what=None):
        t = self.peek()
        if t.text != text:
            if text in ")," and (t.kind == "EOF" or t.text in ";=}"):
                raise ParseError("unbalanced parentheses", t.line, t.col)
            raise ParseError(what or f"expected {text!r}, found {t.text!r}",
                             t.line, t.col)
        return self.next()

    # -- grammar ------------------------------------------------------------

    def presentation(self):
        name = "anonymous"
        braced = False
        if self.peek().text == "operad":
            self.next()
            t = self.next()
            if t.kind != "IDENT":
                raise ParseError("expected presentation name", t.line, t.col)
            name = t.text
            self.expect("{")
            braced = True
        params = []
        if self.peek().text == "params":
            self.next()
            self.expect(":")
            t = self.next()
            if t.text != "q":
                raise ParseError("the only supported parameter is q", t.line, t.col)
            params.append("q")
            self.expect(";")
        gens = []
        while self.peek().text == "gen":
            self.next()
            t = self.next()
            if t.kind != "IDENT" or t.text in RESERVED:
                raise ParseError(f"bad generator name {t.text!r}", t.line, t.col)
            self.expect(":")
            s = self.next()
            if s.text not in ("comm", "anti", "none"):
                raise ParseError(f"unknown symmetry {s.text!r}", s.line, s.col)
            gens.append((t.text, s.text))
            self.expect(";")
        rels = []
        while self.peek().text == "rel":
            self.next()
            rels.append(self.sum_expr())
            self.expect("=")
            t = self.next()
            if t.text != "0":
                raise ParseError("relations must end in '= 0'", t.line, t.col)
            self.expect(";")
        if braced:
            self.expect("}")
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
        return name, params, gens, rels

    def sum_expr(self):
        terms = []
        sign = 1
        t = self.peek()
        if t.text in "+-":
            self.next()
            sign = 1 if t.text == "+" else -1
        while True:
            c, node = self.term()
            terms.append((c if sign == 1 else -c, node))
            t = self.peek()
            if t.text == "+":
                sign = 1
                self.next()
            elif t.text == "-":
                sign = -1
                self.next()
            else:
                break
        return RelationExpr(terms)

    def term(self):
        t = self.peek()
        if (t.kind == "NUM" or t.text in ("q", "u", "v", "(")):
            c = self.scalar_atom()
            self.expect("*", "expected '*' between scalar and application")
            return c, self.app()
        return SC1, self.app()

    def app(self):
        t = self.next()
        if t.kind != "IDENT" or t.text in ("x", "y", "z"):
            raise ParseError(f"expected generator application, found {t.text!r}",
                             t.line, t.col)
        self.expect("(")
        a = self.arg()
        nxt = self.peek()
        if nxt.text == ")":
            raise ParseError("wrong arity: expected 2 arguments", nxt.line, nxt.col)
        self.expect(",")
        b = self.arg()
        nxt = self.peek()
        if nxt.text == ",":
            raise ParseError("wrong arity: expected 2 arguments", nxt.line, nxt.col)
        self.expect(")")
        return App(t.text, a, b, (t.line, t.col))

    def arg(self):
        t = self.peek()
        if t.text in ("x", "y", "z"):
            self.next()
            return Var(t.text)
        return self.app()

    # -- scalar expressions ---------------------------------------------------

    def scalar_atom(self):
        t = self.peek()
        if t.text == "(":
            self.next()
            val = self.scalar_sum()
            self.expect(")")
            return val
        if t.kind == "NUM":
            self.next()
            num = int(t.text)
            if self.peek().text == "/" and self.peek(1).kind == "NUM":
                self.next()
                den = int(self.next().text)
                if den == 0:
                    raise ParseError("zero denominator", t.line, t.col)
                return Scalar.from_fraction(Fraction(num, den))
            return Scalar.from_fraction(num)
        if t.text == "q":
            self.next()
            return Scalar.q()
        if t.text == "u":
            self.next()
            return Scalar.u()
        if t.text == "v":
            self.next()
            return Scalar.v()
        raise ParseError(f"expected scalar, found {t.text!r}", t.line, t.col)

    def scalar_sum(self):
        t = self.peek()
        neg = False
        if t.text in "+-":
            self.next()
            neg = t.text == "-"
        val = self.scalar_product()
        if neg:
            val = -val
        while self.peek().text in "+-":
            op = self.next().text
            rhs = self.scalar_product()
            val = val + rhs if op == "+" else val - rhs
        return val

    def scalar_product(self):
        val = self.scalar_power()
        while self.peek().text in "*/":
            op = self.next().text
            rhs = self.scalar_power()
            if op == "*":
                val = val * rhs
            else:
                if not rhs:
                    t = self.peek()
                    raise ParseError("division by zero scalar", t.line, t.col)
                val = val / rhs
        return val

    def scalar_power(self):
        base = self.scalar_atom()
        if self.peek().text == "^":
            self.next()
            t = self.next()
            if t.kind != "NUM":
                raise ParseError("expected integer exponent", t.line, t.col)
            out = SC1
            for _ in range(int(t.text)):
                out = out * base
            return out
        return base


def _validate_relations(rels, gen_names):
    """Binding / well-formedness pass after the pure syntax pass; every
    diagnostic carries the source position of the offending application."""
    for rel in rels:
        for _, node in rel.terms:
            line, col = node.pos
            if node.gen not in gen_names:
                raise ParseError(f"unknown generator {node.gen!r}", line, col)
            args = (node.a, node.b)
            inner = [a for a in args if isinstance(a, App)]
            if len(inner) != 1:
                raise ParseError(
                    "every monomial must contain exactly two generator applications",
                    line, col)
            inner = inner[0]
            if inner.gen not in gen_names:
                raise ParseError(f"unknown generator {inner.gen!r}", *inner.pos)
            if isinstance(inner.a, App) or isinstance(inner.b, App):
                raise ParseError(
                    "every monomial must contain exactly two generator applications",
                    *inner.pos)
            seen = [v.name for v in (node.a, node.b, inner.a, inner.b)
                    if isinstance(v, Var)]
            if len(set(seen)) != 3:
                dup = next(v for v in seen if seen.count(v) > 1)
                raise ParseError(f"variable {dup!r} used twice in a monomial",
                                 line, col)


def parse_presentation(text: str) -> Presentation:
    name, params, gens, rels = _Parser(text).presentation()
    _validate_relations(rels, {g for g, _ in gens})
    try:
        return Presentation(name, gens, rels, params)
    except (PresentationError, Free3Error) as e:
        raise PresentationError(str(e)) from None


def parse_relation(text: str, presentation: Presentation) -> RelationExpr:
    """Parse a single relation expression against an existing presentation."""
    p = _Parser(text)
    expr = p.sum_expr()
    if p.peek().text == "=":
        p.next()
        t = p.next()
        if t.text != "0":
            raise ParseError("relations must end in '= 0'", t.line, t.col)
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
    _validate_relations([expr], {g.name for g in presentation.generators})
    return expr


# ---------------------------------------------------------------------------
# the builtin library
# ---------------------------------------------------------------------------

_JACOBI = "rel b(x,b(y,z)) + b(y,b(z,x)) + b(z,b(x,y)) = 0;"
_DIST = "rel b(x,c(y,z)) - c(b(x,y),z) - c(y,b(x,z)) = 0;"

_BUILTIN_SRC = {
    "Ass": """operad Ass {
        gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) = 0;
    }""",
    "Com": """operad Com {
        gen c: comm;
        rel c(c(x,y),z) - c(x,c(y,z)) = 0;
    }""",
    "Lie": """operad Lie {
        gen b: anti;
        rel b(x,b(y,z)) + b(y,b(z,x)) + b(z,b(x,y)) = 0;
    }""",
    "Poiss": """operad Poiss {
        gen m: none;
        rel m(x,m(y,z)) - m(m(x,y),z) + (1/3)*m(m(x,z),y) + (1/3)*m(m(y,z),x)
            - (1/3)*m(m(y,x),z) - (1/3)*m(m(z,x),y) = 0;
    }""",
    "Poiss_polarized": f"""operad Poiss_polarized {{
        gen c: comm;
        gen b: anti;
        rel c(c(x,y),z) - c(x,c(y,z)) = 0;
        {_JACOBI}
        {_DIST}
    }}""",
    "LLq": f"""operad LLq {{
        params: q;
        gen c: comm;
        gen b: anti;
        {_JACOBI}
        {_DIST}
        rel c(c(x,y),z) - c(x,c(y,z)) - q*b(y,b(x,z)) = 0;
    }}""",
    "LLinf": f"""operad LLinf {{
        gen c: comm;
        gen b: anti;
        {_JACOBI}
        {_DIST}
        rel b(y,b(x,z)) = 0;
    }}""",
    "LLq_depolarized": """operad LLq_depolarized {
        params: q;
        gen m: none;
        rel m(x,m(y,z)) - m(m(x,y),z)
            - ((q-1)/(q+3))*m(m(x,z),y) - ((q-1)/(q+3))*m(m(y,z),x)
            + ((q-1)/(q+3))*m(m(y,x),z) + ((q-1)/(q+3))*m(m(z,x),y) = 0;
    }""",
    "LLminus3": """operad LLminus3 {
        gen m: none;
        rel m(m(x,z),y) + m(m(y,z),x) - m(m(y,x),z) - m(m(z,x),y) = 0;
        rel m(m(x,y),z) - m(x,m(y,z)) + m(m(z,y),x) - m(z,m(y,x)) = 0;
        rel m(m(x,y),z) - m(x,m(y,z)) + m(m(y,z),x) - m(y,m(z,x))
            + m(m(z,x),y) - m(z,m(x,y)) = 0;
    }""",
    "G2": """operad G2 {
        gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) - m(m(y,x),z) + m(y,m(x,z)) = 0;
    }""",
    "G3": """operad G3 {
        gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) - m(m(x,z),y) + m(x,m(z,y)) = 0;
    }""",
    "G4": """operad G4 {
        gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) - m(m(z,y),x) + m(z,m(y,x)) = 0;
    }""",
    "G5": """operad G5 {
        gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) + m(m(y,z),x) - m(y,m(z,x))
            + m(m(z,x),y) - m(z,m(x,y)) = 0;
    }""",
    "G6": """operad G6 {
        gen m: none;
        rel m(m(x,y),z) - m(x,m(y,z)) - m(m(y,x),z) + m(y,m(x,z))
            - m(m(x,z),y) + m(x,m(z,y)) - m(m(z,y),x) + m(z,m(y,x))
            + m(m(y,z),x) - m(y,m(z,x)) + m(m(z,x),y) - m(z,m(x,y)) = 0;
    }""",
    "G2_polarized": """operad G2_polarized {
        gen c: comm;
        gen b: anti;
        rel 2*c(b(x,y),z) + b(b(x,y),z) - c(x,c(y,z)) + c(y,c(x,z))
            - c(x,b(y,z)) + c(y,b(x,z)) - b(x,c(y,z)) + b(y,c(x,z)) = 0;
    }""",
    "G4_polarized": """operad G4_polarized {
        gen c: comm;
        gen b: anti;
        rel c(c(x,y),z) - c(x,c(y,z)) - b(b(z,x),y) = 0;
    }""",
    "G5_polarized": f"""operad G5_polarized {{
        gen c: comm;
        gen b: anti;
        {_JACOBI}
        rel b(c(x,y),z) + b(c(y,z),x) + b(c(z,x),y) = 0;
    }}""",
    "ExTwo": """operad ExTwo {
        gen m: none;
        rel m(m(x,y),z) - m(z,m(y,x)) = 0;
    }""",
    "CyclicNotDihedral": """operad CyclicNotDihedral {
        gen m: none;
        gen c: comm;
        rel m(x,c(y,z)) + m(y,c(z,x)) + m(z,c(x,y)) = 0;
        rel m(c(x,y),z) + c(m(z,x),y) + c(x,m(z,y)) = 0;
    }""",
    "free_type3": """operad free_type3 { gen m: none; }""",
    "free_comm": """operad free_comm { gen c: comm; }""",
    "free_anti": """operad free_anti { gen b: anti; }""",
}

_ALIASES = {"G1": "Ass", "Vinberg": "G2", "PreLie": "G3"}

BUILTIN_NAMES = tuple(sorted(set(_BUILTIN_SRC) | set(_ALIASES) | {"LL0", "LL1"}))

_cache: dict = {}


def builtin(name: str) -> Presentation:
    """The presentation library: every named presentation used in the
    results table and the worked examples."""
    if name in _cache:
        return _cache[name]
    if name in _ALIASES:
        src = _BUILTIN_SRC[_ALIASES[name]]
        p = parse_presentation(src)
        p = Presentation(name, p.generators, p.relations, p.params)
    elif name == "LL0":
        p = builtin("LLq").specialize(0)
        p = Presentation("LL0", p.generators, p.relations)
    elif name == "LL1":
        p = builtin("LLq").specialize(1)
        p = Presentation("LL1", p.generators, p.relations)
    elif name in _BUILTIN_SRC:
        p = parse_presentation(_BUILTIN_SRC[name])
    else:
        raise PresentationError(f"unknown builtin presentation {name!r}")
    _cache[name] = p
    return p
