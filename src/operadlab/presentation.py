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

Lexical rules: ``#`` starts a comment that runs to the end of the line;
numbers are runs of the ASCII digits 0-9; identifiers start with a
letter or ``_`` and go on with ``_`` and the characters for which
``str.isalnum()`` holds.  Anything else, a leading non-ASCII digit such
as ``²`` included, is a lexical error.

Relations compile to exact vectors in the canonical basis of the
arity-3 free-operad component; the stored relation space R is always
closed under the inner symmetric-group action.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .scalar import Scalar, as_scalar, SC0, SC1
from . import free3
from .free3 import EShape, Free3Error, VARS

RESERVED = {"x", "y", "z", "q", "u", "v", "operad", "gen", "rel", "params",
            "comm", "anti", "none"}


class PresentationError(ValueError):
    pass


class ParseError(PresentationError):
    def __init__(self, msg, line, col):
        super().__init__(f"{msg} at {line}:{col}")
        self.msg = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

class Var(NamedTuple):
    name: str

    def render(self):
        return self.name


class App(NamedTuple):
    gen: str
    a: object
    b: object
    pos: tuple | None = None

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
    """(sign, basis index) of one monomial.  Its faults are checked first,
    in a fixed order, each at the application it names."""
    if not isinstance(node, App):
        raise PresentationError("monomial must be a generator application")
    f, (inner,) = _vertex(shape, node, 1)
    g, _ = _vertex(shape, inner, 0)
    leaves = (node.b if node.a is inner else node.a, inner.a, inner.b)
    bad = [v for v in leaves if not isinstance(v, Var)]
    if bad:
        raise PresentationError(f"bad argument {bad[0]!r}")
    seen = [v.name for v in leaves]
    unknown = [v for v in seen if v not in VARS]
    if unknown:
        raise _fault(node, f"unknown variable {unknown[0]!r}")
    if len(set(seen)) != 3:
        dup = next(v for v in seen if seen.count(v) > 1)
        raise _fault(node, f"variable {dup!r} used twice in a monomial")
    l, i, j = (VARS.index(v) + 1 for v in seen)
    e = free3.EDGE
    outer = (0, e, l) if node.a is inner else (0, l, e)
    return free3._normalize(shape, (f, outer), (g, (e, i, j)))


def _vertex(shape, node: App, n: int):
    """The slot of a monomial's application, and those of its arguments
    that are applications, checked to be n in number."""
    try:
        slot = shape.slot(node.gen)
    except Free3Error:
        raise _fault(node, f"unknown generator {node.gen!r}") from None
    apps = [a for a in (node.a, node.b) if isinstance(a, App)]
    if len(apps) != n:
        raise _fault(node, "every monomial must contain exactly two "
                           "generator applications")
    return slot, apps


def _fault(node: App, msg: str) -> PresentationError:
    """A fault at an application: a ParseError at its source position when
    it was parsed."""
    return ParseError(msg, *node.pos) if node.pos else PresentationError(msg)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class GeneratorDecl(NamedTuple):
    name: str
    symmetry: str


class Presentation:
    """Generators plus a compiled, symmetric-group-closed relation space."""

    def __init__(self, name, generators, relations, params=(), R=None):
        """R, when given, is the relation space as it is (already closed);
        otherwise it is compiled from the relations and closed."""
        self.name = str(name)
        self.generators = tuple(GeneratorDecl(*g) for g in generators)
        self.relations = tuple(relations)
        self.shape = EShape(self.generators)
        used_q = any(_scalar_uses_q(c) for r in self.relations for c, _ in r.terms)
        self.params = ("q",) if ("q" in params or used_q) else ()
        if R is None:
            vecs = [relation_vector(self.shape, r) for r in self.relations]
            R = free3.sigma3_closure(self.shape, vecs)
        self.R = R

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
    nonzero canonical basis monomial).  This is the one decoder of a basis
    index into its left-comb monomial; rendering a vector goes through it."""
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
    already symmetric-group-closed subspace, which becomes its R as it is."""
    rels = [expr_from_vector(space.shape, row) for row in space.rows]
    return Presentation(name, generators, rels, R=space)


def polarize_presentation(p: Presentation) -> Presentation:
    """Replace every no-symmetry generator m by the commutative/
    anticommutative pair m_s, m_a and rewrite the relation space
    accordingly."""
    if all(g.symmetry != "none" for g in p.generators):
        return p
    pm = free3.polarize_map(p.shape)
    return presentation_from_subspace(p.name + "_polarized", pm.dst.gens,
                                      pm.apply_subspace(p.R))


def depolarize_presentation(p: Presentation) -> Presentation:
    """Assemble exactly one commutative and one anticommutative generator
    into one no-symmetry generator m and rewrite the relation space
    accordingly; any other presentation is returned as it is."""
    names = {g.symmetry: g.name for g in p.generators}
    if len(p.generators) != 2 or set(names) != {"comm", "anti"}:
        return p
    gens = [("m", "none")]
    dm = free3.depolarize_map(p.shape, EShape(gens),
                              {"m": (names["comm"], names["anti"])})
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


# one alternative per token kind; whitespace and comments are unnamed.
# \w is exactly str.isalnum() plus '_', so an identifier runs as far as
# isalnum() allows, and one that starts with a non-letter (a non-ASCII
# digit such as '²' or '٣') is rejected at its first character.
_TOKEN = re.compile(r"(?P<NL>\n)|(?:[ \t\r]+|#[^\n]*)|(?P<NUM>[0-9]+)"
                    r"|(?P<IDENT>\w+)|(?P<PUNCT>[{}();:,=+\-*/^])|(?P<BAD>.)")


def _tokenize(text):
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "BAD" or (kind == "IDENT"
                               and not (tok[0].isalpha() or tok[0] == "_")):
            raise ParseError(f"lexical error: unexpected character {tok[0]!r}",
                             line, col)
        elif kind:
            toks.append(_Tok(kind, tok, line, col))
    last_line = toks[-1].line if toks else 1
    last_col = toks[-1].col + len(toks[-1].text) - 1 if toks else 1
    toks.append(_Tok("EOF", "", last_line, last_col))
    return toks


# the scalar symbols: q, sqrt 2 and sqrt q
_ATOMS = {"q": Scalar.q, "u": Scalar.u, "v": Scalar.v}


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
            if text in (")", ",") and (t.kind == "EOF" or t.text in (";", "=", "}")):
                raise ParseError("unbalanced parentheses", t.line, t.col)
            raise ParseError(what or f"expected {text!r}, found {t.text!r}",
                             t.line, t.col)
        return self.next()

    def equals_zero(self):
        self.expect("=")
        t = self.next()
        if t.text != "0":
            raise ParseError("relations must end in '= 0'", t.line, t.col)

    def end(self):
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col)

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
            self.equals_zero()
            self.expect(";")
        if braced:
            self.expect("}")
        self.end()
        return name, params, gens, rels

    def sum_expr(self):
        terms = []
        sign = self.sign()
        while True:
            c, node = self.term()
            terms.append((c if sign == 1 else -c, node))
            if self.peek().text not in ("+", "-"):
                return RelationExpr(terms)
            sign = self.sign()

    def sign(self):
        """-1 after reading '-', 1 after '+' or nothing."""
        if self.peek().text in ("+", "-"):
            return -1 if self.next().text == "-" else 1
        return 1

    def term(self):
        t = self.peek()
        if t.kind == "NUM" or t.text in _ATOMS or t.text == "(":
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
        if t.text in _ATOMS:
            self.next()
            return _ATOMS[t.text]()
        raise ParseError(f"expected scalar, found {t.text!r}", t.line, t.col)

    def scalar_sum(self):
        sign = self.sign()
        val = self.scalar_product()
        if sign == -1:
            val = -val
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.scalar_product()
            val = val + rhs if op == "+" else val - rhs
        return val

    def scalar_product(self):
        val = self.scalar_power()
        while self.peek().text in ("*", "/"):
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
            # square and multiply, one bit of the exponent at a time
            out, n = SC1, int(t.text)
            while n:
                if n & 1:
                    out = out * base
                n >>= 1
                if n:
                    base = base * base
            return out
        return base


def parse_presentation(text: str) -> Presentation:
    name, params, gens, rels = _Parser(text).presentation()
    try:
        return Presentation(name, gens, rels, params)
    except Free3Error as e:
        raise PresentationError(str(e)) from None


def parse_expression(text: str) -> RelationExpr:
    """A sum of scalar-weighted applications, optionally followed by
    '= 0', that makes up the whole text; its monomials are not checked."""
    p = _Parser(text)
    expr = p.sum_expr()
    if p.peek().text == "=":
        p.equals_zero()
    p.end()
    return expr


def parse_relation(text: str, presentation: Presentation) -> RelationExpr:
    """Parse a single relation expression against an existing presentation."""
    expr = parse_expression(text)
    relation_vector(presentation.shape, expr)   # checks every monomial
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

# name -> (source, q or None): an alias, or a specialization at q
_DERIVED = {"G1": ("Ass", None), "Vinberg": ("G2", None), "PreLie": ("G3", None),
            "LL0": ("LLq", 0), "LL1": ("LLq", 1)}

BUILTIN_NAMES = tuple(sorted(set(_BUILTIN_SRC) | set(_DERIVED)))

_cache: dict = {}


def builtin(name: str) -> Presentation:
    """The presentation library: every named presentation used in the
    results table and the worked examples."""
    if name in _cache:
        return _cache[name]
    if name in _BUILTIN_SRC:
        p = parse_presentation(_BUILTIN_SRC[name])
    elif name in _DERIVED:
        # the closed space of the source, under the new name
        base, q0 = _DERIVED[name]
        src = builtin(base) if q0 is None else builtin(base).specialize(q0)
        p = Presentation(name, src.generators, src.relations, src.params, src.R)
    else:
        raise PresentationError(f"unknown builtin presentation {name!r}")
    _cache[name] = p
    return p
