"""Decision procedures on compiled presentations.

Cyclicity is invariance of the relation space under the 4-cycle action;
dihedrality is decided twice (invariance under the left involution, and
the even/odd-part splitting criterion) and the two methods must agree.
Hopf existence is decided inside the counital normalized family

    Delta(m) = m (x) m  -  B {(m - m~) (x) (m - m~)},

the only shape a coassociative counital diagonal can take: the induced
arity-3 map into the tensor square of the quotient must kill the
relations, which collects polynomial constraints of degree <= 2 on B.
The map is Σ3-equivariant and R (x) Γ + Γ (x) R is Σ3-stable, so a row's
constraints are linear and Σ3-equivariant in it: only rows of R that
generate it as a Σ3-module are pushed through, and each image is reduced
as three Scalar matrices, the coefficients of B^2, B and 1.  The
constraints' common roots are those of the last row of the reduced
echelon form of their span, taken as vectors in the columns B^2, B, 1
over the coefficient tower (a field): no constraint admits every B, a
constant last row admits none, a linear one (which must also kill the
row above it) or the square of one a unique B, and any other quadratic
leaves the verdict undecided.

`_sigma3_generators` takes, in R.rows order, each row outside the
Σ3-closure of those taken before it, and no row in the closure of
constraint-free generators has a constraint.  So the first row of R with
one, which a `none` diagnostic names, is the first generator with one,
the source row of the first constraint `_hopf_constraints` lists.
"""

from __future__ import annotations

from typing import NamedTuple

from .scalar import Frozen, Scalar, as_scalar, SC0, SC1, padd, pmul, _peval
from .free3 import (EShape, Subspace, GAMMA3, SlotMap, gamma_plus_split,
                    left_lambda, sigma3_closure, _eliminate, _rref)
from .presentation import (Presentation, RelationExpr, relation_vector,
                           App, Var, PresentationError, depolarize_presentation,
                           expr_from_vector)


class CheckerError(ValueError):
    pass


class InternalInconsistencyError(AssertionError):
    """The two dihedrality methods disagreed: an implementation bug."""


# ---------------------------------------------------------------------------
# cyclicity and dihedrality
# ---------------------------------------------------------------------------

def check_cyclic(p: Presentation) -> bool:
    """R preserved by the generator of the cyclic extension.  A "no" is
    usually proved mod P (`Subspace.is_invariant`)."""
    return p.R.is_invariant(p.shape.action(GAMMA3))


def check_dihedral(p: Presentation) -> bool:
    """R preserved by the left involution.  Cross-checked against the
    splitting R = (R ∩ Γ+) ⊕ (R ∩ Γ-), each part found from the rows of R
    modulo the rational space Γ±, so that only R's rows are reduced.  Each
    route tries its residue certificate first (`Subspace.is_invariant`,
    `Subspace.intersect`); they share R's residue view, not a result."""
    by_lambda = p.R.is_invariant(lambda v: left_lambda(p.shape, v))
    gp, gm = gamma_plus_split(p.shape)
    rp = p.R.intersect(gp)
    rm = p.R.intersect(gm)
    by_split = (rp.dim + rm.dim) == p.R.dim
    if by_lambda != by_split:
        raise InternalInconsistencyError(
            f"dihedral methods disagree on {p.name}: "
            f"lambda-invariance={by_lambda}, splitting={by_split}")
    return by_lambda


# ---------------------------------------------------------------------------
# polynomials in the diagonal parameter B over the scalar tower
# ---------------------------------------------------------------------------

class BPoly(Frozen):
    """Dense univariate polynomial in the unknown diagonal coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, s) -> "BPoly":
        return cls([s])

    @classmethod
    def unknown(cls) -> "BPoly":
        return cls([SC0, SC1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        return BPoly(padd(self.coeffs, _as_bpoly(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return BPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_bpoly(other))

    def __mul__(self, other):
        return BPoly(pmul(self.coeffs, _as_bpoly(other).coeffs))

    __rmul__ = __mul__

    def __call__(self, value: Scalar) -> Scalar:
        return as_scalar(_peval(self.coeffs, value))

    def __eq__(self, other):
        other = _as_bpoly(other)
        return self.coeffs == other.coeffs

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"({c.render()})")
            else:
                pw = "B" if k == 1 else f"B^{k}"
                parts.append(pw if c == SC1 else f"({c.render()})*{pw}")
        return " + ".join(parts)

    def __repr__(self):
        return f"BPoly({self.render()})"


def _as_bpoly(x):
    if isinstance(x, BPoly):
        return x
    return BPoly.const(as_scalar(x))


_BP0 = BPoly([])
_BP1 = BPoly([SC1])


# ---------------------------------------------------------------------------
# diagonals on the free operad with one type-(3) generator
# ---------------------------------------------------------------------------

_T3 = EShape([("m", "none")])


class DiagonalCandidate(NamedTuple):
    """Coefficients of Delta(m) = A m(x)m + B m(x)m~ + C m~(x)m + D m~(x)m~;
    entries may be BPoly in the unknown parameter."""

    a: BPoly
    b: BPoly
    c: BPoly
    d: BPoly

    @classmethod
    def numeric(cls, a, b, c, d) -> "DiagonalCandidate":
        return cls(*(BPoly.const(as_scalar(x)) for x in (a, b, c, d)))

    @classmethod
    def normalized_family(cls) -> "DiagonalCandidate":
        """The counital family: A = 1 - B, C = B, D = -B with B unknown."""
        B = BPoly.unknown()
        return cls(_BP1 - B, B, B, -B)

    def at(self, value) -> "DiagonalCandidate":
        value = as_scalar(value)
        return DiagonalCandidate(*(BPoly.const(p(value)) for p in self))

    def is_numeric(self) -> bool:
        return all(p.degree <= 0 for p in self)


def _delta2_table(d: DiagonalCandidate):
    a, b, c, dd = d
    return {
        0: ((a, (0, 0)), (b, (0, 1)), (c, (1, 0)), (dd, (1, 1))),
        1: ((a, (1, 1)), (b, (1, 0)), (c, (0, 1)), (dd, (0, 0))),
    }


def _delta3(shape: EShape, tbl, idx: int):
    """Image of a basis monomial under the induced map into the tensor
    square: list of (coeff, (i1, i2))."""
    f, g, l = shape.basis_triple(idx)
    out = []
    for cf, (f1, f2) in tbl[f]:
        for cg, (g1, g2) in tbl[g]:
            out.append((cf * cg, (shape.index(f1, g1, l), shape.index(f2, g2, l))))
    return out


def check_coassoc(d: DiagonalCandidate) -> bool:
    """Coassociativity of the induced maps on the arity-3 component of the
    free operad on one type-(3) generator."""
    if not d.is_numeric():
        raise CheckerError("check_coassoc expects numeric coefficients")
    shape = _T3
    tbl = _delta2_table(d)
    n = shape.basis_size
    d3 = [_delta3(shape, tbl, i) for i in range(n)]
    for w in range(n):
        lhs, rhs = {}, {}
        for c, (i, j) in d3[w]:
            for c2, (i1, i2) in d3[i]:
                k = (i1, i2, j)
                lhs[k] = lhs.get(k, _BP0) + c * c2
            for c2, (j1, j2) in d3[j]:
                k = (i, j1, j2)
                rhs[k] = rhs.get(k, _BP0) + c * c2
        keys = set(lhs) | set(rhs)
        if any(lhs.get(k, _BP0) != rhs.get(k, _BP0) for k in keys):
            return False
    return True


def check_counit(d: DiagonalCandidate) -> bool:
    """(e ⊗ id)Δ = (id ⊗ e)Δ = id with the normalized projection counit:
    A+C = 1, B+D = 0, A+B = 1, C+D = 0."""
    if not d.is_numeric():
        raise CheckerError("check_counit expects numeric coefficients")
    a, b, c, dd = (p(SC0) for p in d)
    one, zero = SC1, SC0
    return (a + c == one and b + dd == zero and a + b == one and c + dd == zero)


def coassoc_family(d: DiagonalCandidate) -> str | None:
    """Which of the four coassociative families (i)-(iv) the numeric
    candidate belongs to, or None."""
    a, b, c, dd = (p(SC0) for p in d)
    z = SC0
    if dd == z and c == z and a == b:
        return "i"
    if b == c and b == -dd:
        return "ii"
    if dd == z and b == z and a == c:
        return "iii"
    if a == b == c == dd:
        return "iv"
    return None


# ---------------------------------------------------------------------------
# Hopf analysis
# ---------------------------------------------------------------------------

class HopfResult(NamedTuple):
    verdict: str                 # none | unique | all | undecided | unsupported
    witness: object = None       # Scalar (type 3), dict (type 1), or None
    diagnostic: str | None = None

    def witness_str(self) -> str | None:
        if self.witness is None:
            return None
        if isinstance(self.witness, Scalar):
            return self.witness.render()
        return str(self.witness)


_COMM_TABLE = {0: ((_BP1, (0, 0)),)}    # the counit forces Delta(c) = c (x) c
_T3_TABLE = _delta2_table(DiagonalCandidate.normalized_family())


def hopf_analyze(p: Presentation) -> HopfResult:
    """Existence of a coassociative counital diagonal on Γ(E)/(R).

    Accepts presentations generated by a single operation: one generator of
    any symmetry type, or the polarized form of a type-(3) operation (exactly
    one commutative and one anticommutative generator), which is depolarized
    internally; any other presentation is "unsupported"."""
    p = depolarize_presentation(p)
    syms = [g.symmetry for g in p.generators]
    if syms == ["anti"]:
        return HopfResult("none", None,
                          "the only equivariant counit on an anticommutative "
                          "generator is the zero map")
    if syms == ["none"]:
        return _solve_constraints(
            p.shape, _hopf_constraints(p.shape, p.R, _T3_TABLE))
    if not syms:
        return HopfResult("unsupported", None, "unsupported presentation with no generator")
    if syms != ["comm"]:
        return HopfResult("unsupported", None, "unsupported multi-generator presentation")
    constraints = _hopf_constraints(p.shape, p.R, _COMM_TABLE)
    if constraints:
        return HopfResult("none", None,
                          f"relation image survives in the quotient: "
                          f"{_render_row(p.shape, constraints[0][1])}")
    return HopfResult("unique", {"A": 1}, None)


def _hopf_constraints(shape: EShape, R: Subspace, tbl):
    """Push Σ3-generators of R through the arity-3 map induced by the slot
    table `tbl`, and reduce each image modulo R in both tensor factors.
    Returns the distinct surviving coefficients, which span those of every
    row, as (BPoly, source row) pairs, each with the row that first gives
    it, in generator order: the first pair's row is R's first failing row
    (module docstring).  The relations are preserved iff the list is empty."""
    first = {}
    for r in _sigma3_generators(shape, R):
        for c, row in _row_constraints(shape, R, tbl, r):
            first.setdefault(c.coeffs, (c, row))
    return list(first.values())


def _sigma3_generators(shape: EShape, R: Subspace):
    """A greedy subset of R's rows, from the first on, whose Σ3-closure is
    R (a compiled relation space is Σ3-closed); usually one row."""
    gens = []
    span = Subspace(shape)
    for r in R.rows:
        if span.dim == R.dim:
            break
        if not span.contains(r):
            gens.append(r)
            span = sigma3_closure(shape, gens)
    return gens


def _row_constraints(shape: EShape, R: Subspace, tbl, r):
    """The surviving coefficients of one relation row's image.  Every
    coefficient has degree <= 2 in B, so the image is split into three
    Scalar matrices, of B^0, B^1 and B^2, each reduced modulo R, columns
    first and then rows; only the surviving entries become BPoly."""
    n = shape.basis_size
    parts = [[[SC0] * n for _ in range(n)] for _ in range(3)]   # [k][j][i]
    for w, cw in enumerate(r):
        if not cw:
            continue
        for c, (i, j) in _delta3(shape, tbl, w):
            for k, ck in enumerate(c.coeffs):
                col = parts[k][j]
                col[i] = col[i] + ck * cw
    for part in parts:
        for col in part:
            if any(col):
                _eliminate(col, R.rows, R.pivots, n)
    free = [i for i in range(n) if i not in R.pivots]
    constraints = []
    for i in free:
        rows = [_eliminate([col[i] for col in part], R.rows, R.pivots, n)
                for part in parts]
        for j in free:
            c = BPoly([row[j] for row in rows])
            if c:
                constraints.append((c, r))
    return constraints


def _solve_constraints(shape: EShape, constraints) -> HopfResult:
    """The verdict on B from the (BPoly, source row) constraints.  Every
    constraint has degree <= 2, being a product of two table entries of
    degree <= 1, so the constraints span a subspace of the polynomials
    c2 B^2 + c1 B + c0, and their common roots are those of any basis of
    it.  The reduced echelon form (columns B^2, B, 1) over the tower, a
    field, is such a basis; its last row g is monic of least degree.  A
    constant g proves there is no B; a linear g gives the only candidate,
    which must also kill the row above it; the square of a linear g gives
    the only B.  Any other quadratic g has roots that may lie outside the
    tower, and the verdict is left undecided.  The constraints are
    inserted smallest first: the echelon form is the same in any order,
    but the order decides which tower elements get inverted.  The `none`
    diagnostic names the first constraint's row, R's first failing row."""
    if not constraints:
        return HopfResult("all", "any B", None)
    order = sorted((c for c, _ in constraints),
                   key=lambda c: sum(x.bit_size() for x in c.coeffs))
    rows, _ = _rref([(SC0,) * (2 - c.degree) + c.coeffs[::-1] for c in order], 3)
    *above, g = (BPoly(r[::-1]) for r in rows)
    if g.degree == 1:
        root = -g.coeffs[0]
    elif g.degree == 2 and g.coeffs[1] * g.coeffs[1] == g.coeffs[0] * 4:
        root = -g.coeffs[1] / 2
    elif g.degree == 2:
        return HopfResult("undecided", None,
                          f"constraints share the factor {g.render()} = 0 "
                          f"over the tower")
    if g.degree == 0 or any(h(root) for h in above):
        return HopfResult("none", None,
                          f"no admissible B; first failing relation: "
                          f"{_render_row(shape, constraints[0][1])}")
    assert all(c(root).is_zero() for c in order)
    return HopfResult("unique", root, None)


def _render_row(shape, row):
    parts = [f"({c.render()})*{t.render()}"
             for c, t in expr_from_vector(shape, row).terms]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# substitution isomorphisms and implication checks
# ---------------------------------------------------------------------------

def slotmap_from_exprs(p: Presentation, p2: Presentation, mapping) -> SlotMap:
    """Build the induced generator map from arity-2 expressions.

    mapping sends each generator name of p to a RelationExpr over p2's
    generators whose monomials are single applications h(x,y) or h(y,x).
    """
    images = {}
    shape, shape2 = p.shape, p2.shape
    extra = sorted(set(mapping) - {g.name for g in p.generators})
    if extra:
        raise CheckerError(f"no source generator named {extra[0]!r}")
    for g in p.generators:
        if g.name not in mapping:
            raise CheckerError(f"no image given for generator {g.name!r}")
        expr = mapping[g.name]
        img = []
        for coeff, node in expr.terms:
            if not (isinstance(node, App) and isinstance(node.a, Var)
                    and isinstance(node.b, Var)):
                raise CheckerError("generator images must be binary applications")
            sl = shape2.slot(node.gen)
            names = (node.a.name, node.b.name)
            if names == ("x", "y"):
                img.append((coeff, sl))
            elif names == ("y", "x"):
                img.append(shape2.tau_term(coeff, sl))
            else:
                raise CheckerError("generator images must use x and y once each")
        images[shape.slot(g.name)] = img
        if g.symmetry == "none":
            sl_op = shape.slot(g.name, 1)
            images[sl_op] = [shape2.tau_term(c, t) for c, t in img]
    sm = SlotMap(shape, shape2, images)
    if not sm.check_equivariant():
        raise CheckerError("generator map is not equivariant for the "
                           "transposition action")
    return sm


def check_substitution_iso(p: Presentation, p2: Presentation, mapping) -> bool:
    """True iff the generator substitution is an invertible equivariant map
    sending the relation space of p exactly onto that of p2."""
    sm = slotmap_from_exprs(p, p2, mapping)
    if not sm.is_invertible():
        raise CheckerError("generator map is not invertible")
    return sm.apply_subspace(p.R) == p2.R


def check_implies(p_stronger: Presentation, target: RelationExpr) -> bool:
    """True iff the target relation lies in the compiled relation space."""
    try:
        vec = relation_vector(p_stronger.shape, target)
    except PresentationError as e:
        raise CheckerError(f"alphabet mismatch: {e}") from None
    return p_stronger.R.contains(vec)


def verify_identity(p: Presentation, lhs: RelationExpr, rhs: RelationExpr) -> bool:
    """Exact equality of two expressions as free-operad vectors."""
    return (relation_vector(p.shape, lhs) == relation_vector(p.shape, rhs))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def verdict_report(p: Presentation) -> dict:
    """The JSON-ready verdict object for one presentation."""
    hopf = hopf_analyze(p)
    return {
        "presentation": p.name,
        "cyclic": check_cyclic(p),
        "dihedral": check_dihedral(p),
        "hopf": {"verdict": hopf.verdict, "witness": hopf.witness_str()},
    }
