"""Character theory for the extended symmetric group on four legs.

The group permuting {0, 1, 2, 3} is the symmetric group S4; its five
irreducible characters are kept as a checked-in fixture (rows id, sgn,
V22, V31, V211 on the conjugacy classes I, (01), (012), (0123),
(01)(23) with class sizes 1, 6, 8, 6, 3).  Multiplicities of an
invariant subspace are inner products of its trace vector against the
table.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Scalar, ScalarError, exact
from .free3 import Subspace, ActionMatrix

IRREP_NAMES = ("id", "sgn", "V22", "V31", "V211")

CLASS_SIZES = (1, 6, 8, 6, 3)
GROUP_ORDER = 24

# trace of each irreducible on each class, fixture copied from the source table
CHARACTER_TABLE = {
    "id":   (1, 1, 1, 1, 1),
    "sgn":  (1, -1, 1, -1, 1),
    "V22":  (2, 0, -1, 0, 2),
    "V31":  (3, 1, 0, -1, -1),
    "V211": (3, -1, 0, 1, -1),
}

# fixed class representatives in the {0,1,2,3} labelling, as image tuples
CLASS_REPS = (
    (0, 1, 2, 3),
    (1, 0, 2, 3),
    (1, 2, 0, 3),
    (1, 2, 3, 0),
    (1, 0, 3, 2),
)


class RepError(ValueError):
    pass


class CharacterVector(tuple):
    """Traces on the five conjugacy classes, as exact Fractions."""

    def __new__(cls, values):
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != 5:
            raise RepError("a character vector has five class traces")
        return super().__new__(cls, vals)

    def inner(self, other) -> Fraction:
        return sum((Fraction(s) * Fraction(o) * n
                    for s, o, n in zip(self, other, CLASS_SIZES)),
                   Fraction(0)) / GROUP_ORDER


def restricted_trace(space: Subspace, action: ActionMatrix) -> Fraction:
    """Trace of the action restricted to an invariant subspace.

    The rows of the subspace are in reduced echelon form, so the
    coefficient of row i in the expansion of any member is its value at
    the i-th pivot column.  The entries are `exact`, and so is the sum.
    """
    total = 0
    for row, piv in zip(space.rows, space.pivots):
        img = action.apply(row)
        if not space.contains(img):
            raise RepError("subspace is not invariant under the action")
        total = total + img[piv]
    total = exact(total)
    if isinstance(total, Scalar):
        raise ScalarError("trace left the rationals; inconsistent action")
    return Fraction(total)


def character_of(space: Subspace) -> CharacterVector:
    shape = space.shape
    return CharacterVector([
        restricted_trace(space, shape.action(g)) for g in CLASS_REPS
    ])


def decompose(chi: CharacterVector) -> dict:
    """Multiplicities of the five irreducibles; raises if not a character."""
    out = {}
    for name in IRREP_NAMES:
        m = chi.inner(CHARACTER_TABLE[name])
        if m.denominator != 1 or m < 0:
            raise RepError(f"not a character: multiplicity of {name} is {m}")
        out[name] = int(m)
    return out


def decompose_subspace(space: Subspace) -> dict:
    mults = decompose(character_of(space))
    degsum = sum(CHARACTER_TABLE[n][0] * m for n, m in mults.items())
    if degsum != space.dim:
        raise RepError(f"degree sum {degsum} != dim {space.dim}")
    return mults


def render_decomposition(mults: dict) -> str:
    parts = [f"{m}·{name}" for name, m in mults.items() if m]
    return " ⊕ ".join(parts) if parts else "0"


def verify_table() -> bool:
    """Orthonormality of the five rows and the degree bookkeeping."""
    rows = [CharacterVector(CHARACTER_TABLE[n]) for n in IRREP_NAMES]
    for i, r in enumerate(rows):
        for j, s in enumerate(rows):
            if r.inner(s) != (1 if i == j else 0):
                return False
    degrees = tuple(CHARACTER_TABLE[n][0] for n in IRREP_NAMES)
    if degrees != (1, 1, 2, 3, 3):
        return False
    return sum(d * d for d in degrees) == GROUP_ORDER
