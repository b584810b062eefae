import pytest
from fractions import Fraction

from operadlab import EShape, RelationExpr, App, Var, builtin, Scalar
from operadlab.free3 import EDGE, _normalize


# ---------------------------------------------------------------------------
# expression helpers shared across test modules
# ---------------------------------------------------------------------------

def E(node):
    return RelationExpr.of(node)


def M(a, b):
    """Application of the no-symmetry generator m."""
    return App("m", a, b)


def C(a, b):
    return App("c", a, b)


def B(a, b):
    return App("b", a, b)


X, Y, Z = Var("x"), Var("y"), Var("z")


def associator(x, y, z):
    """A(x,y,z) = (x.y).z - x.(y.z) for the generator m; arguments are
    variable names or Var nodes."""
    x, y, z = (Var(a) if isinstance(a, str) else a for a in (x, y, z))
    return E(M(M(x, y), z)) - E(M(x, M(y, z)))


def dot_monomial(shape, text):
    """Index of a dotted monomial like '(x.y).z' in the canonical basis of a
    single no-symmetry generator; returns (sign, index)."""
    leaf = {"x": 1, "y": 2, "z": 3}

    def parse(s):
        s = s.strip()
        depth = 0
        for k, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "." and depth == 0:
                return ("pair", strip(s[:k]), strip(s[k + 1:]))
        if s.startswith("(") and s.endswith(")"):
            return parse(s[1:-1])
        raise ValueError(s)

    def strip(s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            return parse(s[1:-1])
        return leaf[s]

    def leg(t):
        return EDGE if isinstance(t, tuple) else t

    t = parse(text)
    inner = next(a for a in t[1:] if isinstance(a, tuple))
    return _normalize(shape, (0, (0, leg(t[1]), leg(t[2]))),
                      (0, (EDGE, leg(inner[1]), leg(inner[2]))))


@pytest.fixture(scope="session")
def t3_shape():
    return EShape([("m", "none")])


@pytest.fixture(scope="session")
def pol_shape():
    return EShape([("c", "comm"), ("b", "anti")])
