import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from operadlab import (EShape, Scalar, basis_vector, right_action,
                       left_lambda, span_closure,
                       sigma3_closure, gamma_plus_split, polarize_map,
                       depolarize_map, SIGMA3, SIGMA3_PLUS, GAMMA3, TAU12,
                       TAU23, CYC123, ActionMatrix, Subspace, GroupElement,
                       LAMBDA)
from operadlab.free3 import (apply_perm_to_basis, lambda_basis, Free3Error,
                             normalize_monomial)
from conftest import dot_monomial

DATA = Path(__file__).parent / "data"


def load_gamma_table():
    rows = []
    for line in (DATA / "gamma3_plus_table.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        src, dst = (s.strip() for s in line.split("->"))
        rows.append((src, dst))
    return rows


# -- canonical bases ----------------------------------------------------------

def test_basis_sizes():
    assert EShape([("m", "none")]).basis_size == 12
    assert EShape([("c", "comm")]).basis_size == 3
    assert EShape([("m", "none"), ("c", "comm")]).basis_size == 27


def test_comm_basis_monomials():
    shape = EShape([("c", "comm")])
    labels = {shape.monomial_str(i) for i in range(3)}
    assert labels == {"c(c(y,z),x)", "c(c(z,x),y)", "c(c(x,y),z)"}


def test_normalize_monomial_errors():
    shape = EShape([("m", "none")])
    with pytest.raises(Free3Error):
        normalize_monomial(shape, 0, ("var", 0), ("var", 1))
    with pytest.raises(Free3Error):
        normalize_monomial(shape, 0, ("app", 0, 0, 0), ("var", 2))


# -- the cyclic generator against the golden table ----------------------------

def test_gamma_matches_table(t3_shape):
    rows = load_gamma_table()
    assert len(rows) == 12
    seen = set()
    for src, dst in rows:
        s1, i1 = dot_monomial(t3_shape, src)
        assert s1 == 1
        seen.add(i1)
        s2, i2 = apply_perm_to_basis(t3_shape, i1, GAMMA3)
        se, ie = dot_monomial(t3_shape, dst)
        assert (s2, i2) == (se, ie), f"{src} -> {dst}"
    assert len(seen) == 12


def test_gamma_fourth_power_is_identity(t3_shape):
    for i in range(t3_shape.basis_size):
        s, j = 1, i
        for _ in range(4):
            s2, j = apply_perm_to_basis(t3_shape, j, GAMMA3)
            s *= s2
        assert (s, j) == (1, i)


def test_right_action_examples(t3_shape):
    # ((x.y).z).tau12 = (y.x).z
    _, i = dot_monomial(t3_shape, "(x.y).z")
    s, j = apply_perm_to_basis(t3_shape, i, TAU12)
    se, je = dot_monomial(t3_shape, "(y.x).z")
    assert (s, j) == (se, je)


def test_anti_generator_sign():
    shape = EShape([("c", "comm"), ("b", "anti")])
    # ([x,y]z).tau12 = [y,x]z = -[x,y]z
    idx = shape.index(shape.slot("c"), shape.slot("b"), 2)
    v = basis_vector(shape, idx)
    w = right_action(shape, v, TAU12)
    assert w[idx] == -Scalar.one()
    assert sum(1 for c in w if c) == 1


@pytest.mark.parametrize("shape", [EShape([("m", "none")]),
                                   EShape([("c", "comm"), ("b", "anti")]),
                                   EShape([("m", "none"), ("c", "comm")])])
def test_action_axiom_on_generators(shape):
    gens = (GAMMA3, TAU12, CYC123, TAU23)
    for a, b in itertools.product(gens, repeat=2):
        ab = a * b
        for i in range(shape.basis_size):
            s1, j1 = apply_perm_to_basis(shape, i, a)
            s2, j2 = apply_perm_to_basis(shape, j1, b)
            s3, j3 = apply_perm_to_basis(shape, i, ab)
            assert (s1 * s2, j2) == (s3, j3)


def test_group_element_validation():
    with pytest.raises(Free3Error):
        GroupElement((0, 1, 1, 3))
    g = GroupElement((1, 2, 3, 0))
    assert g.inverse() * g == GroupElement((0, 1, 2, 3))
    assert not g.fixes_output()
    assert TAU12.fixes_output()


# -- the left involution -------------------------------------------------------

def test_lambda_examples(t3_shape, pol_shape):
    # lambda((x.y).z) = z.(y.x)
    _, i = dot_monomial(t3_shape, "(x.y).z")
    s, j = lambda_basis(t3_shape, i)
    se, je = dot_monomial(t3_shape, "z.(y.x)")
    assert (s, j) == (se, je)
    # fixes x(yz) and [x,[y,z]], negates x[y,z]
    cs, bs = pol_shape.slot("c"), pol_shape.slot("b")
    for f, g, sign in ((cs, cs, 1), (bs, bs, 1), (cs, bs, -1), (bs, cs, -1)):
        idx = pol_shape.index(f, g, 0)
        s, j = lambda_basis(pol_shape, idx)
        assert (s, j) == (sign, idx)


@pytest.mark.parametrize("shape", [EShape([("m", "none")]),
                                   EShape([("m", "none"), ("c", "comm")])])
def test_lambda_involution_and_compatibility(shape):
    for i in range(shape.basis_size):
        s1, j1 = lambda_basis(shape, i)
        s2, j2 = lambda_basis(shape, j1)
        assert (s1 * s2, j2) == (1, i)
    for g in (GAMMA3, TAU12, CYC123):
        for i in range(shape.basis_size):
            sl, jl = lambda_basis(shape, i)
            sa, ja = apply_perm_to_basis(shape, jl, g)
            sb, jb = apply_perm_to_basis(shape, i, g)
            sl2, jl2 = lambda_basis(shape, jb)
            assert (sl * sa, ja) == (sb * sl2, jl2)


# -- polarization ----------------------------------------------------------------

def test_polarize_roundtrip(t3_shape):
    pm = polarize_map(t3_shape)
    dm = depolarize_map(pm.dst, t3_shape, {"m": ("m_s", "m_a")})
    for i in range(t3_shape.basis_size):
        v = basis_vector(t3_shape, i)
        assert dm.apply(pm.apply(v)) == v
        assert pm.apply(dm.apply(pm.apply(v))) == pm.apply(v)
    zero = tuple([Scalar.zero()] * t3_shape.basis_size)
    assert pm.apply(zero) == tuple([Scalar.zero()] * pm.dst.basis_size)


def test_polarize_intertwines_actions(t3_shape):
    pm = polarize_map(t3_shape)
    for g in SIGMA3_PLUS:
        for i in range(t3_shape.basis_size):
            v = basis_vector(t3_shape, i)
            assert pm.apply(right_action(t3_shape, v, g)) == \
                right_action(pm.dst, pm.apply(v), g)
    for i in range(t3_shape.basis_size):
        v = basis_vector(t3_shape, i)
        assert pm.apply(left_lambda(t3_shape, v)) == \
            left_lambda(pm.dst, pm.apply(v))


def test_polarize_map_equivariance(t3_shape):
    assert polarize_map(t3_shape).check_equivariant()
    pm = polarize_map(t3_shape)
    assert pm.is_invertible()


# -- the parity splitting --------------------------------------------------------

def test_gamma_split_dims(t3_shape):
    gp, gm = gamma_plus_split(t3_shape)
    assert (gp.dim, gm.dim) == (6, 6)
    mixed = EShape([("m", "none"), ("c", "comm")])
    gp2, gm2 = gamma_plus_split(mixed)
    assert (gp2.dim, gm2.dim) == (15, 12)
    assert gp2.intersect(gm2).dim == 0
    assert gp2.sum(gm2).dim == 27


def test_gamma_split_is_lambda_eigensplit(t3_shape):
    gp, gm = gamma_plus_split(t3_shape)
    half = Scalar.from_fraction(Fraction(1, 2))
    plus, minus = [], []
    for i in range(t3_shape.basis_size):
        v = basis_vector(t3_shape, i)
        lv = left_lambda(t3_shape, v)
        plus.append(tuple((a + b) * half for a, b in zip(v, lv)))
        minus.append(tuple((a - b) * half for a, b in zip(v, lv)))
    assert Subspace(t3_shape, plus) == gp
    assert Subspace(t3_shape, minus) == gm
    for r in gp.rows:
        assert left_lambda(t3_shape, r) == r
    for r in gm.rows:
        assert left_lambda(t3_shape, r) == tuple(-c for c in r)


def test_gamma_split_invariant(t3_shape):
    gp, gm = gamma_plus_split(t3_shape)
    for g in (GAMMA3, TAU12, CYC123):
        act = ActionMatrix(t3_shape, g)
        assert gp.is_invariant(act)
        assert gm.is_invariant(act)


# -- subspaces --------------------------------------------------------------------

def test_subspace_ops(t3_shape):
    v0 = basis_vector(t3_shape, 0)
    v1 = basis_vector(t3_shape, 1)
    s01 = Subspace(t3_shape, [v0, v1])
    s0 = Subspace(t3_shape, [v0])
    assert s01.contains(v0) and s01.contains_subspace(s0)
    assert s01.intersect(s0) == s0
    assert s0.sum(Subspace(t3_shape, [v1])) == s01
    assert Subspace(t3_shape, [v0, v0]).dim == 1


def test_subspace_dimension_mismatch(t3_shape):
    with pytest.raises(Free3Error):
        Subspace(t3_shape, [(Scalar.one(),)])


def test_closure_of_single_vector_under_trivial_group(t3_shape):
    from conftest import associator
    from operadlab import relation_vector
    v = relation_vector(t3_shape, associator(*"xyz"))
    assert span_closure(t3_shape, [v]).dim == 1


def test_action_built_once_per_shape_instance(t3_shape):
    # bench/run.py's traced self-test needs every pass, which compiles its
    # own shapes, to build its matrices: equal shapes must not share them.
    assert t3_shape.action(GAMMA3) is t3_shape.action(GAMMA3)
    assert t3_shape.action(LAMBDA) is t3_shape.action(LAMBDA)
    twin = EShape(t3_shape.gens)
    assert twin == t3_shape
    assert twin.action(GAMMA3) is not t3_shape.action(GAMMA3)
    v = basis_vector(t3_shape, 3)
    assert twin.action(GAMMA3).apply(v) == t3_shape.action(GAMMA3).apply(v)
