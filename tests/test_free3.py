import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from operadlab import (EShape, Scalar, basis_vector, right_action,
                       left_lambda, span_closure, expr_from_vector,
                       sigma3_closure, gamma_plus_split, polarize_map,
                       depolarize_map, SIGMA3, SIGMA3_PLUS, GAMMA3, TAU12,
                       TAU23, CYC123, ActionMatrix, Subspace, GroupElement,
                       LAMBDA)
from operadlab import free3
from operadlab.free3 import (apply_perm_to_basis, lambda_basis, Free3Error,
                             EDGE, _normalize, _rank_mod_p, _rref)
from operadlab.scalar import RESIDUE_V0
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
    labels = {expr_from_vector(shape, basis_vector(shape, i)).render() for i in range(3)}
    assert labels == {"c(c(y,z),x)", "c(c(z,x),y)", "c(c(x,y),z)"}


def test_normalize_monomial_errors():
    shape = EShape([("m", "none")])
    # m(x, y): the root vertex has no edge
    with pytest.raises(Free3Error):
        _normalize(shape, (0, (0, 1, 2)), (0, (EDGE, 3, EDGE)))
    # m(m(x, x), z)
    with pytest.raises(Free3Error):
        _normalize(shape, (0, (0, EDGE, 3)), (0, (EDGE, 1, 1)))



# the (sign, index) image of every basis monomial under every element of
# SIGMA3_PLUS (keyed by its images of legs 0..3) and under LAMBDA, on six
# generator shapes
def test_action_tables_match_pinned_data():
    records = json.loads((DATA / "action_tables.json").read_text())
    assert len(records) == 6
    for rec in records:
        shape = EShape(rec["gens"])
        tables = rec["tables"]
        assert len(tables) == len(SIGMA3_PLUS) + 1
        for g in SIGMA3_PLUS:
            want = tables["".join(map(str, g.images))]
            got = [list(apply_perm_to_basis(shape, i, g))
                   for i in range(shape.basis_size)]
            assert got == want, (rec["gens"], g)
        got = [list(lambda_basis(shape, i)) for i in range(shape.basis_size)]
        assert got == tables["lambda"], rec["gens"]

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


def test_polarize_roundtrip_passes_unpaired_slots_through():
    shape = EShape([("m", "none"), ("c", "comm"), ("b", "anti")])
    pm = polarize_map(shape)
    dm = depolarize_map(pm.dst, shape, {"m": ("m_s", "m_a")})
    for i in range(shape.basis_size):
        v = basis_vector(shape, i)
        assert dm.apply(pm.apply(v)) == v
    for sm in (pm, dm):
        assert sm.check_equivariant() and sm.is_invertible()
        for name in ("c", "b"):
            assert sm.images[sm.src.slot(name)] == ((Scalar.one(), sm.dst.slot(name)),)


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


# entries: small rationals, or a + b*q + c*u + d*v with small rational a..d
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
TOWER_GENS = (Scalar.one(), Scalar.q(), Scalar.u(), Scalar.v())
entries = st.one_of(
    small.map(Scalar.from_fraction),
    st.tuples(*[small] * 4).map(
        lambda cs: sum((g * c for g, c in zip(TOWER_GENS, cs)), Scalar.zero())))


def sparse_vector(support, size=12):
    return st.dictionaries(st.integers(0, size - 1), entries,
                           min_size=1, max_size=support).map(
        lambda d: tuple(d.get(i, Scalar.zero()) for i in range(size)))


def check_intersection(a, b):
    inter = a.intersect(b)
    assert a.contains_subspace(inter) and b.contains_subspace(inter)
    assert inter.dim == a.dim + b.dim - a.sum(b).dim
    assert b.intersect(a) == inter
    return inter


@settings(max_examples=40, deadline=None)
@given(pool=st.lists(sparse_vector(3), min_size=1, max_size=4),
       picks=st.tuples(*[st.sets(st.integers(0, 3))] * 2),
       extra=st.tuples(*[st.lists(sparse_vector(2), max_size=1)] * 2))
def test_intersect_properties(t3_shape, pool, picks, extra):
    # A and B share vectors of one pool, so that A ∩ B is often nonzero
    a, b = (Subspace(t3_shape, [pool[i] for i in sorted(p) if i < len(pool)] + e)
            for p, e in zip(picks, extra))
    check_intersection(a, b)


def test_intersect_edge_cases(t3_shape):
    q, u, v = Scalar.q(), Scalar.u(), Scalar.v()
    zero, one = Scalar.zero(), Scalar.one()

    def vec(entries):
        return tuple(entries.get(i, zero) for i in range(t3_shape.basis_size))

    vecs = [vec({0: one, 3: q}), vec({1: u, 5: -v, 7: one}), vec({0: q + u, 2: one})]
    empty = Subspace(t3_shape)
    part = Subspace(t3_shape, vecs[:2])
    whole = Subspace(t3_shape, vecs)
    assert check_intersection(empty, whole) == empty
    assert check_intersection(whole, empty) == empty
    assert check_intersection(part, whole) == part        # A ⊂ B
    assert check_intersection(whole, part) == part        # B ⊂ A
    assert check_intersection(whole, whole) == whole      # A == B
    assert check_intersection(empty, empty) == empty
    # neither row of `mixed` lies in `part`, but their sum does
    mixed = Subspace(t3_shape, [tuple(a + b for a, b in zip(vecs[0], vecs[2])),
                                tuple(a - b for a, b in zip(vecs[1], vecs[2]))])
    sum01 = tuple(a + b for a, b in zip(vecs[0], vecs[1]))
    assert check_intersection(mixed, part) == Subspace(t3_shape, [sum01])


# -- the rank mod P before the exact elimination ---------------------------------

def exact_intersect(a, b):
    """a.intersect(b) by the exact elimination alone."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(free3, "_rank_mod_p", lambda vectors: None)
        return a.intersect(b)


@settings(max_examples=40, deadline=None)
@given(st.lists(sparse_vector(3, size=4), min_size=1, max_size=4), st.data())
def test_rank_mod_p_is_at_most_the_exact_rank(vs, data):
    # a combination of two of them makes some lists dependent
    if data.draw(st.booleans()):
        c = data.draw(entries)
        vs.append(tuple(a + c * b for a, b in zip(vs[0], vs[-1])))
    rank = _rank_mod_p(vs)
    assert rank is None or rank <= len(_rref(vs, 4)[0])


@settings(max_examples=30, deadline=None)
@given(pool=st.lists(sparse_vector(3), min_size=1, max_size=4),
       picks=st.tuples(*[st.sets(st.integers(0, 3))] * 2),
       gamma=st.booleans())
def test_intersect_equals_the_exact_path(t3_shape, pool, picks, gamma):
    a, b = (Subspace(t3_shape, [pool[i] for i in sorted(p) if i < len(pool)])
            for p in picks)
    if gamma:       # the rational Γ± of check_dihedral as the other space
        b = gamma_plus_split(t3_shape)[len(pool) % 2]
    assert a.intersect(b) == exact_intersect(a, b)


def test_intersect_at_an_unlucky_point(t3_shape):
    zero, one, q = Scalar.zero(), Scalar.one(), Scalar.q()
    v0sq = Scalar.from_fraction(RESIDUE_V0 ** 2)
    at_point = q - v0sq                                   # residue 0

    def vec(entries):
        return tuple(entries.get(i, zero) for i in range(t3_shape.basis_size))

    # a pole at the point: no bound, the exact path answers
    b = Subspace(t3_shape, [vec({2: one})])
    a = Subspace(t3_shape, [vec({0: one, 3: one / at_point}), vec({1: one, 3: one})])
    rems = [b.reduce(r) for r in a.rows]
    assert _rank_mod_p(rems) is None
    assert a.intersect(b) == exact_intersect(a, b) == Subspace(t3_shape)
    # remainders e3 - e1/V0^2 and e1 + q e3 are independent, with a
    # determinant (q - V0^2)/V0^2 that vanishes at the point
    b = Subspace(t3_shape, [vec({0: one, 1: -one / v0sq})])
    a = Subspace(t3_shape, [vec({0: one, 3: one}), vec({1: one, 3: q})])
    rems = [b.reduce(r) for r in a.rows]
    assert _rank_mod_p(rems) == 1
    assert a.intersect(b) == exact_intersect(a, b) == Subspace(t3_shape)
    # and a nonzero intersection at the point
    c = Subspace(t3_shape, [vec({0: one, 3: one}), vec({1: one, 3: at_point})])
    d = Subspace(t3_shape, [vec({0: one, 1: one, 3: at_point + one})])
    assert c.intersect(d) == exact_intersect(c, d) == d


def test_subspace_dimension_mismatch(t3_shape):
    with pytest.raises(Free3Error):
        Subspace(t3_shape, [(Scalar.one(),)])


@pytest.mark.parametrize("length", [11, 13])
@pytest.mark.parametrize("close", [lambda sh, vs: span_closure(sh, vs),
                                   sigma3_closure], ids=["span", "sigma3"])
def test_closure_rejects_a_vector_of_the_wrong_length(t3_shape, length, close):
    # a 13-entry vector whose only nonzero entry lies past the ambient
    vec = [Scalar.zero()] * length
    vec[-1] = Scalar.one()
    assert t3_shape.basis_size == 12
    with pytest.raises(Free3Error, match=f"vector length {length} != ambient 12"):
        close(t3_shape, [tuple(vec)])


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
