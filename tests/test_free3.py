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
                       TAU23, CYC123, ActionMatrix, Subspace, LAMBDA)
from operadlab import builtin, free3, relation_vector
from operadlab.free3 import (apply_perm_to_basis, lambda_basis, Free3Error,
                             EDGE, _normalize, _residue_rank, _residues,
                             _rref)
from operadlab.scalar import SC0, SC1, RESIDUE_V0, exact
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
            want = tables["".join(map(str, g))]
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
    assert w[idx] == -SC1
    assert sum(1 for c in w if c) == 1


@pytest.mark.parametrize("shape", [EShape([("m", "none")]),
                                   EShape([("c", "comm"), ("b", "anti")]),
                                   EShape([("m", "none"), ("c", "comm")])])
def test_action_axiom_on_generators(shape):
    # (w.a).b = w.(a then b), with (a then b)[i] = b[a[i]], on all of SIGMA3_PLUS
    table = {g: [apply_perm_to_basis(shape, i, g) for i in range(shape.basis_size)]
             for g in SIGMA3_PLUS}
    assert len(table) == 24 and {GAMMA3, TAU12, CYC123, TAU23} <= set(table)
    for a, b in itertools.product(SIGMA3_PLUS, repeat=2):
        ab = tuple(b[a[i]] for i in range(4))
        ta, tb = table[a], table[b]
        for i, (s3, j3) in enumerate(table[ab]):
            s1, j1 = ta[i]
            s2, j2 = tb[j1]
            assert (s1 * s2, j2) == (s3, j3)
    # the inner symmetric group is the stabiliser of the output leg
    assert SIGMA3 == tuple(g for g in SIGMA3_PLUS if g[0] == 0)


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
    dm = depolarize_map(pm.dst, {"m": ("m_s", "m_a")})
    for i in range(t3_shape.basis_size):
        v = basis_vector(t3_shape, i)
        assert dm.apply(pm.apply(v)) == v
        assert pm.apply(dm.apply(pm.apply(v))) == pm.apply(v)
    zero = tuple([SC0] * t3_shape.basis_size)
    assert pm.apply(zero) == tuple([SC0] * pm.dst.basis_size)


def test_polarize_roundtrip_passes_unpaired_slots_through():
    shape = EShape([("m", "none"), ("c", "comm"), ("b", "anti")])
    pm = polarize_map(shape)
    dm = depolarize_map(pm.dst, {"m": ("m_s", "m_a")})
    for i in range(shape.basis_size):
        v = basis_vector(shape, i)
        assert dm.apply(pm.apply(v)) == v
    for sm in (pm, dm):
        assert sm.check_equivariant() and sm.is_invertible()
        for name in ("c", "b"):
            assert sm.images[sm.src.slot(name)] == ((SC1, sm.dst.slot(name)),)


def test_polarization_targets_come_from_the_pairing():
    ass = builtin("Ass").shape
    assert polarize_map(ass, {"m": ("c", "b")}).dst == \
        EShape([("c", "comm"), ("b", "anti")])
    for name in ("Poiss_polarized", "LLq"):
        assert depolarize_map(builtin(name).shape, {"m": ("c", "b")}).dst == ass
    # paired generators are replaced in place, the others keep their order
    shape = EShape([("m", "none"), ("c", "comm"), ("b", "anti")])
    pm = polarize_map(shape)
    assert pm.dst == EShape([("m_s", "comm"), ("m_a", "anti"),
                             ("c", "comm"), ("b", "anti")])
    assert depolarize_map(pm.dst, {"m": ("m_s", "m_a")}).dst == shape


@pytest.mark.parametrize("make", [
    lambda: polarize_map(EShape([("m", "none")]), {"k": ("c", "b")}),
    lambda: depolarize_map(EShape([("c", "comm"), ("b", "anti")]),
                           {"m": ("c", "a")}),
    lambda: depolarize_map(EShape([("c", "comm"), ("b", "anti")]),
                           {"m": ("k", "b")}),
], ids=["polarize", "depolarize-anti", "depolarize-comm"])
def test_a_pairing_with_an_unknown_generator_is_refused(make):
    with pytest.raises(Free3Error, match="unknown generator"):
        make()


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
    assert Subspace(mixed, gp2.rows + gm2.rows).dim == 27


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
    assert s01.contains(v0) and s01.contains_all(s0.rows)
    assert s01.intersect(s0) == s0
    assert Subspace(t3_shape, s0.rows + Subspace(t3_shape, [v1]).rows) == s01
    assert Subspace(t3_shape, [v0, v0]).dim == 1


# entries: small rationals, or a + b*q + c*u + d*v with small rational a..d
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
TOWER_GENS = (SC1, Scalar.q(), Scalar.u(), Scalar.v())
entries = st.one_of(
    small.map(Scalar.from_fraction),
    st.tuples(*[small] * 4).map(
        lambda cs: sum((g * c for g, c in zip(TOWER_GENS, cs)), SC0)))


def sparse_vector(support, size=12, values=entries):
    return st.dictionaries(st.integers(0, size - 1), values,
                           min_size=1, max_size=support).map(
        lambda d: tuple(d.get(i, SC0) for i in range(size)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.lists(sparse_vector(4), min_size=1, max_size=5), st.just(False)),
    # closed under S4, on rational entries: tower ones can take minutes
    st.tuples(st.lists(sparse_vector(4, values=small.map(Scalar.from_fraction)),
                       min_size=1, max_size=3), st.just(True))))
def test_a_subspace_does_not_see_the_entry_types(t3_shape, case):
    # Scalar entries, as relation_vector gives them, and their exact forms
    vs, close = case
    actions = [t3_shape.action(g) for g in (GAMMA3, TAU12)] if close else ()
    a = Subspace(t3_shape, vs, actions)
    b = Subspace(t3_shape, [tuple(exact(c) for c in v) for v in vs], actions)
    assert (a.rows, a.pivots, hash(a), a.residues) == (b.rows, b.pivots, hash(b), b.residues)
    assert [[type(c) for c in r] for r in a.rows] == [[type(c) for c in r] for r in b.rows]
    assert all(type(c) is not Scalar or not c.is_rational() for r in a.rows for c in r)


def check_intersection(a, b):
    inter = a.intersect(b)
    assert a.contains_all(inter.rows) and b.contains_all(inter.rows)
    assert inter.dim == a.dim + b.dim - Subspace(a.shape, a.rows + b.rows).dim
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
    zero, one = SC0, SC1

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
        m.setattr(free3.Subspace, "residues", property(lambda self: None))
        return a.intersect(b)


@settings(max_examples=40, deadline=None)
@given(st.lists(sparse_vector(3, size=4), min_size=1, max_size=4), st.data())
def test_rank_mod_p_is_at_most_the_exact_rank(vs, data):
    # a combination of two of them makes some lists dependent
    if data.draw(st.booleans()):
        c = data.draw(entries)
        vs.append(tuple(a + c * b for a, b in zip(vs[0], vs[-1])))
    rows = _residues(vs)
    assert rows is None or _residue_rank(rows, (), ()) <= len(_rref(vs, 4)[0])


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


# Integer entries in -2..2 on 12 columns: every minor is at most
# (2 sqrt 12)^12 < 2^34 < P in absolute value (Hadamard), so none vanishes
# mod P and the rank mod P is the exact rank.
hadamard_vectors = st.lists(st.tuples(*[st.integers(-2, 2)] * 12), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(vs=hadamard_vectors, form=hadamard_vectors)
def test_residue_rank_is_exact_where_no_point_is_unlucky(t3_shape, vs, form):
    def tower(vectors):
        return [tuple(Scalar.from_fraction(a) for a in v) for v in vectors]

    vs = tower(vs)
    rows = _residues(vs)
    assert _residue_rank(rows, (), ()) == Subspace(t3_shape, vs).dim
    space = Subspace(t3_shape, tower(form))
    exact = Subspace(t3_shape, [space.reduce(v) for v in vs]).dim
    assert _residue_rank(rows, space.residues, space.pivots) == exact


def test_intersect_at_an_unlucky_point(t3_shape):
    zero, one, q = SC0, SC1, Scalar.q()
    v0sq = Scalar.from_fraction(RESIDUE_V0 ** 2)
    at_point = q - v0sq                                   # residue 0

    def vec(entries):
        return tuple(entries.get(i, zero) for i in range(t3_shape.basis_size))

    # a pole at the point: no bound, the exact path answers
    b = Subspace(t3_shape, [vec({2: one})])
    a = Subspace(t3_shape, [vec({0: one, 3: one / at_point}), vec({1: one, 3: one})])
    assert a.residues is None and _residues([b.reduce(r) for r in a.rows]) is None
    assert a.intersect(b) == exact_intersect(a, b) == Subspace(t3_shape)
    # remainders e3 - e1/V0^2 and e1 + q e3 are independent, with a
    # determinant (q - V0^2)/V0^2 that vanishes at the point
    b = Subspace(t3_shape, [vec({0: one, 1: -one / v0sq})])
    a = Subspace(t3_shape, [vec({0: one, 3: one}), vec({1: one, 3: q})])
    assert _residue_rank(_residues([b.reduce(r) for r in a.rows]), (), ()) == 1
    assert a.intersect(b) == exact_intersect(a, b) == Subspace(t3_shape)
    # and a nonzero intersection at the point
    c = Subspace(t3_shape, [vec({0: one, 3: one}), vec({1: one, 3: at_point})])
    d = Subspace(t3_shape, [vec({0: one, 1: one, 3: at_point + one})])
    assert c.intersect(d) == exact_intersect(c, d) == d


def test_exact_intersect_skips_the_certificate(t3_shape, monkeypatch):
    a, b = (Subspace(t3_shape, [basis_vector(t3_shape, i)]) for i in (0, 1))
    calls = []
    reduce = Subspace.reduce
    monkeypatch.setattr(Subspace, "reduce",
                        lambda self, v: calls.append(v) or reduce(self, v))
    assert a.intersect(b) == Subspace(t3_shape) and not calls
    assert exact_intersect(a, b) == Subspace(t3_shape) and len(calls) == 1


# -- invariance: a nonzero residue remainder proves "not invariant" -------------

def exact_is_invariant(space, action):
    """space.is_invariant(action) by the exact reduction alone."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(free3.Subspace, "residues", property(lambda self: None))
        return space.is_invariant(action)


@settings(max_examples=40, deadline=None)
@given(vecs=st.lists(sparse_vector(3), min_size=1, max_size=3),
       element=st.sampled_from((GAMMA3, LAMBDA) + SIGMA3), close=st.booleans())
def test_is_invariant_equals_the_exact_path(t3_shape, vecs, element, close):
    act = t3_shape.action(element)
    space = span_closure(t3_shape, vecs, [act]) if close else Subspace(t3_shape, vecs)
    assert space.is_invariant(act) == exact_is_invariant(space, act)
    assert space.is_invariant(act) or not close


def test_is_invariant_stops_at_the_first_image_proved_outside(t3_shape):
    # γ e0 = e5 leaves span(e0, e1) mod P: the image of e1 is never built
    space = Subspace(t3_shape, [basis_vector(t3_shape, i) for i in (0, 1)])
    act = t3_shape.action(GAMMA3)
    built = []
    assert space.is_invariant(lambda v: built.append(v) or act(v)) is False
    assert built == [space.rows[0]]


def test_invariance_at_an_unlucky_point(t3_shape, monkeypatch):
    zero, one, q, v = SC0, SC1, Scalar.q(), Scalar.v()
    v0 = Scalar.from_fraction(RESIDUE_V0)

    def vec(entries):
        return tuple(entries.get(i, zero) for i in range(t3_shape.basis_size))

    # γ swaps e2 and e6, λ swaps e0 and e9.  With a = v/V0 (residue 1), the
    # image of e_i + a e_j leaves the remainder (1 - a^2) e_j =
    # ((V0^2 - q)/V0^2) e_j: zero at the point, nonzero over the tower
    a = v / v0
    for element, (i, j) in ((GAMMA3, (2, 6)), (LAMBDA, (0, 9))):
        act = t3_shape.action(element)
        space = Subspace(t3_shape, [vec({i: one, j: a})])
        rem = space.reduce(act(space.rows[0]))
        assert rem == vec({j: one - a * a}) and _residues([rem]) == [[0] * 12]
        assert space.is_invariant(act) is False
        assert exact_is_invariant(space, act) is False
    # a pole at the point: no residue view, the exact route answers both ways
    b = one / (q - Scalar.from_fraction(RESIDUE_V0 ** 2))
    act = t3_shape.action(GAMMA3)
    half = Subspace(t3_shape, [vec({2: one, 3: one, 6: b})])
    both = Subspace(t3_shape, [vec({2: one, 3: one, 6: b}), vec({2: b, 6: one, 11: one})])
    assert half.residues is None and both.residues is None
    assert half.is_invariant(act) is False and both.is_invariant(act) is True


def exact_contains_all(space, vectors):
    """space.contains_all(vectors) by the exact reduction alone."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(free3.Subspace, "residues", property(lambda self: None))
        return space.contains_all(vectors)


def test_contains_all_at_an_unlucky_point(t3_shape):
    zero, one, q, v = SC0, SC1, Scalar.q(), Scalar.v()
    v0 = Scalar.from_fraction(RESIDUE_V0)

    def vec(entries):
        return tuple(entries.get(i, zero) for i in range(t3_shape.basis_size))

    # with a = v/V0 (residue 1), a e0 + e3 leaves the remainder
    # (1 - a^2) e3 = ((V0^2 - q)/V0^2) e3 modulo span(e0 + a e3): its
    # residue is 0 and the certificate proves nothing, but it is nonzero
    a = v / v0
    space = Subspace(t3_shape, [vec({0: one, 3: a})])
    inside, outside = vec({0: q, 3: q * a}), vec({0: a, 3: one})
    rem = space.reduce(outside)
    assert rem == vec({3: one - a * a}) and _residues([rem]) == [[0] * 12]
    assert rem[3] * v0 * v0 == Scalar.from_fraction(RESIDUE_V0 ** 2) - q
    for vectors, held in (([inside], True), ([outside], False),
                          ([inside, outside], False), ([], True)):
        assert space.contains_all(vectors) is held
        assert exact_contains_all(space, vectors) is held
    # the same vectors reach it as a subspace's rows and through is_invariant
    assert space.contains_all(Subspace(t3_shape, [outside]).rows) is False
    assert space.is_invariant(lambda r: outside) is False
    assert space.is_invariant(lambda r: tuple(q * c for c in r)) is True


@pytest.mark.parametrize("space, other", [("Ass", "CyclicNotDihedral"),
                                          ("CyclicNotDihedral", "Ass")])
def test_a_vector_of_the_wrong_length_is_refused(space, other):
    # a certificate-capable space (rational rows) and a relation of another
    # shape, longer or shorter: every membership test and elimination raises
    R, w = builtin(space).R, relation_vector(builtin(other).shape,
                                             builtin(other).relations[0])
    message = rf"^vector length {len(w)} != ambient {R.ambient}$"
    for entry in (R.reduce, R.contains, lambda v: R.contains_all([v]),
                  lambda v: R.is_invariant(lambda r: v),
                  lambda v: free3._rref_insert([], [], v, R.ambient),
                  lambda v: Subspace(R.shape, [v])):
        with pytest.raises(Free3Error, match=message):
            entry(w)


def test_contains_all_stops_at_the_first_vector_proved_outside(t3_shape):
    # e5 is outside span(e0) mod P: the vector after it is never drawn
    space = Subspace(t3_shape, [basis_vector(t3_shape, 0)])
    drawn = []

    def vectors():
        for i in (0, 5, 7):
            drawn.append(i)
            yield basis_vector(t3_shape, i)

    assert space.contains_all(vectors()) is False and drawn == [0, 5]


def test_intersect_rejects_another_shape():
    with pytest.raises(Free3Error, match="subspace shapes differ"):
        builtin("Ass").R.intersect(builtin("Lie").R)


def test_subspace_dimension_mismatch(t3_shape):
    with pytest.raises(Free3Error):
        Subspace(t3_shape, [(SC1,)])


@pytest.mark.parametrize("length", [11, 13])
@pytest.mark.parametrize("close", [lambda sh, vs: span_closure(sh, vs),
                                   sigma3_closure], ids=["span", "sigma3"])
def test_closure_rejects_a_vector_of_the_wrong_length(t3_shape, length, close):
    # a 13-entry vector whose only nonzero entry lies past the ambient
    vec = [SC0] * length
    vec[-1] = SC1
    assert t3_shape.basis_size == 12
    with pytest.raises(Free3Error, match=f"vector length {length} != ambient 12"):
        close(t3_shape, [tuple(vec)])


def test_closure_of_single_vector_under_trivial_group(t3_shape):
    from conftest import associator
    v = relation_vector(t3_shape, associator(*"xyz"))
    assert span_closure(t3_shape, [v]).dim == 1


# -- closure: each kept vector's images are inserted once ------------------------

def fixed_point_closure(shape, vectors, actions):
    """The closure by passes: every action on every row, until a pass
    leaves the span as it was."""
    rows = _rref(vectors, shape.basis_size)[0]
    while True:
        images = [ap(r) for r in rows for ap in actions]
        grown = _rref(list(rows) + images, shape.basis_size)[0]
        if grown == rows:
            return rows
        rows = grown


@pytest.mark.parametrize("name, offered", [("Ass", 12), ("G3", 6)])
def test_closure_offers_each_kept_vectors_images_once(name, offered, monkeypatch):
    p = builtin(name)
    (rel,) = p.relations
    v = relation_vector(p.shape, rel)
    calls, inserted = [], []
    acts = [lambda w, g=g: calls.append(g) or right_action(p.shape, w, g)
            for g in (TAU12, CYC123)]
    insert = free3._rref_insert
    monkeypatch.setattr(free3, "_rref_insert",
                        lambda *args: inserted.append(args[2]) or insert(*args))
    space = span_closure(p.shape, [v], acts)
    assert space == p.R and len(calls) == len(acts) * space.dim == offered
    # v, then each vector of its Σ3-orbit (v among them) once
    orbit = {right_action(p.shape, v, g) for g in SIGMA3}
    assert len(inserted) == 1 + len(orbit) and set(inserted) == orbit


@settings(max_examples=40, deadline=None)
@given(polarized=st.booleans(),
       vecs=st.lists(sparse_vector(4, values=small.map(Scalar.from_fraction)),
                     min_size=1, max_size=3),
       elements=st.lists(st.sampled_from((GAMMA3, LAMBDA, TAU12, CYC123)),
                         min_size=1, max_size=2, unique=True))
def test_closure_equals_the_fixed_point_reference(t3_shape, pol_shape, polarized,
                                                  vecs, elements):
    shape = pol_shape if polarized else t3_shape
    acts = [shape.action(e) for e in elements]
    space = Subspace(shape, vecs, acts)
    assert space.rows == fixed_point_closure(shape, vecs, acts)
    assert all(space.is_invariant(a) for a in acts)


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


def test_gamma_split_built_once_per_shape_instance(t3_shape):
    # kept on the shape as its action matrices are: check_dihedral on a
    # presentation and on its specialisations (which share its shape)
    # builds the split once
    split = gamma_plus_split(t3_shape)
    assert gamma_plus_split(t3_shape) is split
    twin = EShape(t3_shape.gens)
    assert gamma_plus_split(twin) is not split
    assert gamma_plus_split(twin) == split
