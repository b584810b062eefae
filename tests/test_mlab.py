import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from operadlab import mlab
from operadlab.mlab import (MultiMap, MultiMapError, comp_ij, circ, circ_plain,
                            bracket, circ_associator,
                            alternating_associator_sum, master_residual,
                            master_residual_is_zero,
                            infinitesimal_bialgebra_axioms, insertion_sign)
from operadlab.presentation import Var, builtin
from operadlab.scalar import SC1


def rmap(rng, d, m, n):
    return MultiMap.random(rng, d, m, n)


# -- shapes and basic algebra ---------------------------------------------------

def test_comp_shapes():
    rng = random.Random(0)
    f = rmap(rng, 2, 6, 3)
    g = rmap(rng, 2, 5, 5)
    h = comp_ij(f, g, 4, 3)
    assert (h.m, h.n) == (10, 7)


def test_comp_index_ranges():
    rng = random.Random(0)
    f = rmap(rng, 2, 2, 1)
    g = rmap(rng, 2, 1, 2)
    with pytest.raises(MultiMapError):
        comp_ij(f, g, 3, 1)
    with pytest.raises(MultiMapError):
        comp_ij(f, g, 1, 3)


@pytest.mark.parametrize("c", [SC1, "1/2", float("nan"), float("-inf")],
                         ids=["Scalar", "str", "nan", "-inf"])
def test_a_coefficient_outside_the_rationals_is_a_multimap_error(c):
    with pytest.raises(MultiMapError, match="is not an int, Fraction or finite float"):
        MultiMap(2, 1, 1, {((0,), (0,)): c})
    with pytest.raises(MultiMapError, match="is not an int, Fraction or finite float"):
        MultiMap(2, 1, 1, {((0,), (0,)): 1}).scale(c)


def test_compositions_reject_what_is_not_a_multimap():
    f = rmap(random.Random(0), 2, 2, 1)
    for bad in (5, f.coeffs, None):
        for args in ((f, bad), (bad, f)):
            with pytest.raises(MultiMapError, match="expected a MultiMap"):
                comp_ij(*args, 1, 1)
            with pytest.raises(MultiMapError, match="expected a MultiMap"):
                circ(*args)


def test_identity_contraction():
    rng = random.Random(1)
    ident = MultiMap.identity(2)
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 2)):
        f = rmap(rng, 2, m, n)
        assert comp_ij(f, ident, 1, 1) == f
        assert comp_ij(ident, f, 1, 1) == f


def test_one_dimensional_comp_multiplies_coefficients():
    a = MultiMap(1, 2, 1, {((0,), (0, 0)): Fraction(3)})
    b = MultiMap(1, 1, 2, {((0, 0), (0,)): Fraction(5)})
    c = comp_ij(a, b, 1, 1)
    assert c.coeffs == {((0, 0), (0, 0)): Fraction(15)}


def test_bilinearity():
    rng = random.Random(2)
    f1 = rmap(rng, 2, 2, 1)
    f2 = rmap(rng, 2, 2, 1)
    g = rmap(rng, 2, 1, 2)
    s = Fraction(3, 2)
    for compose in (circ, circ_plain):
        lhs = compose(f1 + f2.scale(s), g)
        rhs = compose(f1, g) + compose(f2, g).scale(s)
        assert lhs == rhs
        lhs = compose(g, f1 + f2.scale(s))
        rhs = compose(g, f1) + compose(g, f2).scale(s)
        assert lhs == rhs


@pytest.mark.parametrize("key", [((0, 0), (0, 0)), ((0,), (0,)), ((2,), (0, 1)),
                                 ((0,), (0, -1))],
                         ids=["outputs", "inputs", "output-range", "input-range"])
def test_constructor_checks_shape_and_index_range(key):
    with pytest.raises(MultiMapError):
        MultiMap(2, 2, 1, {key: Fraction(1, 2)})
    assert MultiMap(2, 2, 1, {key: 0}).is_zero()


def test_coefficients_are_canonical():
    k = ((0,), (0,))
    threes = [MultiMap(1, 1, 1, {k: v}) for v in (3, Fraction(3), Fraction(6, 2))]
    assert all(type(t.coeffs[k]) is int for t in threes)
    assert threes[0] == threes[1] == threes[2]
    assert len({hash(t) for t in threes}) == 1
    half = MultiMap(1, 1, 1, {k: Fraction(1, 2)})
    assert type(half.coeffs[k]) is Fraction
    two_thirds = MultiMap(1, 1, 1, {k: Fraction(2, 3)})
    for whole in (half + half, half.scale(4), comp_ij(half.scale(3), two_thirds, 1, 1)):
        assert type(whole.coeffs[k]) is int
    assert (half - half).is_zero()


def test_coeffs_is_a_read_only_view():
    rng = random.Random(4)
    made = rmap(rng, 2, 1, 1)
    computed = circ(rmap(rng, 3, 2, 1), rmap(rng, 3, 1, 2))
    for f in (made, computed):
        before, h = dict(f.coeffs), hash(f)
        for key, v in ((next(iter(before)), 0), (((5,) * f.n, (0,) * f.m), 3)):
            with pytest.raises(TypeError):
                f.coeffs[key] = v
        assert f.coeffs == before and hash(f) == h and not f.is_zero()
        assert comp_ij(f, MultiMap.identity(f.d), 1, 1) == f
    for x in (made, computed, rmap(rng, 3, 2, 3), MultiMap(2, 1, 2, {})):
        again = MultiMap(x.d, x.m, x.n, x.coeffs)
        assert again == x and hash(again) == hash(x)


def test_circ_reduces_to_single_output_sum():
    # with one output the j-sum has one term and the sign is (-1)^(i(b+1))
    rng = random.Random(3)
    f = rmap(rng, 2, 3, 1)
    g = rmap(rng, 2, 2, 1)
    total = None
    for i in range(1, 4):
        t = comp_ij(f, g, i, 1).scale((-1) ** (i * 4))
        total = t if total is None else total + t
    assert circ(f, g) == total
    assert insertion_sign(1, 3, 1, 1) == 1 and insertion_sign(1, 2, 1, 1) == -1


# -- the compositions against the definition in the module docstring -------------
#
# A reference map is (m, n, {(outputs, inputs): Fraction}); every sum is a
# direct double sum over all pairs of entries.

PERM_SIGN = {(0, 1, 2): 1, (0, 2, 1): -1, (1, 0, 2): -1,
             (1, 2, 0): 1, (2, 0, 1): 1, (2, 1, 0): -1}


def ref(f):
    return (f.m, f.n, {k: Fraction(v) for k, v in f.coeffs.items()})


def ref_add(total, terms, s):
    for k, v in terms.items():
        total[k] = total.get(k, Fraction(0)) + s * v


def ref_comp(f, g, i, j):
    (_, _, fc), (_, _, gc) = f, g
    out = {}
    for (fo, fi), cf in fc.items():
        for (go, gi), cg in gc.items():
            if go[j - 1] == fi[i - 1]:
                key = (go[:j - 1] + fo + go[j:], fi[:i - 1] + gi + fi[i:])
                out[key] = out.get(key, Fraction(0)) + cf * cg
    return out


def ref_compose(signed):
    def compose(f, g):
        (b, a, _), (dd, c, _) = f, g
        total = {}
        for i in range(1, b + 1):
            for j in range(1, c + 1):
                s = (-1) ** (i * (b + 1) + j * (c + 1)) if signed else 1
                ref_add(total, ref_comp(f, g, i, j), s)
        return (b + dd - 1, a + c - 1, total)
    return compose


def ref_sum(x, y, s):
    total = dict(x[2])
    ref_add(total, y[2], s)
    return (x[0], x[1], total)


def ref_associator(f, g, h, compose):
    left, right = compose(compose(f, g), h), compose(f, compose(g, h))
    total = dict(left[2])
    ref_add(total, right[2], -1)
    return (left[0], left[1], total)


def ref_alternating(maps, compose):
    total = {}
    for perm, sgn in PERM_SIGN.items():
        m, n, terms = ref_associator(*(maps[k] for k in perm), compose)
        ref_add(total, terms, sgn)
    return (m, n, total)


def assert_matches(mm, reference):
    m, n, terms = reference
    assert (mm.m, mm.n) == (m, n)
    assert mm.coeffs == {k: v for k, v in terms.items() if v}
    for v in mm.coeffs.values():
        assert type(v) is (int if v.denominator == 1 else Fraction)


def assert_compositions_match(f, g):
    # every comp_ij, circ and circ_plain of f and g against the tuple-view
    # references
    rf, rg = ref(f), ref(g)
    for i in range(1, f.m + 1):
        for j in range(1, g.n + 1):
            reference = (f.m + g.m - 1, f.n + g.n - 1, ref_comp(rf, rg, i, j))
            assert_matches(comp_ij(f, g, i, j), reference)
    assert_matches(circ(f, g), ref_compose(True)(rf, rg))
    assert_matches(circ_plain(f, g), ref_compose(False)(rf, rg))


@pytest.mark.parametrize("d, f_shape, g_shape", [
    (3, (3, 1), (1, 3)), (3, (2, 2), (2, 2)), (3, (3, 2), (2, 3)), (3, (1, 3), (3, 1)),
    (1, (3, 2), (2, 3)), (1, (1, 1), (1, 1))])
def test_comp_ij_matches_the_double_sum_at_every_position(d, f_shape, g_shape):
    # dense maps, so that every digit of every code is exercised, with the
    # contracted line at the first, an interior and the last position
    rng = random.Random(f"{d}{f_shape}{g_shape}")
    f, g = rmap(rng, d, *f_shape), rmap(rng, d, *g_shape)
    for i in range(1, f.m + 1):
        for j in range(1, g.n + 1):
            reference = (f.m + g.m - 1, f.n + g.n - 1, ref_comp(ref(f), ref(g), i, j))
            assert_matches(comp_ij(f, g, i, j), reference)


def test_random_draws_the_same_coefficients_in_the_same_order():
    # the order in which MultiMap.random consumes the generator fixes the
    # maps behind the seeded `mlab` command and its golden output
    for seed, m, n in ((0, 1, 1), (1, 2, 1), (2, 1, 2), (3, 3, 2)):
        rng = random.Random(seed)
        drawn = {(out, inp): rng.randint(-3, 3)
                 for out in itertools.product(range(2), repeat=n)
                 for inp in itertools.product(range(2), repeat=m)}
        x = MultiMap.random(random.Random(seed), 2, m, n)
        assert x.coeffs == {k: v for k, v in drawn.items() if v}
    assert MultiMap.random(random.Random(0), 2, 1, 1).coeffs == {
        ((0,), (0,)): 3, ((1,), (0,)): 3}
    assert MultiMap.random(random.Random(1), 2, 2, 1).coeffs == {
        ((0,), (0, 0)): -2, ((0,), (0, 1)): 1, ((0,), (1, 0)): 3, ((0,), (1, 1)): 3,
        ((1,), (0, 0)): 3, ((1,), (0, 1)): -3, ((1,), (1, 0)): -1, ((1,), (1, 1)): -3}


# every non-integral fraction in (-3, 3) with denominator at most 4, listed
# rather than filtered, so that drawing many of them trips no health check
NONINTEGRAL = st.sampled_from(sorted({Fraction(k, d) for d in (2, 3, 4)
                                      for k in range(1 - 3 * d, 3 * d) if k % d}))


@st.composite
def sparse_triples(draw):
    d = draw(st.integers(1, 3))

    def indices(k):
        return st.tuples(*[st.integers(0, d - 1)] * k)

    maps = []
    for _ in range(3):
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        terms = draw(st.dictionaries(st.tuples(indices(n), indices(m)), NONINTEGRAL,
                                     min_size=1, max_size=5))
        maps.append(MultiMap(d, m, n, terms))
    return maps


@settings(max_examples=60, deadline=None)
@given(maps=sparse_triples(), s=NONINTEGRAL)
def test_compositions_match_the_double_sum_definition(maps, s):
    f, g, h = maps
    refs = [ref(x) for x in maps]
    assert_matches(f.scale(s), (f.m, f.n, {k: s * v for k, v in refs[0][2].items()}))
    assert_matches(-f, (f.m, f.n, {k: -v for k, v in refs[0][2].items()}))
    for compose, reference in ((circ, ref_compose(True)), (circ_plain, ref_compose(False))):
        x, y = compose(f, g), compose(g, f)
        xy, yx = reference(refs[0], refs[1]), reference(refs[1], refs[0])
        assert_matches(x, xy)
        assert_matches(x + y, ref_sum(xy, yx, 1))
        assert_matches(x - y, ref_sum(xy, yx, -1))
        if compose is circ:
            assert_matches(bracket(f, g), ref_sum(xy, yx, -1))
        assert_matches(circ_associator(f, g, h, compose=compose),
                       ref_associator(*refs, reference))
        assert_matches(alternating_associator_sum(f, g, h, compose=compose),
                       ref_alternating(refs, reference))
    assert alternating_associator_sum(f, g, h) == alternating_associator_sum(
        f, g, h, compose=circ)


def one_entry_maps(d, m, n):
    return [MultiMap(d, m, n, {(out, inp): 1})
            for out in itertools.product(range(d), repeat=n)
            for inp in itertools.product(range(d), repeat=m)]


def sparse_map(rng, d, m, n, size):
    return MultiMap(d, m, n, {
        (tuple(rng.randrange(d) for _ in range(n)),
         tuple(rng.randrange(d) for _ in range(m))): rng.choice((-2, -1, 1, 3))
        for _ in range(size)})


def identity_pairs():
    rng = random.Random(13)
    pairs = []
    for d, m, n in ((3, 2, 2), (50, 2, 2), (2, 3, 1)):
        f, ident = sparse_map(rng, d, m, n, 8), MultiMap.identity(d)
        pairs += [(f, ident), (ident, f), (ident, ident)]
    return pairs


def basis_pairs():
    # every pair of one-entry (2 -> 1) and (1 -> 2) maps at d = 3, and a
    # seeded sample of one-entry (2 -> 2) pairs
    rng = random.Random(14)
    two_two = one_entry_maps(3, 2, 2)
    return ([(f, g) for f in one_entry_maps(3, 2, 1) for g in one_entry_maps(3, 1, 2)]
            + [(rng.choice(two_two), rng.choice(two_two)) for _ in range(150)])


def sparse_pairs():
    rng = random.Random(15)
    return [(sparse_map(rng, 50, 2, 2, 12), sparse_map(rng, 50, 2, 2, 12))
            for _ in range(20)]


@pytest.mark.parametrize("pairs", [identity_pairs, basis_pairs, sparse_pairs],
                         ids=["identity", "basis-d3", "sparse-d50"])
def test_sparse_and_large_d_compositions_match_the_references(pairs):
    mlab._layout.cache_clear()      # the tables then hold the codes met here
    met = {}
    for f, g in pairs():
        assert_compositions_match(f, g)
        for i, j in itertools.product(range(1, f.m + 1), range(1, g.n + 1)):
            f_met, g_met = met.setdefault((f.d, f.m, f.n, g.m, g.n, i, j), (set(), set()))
            f_met.update(f.coeffs)
            g_met.update(g.coeffs)
    for layout, (f_met, g_met) in met.items():
        # the split tables fill as codes are met: one entry per distinct
        # code, never d^(lines) of them
        *_, f_split, g_split = mlab._layout(*layout)
        assert len(f_split) == len(f_met) and len(g_split) == len(g_met)


def test_a_second_composition_reuses_the_layout_tables(monkeypatch):
    layout, used = mlab._layout, set()

    def recorded(*key):
        used.add(key)
        return layout(*key)

    monkeypatch.setattr(mlab, "_layout", recorded)
    rng = random.Random(16)
    f, g, h = (sparse_map(rng, 5, m, n, 8) for m, n in ((2, 2), (1, 2), (2, 1)))

    def compose_all():
        return (circ(f, g), circ_plain(g, h), circ_associator(f, g, h),
                alternating_associator_sum(f, g, h, compose=circ_plain))

    def table_sizes():
        return {key: tuple(map(len, layout(*key)[-2:])) for key in used}

    first = compose_all()
    misses, sizes = layout.cache_info().misses, table_sizes()
    assert compose_all() == first
    assert layout.cache_info().misses == misses
    assert table_sizes() == sizes and set(sizes) == used
    assert all(f_size and g_size for f_size, g_size in sizes.values())


def test_the_split_tables_stay_bounded_at_large_d():
    # 200 sparse (2, 2) pairs at d = 50 meet about 2,400 distinct codes per
    # table, more than the bound: the tables stop at it, and compositions
    # past it still match the references
    mlab._layout.cache_clear()
    rng = random.Random(17)
    pairs = [(sparse_map(rng, 50, 2, 2, 12), sparse_map(rng, 50, 2, 2, 12))
             for _ in range(200)]
    for f, g in pairs:
        circ(f, g)
    tables = [t for i, j in itertools.product((1, 2), repeat=2)
              for t in mlab._layout(50, 2, 2, 2, 2, i, j)[-2:]]
    assert all(len(t) == mlab._SPLIT_TABLE_MAX for t in tables)
    for f, g in pairs[-3:] + [(g, f) for f, g in pairs[:3]]:
        assert_compositions_match(f, g)
    assert all(len(t) == mlab._SPLIT_TABLE_MAX for t in tables)


# -- the Fraction path ----------------------------------------------------------------

# ints and fractions whose products and sums can be integral (1/2 * 2,
# 2/3 * 3/2) or cancel to 0, the more often at d = 1, where every code is 0
MIXED = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
                         Fraction(3, 2), Fraction(-3, 2), Fraction(1, 3)])


@st.composite
def mixed_maps(draw):
    d = draw(st.integers(1, 2))
    maps = []
    for _ in range(3):
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        idx = [st.tuples(*[st.integers(0, d - 1)] * k) for k in (n, m)]
        maps.append(MultiMap(d, m, n, draw(st.dictionaries(st.tuples(*idx), MIXED,
                                                           min_size=1, max_size=4))))
    return maps


def one_by_one(m, n, c):
    return MultiMap(1, m, n, {((0,) * n, (0,) * m): c})


@settings(max_examples=80, deadline=None)
@given(maps=mixed_maps())
# circ of a (2 -> 1) and a (1 -> 1) map at d = 1 cancels to 0; each product
# below is integral
@example(maps=[one_by_one(2, 1, Fraction(1, 2)), one_by_one(1, 1, 2), one_by_one(1, 1, 3)])
@example(maps=[one_by_one(1, 1, Fraction(2, 3)), one_by_one(1, 2, Fraction(3, 2)),
               one_by_one(2, 1, Fraction(-3, 2))])
def test_int_and_fraction_compositions_match_the_references(maps):
    f, g, h = maps
    assert_compositions_match(f, g)
    assert_compositions_match(g, h)
    refs = [ref(x) for x in maps]
    assert_matches(circ_associator(f, g, h, compose=circ_plain),
                   ref_associator(*refs, ref_compose(False)))


# -- the ungraded symmetry laws under the unsigned composition --------------------

def test_pre_lie_on_single_output_maps():
    rng = random.Random(20240810)
    for _ in range(20):
        f = rmap(rng, 2, rng.randint(1, 3), 1)
        g = rmap(rng, 2, rng.randint(1, 3), 1)
        h = rmap(rng, 2, rng.randint(1, 3), 1)
        A = circ_associator
        assert A(f, g, h, compose=circ_plain) == A(f, h, g, compose=circ_plain)


def test_vinberg_on_single_input_maps():
    rng = random.Random(20240811)
    for _ in range(20):
        f = rmap(rng, 2, 1, rng.randint(1, 3))
        g = rmap(rng, 2, 1, rng.randint(1, 3))
        h = rmap(rng, 2, 1, rng.randint(1, 3))
        A = circ_associator
        assert A(f, g, h, compose=circ_plain) == A(g, f, h, compose=circ_plain)


def evaluate(relation, maps, compose):
    """A written relation of one generator at (x, y, z) = maps, with that
    generator read as compose."""
    def tree(node):
        if isinstance(node, Var):
            return maps["xyz".index(node.name)]
        return compose(tree(node.a), tree(node.b))

    terms = [tree(node).scale(c.as_fraction()) for c, node in relation.terms]
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize("name, nonzero_in", [
    ("PreLie", {"single-output": 0, "single-input": 16}),
    ("Vinberg", {"single-output": 13, "single-input": 0})])
def test_which_side_each_builtin_names_under_circ_plain(name, nonzero_in):
    # PreLie reads A(x,y,z) = A(x,z,y) and Vinberg A(x,y,z) = A(y,x,z), the
    # comparisons cmd_mlab makes on single-output and single-input maps;
    # each relation fails on the other shape
    (relation,) = builtin(name).relations
    rng = random.Random(24)
    nonzero = {"single-output": 0, "single-input": 0}
    for _ in range(20):
        for shape in nonzero:
            k = [rng.randint(1, 2) for _ in range(3)]
            maps = [rmap(rng, 2, a, 1) if shape == "single-output" else rmap(rng, 2, 1, a)
                    for a in k]
            nonzero[shape] += not evaluate(relation, maps, circ_plain).is_zero()
    assert nonzero == nonzero_in


def test_signed_composition_breaks_those_symmetries():
    # the paper-style signs are tuned for the master equation, not for the
    # plain symmetry laws; document that they genuinely differ
    rng = random.Random(5)
    broke_pre_lie = broke_vinberg = False
    for _ in range(10):
        f = rmap(rng, 2, 2, 1)
        g = rmap(rng, 2, 2, 1)
        h = rmap(rng, 2, 3, 1)
        if circ_associator(f, g, h) != circ_associator(f, h, g):
            broke_pre_lie = True
        fc, gc, hc = (rmap(rng, 2, 1, k) for k in (2, 2, 3))
        if circ_associator(fc, gc, hc) != circ_associator(gc, fc, hc):
            broke_vinberg = True
    assert broke_pre_lie and broke_vinberg


def test_closure_of_single_output_and_single_input_maps():
    rng = random.Random(6)
    f = rmap(rng, 2, 3, 1)
    g = rmap(rng, 2, 2, 1)
    assert circ(f, g).n == 1 and circ_plain(f, g).n == 1
    fc = rmap(rng, 2, 1, 3)
    gc = rmap(rng, 2, 1, 2)
    assert circ(fc, gc).m == 1 and circ_plain(fc, gc).m == 1


def test_bracket_antisymmetric():
    rng = random.Random(7)
    f = rmap(rng, 2, 2, 1)
    g = rmap(rng, 2, 1, 2)
    assert bracket(f, g) == -bracket(g, f)
    assert bracket(f, f).is_zero()


def test_jacobi_on_single_output_maps_plain():
    # a consequence of the pre-Lie law for the plain composition
    rng = random.Random(8)

    def pbracket(a, b):
        return circ_plain(a, b) - circ_plain(b, a)

    for _ in range(6):
        f = rmap(rng, 2, rng.randint(1, 2), 1)
        g = rmap(rng, 2, rng.randint(1, 2), 1)
        h = rmap(rng, 2, rng.randint(1, 2), 1)
        jac = (pbracket(f, pbracket(g, h)) + pbracket(g, pbracket(h, f))
               + pbracket(h, pbracket(f, g)))
        assert jac.is_zero()


@pytest.mark.parametrize("compose", [circ, circ_plain], ids=["circ", "circ_plain"])
def test_alternating_sum_is_a_jacobiator_of_twelve_compositions(compose):
    # the six signed associators take 18 compositions; the Jacobiator of
    # the commutator takes 12 and gives the same tensor
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return compose(x, y)

    rng = random.Random(12)
    maps = [rmap(rng, 2, 2, 1), rmap(rng, 2, 1, 2), rmap(rng, 2, 2, 2)]
    total = alternating_associator_sum(*maps, compose=counted)
    assert len(calls) == 12
    direct = MultiMap(2, 3, 3, {})
    for perm, sgn in PERM_SIGN.items():
        direct = direct + circ_associator(*(maps[k] for k in perm),
                                          compose=compose).scale(sgn)
    assert total == direct and not total.is_zero()


def test_alternating_sum_not_identically_zero():
    """The fully alternating associator sum has, for each choice of core,
    one disjoint-double-insertion term per output-nesting order, each
    appearing exactly once; it therefore cannot vanish identically for any
    insertion sign rule.  Pin that down on a small counterexample."""
    rng = random.Random(11)
    found_signed = found_plain = False
    for _ in range(8):
        f = rmap(rng, 2, 2, 2)
        g = rmap(rng, 2, 2, 2)
        h = rmap(rng, 2, 2, 2)
        if not alternating_associator_sum(f, g, h).is_zero():
            found_signed = True
        if not alternating_associator_sum(f, g, h, compose=circ_plain).is_zero():
            found_plain = True
    assert found_signed and found_plain


# -- the master equation ------------------------------------------------------------

def assoc_mu():
    # the algebra Q[x]/(x^2): e0 = 1, e1 = x
    return MultiMap(2, 2, 1, {((0,), (0, 0)): 1, ((1,), (0, 1)): 1,
                              ((1,), (1, 0)): 1})


def coassoc_delta():
    # delta(x) = x (x) x, delta(1) = 0: coassociative
    return MultiMap(2, 1, 2, {((1, 1), (1,)): 1})


def test_master_zero_for_associative_mu_alone():
    mu = assoc_mu()
    delta0 = MultiMap(2, 1, 2, {})
    res = master_residual(mu, delta0)
    assert set(res) == {(3, 1), (2, 2), (1, 3)}
    assert all(t.is_zero() for t in res.values())
    assert master_residual_is_zero(mu, delta0)


def test_master_detects_nonassociativity():
    # e1*e1 = e2-like: (e0 e0) e0 = ... choose mu with mu(e0,e0) = e1, rest 0
    mu = MultiMap(2, 2, 1, {((1,), (0, 0)): 1, ((0,), (1, 1)): 1})
    delta0 = MultiMap(2, 1, 2, {})
    assert not infinitesimal_bialgebra_axioms(mu, delta0)[0].is_zero()
    assert not master_residual_is_zero(mu, delta0)


def test_master_shape_validation():
    rng = random.Random(9)
    with pytest.raises(MultiMapError):
        master_residual(rmap(rng, 2, 1, 1), coassoc_delta())
    with pytest.raises(MultiMapError):
        master_residual(assoc_mu(), rmap(rng, 2, 2, 1))


def test_axiom_oracle_rejects_mismatched_inputs():
    rng = random.Random(10)
    mu3 = rmap(rng, 3, 2, 1)
    with pytest.raises(MultiMapError, match="base dimensions differ"):
        infinitesimal_bialgebra_axioms(mu3, coassoc_delta())
    with pytest.raises(MultiMapError, match="base dimensions differ"):
        master_residual(mu3, coassoc_delta())
    one_one, two_one = rmap(rng, 2, 1, 1), rmap(rng, 2, 2, 1)
    for bad_mu, bad_delta, which in ((one_one, coassoc_delta(), r"mu must be a \(2 -> 1\)"),
                                     (assoc_mu(), two_one, r"delta must be a \(1 -> 2\)")):
        for check in (infinitesimal_bialgebra_axioms, master_residual):
            with pytest.raises(MultiMapError, match=which):
                check(bad_mu, bad_delta)
    with pytest.raises(MultiMapError, match="expected a MultiMap"):
        infinitesimal_bialgebra_axioms(assoc_mu(), 5)


def test_master_components_match_defects():
    # the pure components of the self-bracket are exactly (twice) the
    # associativity and coassociativity defects, up to sign
    mu = assoc_mu()
    dl = coassoc_delta()
    res = master_residual(mu, dl)
    assoc, coassoc, _ = infinitesimal_bialgebra_axioms(mu, dl)
    assert res[(3, 1)] == assoc.scale(-2)
    assert res[(1, 3)] == coassoc.scale(2)


def test_axiom_oracle_on_known_bialgebra():
    # mu = truncated polynomials, delta(x) = x (x) x: a genuine
    # infinitesimal bialgebra (all three axiom tensors vanish)
    mu, dl = assoc_mu(), coassoc_delta()
    a, c, comp = infinitesimal_bialgebra_axioms(mu, dl)
    assert a.is_zero() and c.is_zero() and comp.is_zero()


def test_master_equivalence_on_random_pairs():
    rng = random.Random(20240812)
    both_nonzero = 0
    for _ in range(50):
        mu = rmap(rng, 2, 2, 1)
        dl = rmap(rng, 2, 1, 2)
        axioms_zero = all(t.is_zero()
                          for t in infinitesimal_bialgebra_axioms(mu, dl))
        residual_zero = master_residual_is_zero(mu, dl)
        assert residual_zero == axioms_zero
        if not axioms_zero:
            both_nonzero += 1
    assert both_nonzero == 50  # random pairs never satisfy the axioms


def test_mixed_component_stricter_than_compatibility_on_unital_example():
    """With a unit around, the mixed master component contains two extra
    insertion terms beyond the displayed compatibility axiom, so it can be
    nonzero on a genuine infinitesimal bialgebra."""
    mu, dl = assoc_mu(), coassoc_delta()
    assert infinitesimal_bialgebra_axioms(mu, dl)[2].is_zero()
    assert not master_residual(mu, dl)[(2, 2)].is_zero()


def test_the_axiom_oracle_decodes_each_map_once(monkeypatch):
    rng = random.Random(11)
    mu, delta = rmap(rng, 2, 2, 1), rmap(rng, 2, 1, 2)
    want = infinitesimal_bialgebra_axioms(mu, delta)
    decoded, view = [], MultiMap.coeffs

    def counted(self):
        decoded.append(self)
        return view.fget(self)

    monkeypatch.setattr(MultiMap, "coeffs", property(counted))
    assert infinitesimal_bialgebra_axioms(mu, delta) == want
    assert decoded == [mu, delta]
