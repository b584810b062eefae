import random
from fractions import Fraction

import pytest

from operadlab import (EShape, Scalar, builtin, gamma_plus_split, span_closure,
                       ActionMatrix, GAMMA3, TAU12, CYC123, Subspace,
                       basis_vector, left_lambda, character_of, decompose,
                       decompose_subspace, render_decomposition, verify_table,
                       CHARACTER_TABLE)
from operadlab.rep import (CLASS_REPS, CLASS_SIZES, CharacterVector, RepError,
                           restricted_trace)
from operadlab.scalar import SC0

# a second representative per class, for well-definedness checks
CLASS_REPS_ALT = (
    (0, 1, 2, 3),
    (0, 2, 1, 3),
    (0, 2, 3, 1),
    (2, 0, 3, 1),
    (2, 3, 0, 1),
)


def test_verify_table():
    assert verify_table()


def test_orthonormality_details():
    v31 = CharacterVector(CHARACTER_TABLE["V31"])
    v211 = CharacterVector(CHARACTER_TABLE["V211"])
    assert v31.inner(v211) == 0
    ident = CharacterVector(CHARACTER_TABLE["id"])
    assert ident.inner(ident) == 1
    assert sum(CHARACTER_TABLE[n][0] ** 2 for n in CHARACTER_TABLE) == 24


def test_class_reps_are_in_the_right_classes():
    # cycle types: sizes 1, 6, 8, 6, 3
    def cycle_type(g):
        seen, lens = set(), []
        for s in range(4):
            if s in seen:
                continue
            n, k = 1, g[s]
            seen.add(s)
            while k != s:
                seen.add(k)
                k = g[k]
                n += 1
            lens.append(n)
        return tuple(sorted(lens, reverse=True))

    expected = [(1, 1, 1, 1), (2, 1, 1), (3, 1), (4,), (2, 2)]
    assert [cycle_type(g) for g in CLASS_REPS] == expected
    assert [cycle_type(g) for g in CLASS_REPS_ALT] == expected


def test_gamma_split_characters(t3_shape):
    gp, gm = gamma_plus_split(t3_shape)
    assert character_of(gp) == CharacterVector((6, 0, 0, 0, 6))
    assert character_of(gm) == CharacterVector((6, 0, 0, 0, -2))
    for space in (gp, gm):
        alt = [restricted_trace(space, t3_shape.action(g)) for g in CLASS_REPS_ALT]
        assert CharacterVector(alt) == character_of(space)


def test_gamma_split_decompositions(t3_shape):
    gp, gm = gamma_plus_split(t3_shape)
    assert decompose_subspace(gp) == {"id": 1, "sgn": 1, "V22": 2, "V31": 0, "V211": 0}
    assert decompose_subspace(gm) == {"id": 0, "sgn": 0, "V22": 0, "V31": 1, "V211": 1}


def test_27_dimensional_example():
    mixed = EShape([("m", "none"), ("c", "comm")])
    gp, gm = gamma_plus_split(mixed)
    assert decompose_subspace(gp) == {"id": 3, "sgn": 1, "V22": 4, "V31": 1, "V211": 0}
    assert decompose_subspace(gm) == {"id": 0, "sgn": 0, "V22": 0, "V31": 2, "V211": 2}


def test_zero_subspace_character(t3_shape):
    zero = Subspace(t3_shape, [])
    assert character_of(zero) == CharacterVector((0, 0, 0, 0, 0))
    assert decompose_subspace(zero) == {n: 0 for n in CHARACTER_TABLE}


def test_render():
    assert render_decomposition({"id": 1, "sgn": 0, "V22": 2, "V31": 0, "V211": 0}) \
        == "1·id ⊕ 2·V22"
    assert render_decomposition({n: 0 for n in CHARACTER_TABLE}) == "0"


def test_non_invariant_subspace_rejected(t3_shape):
    s = Subspace(t3_shape, [basis_vector(t3_shape, 0)])
    with pytest.raises(RepError):
        restricted_trace(s, ActionMatrix(t3_shape, GAMMA3))


def test_not_a_character_rejected():
    with pytest.raises(RepError):
        decompose(CharacterVector((1, 1, 1, 1, 0)))


def test_cyclic_not_dihedral_relations_decompose():
    p = builtin("CyclicNotDihedral")
    assert decompose_subspace(p.R) == {"id": 1, "sgn": 0, "V22": 0, "V31": 1, "V211": 0}


def random_invariant_subspaces(shape, rng, count):
    acts = [ActionMatrix(shape, g) for g in (GAMMA3, TAU12, CYC123)]
    out = []
    while len(out) < count:
        vecs = []
        for _ in range(rng.randint(1, 2)):
            v = [SC0] * shape.basis_size
            for _ in range(rng.randint(1, 3)):
                v[rng.randrange(shape.basis_size)] = \
                    Scalar.from_fraction(rng.randint(-3, 3))
            vecs.append(tuple(v))
        s = span_closure(shape, vecs, acts)
        out.append(s)
        if len(out) < count and 0 < s.dim < shape.basis_size:
            # intersections give more proper invariant subspaces
            t = span_closure(shape, [vecs[0]], acts)
            out.append(s.intersect(t))
    return out[:count]


def test_random_invariant_subspaces_split(t3_shape):
    """No irreducible occurs in both parity parts, so every invariant
    subspace splits across them (checked on 50 random ones against the
    dihedrality criterion)."""
    rng = random.Random(20260810)
    gp, gm = gamma_plus_split(t3_shape)
    mults_p = decompose_subspace(gp)
    mults_m = decompose_subspace(gm)
    assert all(mults_p[n] == 0 or mults_m[n] == 0 for n in CHARACTER_TABLE)
    lam = lambda v: left_lambda(t3_shape, v)
    proper = 0
    for s in random_invariant_subspaces(t3_shape, rng, 50):
        mults = decompose_subspace(s)
        degsum = sum(CHARACTER_TABLE[n][0] * m for n, m in mults.items())
        assert degsum == s.dim
        assert (s.intersect(gp).dim + s.intersect(gm).dim) == s.dim
        assert s.is_invariant(lam)
        if 0 < s.dim < t3_shape.basis_size:
            proper += 1
    assert proper >= 10
