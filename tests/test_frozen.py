"""The immutable values of the package (`scalar.Frozen` and its subclasses)
survive copy, deepcopy and pickle, and still refuse assignment."""

import copy
import pickle
import random

import pytest

from operadlab import (MultiMap, Scalar, Subspace, TPoly, builtin, circ,
                       relation_vector)
from operadlab.checkers import BPoly
from operadlab.scalar import RatFunc

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def values():
    rng = random.Random(23)
    q = RatFunc([0, 1])
    return {
        "RatFunc": RatFunc([1, -2], [3, 0, 1]),
        "Scalar": Scalar(q / (q + 1), RatFunc([3]), 0, RatFunc([0, 0, 2])),
        "BPoly": BPoly([Scalar.q(), 0, Scalar.u()]),
        "TPoly": TPoly({(0, 1, 2): 3, (1, 0, 0): Scalar.u()}, order=3),
        "constructed MultiMap": MultiMap(2, 2, 1, {((0,), (1, 1)): 2,
                                                   ((1,), (0, 1)): -1}),
        "computed MultiMap": circ(MultiMap.random(rng, 2, 2, 1),
                                  MultiMap.random(rng, 2, 1, 2)),
    }


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("what", values())
def test_a_round_trip_gives_an_equal_value(what, how):
    x = values()[what]
    y = ROUND_TRIPS[how](x)
    assert type(y) is type(x) and y == x
    if type(x).__hash__ is not None:        # BPoly defines == but no hash
        assert hash(y) == hash(x)


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_a_presentation_and_a_subspace_round_trip(how):
    p = builtin("LLq")
    s = Subspace(p.shape, [relation_vector(p.shape, e) for e in p.relations])
    for x in (s, p.R):
        y = ROUND_TRIPS[how](x)
        assert y == x and hash(y) == hash(x)
    c = ROUND_TRIPS[how](p)
    assert (c.name, c.generators, c.params, c.shape, c.R) == (
        p.name, p.generators, p.params, p.shape, p.R)
    assert c.render() == p.render()


@pytest.mark.parametrize("what", values())
def test_assignment_still_raises(what):
    x = values()[what]
    field = type(x).__slots__[0]
    with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
        setattr(x, field, None)
    with pytest.raises(AttributeError, match="is immutable"):
        x.extra = 1


def test_coeffs_item_assignment_still_raises():
    for f in (values()["constructed MultiMap"], values()["computed MultiMap"],
              values()["TPoly"]):
        key = next(iter(f.coeffs))
        with pytest.raises(TypeError):
            f.coeffs[key] = 5
