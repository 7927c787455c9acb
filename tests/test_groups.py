import random

import pytest
from hypothesis import given, strategies as st

from gwreath import (
    Cyclic,
    FiniteTable,
    FreeAbelian,
    GroupError,
    Integers,
    Symmetric,
    commutator,
    first_nontrivial,
    noncommuting_pair,
)

from tests.support import klein_table, random_element

SPECS = [
    Cyclic(1),
    Cyclic(2),
    Cyclic(5),
    Symmetric(2),
    Symmetric(3),
    Symmetric(4),
    FreeAbelian(0),
    FreeAbelian(1),
    FreeAbelian(3),
    klein_table(),
]


def test_cyclic_examples():
    assert Cyclic(2).compose(1, 1) == 0
    assert Cyclic(3).invert(1) == 2


def test_free_abelian_examples():
    assert FreeAbelian(1).compose((2,), (3,)) == (5,)
    assert FreeAbelian(2).invert((1, -4)) == (-1, 4)


def test_symmetric_compose_right_factor_first():
    s3 = Symmetric(3)
    swap01 = (1, 0, 2)  # exchanges 0 and 1
    swap02 = (2, 1, 0)  # exchanges 0 and 2
    assert s3.compose(swap01, swap02) == (2, 0, 1)


def test_symmetric_compose_matches_function_composition():
    # Independent model: permutations as python functions.
    s3 = Symmetric(3)
    for a in s3.elements():
        for b in s3.elements():
            composed = s3.compose(a, b)
            for x in range(3):
                assert composed[x] == a[b[x]]


def test_symmetric_invert_matches_table_search():
    s3 = Symmetric(3)
    e = s3.identity()
    for a in s3.elements():
        brute = next(b for b in s3.elements() if s3.compose(a, b) == e)
        assert s3.invert(a) == brute
    assert s3.invert((1, 2, 0)) == (2, 0, 1)


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_group_axioms_sampled(spec):
    rng = random.Random(7)
    e = spec.identity()
    for _ in range(1000):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        c = random_element(spec, rng)
        assert spec.compose(spec.compose(a, b), c) == spec.compose(a, spec.compose(b, c))
        assert spec.compose(a, e) == a
        assert spec.compose(e, a) == a
        assert spec.compose(a, spec.invert(a)) == e
        assert spec.compose(spec.invert(a), a) == e


@given(st.integers(min_value=1, max_value=30), st.integers(), st.integers(), st.integers())
def test_cyclic_laws_hypothesis(n, a, b, c):
    spec = Cyclic(n)
    a, b, c = a % n, b % n, c % n
    assert spec.compose(spec.compose(a, b), c) == spec.compose(a, spec.compose(b, c))
    assert spec.compose(a, spec.invert(a)) == spec.identity()


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=2),
)
def test_free_abelian_laws_hypothesis(a, b):
    spec = FreeAbelian(2)
    a, b = tuple(a), tuple(b)
    assert spec.compose(a, b) == spec.compose(b, a)
    assert spec.compose(a, spec.invert(a)) == spec.identity()


def test_is_abelian():
    assert Cyclic(2).is_abelian()
    assert not Symmetric(3).is_abelian()
    assert Symmetric(2).is_abelian()
    assert FreeAbelian(5).is_abelian()
    assert klein_table().is_abelian()


def test_element_validation():
    with pytest.raises(GroupError):
        Cyclic(3).compose(1, 3)
    with pytest.raises(GroupError):
        Symmetric(3).compose((0, 1, 2), (0, 0, 2))
    with pytest.raises(GroupError):
        FreeAbelian(2).invert((1,))


@pytest.mark.parametrize(
    "spec", [Cyclic(3), Symmetric(3), klein_table(), Integers(), FreeAbelian(2)], ids=repr
)
def test_compose_and_invert_check_every_argument(spec):
    e = spec.identity()
    for bad in ("x", None, 1.5):
        with pytest.raises(GroupError):
            spec.compose(bad, e)
        with pytest.raises(GroupError):
            spec.compose(e, bad)
        with pytest.raises(GroupError):
            spec.invert(bad)


def test_finite_table_rejects_bad_tables():
    with pytest.raises(GroupError):  # wrong identity
        FiniteTable(2, ((0, 1), (1, 0)), 1)
    with pytest.raises(GroupError):  # out-of-range entry
        FiniteTable(2, ((0, 1), (1, 2)), 0)
    with pytest.raises(GroupError):  # not associative (and no identity row works)
        FiniteTable(3, ((0, 1, 2), (1, 2, 1), (2, 0, 0)), 0)


def test_finite_table_klein():
    k = klein_table()
    assert k.compose(1, 2) == 3
    assert k.invert(3) == 3
    assert k.is_abelian()


def test_noncommuting_pair():
    pair = noncommuting_pair(Symmetric(3))
    assert pair is not None
    a, b = pair
    s3 = Symmetric(3)
    assert s3.compose(a, b) != s3.compose(b, a)
    assert noncommuting_pair(Cyclic(5)) is None
    assert noncommuting_pair(klein_table()) is None


def test_first_nontrivial():
    assert first_nontrivial(Cyclic(1)) is None
    assert first_nontrivial(Cyclic(2)) == 1
    assert first_nontrivial(FreeAbelian(2)) == (1, 0)
    assert first_nontrivial(Symmetric(3)) is not None


def test_commutator():
    s3 = Symmetric(3)
    a, b = noncommuting_pair(s3)
    assert not s3.is_identity(commutator(s3, a, b))
    assert s3.is_identity(commutator(s3, a, a))
