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


def test_symmetric_elements_have_int_entries():
    # 1.0 sorts and compares like 1 but cannot index a tuple; "a" cannot be sorted among ints
    s3 = Symmetric(3)
    for bad in ((1.0, 0, 2), (True, 0.0, 2), ("a", 0, 1)):
        assert not s3.contains(bad)
        with pytest.raises(GroupError):
            s3.compose(bad, s3.identity())
        with pytest.raises(GroupError):
            s3.compose(s3.identity(), bad)
        with pytest.raises(GroupError):
            s3.invert(bad)
    assert s3.contains((1, 0, 2))


@pytest.mark.parametrize(
    "spec, bools",
    [
        (Cyclic(2), (True, False)),
        (klein_table(), (True, False)),
        (Integers(), (True, False)),
        (Symmetric(3), ((True, 0, 2), (1, False, 2), (0, True, 2))),
        (FreeAbelian(2), ((True, 0), (0, False))),
    ],
    ids=repr,
)
def test_bools_are_no_elements(spec, bools):
    # True and False equal 1 and 0, but the parser reads only ints, and
    # a document would print them as True and False
    for bad in bools:
        twin = tuple(map(int, bad)) if isinstance(bad, tuple) else int(bad)
        assert spec.contains(twin)
        assert not spec.contains(bad)
        with pytest.raises(GroupError):
            spec.check(bad)
        with pytest.raises(GroupError):
            spec.compose(bad, spec.identity())
        with pytest.raises(GroupError):
            spec.invert(bad)


def test_finite_table_rejects_bool_entries():
    assert FiniteTable(2, ((0, 1), (1, 0))).order() == 2
    with pytest.raises(GroupError, match="not closed"):
        FiniteTable(2, ((0, True), (True, 0)))


class _CountedRows(tuple):
    """Table rows that count how often one is read by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_finite_table_decides_commutativity_at_construction():
    s3 = Symmetric(3)
    perms = list(s3.elements())
    tables = {
        True: [[(i + j) % 12 for j in range(12)] for i in range(12)],
        False: [[perms.index(s3.compose(a, b)) for b in perms] for a in perms],
    }
    for abelian, rows in tables.items():
        table = _CountedRows(map(tuple, rows))
        spec = FiniteTable(len(rows), table, 0)
        table.reads = 0
        assert [spec.is_abelian() for _ in range(3)] == [abelian] * 3
        assert table.reads == 0


def test_finite_table_rejects_bad_tables():
    with pytest.raises(GroupError):  # wrong identity
        FiniteTable(2, ((0, 1), (1, 0)), 1)
    with pytest.raises(GroupError):  # out-of-range entry
        FiniteTable(2, ((0, 1), (1, 2)), 0)
    with pytest.raises(GroupError):  # not associative (and no identity row works)
        FiniteTable(3, ((0, 1, 2), (1, 2, 1), (2, 0, 0)), 0)


# an order-5 loop: 0 is a two-sided identity and each element its own
# inverse, but (1 * 1) * 2 = 2 while 1 * (1 * 2) = 4
_LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Cyclic(0), "cyclic order must be >= 1, got 0"),
        (lambda: Symmetric(0), "symmetric degree must be >= 1, got 0"),
        (lambda: FreeAbelian(-1), "rank must be >= 0, got -1"),
        (lambda: FiniteTable(0, ()), "table group must have at least one element"),
        (lambda: FiniteTable(2, ((0, 1),)), "multiplication table must be 2x2"),
        (lambda: FiniteTable(2, ((0, 1), (1, 0, 1))), "multiplication table must be 2x2"),
        (lambda: FiniteTable(2, ((0, 1), (1, 0)), 2), "identity index 2 out of range"),
        (lambda: FiniteTable(2, ((0, 1), (1, 0)), -1), "identity index -1 out of range"),
        (lambda: FiniteTable(5, _LOOP5), "table is not associative at (1, 1, 2)"),
    ],
    ids=["cyclic-0", "symmetric-0", "free-abelian--1", "table-empty", "table-short",
         "table-ragged", "table-identity-2", "table-identity--1", "table-loop"],
)
def test_constructors_name_what_is_wrong(make, message):
    with pytest.raises(GroupError) as info:
        make()
    assert str(info.value) == message


def test_orders_and_element_lists():
    trivial = FreeAbelian(0)
    assert trivial.order() == 1
    assert list(trivial.elements()) == [()]
    assert FreeAbelian(2).order() is None
    assert Integers().order() is None and Integers().is_abelian()
    assert [Symmetric(d).order() for d in (1, 3, 5)] == [1, 6, 120]
    with pytest.raises(GroupError, match="free abelian group of positive rank is infinite"):
        FreeAbelian(2).elements()


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


def test_noncommuting_pair_is_pinned():
    s3 = Symmetric(3)
    assert noncommuting_pair(s3) == ((0, 2, 1), (1, 0, 2))
    # S3 again as a table over its elements in enumeration order
    elements = list(s3.elements())
    index = {p: i for i, p in enumerate(elements)}
    rows = tuple(tuple(index[s3.compose(a, b)] for b in elements) for a in elements)
    assert noncommuting_pair(FiniteTable(6, rows, 0)) == (1, 2)


def test_noncommuting_pair_draws_elements_lazily():
    # the identity and a transposition as outer elements, three inner
    # draws: not the 8! elements of the whole group
    drawn = []

    class Counted(Symmetric):
        def elements(self):
            for p in super().elements():
                drawn.append(p)
                yield p

    assert noncommuting_pair(Counted(8)) == ((0, 1, 2, 3, 4, 5, 7, 6), (0, 1, 2, 3, 4, 6, 5, 7))
    assert len(drawn) <= 10


def test_first_nontrivial():
    assert first_nontrivial(Cyclic(1)) is None
    assert first_nontrivial(Cyclic(2)) == 1
    assert first_nontrivial(FreeAbelian(2)) == (1, 0)
    assert first_nontrivial(Symmetric(3)) is not None
    assert first_nontrivial(FreeAbelian(0)) is None
    assert first_nontrivial(FiniteTable(1, ((0,),))) is None


def test_commutator():
    s3 = Symmetric(3)
    a, b = noncommuting_pair(s3)
    assert not s3.is_identity(commutator(s3, a, b))
    assert s3.is_identity(commutator(s3, a, a))
