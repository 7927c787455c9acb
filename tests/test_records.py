"""Behaviour of the immutable value classes: repr, equality, hashing,
immutability, keyword construction with defaults, copying and pickling,
and the slots of the per-syllable records."""

import copy
import pickle
import re
import tracemalloc

import pytest

from gwreath import (
    EMPTY_WORD,
    ArithmeticOffsets,
    Cyclic,
    FactorialOffsets,
    FiniteModeGraph,
    FiniteOffsets,
    FiniteTable,
    FreeAbelian,
    Instance,
    Integers,
    LEFCertificate,
    NonRFWitness,
    Obstruction,
    RFCertificate,
    Symmetric,
    Syllable,
    TranslationGraph,
    Verdict,
    Word,
    WreathElement,
    quotient_graph,
)
from gwreath.checker import (
    COND1_NOTE,
    Cond2Result,
    Cond3Result,
    FPCondition,
    FPReport,
    OrbitEvidence,
    PairEvidence,
)
from gwreath.lef import Truncation
from gwreath.wreath import CheckRecord

LINE = "TranslationGraph(labels=('c',), families={('c', 'c'): (FiniteOffsets(offsets=frozenset({1, -1})),)})"
EDGE = "FiniteModeGraph(vertices=(0, 1), edges=frozenset({(0, 1)}), generators=())"
ZERO = (
    "Obstruction(lemma='factorial-zero', pair=('c', 'c'), family=FactorialOffsets(shift=0), "
    "offset=None, statement='0 is hit')"
)
QUOTIENT = quotient_graph(TranslationGraph(("c",)), 2)  # compares by content; no pinned repr


def line():
    return TranslationGraph(labels=("c",), families={("c", "c"): (FiniteOffsets(frozenset({1})),)})


def edge():
    return FiniteModeGraph(vertices=(1, 0), edges=frozenset({(1, 0)}))


def zero():
    return Obstruction(
        lemma="factorial-zero", pair=("c", "c"), family=FactorialOffsets(0), offset=None,
        statement="0 is hit",
    )


def element():
    return WreathElement(word=Word(syllables=(Syllable(vertex=0, value=1),)), gamma=(0,))


def checks():
    return CheckRecord(
        gamma_injective=True, induced_isomorphism=True, loops_clear=None, image_nontrivial=True
    )


# name -> (build a fresh record, its repr, whether it hashes)
CASES = {
    "Cyclic": (lambda: Cyclic(n=2), "Cyclic(n=2)", True),
    "Symmetric": (lambda: Symmetric(degree=3), "Symmetric(degree=3)", True),
    "FiniteTable": (
        lambda: FiniteTable(size=2, table=((0, 1), (1, 0))),
        "FiniteTable(size=2, table=((0, 1), (1, 0)), identity_index=0)",
        True,
    ),
    "Integers": (Integers, "Integers()", True),
    "FreeAbelian": (lambda: FreeAbelian(rank=2), "FreeAbelian(rank=2)", True),
    "FiniteOffsets": (
        lambda: FiniteOffsets(offsets=frozenset({1})),
        "FiniteOffsets(offsets=frozenset({1, -1}))",
        True,
    ),
    "FactorialOffsets": (lambda: FactorialOffsets(shift=0), "FactorialOffsets(shift=0)", True),
    "ArithmeticOffsets": (
        lambda: ArithmeticOffsets(start=1, step=2),
        "ArithmeticOffsets(start=1, step=2)",
        True,
    ),
    "TranslationGraph": (line, LINE, False),  # ``families`` is a dict
    "FiniteModeGraph": (edge, EDGE, True),
    "Syllable": (
        lambda: Syllable(vertex=("c", 0), value=(1, 0, 2)),
        "Syllable(vertex=('c', 0), value=(1, 0, 2))",
        True,
    ),
    "Word": (
        lambda: Word(syllables=(Syllable(("c", 0), 1),)),
        "Word(syllables=(Syllable(vertex=('c', 0), value=1),))",
        True,
    ),
    "WreathElement": (
        element,
        "WreathElement(word=Word(syllables=(Syllable(vertex=0, value=1),)), gamma=(0,))",
        True,
    ),
    "Instance": (
        lambda: Instance(delta=Cyclic(2), graph=edge()),
        f"Instance(delta=Cyclic(n=2), graph={EDGE})",
        True,
    ),
    "Obstruction": (zero, ZERO, True),
    "NonRFWitness": (
        lambda: NonRFWitness(
            theorem="T3.1", vertices=(("c", 0),), delta_elements=(1,),
            element=WreathElement(Word(), 0), obstruction=zero(),
        ),
        "NonRFWitness(theorem='T3.1', vertices=(('c', 0),), delta_elements=(1,), "
        f"element=WreathElement(word=Word(syllables=()), gamma=0), obstruction={ZERO})",
        True,
    ),
    "CheckRecord": (
        checks,
        "CheckRecord(gamma_injective=True, induced_isomorphism=True, loops_clear=None, "
        "image_nontrivial=True)",
        True,
    ),
    "RFCertificate": (
        lambda: RFCertificate(
            element=element(), kind="image-subgroup", modulus=None, subgroup_perms=((0, 1),),
            restricted=(0, 1), quotient=QUOTIENT, gamma_image=None, word_image=Word(),
            checks=checks(),
        ),
        "RFCertificate(element=WreathElement(word=Word(syllables=(Syllable(vertex=0, value=1),)), "
        "gamma=(0,)), kind='image-subgroup', modulus=None, subgroup_perms=((0, 1),), "
        f"restricted=(0, 1), quotient={QUOTIENT!r}, gamma_image=None, "
        "word_image=Word(syllables=()), checks=CheckRecord(gamma_injective=True, "
        "induced_isomorphism=True, loops_clear=None, image_nontrivial=True))",
        False,  # a QuotientGraph does not hash
    ),
    "Truncation": (
        lambda: Truncation(kept_offsets={("c", "c"): frozenset({1})}, modulus=3),
        "Truncation(kept_offsets={('c', 'c'): frozenset({1})}, modulus=3)",
        False,
    ),
    "LEFCertificate": (
        lambda: LEFCertificate(
            q_spec=Cyclic(2), y=QUOTIENT, phi={0: 0}, psi={("c", 0): ("c", 0)},
            truncation=Truncation(kept_offsets={}, modulus=2),
        ),
        f"LEFCertificate(q_spec=Cyclic(n=2), y={QUOTIENT!r}, phi={{0: 0}}, "
        "psi={('c', 0): ('c', 0)}, truncation=Truncation(kept_offsets={}, modulus=2))",
        False,
    ),
    "OrbitEvidence": (
        lambda: OrbitEvidence(orbit="c", status="holds", modulus=2),
        "OrbitEvidence(orbit='c', status='holds', modulus=2, subgroup_index=None, "
        "obstruction=None)",
        True,
    ),
    "Cond2Result": (
        lambda: Cond2Result(abelian=True, abelian_rule="rule", per_orbit=(), holds=True),
        "Cond2Result(abelian=True, abelian_rule='rule', per_orbit=(), holds=True, failing=None)",
        True,
    ),
    "PairEvidence": (
        lambda: PairEvidence(pair=(0, 2), status="holds", subgroup_index=1),
        "PairEvidence(pair=(0, 2), status='holds', rule=None, obstruction=None, "
        "subgroup_index=1)",
        True,
    ),
    "Cond3Result": (
        lambda: Cond3Result(per_pair=(), holds=None, t_max=30),
        "Cond3Result(per_pair=(), holds=None, t_max=30, failing=None)",
        True,
    ),
    "Verdict": (
        lambda: Verdict(status="unknown", bound=64),
        f"Verdict(status='unknown', cond1_note={COND1_NOTE!r}, cond2=None, cond3=None, "
        "witness=None, bound=64, failing_condition=None, note=None)",
        True,
    ),
    "FPCondition": (
        lambda: FPCondition(name="finitely-many-orbits", ok=False, reason="why"),
        "FPCondition(name='finitely-many-orbits', ok=False, reason='why')",
        True,
    ),
    "FPReport": (
        lambda: FPReport(finitely_presented=True, conditions=(), vertex_orbits=1, edge_orbits=2),
        "FPReport(finitely_presented=True, conditions=(), vertex_orbits=1, edge_orbits=2)",
        True,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    build, text, _ = CASES[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", CASES)
def test_equal_by_value_and_hash(name):
    build, _, hashable = CASES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert a != name and a.__eq__(name) is NotImplemented
    if hashable:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("name", CASES)
def test_immutable(name):
    record = CASES[name][0]()
    before = repr(record)
    for attr in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert repr(record) == before


def _unaddressed(text):
    return re.sub(r" at 0x[0-9a-f]+", "", text)


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle{protocol}": lambda record, protocol=protocol: pickle.loads(
            pickle.dumps(record, protocol)
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@pytest.mark.parametrize("how", COPIERS)
@pytest.mark.parametrize("name", CASES)
def test_copy_round_trips(name, how):
    record = CASES[name][0]()
    duplicate = COPIERS[how](record)
    assert type(duplicate) is type(record)
    assert duplicate == record
    # a copied QuotientGraph prints with its own address
    assert _unaddressed(repr(duplicate)) == _unaddressed(repr(record))
    with pytest.raises(AttributeError):
        setattr(duplicate, record._fields[0] if record._fields else "extra", None)


@pytest.mark.parametrize("how", COPIERS)
def test_copy_keeps_derived_state(how):
    # a record with a dictionary copies all of it, derived attributes included
    graph = line()
    duplicate = COPIERS[how](graph)
    assert vars(duplicate).keys() == vars(graph).keys()
    assert duplicate._pair_tables == graph._pair_tables


@pytest.mark.parametrize("name", ["Syllable", "Word", "WreathElement"])
def test_per_syllable_records_have_no_dictionary(name):
    record = CASES[name][0]()
    assert type(record).__slots__ == record._fields
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)


def test_syllable_bytes_retained():
    # 48 B for a slotted syllable plus 8 B for its list slot; an instance
    # dictionary adds 32 B or more (96 B in all on Python 3.11)
    vertex, value, n = ("c", 0), (1, 0, 2), 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [Syllable(vertex, value) for _ in range(n)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == n
    assert retained / n < 72


def test_equality_needs_the_exact_class():
    class Subclass(Cyclic):
        pass

    assert Cyclic(3) != Symmetric(3)
    assert Cyclic(3) != Subclass(3)
    assert Cyclic(3) == Cyclic(3) != Cyclic(4)
    assert FiniteOffsets(frozenset({1})) == FiniteOffsets(frozenset({-1}))  # negation closure


def test_keyword_construction_and_defaults():
    assert Word() == EMPTY_WORD == Word(syllables=())
    graph = FiniteModeGraph(vertices=(0, 1), edges=frozenset())
    assert graph.generators == () and graph.rank == 0
    assert graph == FiniteModeGraph((1, 0), frozenset(), ())
    assert TranslationGraph(labels=("c",)).families == {}
    assert FiniteTable(size=1, table=((0,),)).identity_index == 0
    verdict = Verdict("unknown")
    assert verdict.cond1_note == COND1_NOTE and verdict.witness is None
    assert PairEvidence((0, 1), "holds").obstruction is None
    assert PairEvidence((0, 1), "fails", "rule") == PairEvidence(
        pair=(0, 1), status="fails", rule="rule", obstruction=None, subgroup_index=None,
    )
    assert PairEvidence((0, 1), status="holds", subgroup_index=2) == PairEvidence(
        (0, 1), "holds", None, None, 2
    )
    with pytest.raises(TypeError, match="takes 5 positional arguments but 6"):
        PairEvidence((0, 1), "holds", None, None, 2, "extra")
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        PairEvidence((0, 1), "holds", bogus=1)
    with pytest.raises(TypeError, match="multiple values for argument 'pair'"):
        PairEvidence((0, 1), "holds", pair=(0, 2))
    with pytest.raises(TypeError, match="missing required argument 'status'"):
        PairEvidence(pair=(0, 1))
    assert LEFCertificate._defaults == {}
    with pytest.raises(TypeError, match="missing required argument 'truncation'"):
        LEFCertificate(Cyclic(2), QUOTIENT, {}, {})
    with pytest.raises(TypeError):
        Syllable(vertex=0)
    with pytest.raises(TypeError):
        Cyclic(n=2, rank=1)


def test_derived_state_stays_out_of_equality_and_repr():
    graph = edge()
    assert graph._subgroups[0][0] == 1  # kept on the graph, not a field
    assert graph == edge() and hash(graph) == hash(edge())
    assert repr(graph) == EDGE
