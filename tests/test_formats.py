import pathlib

import pytest

from gwreath import (
    ArithmeticOffsets,
    Cyclic,
    EMPTY_WORD,
    FactorialOffsets,
    FreeAbelian,
    GroupError,
    Instance,
    Integers,
    ParseError,
    Symmetric,
    WreathElement,
    check_finitely_presented,
    classify,
    classify_wreath,
    lef_certificate,
    separate,
    verify_certificate,
    verify_lef,
    verify_witness,
    witness,
    word,
)
from gwreath import formats

from gwreath.graphs import FiniteOffsets, TranslationGraph, quotient_graph

from tests.support import (
    complete_z_graph,
    cycle_graph,
    factorial_graph,
    k5_cyclic,
    klein_table,
    line_graph,
    torus_graph,
    two_orbit_graph,
)

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

EX11 = """
[delta]
kind = cyclic
order = 2

[gamma]
kind = z

[graph]
mode = translation
orbits = c
family = c c finite 1

[elements]
w1 = c:0=1 c:2=1 @ 0
"""


def test_parse_instance_round():
    inst, elements = formats.parse_instance_text(EX11)
    assert inst.delta == Cyclic(2)
    assert inst.graph.labels == ("c",)
    assert elements["w1"].gamma == 0
    assert len(elements["w1"].word) == 2


def test_parse_finite_mode_instance():
    text = """
[delta]
kind = symmetric
degree = 3

[gamma]
kind = z^1

[graph]
mode = finite
vertices = 0 1 2
edge = 0 1
edge = 1 2
generator = 0 1 2

[elements]
w1 = 0=1,0,2 @ 3
"""
    inst, elements = formats.parse_instance_text(text)
    assert inst.graph.vertices == (0, 1, 2)
    assert elements["w1"].gamma == (3,)


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        ("[bogus]\nx = 1", "unknown section"),
        ("[delta]\nkind = cyclic\nkolor = red", "unknown field"),
        ("[delta]\nkind = cyclic", "missing section"),
        (
            "[delta]\nkind = cyclic\n[gamma]\nkind = z\n[graph]\nmode = translation\norbits = c",
            "missing field",
        ),
        ("kind = cyclic", "before the first section"),
    ],
)
def test_parse_errors_are_located(mutation, fragment):
    with pytest.raises(ParseError) as info:
        formats.parse_instance_text(mutation)
    assert fragment in str(info.value)


def test_parse_error_reports_line_number():
    bad = "[delta]\nkind = cyclic\norder = 2\nbogus-field = 3\n"
    with pytest.raises(ParseError) as info:
        formats.parse_instance_text(bad)
    assert info.value.line == 4
    assert info.value.field == "bogus-field"


def test_parse_rejects_gamma_graph_mismatch():
    bad = EX11.replace("kind = z", "kind = z^2")
    with pytest.raises(ParseError):
        formats.parse_instance_text(bad)


def test_parse_rejects_unknown_element_vertex():
    bad = EX11.replace("c:0=1", "d:0=1")
    with pytest.raises(ParseError):
        formats.parse_instance_text(bad)


def test_parse_rejects_duplicate_element():
    bad = EX11 + "w1 = c:0=1 @ 0\n"
    with pytest.raises(ParseError):
        formats.parse_instance_text(bad)


# (instance file, its section, a field of another group kind or graph mode)
MISPLACED_FIELDS = [
    ("finite5-s3", "delta", "order = 2"),  # kind = symmetric
    ("ex11", "delta", "degree = 3"),  # kind = cyclic
    ("ex11", "delta", "rank = 2"),
    ("ex11", "delta", "size = 2"),
    ("ex11", "delta", "identity = 0"),
    ("ex11", "delta", "row = 0 1"),
    ("ex11", "graph", "vertices = 0 1"),  # mode = translation
    ("ex11", "graph", "edge = 0 1"),
    ("ex11", "graph", "generator = 1 0"),
    ("finite5-s3", "graph", "orbits = c"),  # mode = finite
    ("finite5-s3", "graph", "family = c c finite 1"),
]


@pytest.mark.parametrize(
    "name, section, field", MISPLACED_FIELDS, ids=[f"{c[0]}-{c[2].split(' =')[0]}" for c in MISPLACED_FIELDS]
)
def test_fields_of_another_group_kind_or_graph_mode_are_located(name, section, field):
    # a field the section's kind or mode does not read is no longer dropped
    lines = (INSTANCES / f"{name}.instance").read_text().splitlines()
    at = lines.index(f"[{section}]") + 2  # just after the kind or mode line
    formats.parse_instance_text("\n".join(lines))
    with pytest.raises(ParseError, match=rf"field of another .* in \[{section}\]") as info:
        formats.parse_instance_text("\n".join(lines[:at] + [field] + lines[at:]))
    assert (info.value.line, info.value.field) == (at + 1, field.split(" = ")[0])


# (instance file, a line of it, its replacement, the error, the line it names)
INSTANCE_ERRORS = [
    ("ex11", "[elements]", "[gamma]", "duplicate section [gamma]", 14),
    ("ex11", "orbits = c", "orbits c", "expected 'key = value'", 11),
    ("ex11", "order = 2", "order = 2\norder = 3", "field 'order' repeated in [delta]", 5),
    ("ex11", "kind = cyclic", "kind = dihedral", "unknown coefficient group kind 'dihedral'", 3),
    ("ex11", "mode = translation", "mode = hyperbolic", "unknown graph mode 'hyperbolic'", 10),
    ("ex11", "family = c c finite 1", "family = c c", "family needs 'LABEL LABEL KIND ...'", 12),
    ("ex11", "family = c c finite 1", "family = c d finite 1", "unknown orbit label in family", 12),
    ("ex11", "w2 = c:0=1 @ 1", "w2 = c:0=1", "element needs 'SYLLABLES @ GAMMA'", 16),
    ("finite5-s3", "vertices = 0 1 2 3 4", "vertices = 0 1 x", "vertices must be integers", 11),
    ("finite5-s3", "edge = 0 2", "edge = 0", "edge needs two vertex ids", 13),
    ("finite5-s3", "generator = 1 2 3 4 0", "generator = 1 x 3 4 0", "generator must list vertex images", 22),
]


@pytest.mark.parametrize(
    "name, old, new, message, line", INSTANCE_ERRORS, ids=[c[3].split(" '")[0] for c in INSTANCE_ERRORS]
)
def test_instance_errors_name_their_line(name, old, new, message, line):
    text = (INSTANCES / f"{name}.instance").read_text()
    assert text.count(f"\n{old}\n") == 1
    with pytest.raises(ParseError) as info:
        formats.parse_instance_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    assert message in str(info.value) and info.value.line == line


def test_word_text_round_trip():
    inst, elements = formats.parse_instance_text(EX11)
    w = elements["w1"].word
    text = formats.word_text(w)
    assert formats.parse_word(inst.graph, inst.delta, text) == w
    assert formats.parse_word(inst.graph, inst.delta, "-").is_empty


def test_value_and_gamma_round_trip():
    s3 = Symmetric(3)
    assert formats.parse_value(s3, formats.value_text((2, 0, 1))) == (2, 0, 1)
    inst = Instance(Cyclic(2), line_graph())
    assert formats.parse_gamma(inst, formats.value_text(-4)) == -4


def test_every_accepted_value_emits_text_that_parses_back():
    candidates = [True, False, 0, 1, 2, -3, (), (True, 0), (0, False), (1, -2),
                  (True, 0, 2), (0, True, 2), (1, 0, 2), (2, 0, 1)]
    specs = [Cyclic(3), Symmetric(2), Symmetric(3), klein_table(), Integers(),
             FreeAbelian(0), FreeAbelian(2)]
    for spec in specs:
        for value in candidates:
            if spec.contains(value):
                # repr, since True == 1: the value must come back as it went out
                assert repr(formats.parse_value(spec, formats.value_text(value))) == repr(value)
            else:
                with pytest.raises(ParseError):
                    formats.parse_value(spec, formats.value_text(value))


def test_no_certificate_holds_a_bool():
    inst, _ = formats.parse_instance_text(EX11)
    with pytest.raises(GroupError):
        word(inst.delta, [(("c", 0), True)])
    w = word(inst.delta, [(("c", 0), 1)])
    with pytest.raises(GroupError):
        separate(inst, WreathElement(w, True))
    cert = separate(inst, WreathElement(w, 0))
    lines = formats.certificate_lines(inst, cert)
    assert lines[1:3] == ["element.word c:0=1", "element.gamma 0"]
    kind, record = formats.parse_structured("\n".join(lines))
    rebuilt = formats.certificate_from_record(inst, record)
    assert formats.certificate_lines(inst, rebuilt) == lines
    assert verify_certificate(inst, rebuilt)


def test_parse_word_errors_name_the_first_bad_token():
    # each distinct value text is parsed once, where it first occurs, so a
    # repeated text raises at its first bad occurrence, after the tokens before it
    graph = line_graph()
    cases = {
        "c:0=1,0,2 c:1=1,0,2 c:2=x c:3=x": "cannot parse group element 'x'",
        "c:0=1,0,2 c:1=1,1,2 c:2=1,1,2": "'1,1,2' is not an element of Symmetric(degree=3)",
        "c:0=1,0,2 c:1=0,1,2 c:2=0,1,2": "identity syllable 'c:1=0,1,2'",
        "c:0=1,0,2 c:1=1,0,2 d:2=1,0,2": "vertex 'd:2' does not belong to the graph",
        "c:0=1,0,2 c:x=1,0,2": "bad vertex 'c:x'",
        "c:0=1,0,2 c:1=1,0,2 c:2": "bad syllable 'c:2' (expected vertex=value)",
        "c:0=x d:1=1,0,2": "cannot parse group element 'x'",
        "d:0=x c:1=1,0,2": "vertex 'd:0' does not belong to the graph",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as info:
            formats.parse_word(graph, Symmetric(3), text, line=7)
        assert message in str(info.value), text
        assert info.value.line == 7


def test_structured_header_parses():
    kind, record = formats.parse_structured("gwreath v1 witness\nkind T3.1\n")
    assert kind == "witness"
    assert record["kind"] == ["T3.1"]
    with pytest.raises(ParseError):
        formats.parse_structured("gwreath v2 witness\n")
    with pytest.raises(ParseError):
        formats.parse_structured("")


def test_structured_errors_name_source_lines():
    # blank lines count: the bad line is line 4, the header line 3
    with pytest.raises(ParseError, match="expected 'key value'") as bad:
        formats.parse_structured("gwreath v1 verdict\n\n\n bad\n")
    assert bad.value.line == 4
    with pytest.raises(ParseError, match="unsupported format version") as header:
        formats.parse_structured("\n \ngwreath v2 verdict\nstatus x\n")
    assert header.value.line == 3
    with pytest.raises(ParseError, match="bad header") as header:
        formats.parse_structured("\n\nnot a header\n")
    assert header.value.line == 3
    with pytest.raises(ParseError, match="a second header") as header:
        formats.parse_structured("gwreath v1 verdict\nstatus x\n\ngwreath v1 verdict\n")
    assert header.value.line == 4
    assert formats.parse_structured("\n\ngwreath v1 verdict\n\nstatus x\n") == (
        "verdict", {"status": ["x"]}
    )


def _looped_quotients():
    """Quotients with edges and several orbits: a translation one and a
    finite-mode one with loops, and a finite-mode one without."""
    graph = TranslationGraph(
        ("a", "b"),
        {("a", "a"): (FiniteOffsets(frozenset({1, 3})),), ("a", "b"): (FiniteOffsets(frozenset({2})),)},
    )
    # offset 3 = 0 mod 3 loops every a-orbit; rows of the 4x4 torus fall into its column orbits
    return [quotient_graph(graph, 3), quotient_graph(torus_graph(4), [(1, 0)]),
            quotient_graph(cycle_graph(6), [(2,)])]


def _quotient_document(lines):
    return formats.parse_structured("\n".join(["gwreath v1 quotient", *lines]))[1]


def test_quotient_lines_round_trip():
    for q in _looped_quotients():
        lines = formats.quotient_lines(q)
        assert len(q.vertices) > 1 and q.edges
        parsed = formats.parse_quotient(_quotient_document(lines))
        assert parsed == q
        assert formats.quotient_lines(parsed) == lines
    assert all(q.loops for q in _looped_quotients()[:2])


def test_quotient_edge_endpoints_no_vertex_line_lists():
    # such a token is read on its own, and emits and parses back alike
    for q, extra in zip(_looped_quotients(), ("a:7", "99", "-5")):
        lines = formats.quotient_lines(q)
        first = next(line for line in lines if ".edge " in line)
        u = first.split(" ")[1].split("|")[0]
        parsed = formats.parse_quotient(_quotient_document(lines + [f"quotient.edge {u}|{extra}"]))
        assert parsed.edges == q.edges | {(formats._vertex_token(u), formats._vertex_token(extra))}
        again = formats.quotient_lines(parsed)
        assert f"quotient.edge {u}|{extra}" in again
        assert formats.parse_quotient(_quotient_document(again)) == parsed
        with pytest.raises(ParseError, match="bad vertex 'x'"):
            formats.parse_quotient(_quotient_document(lines + [f"quotient.edge {u}|x"]))


def test_quotient_documents_are_read_under_the_readers_rule():
    # the header must name a quotient-graph document, and every key must
    # be a quotient key
    for q in _looped_quotients():
        lines = ["gwreath v1 quotient-graph", *formats.quotient_lines(q)]
        assert formats.quotient_from_record(formats.parse_structured("\n".join(lines))[1]) == q
        record = formats.parse_structured("\n".join(lines + ["quotient.note x"]))[1]
        with pytest.raises(ParseError, match="unexpected key 'quotient.note'"):
            formats.quotient_from_record(record)
    record = formats.parse_structured("gwreath v1 witness\nbogus x")[1]
    with pytest.raises(ParseError, match="expected a quotient-graph document"):
        formats.quotient_from_record(record)


def test_certificate_round_trip_translation():
    inst, elements = formats.parse_instance_text(EX11)
    cert = separate(inst, elements["w1"])
    lines = formats.certificate_lines(inst, cert)
    kind, record = formats.parse_structured("\n".join(lines))
    assert kind == "separation-certificate"
    rebuilt = formats.certificate_from_record(inst, record)
    assert rebuilt.modulus == cert.modulus
    assert rebuilt.quotient == cert.quotient
    assert rebuilt.word_image == cert.word_image
    assert verify_certificate(inst, rebuilt)


def test_certificate_round_trip_finite_mode():
    inst = Instance(Symmetric(3), k5_cyclic())
    x = WreathElement(word(inst.delta, [(0, (1, 0, 2))]), (1,))
    cert = separate(inst, x)
    lines = formats.certificate_lines(inst, cert)
    _, record = formats.parse_structured("\n".join(lines))
    rebuilt = formats.certificate_from_record(inst, record)
    assert rebuilt.subgroup_perms == cert.subgroup_perms
    assert rebuilt.quotient == cert.quotient
    assert verify_certificate(inst, rebuilt)


def test_gamma_only_certificates_round_trip():
    # an element with no syllables restricts to no orbit: 'restricted -'
    for name, gamma in (("ex11", 5), ("finite5-s3", (1,))):
        inst, _ = formats.load_instance(INSTANCES / f"{name}.instance")
        lines = formats.certificate_lines(inst, separate(inst, WreathElement(EMPTY_WORD, gamma)))
        assert "restricted -" in lines and "element.word -" in lines
        rebuilt = formats.certificate_from_record(inst, formats.parse_structured("\n".join(lines))[1])
        assert formats.certificate_lines(inst, rebuilt) == lines
        assert verify_certificate(inst, rebuilt)


def test_family_text_round_trips_every_family_kind():
    for family, text in ((FiniteOffsets(frozenset({3, -1})), "finite 1 3"),
                         (FactorialOffsets(2), "factorial 2"),
                         (ArithmeticOffsets(1, 4), "arithmetic 1 4")):
        assert formats.family_text(family) == text
        assert formats.parse_family(text.split()) == family


def test_certificate_tampered_record_fails_verification():
    inst, elements = formats.parse_instance_text(EX11)
    cert = separate(inst, elements["w1"])
    lines = formats.certificate_lines(inst, cert)
    tampered = [
        line.replace("subgroup.modulus 4", "subgroup.modulus 6") for line in lines
    ]
    _, record = formats.parse_structured("\n".join(tampered))
    rebuilt = formats.certificate_from_record(inst, record)
    assert not verify_certificate(inst, rebuilt)


def test_witness_round_trip():
    inst = Instance(Symmetric(3), factorial_graph(0))
    wit = witness(inst, "T3.1", [("c", 0)])
    lines = formats.witness_lines(inst, wit)
    kind, record = formats.parse_structured("\n".join(lines))
    assert kind == "witness"
    rebuilt = formats.witness_from_record(inst, record)
    assert rebuilt.theorem == wit.theorem
    assert rebuilt.element == wit.element
    assert rebuilt.obstruction.lemma == wit.obstruction.lemma
    assert verify_witness(inst, rebuilt)


def test_lef_round_trip():
    graph = factorial_graph(0)
    gammas = [0, 1]
    vertices = [("c", 0), ("c", 1), ("c", 2)]
    cert = lef_certificate(graph, gammas, vertices)
    lines = formats.lef_lines(graph, cert)
    kind, record = formats.parse_structured("\n".join(lines))
    assert kind == "lef-certificate"
    rebuilt = formats.lef_from_record(graph, record)
    assert rebuilt.q_spec == cert.q_spec
    assert rebuilt.phi == cert.phi
    assert rebuilt.psi == cert.psi
    assert rebuilt.y == cert.y
    assert verify_lef(rebuilt, graph, gammas, vertices)


def _emitted_documents():
    """One separation certificate per graph mode, one witness and one
    LEF document, each with the parser that reads it back."""
    docs = []
    for name in ("ex11", "finite5-s3"):
        inst, elements = formats.load_instance(INSTANCES / f"{name}.instance")
        cert = separate(inst, next(iter(elements.values())))
        docs.append((formats.certificate_lines(inst, cert), inst, formats.certificate_from_record))
    inst = Instance(Symmetric(3), factorial_graph(0))
    wit = witness(inst, "T3.1", [("c", 0)])
    docs.append((formats.witness_lines(inst, wit), inst, formats.witness_from_record))
    graph = factorial_graph(0)
    cert = lef_certificate(graph, [0, 1], [("c", 0), ("c", 1), ("c", 2)])
    docs.append((formats.lef_lines(graph, cert), graph, formats.lef_from_record))
    return docs


def test_single_line_edits_parse_or_raise_parse_error():
    # every value replaced by x, every last token dropped and every line
    # deleted either parses or raises ParseError, never another error
    for lines, context, from_record in _emitted_documents():
        for i, line in enumerate(lines):
            key = line.split(" ", 1)[0]
            for edit in ([f"{key} x"], [line.rsplit(" ", 1)[0]], []):
                text = "\n".join(lines[:i] + edit + lines[i + 1:])
                try:
                    from_record(context, formats.parse_structured(text)[1])
                except ParseError:
                    pass


def _checked_documents():
    """Emitted separation certificates (translation, with and without
    loops, and finite mode), a witness and a LEF document, each with a
    function that reads a record back, verifies it and returns its
    re-emission, or None when it does not verify."""
    docs = []
    for name in ("ex11", "complete-c2", "finite5-s3"):
        inst, elements = formats.load_instance(INSTANCES / f"{name}.instance")

        def check(record, inst=inst):
            cert = formats.certificate_from_record(inst, record)
            return formats.certificate_lines(inst, cert) if verify_certificate(inst, cert) else None

        docs.append((formats.certificate_lines(inst, separate(inst, elements["w1"])), check))
    inst = Instance(Symmetric(3), factorial_graph(0))

    def check_witness(record):
        wit = formats.witness_from_record(inst, record)
        return formats.witness_lines(inst, wit) if verify_witness(inst, wit) else None

    docs.append((formats.witness_lines(inst, witness(inst, "T3.1", [("c", 0)])), check_witness))
    graph = formats.load_instance(INSTANCES / "ex12.instance")[0].graph
    gammas, vertices = [0, 1], [("c", 0), ("c", 1), ("c", 2)]

    def check_lef(record):
        cert = formats.lef_from_record(graph, record)
        return formats.lef_lines(graph, cert) if verify_lef(cert, graph, gammas, vertices) else None

    docs.append((formats.lef_lines(graph, lef_certificate(graph, gammas, vertices)), check_lef))
    return docs


def _rejected_or_unchanged(check, kind, edited) -> bool:
    """Whether an edited document of ``kind`` raises ParseError, names
    another kind in its header (which ``parse_structured`` returns for
    its reader to check), fails verification, or re-emits byte-identically."""
    try:
        got, record = formats.parse_structured("\n".join(edited))
        if got != kind:
            return True
        again = check(record)
    except ParseError:
        return True
    return again is None or again == edited


def test_single_line_duplicates_are_rejected():
    # a document with any line given twice raises ParseError, fails
    # verification, or re-emits byte-identically, which no document
    # with a repeated line can
    for lines, check in _checked_documents():
        kind = lines[0].split()[2]
        for i in range(len(lines)):
            assert _rejected_or_unchanged(check, kind, lines[:i + 1] + lines[i:]), lines[i]


def test_single_line_mutations_are_rejected():
    # the same rule for every line deleted, every last token replaced
    # (by the tokens of the LEF edit test) and an unknown key inserted
    tokens = ("0", "7", "-1", "x", "c:7", "c:1")
    for lines, check in _checked_documents():
        kind = lines[0].split()[2]
        for i, line in enumerate(lines):
            head = line.rsplit(" ", 1)[0]
            for edit in ([], *([f"{head} {token}"] for token in tokens)):
                edited = lines[:i] + edit + lines[i + 1:]
                assert _rejected_or_unchanged(check, kind, edited), edited
        assert _rejected_or_unchanged(check, kind, lines[:1] + ["note x"] + lines[1:]), kind
        # the reader itself rejects a header naming another kind
        for other in (*tokens, "witness", "lef-certificate", "separation-certificate", "verdict"):
            if other != kind:
                record = formats.parse_structured("\n".join([f"gwreath v1 {other}", *lines[1:]]))[1]
                with pytest.raises(ParseError, match=f"expected a {kind} document"):
                    check(record)


def test_keys_outside_the_document_kind_are_parse_errors():
    # an unknown key, or a key another kind of document emits, names
    # itself in the ParseError
    inst, elements = formats.load_instance(INSTANCES / "ex11.instance")
    modulus = formats.certificate_lines(inst, separate(inst, elements["w1"]))
    finite, elements = formats.load_instance(INSTANCES / "finite5-s3.instance")
    subgroup = formats.certificate_lines(finite, separate(finite, elements["w1"]))
    wit_inst = Instance(Symmetric(3), factorial_graph(0))
    wit = formats.witness_lines(wit_inst, witness(wit_inst, "T3.1", [("c", 0)]))
    graph = factorial_graph(0)
    lef = formats.lef_lines(graph, lef_certificate(graph, [0, 1], [("c", 0), ("c", 1), ("c", 2)]))
    cases = [
        (modulus, inst, formats.certificate_from_record,
         ["quotient.note anything", "subgroup.perm 0,1", "image.gamma-coset trivial",
          "quotient.orbit 0 0"]),
        (subgroup, finite, formats.certificate_from_record,
         ["quotient.note anything", "subgroup.modulus 2", "image.gamma 0", "quotient.modulus 2"]),
        (wit, wit_inst, formats.witness_from_record, ["note x", "obstruction.note x"]),
        (lef, graph, formats.lef_from_record, ["y.note x", "y.orbit 0 0", "note x"]),
    ]
    for lines, context, from_record, extras in cases:
        assert from_record(context, formats.parse_structured("\n".join(lines))[1])
        for extra in extras:
            key = extra.split(" ", 1)[0]
            record = formats.parse_structured("\n".join(lines[:-1] + [extra] + lines[-1:]))[1]
            with pytest.raises(ParseError, match=f"unexpected key '{key}'"):
                from_record(context, record)


def test_readers_leave_their_record_as_parsed():
    # a reader takes keys out of its own copy: read twice, one record
    # gives equal objects and keeps every key it was parsed with
    for lines, context, from_record in _emitted_documents():
        record = formats.parse_structured("\n".join(lines))[1]
        parsed = {key: list(values) for key, values in record.items()}
        first = from_record(context, record)
        assert from_record(context, record) == first
        assert list(record) == list(parsed) and record == parsed


def test_repeated_quotient_and_model_entries_are_parse_errors():
    repeatable = ("quotient.edge", "quotient.loop", "quotient.orbit", "y.edge", "phi", "psi")
    seen = set()
    for lines, check in _checked_documents():
        for i, line in enumerate(lines):
            key = line.split(" ", 1)[0]
            if key in repeatable:
                seen.add(key)
                with pytest.raises(ParseError, match=f"repeated {key} entry"):
                    check(formats.parse_structured("\n".join(lines[:i + 1] + lines[i:]))[1])
        # a vertex given twice with its lift line given twice too
        at = next((i for i, line in enumerate(lines) if line.split(" ", 1)[0].endswith(".vertex")), None)
        if at is not None:
            key, token = lines[at].split(" ")
            lift = lines.index(f"{key[:-len('vertex')]}lift {token} {token}")
            doubled = lines[:at + 1] + lines[at:lift + 1] + lines[lift:]
            with pytest.raises(ParseError, match=f"repeated {key} entry"):
                check(formats.parse_structured("\n".join(doubled))[1])
    assert seen == set(repeatable)


def _lift_edits(lines):
    """A lift line mapping its orbit elsewhere, a missing lift line, an
    extra one, and two lift lines swapped."""
    at = [i for i, line in enumerate(lines) if line.split(" ", 1)[0].endswith(".lift")]
    first, last = at[0], at[-1]
    key, source, _ = lines[first].split(" ")
    elsewhere = f"{key} {source} {lines[last].split(' ')[1]}"
    swapped = [lines[first + 1], lines[first]]
    return [
        lines[:first] + [elsewhere] + lines[first + 1:],
        lines[:first] + lines[first + 1:],
        lines[:last + 1] + [lines[last]] + lines[last + 1:],
        lines[:first] + swapped + lines[first + 2:],
    ]


def test_lift_lines_must_be_the_identity_in_order():
    documents = [doc for doc in _emitted_documents() if doc[2] is not formats.witness_from_record]
    assert len(documents) == 3  # two separation certificates and a LEF document
    for lines, context, from_record in documents:
        assert from_record(context, formats.parse_structured("\n".join(lines))[1])
        for edited in _lift_edits(lines):
            with pytest.raises(ParseError, match="lift"):
                from_record(context, formats.parse_structured("\n".join(edited))[1])


@pytest.mark.parametrize(
    "offsets,fragment",
    [
        ("truncation.offsets c c 0 1", "offset 0"),
        ("truncation.offsets c x 1", "unknown label"),
        ("truncation.offsets x c 1", "unknown label"),
        ("truncation.offsets c", "label pair"),
    ],
)
def test_lef_truncation_offsets_are_checked(offsets, fragment):
    graph = factorial_graph(0)
    lines = formats.lef_lines(graph, lef_certificate(graph, [0, 1], [("c", 0), ("c", 1), ("c", 2)]))
    at = lines.index("truncation.offsets c c 1 2")
    for edited in (lines[:at] + [offsets] + lines[at + 1:], lines[:at] + [offsets] + lines[at:]):
        with pytest.raises(ParseError, match=fragment):
            formats.lef_from_record(graph, formats.parse_structured("\n".join(edited))[1])


def test_lef_truncation_label_pair_given_twice():
    graph = two_orbit_graph()
    vertices = [("a", 0), ("a", 1), ("b", 2)]
    lines = formats.lef_lines(graph, lef_certificate(graph, [0, 1], vertices))
    at = lines.index("truncation.offsets a b 2")
    for again in ("truncation.offsets a b 2", "truncation.offsets b a -2"):
        edited = lines[:at + 1] + [again] + lines[at + 1:]
        with pytest.raises(ParseError, match="given twice"):
            formats.lef_from_record(graph, formats.parse_structured("\n".join(edited))[1])


def test_verdict_lines_deterministic():
    inst, _ = formats.parse_instance_text(EX11)
    verdict = classify(inst)
    first = formats.verdict_lines(inst, verdict)
    second = formats.verdict_lines(inst, classify(inst))
    assert first == second
    assert first[0] == "gwreath v1 verdict"
    assert "status residually-finite" in first


def test_render_verdict_headlines():
    inst, _ = formats.parse_instance_text(EX11)
    assert formats.render_verdict(inst, classify(inst))[0] == "RESIDUALLY FINITE"
    bad = Instance(Symmetric(3), factorial_graph(0))
    headline = formats.render_verdict(bad, classify(bad))[0]
    assert headline.startswith("NOT RESIDUALLY FINITE")
    assert "T3.1" in headline
    abelian = Instance(Cyclic(2), factorial_graph(0))
    assert formats.render_verdict(abelian, classify(abelian))[0] == "RESIDUALLY FINITE"


def test_verdict_lines_suffix_each_orbit_by_its_evidence():
    finite = Instance(Symmetric(3), cycle_graph(6))
    assert "condition-2.orbit 0 holds subgroup-index 2" in formats.verdict_lines(finite, classify(finite))
    failing = Instance(Symmetric(3), complete_z_graph())
    lines = formats.verdict_lines(failing, classify(failing))
    assert "condition-2.orbit c fails lemma arithmetic-zero" in lines


def test_render_verdict_lists_finite_orbits_and_every_pair():
    finite = Instance(Symmetric(3), cycle_graph(6))
    lines = formats.render_verdict(finite, classify(finite))
    assert "    orbit 0: clears its neighbourhood at subgroup index 2" in lines
    # a finite-mode pair holds at a subgroup index, with no rule to name
    assert "    pair (0, 2): holds" in lines and "    pair (3, 5): holds" in lines
    failing = Instance(Cyclic(2), factorial_graph(1))
    verdict = classify(failing)
    statement = verdict.cond3.failing.obstruction.statement
    assert f"    pair (c, c): fails at offset 1 ({statement})" in formats.render_verdict(failing, verdict)


def test_render_certificate_of_an_image_subgroup():
    inst = Instance(Symmetric(3), torus_graph(3))
    for gamma, coset in (((0, 0), "trivial"), ((1, 0), "2,0,1,5,3,4,8,6,7")):
        cert = separate(inst, WreathElement(word(Symmetric(3), [(0, (1, 0, 2))]), gamma))
        lines = formats.render_certificate(inst, cert)
        assert lines[0] == "SEPARATED with an image subgroup of order 3"
        assert lines[1] == f"  element: 0=1,0,2 @ {formats.value_text(gamma)}"
        assert lines[3] == f"  image gamma coset: {coset}"


def test_verdict_lines_carry_the_note_of_classify_wreath():
    for graph in (complete_z_graph(), k5_cyclic()):
        inst = Instance(Symmetric(3), graph)
        verdict = classify_wreath(inst)
        lines = formats.verdict_lines(inst, verdict)
        assert lines[3] == f"note {verdict.note}" and verdict.note.startswith("complete graph")
        assert f"  note: {verdict.note}" in formats.render_verdict(inst, verdict)
    assert not any(line.startswith("note ") for line in formats.verdict_lines(inst, classify(inst)))


def test_fp_and_wreath_element_lines():
    inst, elements = formats.parse_instance_text(EX11)
    assert formats.fp_lines(check_finitely_presented(inst))[:4] == [
        "gwreath v1 fp-report", "finitely-presented true", "vertex-orbits 1", "edge-orbits 1",
    ]
    assert formats.wreath_element_lines(inst, elements["w1"]) == [
        "gwreath v1 wreath-element", "word c:0=1 c:2=1", "gamma 0",
    ]
