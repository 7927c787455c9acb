import pathlib

import pytest

from gwreath import (
    Cyclic,
    Instance,
    ParseError,
    Symmetric,
    WreathElement,
    classify,
    lef_certificate,
    separate,
    verify_certificate,
    verify_lef,
    verify_witness,
    witness,
    word,
)
from gwreath import formats

from tests.support import factorial_graph, k5_cyclic, line_graph, two_orbit_graph

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


def test_structured_header_parses():
    kind, record = formats.parse_structured("gwreath v1 witness\nkind T3.1\n")
    assert kind == "witness"
    assert record["kind"] == ["T3.1"]
    with pytest.raises(ParseError):
        formats.parse_structured("gwreath v2 witness\n")
    with pytest.raises(ParseError):
        formats.parse_structured("")


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
    unknown = Instance(Cyclic(2), factorial_graph(0))
    assert formats.render_verdict(unknown, classify(unknown))[0].startswith("UNKNOWN")
