import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gwreath
from gwreath.cli import run

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_separable_instance(capsys):
    code, out, _ = invoke(capsys, "check", INSTANCES / "ex11.instance")
    assert code == 0
    assert out.startswith("RESIDUALLY FINITE")


def test_check_not_separable_instance(capsys):
    code, out, _ = invoke(capsys, "check", INSTANCES / "ex12.instance")
    assert code == 0  # certified either way
    assert out.startswith("NOT RESIDUALLY FINITE")
    assert "T3.1" in out


def test_check_decides_infinite_families(capsys, tmp_path):
    # condition 3 over factorial offsets is decided, not left open
    path = tmp_path / "factorial-c2.instance"
    path.write_text(
        "[delta]\nkind = cyclic\norder = 2\n\n[gamma]\nkind = z\n\n"
        "[graph]\nmode = translation\norbits = c\nfamily = c c factorial 0\n"
    )
    code, out, _ = invoke(capsys, "check", path)
    assert code == 0
    assert out.startswith("RESIDUALLY FINITE")


def test_check_arithmetic_two_four_is_residually_finite(capsys):
    code, out, _ = invoke(capsys, "check", INSTANCES / "arithmetic-2-4-s3.instance",
                          "--format", "structured")
    assert code == 0
    assert "status residually-finite" in out.splitlines()
    assert any(line.startswith("condition-3.pair c c holds-rule") for line in out.splitlines())
    code, out, _ = invoke(capsys, "check", INSTANCES / "arithmetic-2-4-s3.instance")
    assert code == 0 and out.startswith("RESIDUALLY FINITE")


def test_check_bound_is_only_recorded(capsys):
    # the least condition-2 modulus is 4 at every bound, and the bound is echoed
    path = INSTANCES / "arithmetic-2-4-s3.instance"
    outputs = {}
    for bound in ("1", "3", "64"):
        code, out, _ = invoke(capsys, "check", path, "--format", "structured", "--bound", bound)
        assert code == 0
        assert "condition-2.orbit c holds modulus 4" in out.splitlines()
        assert f"bound {bound}" in out.splitlines()
        outputs[bound] = [line for line in out.splitlines() if not line.startswith("bound ")]
    assert outputs["1"] == outputs["3"] == outputs["64"]


def test_check_structured_and_deterministic(capsys):
    code, first, _ = invoke(
        capsys, "check", INSTANCES / "ex13.instance", "--format", "structured"
    )
    assert code == 0
    code, second, _ = invoke(
        capsys, "check", INSTANCES / "ex13.instance", "--format", "structured"
    )
    assert first == second
    assert first.splitlines()[0] == "gwreath v1 verdict"
    assert "status not-residually-finite" in first


def test_check_wreath_flag(capsys):
    code, out, _ = invoke(capsys, "check", INSTANCES / "complete-s3.instance", "--wreath")
    assert code == 0
    assert out.startswith("NOT RESIDUALLY FINITE")


def test_check_wreath_flag_rejects_incomplete(capsys):
    code, _, err = invoke(capsys, "check", INSTANCES / "ex11.instance", "--wreath")
    assert code == 1
    assert "complete" in err


def test_check_fp(capsys):
    code, out, _ = invoke(capsys, "check-fp", INSTANCES / "ex11.instance")
    assert code == 0
    assert out.startswith("FINITELY PRESENTED")
    code, out, _ = invoke(capsys, "check-fp", INSTANCES / "ex12.instance")
    assert code == 0
    assert out.startswith("NOT FINITELY PRESENTED")


def test_normalize(capsys):
    code, out, _ = invoke(
        capsys, "normalize", INSTANCES / "ex11.instance", "--element", "w1"
    )
    assert code == 0
    assert "word: c:0=1 c:2=1" in out


def test_structured_element_fp_and_witness_documents(capsys):
    ex11, ex12 = INSTANCES / "ex11.instance", INSTANCES / "ex12.instance"
    code, out, _ = invoke(capsys, "normalize", ex11, "--element", "w1", "--format", "structured")
    assert code == 0
    assert out.splitlines() == ["gwreath v1 wreath-element", "word c:0=1 c:2=1", "gamma 0"]
    code, out, _ = invoke(capsys, "check-fp", ex11, "--format", "structured")
    assert code == 0
    assert out.splitlines()[:4] == [
        "gwreath v1 fp-report", "finitely-presented true", "vertex-orbits 1", "edge-orbits 1",
    ]
    code, out, _ = invoke(
        capsys, "witness", ex12, "--kind", "T3.1", "--vertices", "c:0", "--format", "structured"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["gwreath v1 witness", "kind T3.1", "vertex c:0"]
    assert "obstruction.lemma factorial-zero" in lines


# Coefficient kinds no shipped instance uses: Z^2, and the Klein group as a table.
COEFFICIENT_KINDS = {
    "free-abelian": ("kind = free-abelian\nrank = 2", "c:0=1,0 c:2=0,-3 c:1=2,2 @ 1",
                     "word c:0=1,0 c:1=2,2 c:2=0,-3", "word c:0=-2,-2 c:1=0,3 c:-1=-1,0"),
    "table": (
        "kind = table\nsize = 4\nidentity = 0\n"
        "row = 0 1 2 3\nrow = 1 0 3 2\nrow = 2 3 0 1\nrow = 3 2 1 0",
        "c:0=1 c:2=2 c:1=3 c:0=2 @ -1",
        "word c:0=1 c:1=3 c:2=2 c:0=2", "word c:1=2 c:2=3 c:3=2 c:1=1",
    ),
}


@pytest.mark.parametrize("kind", COEFFICIENT_KINDS)
def test_instances_with_free_abelian_and_table_coefficients(capsys, tmp_path, kind):
    delta, element, normal, inverse = COEFFICIENT_KINDS[kind]
    path = tmp_path / f"{kind}.instance"
    path.write_text(
        f"[delta]\n{delta}\n\n[gamma]\nkind = z\n\n[graph]\nmode = translation\n"
        f"orbits = c\nfamily = c c finite 1\n\n[elements]\nw = {element}\n"
    )
    structured = ("--format", "structured")
    code, out, _ = invoke(capsys, "check", path, *structured)
    assert code == 0 and "status residually-finite" in out.splitlines()
    code, out, _ = invoke(capsys, "separate", path, "--element", "w", *structured)
    assert code == 0 and "check.image-nontrivial pass" in out.splitlines()
    code, out, _ = invoke(capsys, "normalize", path, "--element", "w", *structured)
    assert code == 0 and normal in out.splitlines()
    code, out, _ = invoke(capsys, "invert", path, "--element", "w", *structured)
    assert code == 0 and inverse in out.splitlines()


def test_normalize_unknown_element(capsys):
    code, _, err = invoke(
        capsys, "normalize", INSTANCES / "ex11.instance", "--element", "nope"
    )
    assert code == 1
    assert "no element named" in err


def test_mul_and_invert(capsys):
    code, out, _ = invoke(
        capsys, "mul", INSTANCES / "ex11.instance", "--left", "w2", "--right", "w2"
    )
    assert code == 0
    assert "gamma: 2" in out
    code, out, _ = invoke(
        capsys, "invert", INSTANCES / "ex11.instance", "--element", "w2"
    )
    assert code == 0
    assert "gamma: -1" in out


def test_separate_certificate(capsys):
    code, out, _ = invoke(
        capsys, "separate", INSTANCES / "ex11.instance", "--element", "w1"
    )
    assert code == 0
    assert out.startswith("SEPARATED with modulus 4")


def test_separate_structured_round_trips(capsys):
    code, out, _ = invoke(
        capsys,
        "separate",
        INSTANCES / "ex11.instance",
        "--element",
        "w1",
        "--format",
        "structured",
    )
    assert code == 0
    from gwreath import formats, verify_certificate

    inst, _ = formats.load_instance(str(INSTANCES / "ex11.instance"))
    _, record = formats.parse_structured(out)
    rebuilt = formats.certificate_from_record(inst, record)
    assert verify_certificate(inst, rebuilt)


def test_separate_exhausted_exits_two(capsys):
    code, out, _ = invoke(
        capsys,
        "separate",
        INSTANCES / "ex11.instance",
        "--element",
        "t5",
        "--bound",
        "1",
    )
    assert code == 2
    assert "SEARCH EXHAUSTED" in out


def test_witness_command(capsys):
    code, out, _ = invoke(
        capsys,
        "witness",
        INSTANCES / "ex12.instance",
        "--kind",
        "T3.1",
        "--vertices",
        "c:0",
    )
    assert code == 0
    assert out.startswith("WITNESS T3.1")


def test_witness_takes_coefficient_elements(capsys):
    witness = ("witness", INSTANCES / "ex12.instance", "--kind", "T3.1", "--vertices", "c:0")
    code, out, _ = invoke(capsys, *witness, "--elements", "1,0,2 0,2,1", "--format", "structured")
    assert code == 0
    assert out.splitlines()[3:5] == ["delta-element 1,0,2", "delta-element 0,2,1"]
    code, out, _ = invoke(capsys, *witness, "--elements", "1,0,2 1,0,2")
    assert (code, out) == (2, "NO WITNESS: (1, 0, 2) and (1, 0, 2) commute\n")
    code, out, err = invoke(capsys, *witness, "--elements", "1,1,2 0,2,1")
    assert (code, out) == (1, "") and err.startswith("error: '1,1,2' is not an element")


def test_witness_not_certifiable_exits_two(capsys):
    code, out, _ = invoke(
        capsys,
        "witness",
        INSTANCES / "ex11.instance",
        "--kind",
        "T3.3",
        "--vertices",
        "c:0 c:3",
    )
    assert code == 2
    assert out.startswith("NO WITNESS")


def test_quotient_translation(capsys):
    code, out, _ = invoke(
        capsys,
        "quotient",
        INSTANCES / "ex11.instance",
        "--modulus",
        "3",
        "--format",
        "structured",
    )
    assert code == 0
    assert "quotient.edge c:0|c:1" in out


def test_quotient_finite_mode(capsys):
    code, out, _ = invoke(
        capsys,
        "quotient",
        INSTANCES / "finite5-s3.instance",
        "--subgroup",
        "1",
        "--format",
        "structured",
    )
    assert code == 0
    assert "quotient.loop 0" in out


def test_quotient_requires_modulus_for_translation(capsys):
    code, _, err = invoke(capsys, "quotient", INSTANCES / "ex11.instance")
    assert code == 1
    assert "--modulus" in err


def test_quotient_requires_subgroup_for_finite_mode(capsys):
    code, out, err = invoke(capsys, "quotient", INSTANCES / "finite5-s3.instance")
    assert (code, out) == (1, "")
    assert err == "error: finite-mode instances need --subgroup\n"


@pytest.mark.parametrize(
    "name, options, message",
    [
        ("ex11", ("--modulus", "2", "--subgroup", "5"),
         "translation instances take --modulus, not --subgroup"),
        ("finite5-s3", ("--subgroup", "1", "--modulus", "7"),
         "finite-mode instances take --subgroup, not --modulus"),
    ],
    ids=["translation", "finite-mode"],
)
def test_quotient_rejects_the_other_modes_option(capsys, name, options, message):
    # the option another graph mode takes is an input error, not ignored
    code, out, err = invoke(capsys, "quotient", INSTANCES / f"{name}.instance", *options)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name, options",
    [("ex11", ("--modulus", "3")), ("finite5-s3", ("--subgroup", "1"))],
    ids=["translation", "finite-mode"],
)
def test_quotient_documents_round_trip(capsys, name, options):
    # emit -> parse -> emit gives the same bytes in both graph modes
    from gwreath import formats

    code, out, _ = invoke(
        capsys, "quotient", INSTANCES / f"{name}.instance", *options, "--format", "structured"
    )
    assert code == 0
    q = formats.quotient_from_record(formats.parse_structured(out)[1])
    assert "\n".join(["gwreath v1 quotient-graph", *formats.quotient_lines(q)]) + "\n" == out


def test_quotient_text_indents_the_structured_lines(capsys):
    argv = ("quotient", INSTANCES / "ex11.instance", "--modulus", "3")
    code, structured, _ = invoke(capsys, *argv, "--format", "structured")
    assert code == 0
    code, out, _ = invoke(capsys, *argv, "--format", "text")
    assert code == 0
    assert out.splitlines() == ["QUOTIENT with 3 vertices"] + [
        "  " + line for line in structured.splitlines()[1:]
    ]


def test_lef_command(capsys):
    code, out, _ = invoke(
        capsys,
        "lef",
        INSTANCES / "ex12.instance",
        "--gamma-set",
        "0,1",
        "--vertex-set",
        "c:0 c:1 c:2",
    )
    assert code == 0
    assert out.startswith("LEF MODEL with group of order 5")


def test_lef_rejects_a_finite_mode_instance(capsys):
    code, out, err = invoke(capsys, "lef", INSTANCES / "finite5-s3.instance",
                            "--gamma-set", "0,1", "--vertex-set", "0 1")
    assert (code, out) == (1, "")
    assert err == "error: finite partial models are built for translation instances\n"


def test_lef_takes_no_bound_and_always_decides(capsys):
    lef = ("lef", INSTANCES / "ex12.instance", "--vertex-set", "c:0 c:1 c:2")
    code, out, err = invoke(capsys, *lef, "--gamma-set", "0,1", "--bound", "5")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: unrecognized arguments: --bound 5"]
    gammas = ",".join(map(str, range(71)))
    code, out, _ = invoke(capsys, *lef, "--gamma-set", gammas, "--format", "structured")
    assert code == 0
    assert "modulus 71" in out.splitlines()


def test_lef_structured_round_trips(capsys):
    code, out, _ = invoke(
        capsys,
        "lef",
        INSTANCES / "ex12.instance",
        "--gamma-set",
        "0,1",
        "--vertex-set",
        "c:0 c:1 c:2",
        "--format",
        "structured",
    )
    assert code == 0
    from gwreath import formats, verify_lef

    inst, _ = formats.load_instance(str(INSTANCES / "ex12.instance"))
    _, record = formats.parse_structured(out)
    rebuilt = formats.lef_from_record(inst.graph, record)
    assert verify_lef(rebuilt, inst.graph, [0, 1], [("c", 0), ("c", 1), ("c", 2)])


def test_missing_file_is_input_error(capsys):
    code, _, err = invoke(capsys, "check", "no-such-file.instance")
    assert code == 1
    assert "error" in err


def test_parse_error_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.instance"
    bad.write_text("[delta]\nkind = cyclic\norder = 2\nbogus = 1\n")
    code, _, err = invoke(capsys, "check", bad)
    assert code == 1
    assert "line 4" in err


def test_field_of_another_group_kind_exits_one_from_the_command_line(tmp_path):
    # degree belongs to kind = symmetric: one located error line, no traceback
    bad = tmp_path / "misplaced.instance"
    bad.write_text(
        "[delta]\nkind = cyclic\norder = 2\ndegree = 3\n[gamma]\nkind = z\n"
        "[graph]\nmode = translation\norbits = c\nfamily = c c finite 1\n"
    )
    child = subprocess.run(
        [sys.executable, "-m", "gwreath.cli", "check", str(bad)],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(gwreath.__file__).parent.parent)},
        capture_output=True, text=True,
    )
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == "error: field of another group kind in [delta] (line 4, field 'degree')\n"


CYCLIC = "kind = cyclic\norder = 2"
TABLE_BAD_ROW = "kind = table\nsize = 2\nidentity = 0\nrow = 0 1\nrow = 1 x"  # row on line 6

# (name, [delta] body, gamma kind, [graph] body, the line the error names);
# under the two-line cyclic [delta] body the [graph] header is line 7, so
# its first field is line 8
GRAPH_ERRORS = [
    ("repeated-labels", CYCLIC, "z", "mode = translation\norbits = c c\nfamily = c c finite 1", 9),
    ("table-row", TABLE_BAD_ROW, "z", "mode = translation\norbits = c\nfamily = c c finite 1", 6),
    ("loop", CYCLIC, "z^1", "mode = finite\nvertices = 0 1 2\nedge = 0 1\nedge = 1 1", 11),
    ("unknown-vertex", CYCLIC, "z^1", "mode = finite\nvertices = 0 1 2\nedge = 1 5\nedge = 0 1", 10),
    ("repeated-vertex", CYCLIC, "z^1", "mode = finite\nvertices = 0 1 1\nedge = 0 1", 9),
    ("not-a-permutation", CYCLIC, "z^1", "mode = finite\nvertices = 0 1 2\ngenerator = 1 1 0", 10),
    (
        "edges-not-preserved", CYCLIC, "z^2",
        "mode = finite\nvertices = 0 1 2\nedge = 0 1\ngenerator = 0 1 2\ngenerator = 1 2 0", 12,
    ),
    (
        "not-commuting", CYCLIC, "z^2",
        "mode = finite\nvertices = 0 1 2\ngenerator = 1 0 2\ngenerator = 0 2 1", 11,
    ),
]


@pytest.mark.parametrize(
    "delta, gamma, body, line", [case[1:] for case in GRAPH_ERRORS],
    ids=[c[0] for c in GRAPH_ERRORS],
)
def test_graph_errors_name_their_line(capsys, tmp_path, delta, gamma, body, line):
    bad = tmp_path / "bad.instance"
    bad.write_text(f"[delta]\n{delta}\n\n[gamma]\nkind = {gamma}\n[graph]\n{body}\n")
    code, out, err = invoke(capsys, "check", bad)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.rstrip().endswith(f"(line {line})"), err


# (id, the command that writes the document, the key of the line to
# replace, its replacement, the error the reader raises)
BAD_DOCUMENTS = [
    ("witness-family", ("witness", "ex12", "--kind", "T3.1", "--vertices", "c:0"),
     "obstruction.family", "obstruction.family", "missing family kind"),
    ("quotient-orbit", ("quotient", "finite5-s3", "--subgroup", "1"),
     "quotient.orbit", "quotient.orbit", "empty quotient.orbit line"),
    ("lef-group", ("lef", "ex12", "--gamma-set", "0,1", "--vertex-set", "c:0 c:1 c:2"),
     "q", "q dihedral 5", "unsupported finite model group 'dihedral'"),
]


@pytest.mark.parametrize(
    "command, key, new, message", [case[1:] for case in BAD_DOCUMENTS],
    ids=[case[0] for case in BAD_DOCUMENTS],
)
def test_document_errors_are_one_located_line(capsys, monkeypatch, tmp_path, command, key, new,
                                              message):
    # no command reads a document back, so its reader stands in as one:
    # `run` reports the located ParseError as one error line and exits 1
    from gwreath import cli, formats

    name, instance, *options = command
    inst, _ = formats.load_instance(str(INSTANCES / f"{instance}.instance"))
    readers = {
        "witness": lambda record: formats.witness_from_record(inst, record),
        "quotient": formats.quotient_from_record,
        "lef": lambda record: formats.lef_from_record(inst.graph, record),
    }
    code, out, _ = invoke(capsys, name, INSTANCES / f"{instance}.instance", *options,
                          "--format", "structured")
    assert code == 0
    lines = out.splitlines()
    at = [line.split(" ")[0] for line in lines].index(key)
    doc = tmp_path / "bad.doc"
    doc.write_text("\n".join(lines[:at] + [new] + lines[at + 1:]) + "\n")

    def read(args):
        readers[name](formats.parse_structured(pathlib.Path(args.instance).read_text())[1])
        return cli.EXIT_OK

    monkeypatch.setitem(cli._SUBCOMMANDS, "check", (read, "read a document", False, []))
    assert invoke(capsys, "check", doc) == (1, "", f"error: {message} (line {at + 1})\n")


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = invoke(
        capsys,
        "check",
        INSTANCES / "ex11.instance",
        "--output",
        target,
        "--format",
        "structured",
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "gwreath v1 verdict"


def test_bound_below_one_is_input_error(capsys):
    for argv in (
        ("separate", INSTANCES / "ex11.instance", "--element", "w1"),
        ("check", INSTANCES / "ex11.instance"),
    ):
        for bound in ("0", "-3"):
            code, out, err = invoke(capsys, *argv, "--bound", bound)
            assert code == 1
            assert out == ""
            assert err.splitlines() == [f"error: --bound must be at least 1, got {bound}"]


def test_non_integer_options_are_input_errors(capsys):
    code, out, err = invoke(
        capsys, "quotient", INSTANCES / "finite5-s3.instance", "--subgroup", "a,b"
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: --subgroup takes integers, got 'a'"]
    code, out, err = invoke(
        capsys, "lef", INSTANCES / "ex12.instance", "--gamma-set", "x", "--vertex-set", "c:0"
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: --gamma-set takes integers, got 'x'"]


def test_unreadable_paths_are_input_errors(capsys, tmp_path):
    binary = tmp_path / "binary.instance"
    binary.write_bytes(b"[delta]\nkind = \xff\xfe\n")
    for argv in (
        ("check", tmp_path),  # a directory
        ("normalize", INSTANCES / "ex11.instance", "--element", "w1", "--output", tmp_path),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and str(tmp_path) in err
    code, out, err = invoke(capsys, "check", binary)
    assert (code, out) == (1, "")
    assert err == f"error: {binary} is not UTF-8 text (invalid start byte at byte 15)\n"


def test_t_max_is_an_unknown_option(capsys):
    # check takes no offset window: no verdict depends on one
    for value in ("-5", "0"):
        code, out, err = invoke(capsys, "check", INSTANCES / "ex11.instance", "--t-max", value)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: unrecognized arguments: --t-max {value}"]


def test_memory_error_is_one_line(capsys, monkeypatch):
    # an input too large for memory is reported, not a traceback
    from gwreath import cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "quotient_graph", exhausted)
    code, out, err = invoke(capsys, "quotient", INSTANCES / "ex11.instance", "--modulus", "100000000")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("normalize", INSTANCES / "ex11.instance"),
         "error: the following arguments are required: --element"),
        (("check", INSTANCES / "ex11.instance", "--bound", "x"),
         "error: argument --bound: invalid int value: 'x'"),
        (("frobnicate", INSTANCES / "ex11.instance"), "error: argument command: invalid choice: "),
        (("check", INSTANCES / "ex11.instance", "--frobnicate"),
         "error: unrecognized arguments: --frobnicate"),
        ((), "error: the following arguments are required: command"),
    ],
)
def test_bad_argv_is_an_input_error(capsys, argv, message):
    # argparse alone would print a usage block and exit 2, the code for Unknown
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_bad_argv_exits_one_from_the_command_line():
    child = subprocess.run(
        [sys.executable, "-m", "gwreath.cli", "check", str(INSTANCES / "ex11.instance"),
         "--bound", "x"],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(gwreath.__file__).parent.parent)},
        capture_output=True, text=True,
    )
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == "error: argument --bound: invalid int value: 'x'\n"


@pytest.mark.parametrize("argv", [("-h",), ("check", "-h")])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run(list(argv))
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gwreath")


def _child(probe):
    """stdout of a fresh interpreter running ``probe`` with gwreath importable."""
    src = str(pathlib.Path(gwreath.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return child.stdout.strip()


def test_import_loads_no_code_generating_modules():
    # every gwreath process imports the cli; beyond what a bare
    # interpreter has loaded, it must not pull in dataclasses or inspect
    probe = (
        "import sys; bare = set(sys.modules); import gwreath.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
    )
    assert _child(probe) == "[]"


def test_import_gwreath_loads_no_submodule():
    probe = "import sys, gwreath; print(sorted(m for m in sys.modules if m.startswith('gwreath.')))"
    assert _child(probe) == "[]"


# (argv, the modules its process must not load); each command imports
# only the modules it runs
IMPORT_PLAN = [
    (["normalize", "ex11.instance", "--element", "w1"], {"checker", "lef"}),
    (["mul", "ex11.instance", "--left", "w1", "--right", "w2"], {"checker", "lef"}),
    (["invert", "ex11.instance", "--element", "w2"], {"checker", "lef"}),
    (["separate", "ex11.instance", "--element", "w1"], {"checker", "lef"}),
    (["witness", "ex12.instance", "--kind", "T3.1", "--vertices", "c:0"], {"checker", "lef"}),
    (["quotient", "ex11.instance", "--modulus", "3"], {"checker", "lef"}),
    (["quotient", "finite5-s3.instance", "--subgroup", "1"], {"checker", "lef"}),
    (["check", "ex11.instance"], {"lef"}),
    (["check-fp", "ex12.instance"], {"lef"}),
    (
        ["lef", "ex12.instance", "--gamma-set", "0,1", "--vertex-set", "c:0 c:1 c:2"],
        {"checker"},
    ),
]


@pytest.mark.parametrize(
    "argv, unused", IMPORT_PLAN, ids=[f"{a[0]}-{a[1].split('.')[0]}" for a, _ in IMPORT_PLAN]
)
def test_command_imports_only_what_it_runs(argv, unused):
    argv = [argv[0], str(INSTANCES / argv[1]), *argv[2:]]
    probe = (
        "import contextlib, io, json, sys\n"
        "from gwreath.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({argv!r})\n"
        "print(code, json.dumps([m for m in sys.modules if m.startswith('gwreath.')]))\n"
    )
    code, loaded = _child(probe).split(" ", 1)
    assert code == "0"
    loaded = {name.split(".", 1)[1] for name in json.loads(loaded)}
    assert {"cli", "formats", "wreath"} <= loaded
    assert not loaded & unused


def test_exports_are_the_defining_modules_objects():
    for name in gwreath.__all__:
        value = getattr(gwreath, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__.startswith("gwreath.")
        assert getattr(module, name) is value
        assert name not in vars(gwreath)  # looked up, never stored
    assert set(gwreath.__all__) <= set(dir(gwreath))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gwreath.no_such_name
