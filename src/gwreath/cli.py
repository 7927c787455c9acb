"""Command-line front end.

Exit codes are a bit-exact contract: 0 for a verdict (``check``
decides every instance) or a successful construction, 2 when a
``separate`` search was exhausted or ``witness`` found no witness, 1
for input errors, an input too large for memory included.

Each command imports only the modules it runs: ``checker`` loads inside
``check``/``check-fp`` and ``lef`` inside ``lef``, so a process that
normalizes a word never compiles either.
"""

from __future__ import annotations

import argparse
import sys

from . import formats, wreath
from .errors import (
    GraphError,
    GroupError,
    IdentityElement,
    ParseError,
    SearchExhausted,
    WitnessError,
    WordError,
)
from .graphs import TranslationGraph, quotient_graph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_RESULT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an input error (exit 1), not argparse's usage block and exit 2
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gwreath",
        description=(
            "Exact computation with graph-indexed product groups extended "
            "by a vertex-permuting action: classification, separation "
            "certificates, witnesses, quotient graphs, and finite partial "
            "models of the action."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, bound, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance file")
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="output format (default: text)",
        )
        p.add_argument("--output", help="write output to this path instead of stdout")
        if bound:
            p.add_argument(
                "--bound", type=int, default=64,
                help="separate's largest modulus on a translation instance; a finite-mode "
                     "separate tries every subgroup of the image and reports their count "
                     "as the bound; check only records it (default: 64)",
            )
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _emit(lines, args) -> None:
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    return formats.load_instance(args.instance)


def _integer(token: str, option: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{option} takes integers, got {token!r}") from None


def _named_element(elements, name):
    if name not in elements:
        raise ParseError(f"no element named {name!r} in the instance file")
    return elements[name]


def _emit_element(instance, x, args) -> int:
    if args.format == "structured":
        _emit(formats.wreath_element_lines(instance, x), args)
    else:
        _emit([f"word: {formats.word_text(x.word)}", f"gamma: {formats.value_text(x.gamma)}"], args)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    instance, elements = _load(args)
    x = instance.normalize(_named_element(elements, args.element))
    return _emit_element(instance, x, args)


def _cmd_mul(args) -> int:
    instance, elements = _load(args)
    x = _named_element(elements, args.left)
    y = _named_element(elements, args.right)
    z = wreath.gw_compose(instance, x, y)
    return _emit_element(instance, z, args)


def _cmd_invert(args) -> int:
    instance, elements = _load(args)
    x = _named_element(elements, args.element)
    z = wreath.gw_invert(instance, x)
    return _emit_element(instance, z, args)


def _cmd_check(args) -> int:
    from . import checker

    instance, _ = _load(args)
    if args.wreath:
        verdict = checker.classify_wreath(instance)
    else:
        verdict = checker.classify(instance, bound=args.bound)
    if args.format == "structured":
        _emit(formats.verdict_lines(instance, verdict), args)
    else:
        _emit(formats.render_verdict(instance, verdict), args)
    return EXIT_OK


def _cmd_check_fp(args) -> int:
    from . import checker

    instance, _ = _load(args)
    report = checker.check_finitely_presented(instance)
    if args.format == "structured":
        _emit(formats.fp_lines(report), args)
    else:
        _emit(formats.render_fp(report), args)
    return EXIT_OK


def _cmd_separate(args) -> int:
    instance, elements = _load(args)
    x = _named_element(elements, args.element)
    try:
        cert = wreath.separate(instance, x, bound=args.bound)
    except SearchExhausted as exc:
        _emit([f"SEARCH EXHAUSTED at bound {exc.bound}"], args)
        return EXIT_NO_RESULT
    if args.format == "structured":
        _emit(formats.certificate_lines(instance, cert), args)
    else:
        _emit(formats.render_certificate(instance, cert), args)
    return EXIT_OK


def _cmd_witness(args) -> int:
    instance, _ = _load(args)
    vertices = [
        formats.parse_vertex(instance.graph, token) for token in args.vertices.split()
    ]
    elements = None
    if args.elements is not None:
        elements = [
            formats.parse_value(instance.delta, token)
            for token in args.elements.split()
        ]
    try:
        wit = wreath.witness(instance, args.kind, vertices, elements)
    except WitnessError as exc:
        _emit([f"NO WITNESS: {exc}"], args)
        return EXIT_NO_RESULT
    if args.format == "structured":
        _emit(formats.witness_lines(instance, wit), args)
    else:
        _emit(formats.render_witness(instance, wit), args)
    return EXIT_OK


def _cmd_quotient(args) -> int:
    instance, _ = _load(args)
    if isinstance(instance.graph, TranslationGraph):
        if args.subgroup is not None:
            raise ParseError("translation instances take --modulus, not --subgroup")
        if args.modulus is None:
            raise ParseError("translation instances need --modulus")
        q = quotient_graph(instance.graph, args.modulus)
    else:
        if args.modulus is not None:
            raise ParseError("finite-mode instances take --subgroup, not --modulus")
        if args.subgroup is None:
            raise ParseError("finite-mode instances need --subgroup")
        gens = [tuple(_integer(x, "--subgroup") for x in chunk.split(","))
                for chunk in map(str.strip, args.subgroup.split(";")) if chunk]
        q = quotient_graph(instance.graph, gens)
    if args.format == "structured":
        header = f"gwreath {formats.FORMAT_VERSION} quotient-graph"
        _emit([header] + formats.quotient_lines(q), args)
    else:
        lines = [f"QUOTIENT with {len(q.vertices)} vertices"]
        lines += ["  " + line for line in formats.quotient_lines(q)]
        _emit(lines, args)
    return EXIT_OK


def _cmd_lef(args) -> int:
    from . import lef

    instance, _ = _load(args)
    if not isinstance(instance.graph, TranslationGraph):
        raise ParseError("finite partial models are built for translation instances")
    gammas = [_integer(x, "--gamma-set") for x in args.gamma_set.replace(",", " ").split()]
    vertices = [
        formats.parse_vertex(instance.graph, token) for token in args.vertex_set.split()
    ]
    cert = lef.lef_certificate(instance.graph, gammas, vertices)
    if args.format == "structured":
        _emit(formats.lef_lines(instance.graph, cert), args)
    else:
        _emit(formats.render_lef(instance.graph, cert), args)
    return EXIT_OK


_ELEMENT = ("--element", {"required": True})

# command -> (handler, help, takes --bound, its own arguments), in help order
_SUBCOMMANDS = {
    "normalize": (_cmd_normalize, "canonical form of a named element", False, [_ELEMENT]),
    "mul": (_cmd_mul, "product of two named elements", False,
            [("--left", {"required": True}), ("--right", {"required": True})]),
    "invert": (_cmd_invert, "inverse of a named element", False, [_ELEMENT]),
    "check": (_cmd_check, "classify the instance", True, [
        ("--wreath", {"action": "store_true",
                      "help": "classify a complete graph and name its classical case"}),
    ]),
    "check-fp": (_cmd_check_fp, "finite presentation report", False, []),
    "separate": (_cmd_separate, "separation certificate for an element", True, [_ELEMENT]),
    "witness": (_cmd_witness, "non-separability witness", False, [
        ("--kind", {"required": True, "choices": wreath.WITNESS_KINDS}),
        ("--vertices", {"required": True,
                        "help": "one vertex (T3.1) or two (T3.2 / T3.3), space separated"}),
        ("--elements", {"default": None,
                        "help": "coefficient elements (default: chosen automatically)"}),
    ]),
    "quotient": (_cmd_quotient, "quotient graph by a subgroup", False, [
        ("--modulus", {"type": int, "default": None, "help": "translation subgroup mZ"}),
        ("--subgroup", {"default": None, "help": (
            "finite-mode generators, e.g. '1,0;0,2' (semicolon separated vectors)")}),
    ]),
    "lef": (_cmd_lef, "finite partial model of the action", False, [
        ("--gamma-set", {"required": True, "help": "acting elements, e.g. '0,1'"}),
        ("--vertex-set", {"required": True, "help": "vertices, e.g. 'c:0 c:1 c:2'"}),
    ]),
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "bound", 1) < 1:
            raise ParseError(f"--bound must be at least 1, got {args.bound}")
        return _SUBCOMMANDS[args.command][0](args)
    except (ParseError, GroupError, GraphError, WordError, IdentityElement, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"error: {args.instance} is not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
