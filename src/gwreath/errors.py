"""Shared exception types."""

from __future__ import annotations


class GroupError(ValueError):
    """Element/spec mismatch or an invalid group description."""


class GraphError(ValueError):
    """Invalid graph data or an ill-formed subgroup descriptor; ``culprit``
    names the offending input, as ("edge", e) or ("generator", g), if any."""

    def __init__(self, message: str, culprit: tuple | None = None):
        self.culprit = culprit
        super().__init__(message)


class WordError(ValueError):
    """Syllable data incompatible with the ambient graph or group."""


class LoopObstruction(RuntimeError):
    """Pushing a word onto a looped vertex with non-abelian coefficients.

    A quotient vertex carrying a loop forces the corresponding vertex
    copy to commute with itself, which only holds for abelian
    coefficient groups; for any other group the induced map is not a
    homomorphism.
    """

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"loop at image vertex {vertex!r} with non-abelian coefficients")


class IdentityElement(ValueError):
    """The identity element cannot be separated from itself."""


class SearchExhausted(RuntimeError):
    """No subgroup within the search bound satisfied every check.

    A translation search found no modulus up to the ``bound`` it was
    given; a finite-mode search ignores that bound, tries every subgroup
    of the acting image, and reports their count as ``bound``.
    """

    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"search exhausted at bound {bound}")


class WitnessError(ValueError):
    """Witness hypotheses are not certifiable from the built-in lemmas."""


class ParseError(ValueError):
    """Instance or certificate text that does not match the format."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
