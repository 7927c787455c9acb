"""Homomorphisms between coefficient groups, as checkable values.

The engine maps words with their coefficients unchanged, so no command
imports this module; it serves library callers that want to move group
elements between specs.  ``CyclicPower`` is the finite target of the
coordinatewise reduction of a free-abelian vector.
"""

from __future__ import annotations

import itertools

from .errors import GroupError
from .groups import Element, FreeAbelian, GroupSpec, Record, _set


class CyclicPower(GroupSpec):
    """(Z/n)^rank with residue-vector elements."""

    _fields = ("n", "rank")

    def __init__(self, n: int, rank: int):
        if n < 1:
            raise GroupError(f"modulus must be >= 1, got {n}")
        if rank < 0:
            raise GroupError(f"rank must be >= 0, got {rank}")
        _set(self, "n", n)
        _set(self, "rank", rank)

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def _compose(self, a, b):
        return tuple((x + y) % self.n for x, y in zip(a, b))

    def _invert(self, a):
        return tuple((-x) % self.n for x in a)

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.rank
            and all(isinstance(x, int) and 0 <= x < self.n for x in a)
        )

    def is_abelian(self) -> bool:
        return True

    def order(self) -> int:
        return self.n**self.rank

    def elements(self):
        return itertools.product(range(self.n), repeat=self.rank)


class Homomorphism(Record):
    """A group homomorphism given by one of three rules.

    ``identity`` maps a spec to itself; ``reduce-mod`` reduces a
    free-abelian vector coordinatewise into a cyclic power; ``table``
    is a full element map from a finite source, validated against the
    composition law on every pair at construction.
    """

    _fields = ("source", "target", "rule", "modulus", "mapping")

    def __init__(
        self,
        source: GroupSpec,
        target: GroupSpec,
        rule: str,
        modulus: int | None = None,
        mapping: tuple[tuple[Element, Element], ...] | None = None,
    ):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "rule", rule)
        _set(self, "modulus", modulus)
        _set(self, "mapping", mapping)
        if rule == "identity":
            if source != target:
                raise GroupError("identity rule requires equal source and target")
        elif rule == "reduce-mod":
            if not isinstance(source, FreeAbelian):
                raise GroupError("reduce-mod requires a free-abelian source")
            if modulus is None or modulus < 1:
                raise GroupError("reduce-mod requires a positive modulus")
            expected = CyclicPower(modulus, source.rank)
            if target != expected:
                raise GroupError(f"reduce-mod target must be {expected!r}")
        elif rule == "table":
            if not source.is_finite():
                raise GroupError("table rule requires a finite source")
            if mapping is None:
                raise GroupError("table rule requires an element map")
            lookup = dict(mapping)
            domain = list(source.elements())
            if set(lookup) != set(domain) or len(mapping) != len(domain):
                raise GroupError("table map must cover the source exactly once")
            for image in lookup.values():
                target.check(image)
            for a in domain:
                for b in domain:
                    if lookup[source.compose(a, b)] != target.compose(lookup[a], lookup[b]):
                        raise GroupError(
                            f"table map does not respect composition at ({a!r}, {b!r})"
                        )
        else:
            raise GroupError(f"unknown homomorphism rule {rule!r}")

    def apply(self, a: Element) -> Element:
        self.source.check(a)
        if self.rule == "identity":
            return a
        if self.rule == "reduce-mod":
            return tuple(x % self.modulus for x in a)
        return dict(self.mapping)[a]


def identity_hom(spec: GroupSpec) -> Homomorphism:
    return Homomorphism(source=spec, target=spec, rule="identity")
