"""Exact arithmetic in the supported coefficient and acting groups.

Group elements are plain immutable values: residues for cyclic groups,
image tuples for permutations, indices for table groups, ints for the
integers and integer tuples for free-abelian groups.  Each int, alone
or as a tuple entry, has type ``int`` exactly, as the parser reads it:
``True`` equals 1 but is no element, since it would print as ``True``.
Every operation is a pure function of (spec, value), so shared specs
are safe to reuse across threads and tests.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator

from .errors import GroupError

Element = int | tuple[int, ...]


class Record:
    """An immutable value with the fields its class names in ``_fields``.

    A plain record declares each field once, as ``name: type`` or
    ``name: type = default`` in its class body, and the generic
    ``__init__`` binds arguments to them as that signature would.  A
    class that validates or derives state names ``_fields`` itself and
    sets each field once in its own ``__init__`` through ``_set`` (the
    slotted word records, built per syllable, through their slots'
    descriptors).
    Records of the same class are equal when their field values are, a
    record of another class is never equal, a record hashes as the tuple
    of its values and prints as ``Name(field=value, ...)``.  Assigning or
    deleting an attribute raises AttributeError, so copy and pickle
    restore state through ``_set``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__annotations__:
            cls._fields = tuple(cls.__annotations__)
            cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        # The field values as a tuple, read by one attrgetter (which
        # returns a bare value for a single name, and takes no zero names).
        fields = cls._fields
        if len(fields) == 1:
            get = operator.attrgetter(fields[0])
            cls._values = staticmethod(lambda record: (get(record),))
        else:
            cls._values = staticmethod(operator.attrgetter(*fields) if fields else lambda record: ())

    def __init__(self, *args, **kwargs):
        fields, defaults, n, used = self._fields, self._defaults, len(args), 0
        if n > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} positional arguments "
                f"but {n} were given"
            )
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[n:]:
            if name in kwargs:
                value = kwargs[name]
                used += 1
            elif name in defaults:
                value = defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing required argument {name!r}")
            _set(self, name, value)
        if used != len(kwargs):
            name = next(name for name in kwargs if name not in fields[n:])
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {problem} argument {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return getattr(self, "__dict__", None) or dict(zip(self._fields, self._values(self)))

    def __setstate__(self, state):
        for name, value in state.items():
            _set(self, name, value)


# Sets an attribute of a record from its ``__init__`` or ``__setstate__``, past Record.__setattr__.
_set = object.__setattr__


class GroupSpec(Record):
    """Common interface of the concrete group classes.

    ``compose`` and ``invert`` check their arguments once here and then
    call the spec's unchecked ``_compose``/``_invert``, which callers
    that have already validated their values may use directly.
    """

    def identity(self) -> Element:
        raise NotImplementedError

    def compose(self, a: Element, b: Element) -> Element:
        self.check(a)
        self.check(b)
        return self._compose(a, b)

    def invert(self, a: Element) -> Element:
        self.check(a)
        return self._invert(a)

    def _compose(self, a: Element, b: Element) -> Element:
        """``compose`` for arguments already known to be elements."""
        raise NotImplementedError

    def _invert(self, a: Element) -> Element:
        """``invert`` for an argument already known to be an element."""
        raise NotImplementedError

    def contains(self, a: Element) -> bool:
        raise NotImplementedError

    def is_abelian(self) -> bool:
        raise NotImplementedError

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        raise NotImplementedError

    def elements(self) -> Iterator[Element]:
        """Deterministic enumeration; only available for finite specs."""
        raise NotImplementedError

    def is_identity(self, a: Element) -> bool:
        return a == self.identity()

    def check(self, a: Element) -> None:
        if not self.contains(a):
            raise GroupError(f"{a!r} is not an element of {self!r}")


class Cyclic(GroupSpec):
    """Integers modulo ``n`` under addition; elements are residues."""

    _fields = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise GroupError(f"cyclic order must be >= 1, got {n}")
        _set(self, "n", n)

    def identity(self) -> int:
        return 0

    def _compose(self, a, b):
        return (a + b) % self.n

    def _invert(self, a):
        return (-a) % self.n

    def contains(self, a) -> bool:
        return type(a) is int and 0 <= a < self.n

    def is_abelian(self) -> bool:
        return True

    def order(self) -> int:
        return self.n

    def elements(self):
        return iter(range(self.n))


class Symmetric(GroupSpec):
    """All permutations of {0, ..., degree-1} as image tuples.

    Composition applies the right factor first: (a * b)(x) = a(b(x)),
    matching ordinary function composition.  The worked values in the
    tests depend on this convention.
    """

    _fields = ("degree",)

    def __init__(self, degree: int):
        if degree < 1:
            raise GroupError(f"symmetric degree must be >= 1, got {degree}")
        _set(self, "degree", degree)
        # Not fields: what ``contains`` sorts an element to, and the types of its entries.
        _set(self, "_points", list(range(degree)))
        _set(self, "_types", [int] * degree)

    def identity(self) -> tuple[int, ...]:
        return tuple(range(self.degree))

    def _compose(self, a, b):
        return tuple(map(a.__getitem__, b))

    def _invert(self, a):
        out = [0] * self.degree
        for i, image in enumerate(a):
            out[image] = i
        return tuple(out)

    def contains(self, a) -> bool:
        # Entries of type int only: 1.0 (which cannot index a tuple) and
        # True sort and compare like 1, and the parser reads neither.
        return (
            isinstance(a, tuple) and list(map(type, a)) == self._types and sorted(a) == self._points
        )

    def is_abelian(self) -> bool:
        return self.degree <= 2

    def order(self) -> int:
        out = 1
        for k in range(2, self.degree + 1):
            out *= k
        return out

    def elements(self):
        return itertools.permutations(range(self.degree))


class FiniteTable(GroupSpec):
    """A finite group given by its full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.
    The table is validated eagerly at construction: closure, the
    declared identity, inverses, and associativity are all checked by
    exhaustive scan, and invalid tables are rejected outright.  Whether
    the group is abelian is decided by the same scan and kept.
    """

    _fields = ("size", "table", "identity_index")

    def __init__(self, size: int, table: tuple[tuple[int, ...], ...], identity_index: int = 0):
        _set(self, "size", size)
        _set(self, "table", table)
        _set(self, "identity_index", identity_index)
        n = size
        if n < 1:
            raise GroupError("table group must have at least one element")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise GroupError(f"multiplication table must be {n}x{n}")
        if not 0 <= self.identity_index < n:
            raise GroupError(f"identity index {self.identity_index} out of range")
        for row in self.table:
            for entry in row:
                if type(entry) is not int or not 0 <= entry < n:
                    raise GroupError(f"table entry {entry!r} out of range (not closed)")
        e = self.identity_index
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise GroupError(f"index {e} is not a two-sided identity")
        for i in range(n):
            if not any(
                self.table[i][j] == e and self.table[j][i] == e for j in range(n)
            ):
                raise GroupError(f"element {i} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise GroupError(
                            f"table is not associative at ({i}, {j}, {k})"
                        )
        # Not a field: equality and hashing still see only the table.
        _set(self, "_abelian", all(
            self.table[i][j] == self.table[j][i] for i in range(n) for j in range(i)
        ))

    def identity(self) -> int:
        return self.identity_index

    def _compose(self, a, b):
        return self.table[a][b]

    def _invert(self, a):
        e = self.identity_index
        for b in range(self.size):
            if self.table[a][b] == e:
                return b
        raise GroupError(f"no inverse for {a}")  # unreachable after validation

    def contains(self, a) -> bool:
        return type(a) is int and 0 <= a < self.size

    def is_abelian(self) -> bool:
        return self._abelian

    def order(self) -> int:
        return self.size

    def elements(self):
        return iter(range(self.size))


class Integers(GroupSpec):
    """The integers under addition; elements are plain ints."""

    def identity(self) -> int:
        return 0

    def _compose(self, a, b):
        return a + b

    def _invert(self, a):
        return -a

    def contains(self, a) -> bool:
        return type(a) is int

    def is_abelian(self) -> bool:
        return True

    def order(self) -> None:
        return None


class FreeAbelian(GroupSpec):
    """Integer vectors of a fixed rank under addition."""

    _fields = ("rank",)

    def __init__(self, rank: int):
        if rank < 0:
            raise GroupError(f"rank must be >= 0, got {rank}")
        _set(self, "rank", rank)

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def _compose(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _invert(self, a):
        return tuple(-x for x in a)

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.rank
            and all(type(x) is int for x in a)
        )

    def is_abelian(self) -> bool:
        return True

    def order(self) -> int | None:
        return 1 if self.rank == 0 else None

    def elements(self):
        if self.rank == 0:
            return iter([()])
        raise GroupError("free abelian group of positive rank is infinite")


def commutator(spec: GroupSpec, a: Element, b: Element) -> Element:
    """a * b * a^-1 * b^-1."""
    return spec.compose(spec.compose(a, b), spec.compose(spec.invert(a), spec.invert(b)))


def noncommuting_pair(spec: GroupSpec) -> tuple[Element, Element] | None:
    """First pair of elements that fail to commute, in enumeration order.

    Returns None for abelian specs (including infinite ones).
    """
    if spec.is_abelian():
        return None
    for a in spec.elements():  # lazily: S_12 returns on its third inner element
        if spec.is_identity(a):  # it commutes with everything
            continue
        for b in spec.elements():
            if spec.compose(a, b) != spec.compose(b, a):
                return a, b
    return None


def first_nontrivial(spec: GroupSpec) -> Element | None:
    """Deterministically chosen non-identity element, or None if trivial."""
    if isinstance(spec, FreeAbelian):
        if spec.rank == 0:
            return None
        return (1,) + (0,) * (spec.rank - 1)
    e = spec.identity()
    for a in spec.elements():
        if a != e:
            return a
    return None
