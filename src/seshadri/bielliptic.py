"""Numerical intersection theory for the seven bielliptic surface types.

A bielliptic surface is a free quotient (E x F)/G of a product of elliptic
curves.  Only the numerical invariants enter any computation here: the
group order gamma = |G|, the multiplicities of the singular fibers, and
mu = lcm of those multiplicities.  The numerical equivalence classes form
a rank-2 lattice with basis (E/mu, (mu/gamma)*F), in which

    E = (mu, 0),   F = (0, gamma/mu),
    E^2 = F^2 = 0,  E.F = gamma,
    (a1,b1).(a2,b2) = a1*b2 + a2*b1,       so  C^2 = 2ab  (always even).

fiber_degrees pairs a class with E and F through this form.  Effectivity
is not decided here; the only positivity gate is is_ample_numeric.  The
seven rows of surface data are fixed; `seshadri bielliptic types` dumps
them for audit.

The self-intersection inequality for curves through a point of
multiplicity m (singular points m_i >= 2, smooth points omitted):

    reduced, r components:  C^2 >= 2r + sum m_i (m_i - 1)

holds on abelian surfaces and descends to bielliptic ones via an
unramified cover plus evenness of the intersection form.  Its irreducible
form, C^2 >= 2 + sum m_i (m_i - 1), is r = 1; star_check_reducible
evaluates the one inequality as an exact predicate.  Multiplicities below
2 are rejected rather than dropped, so callers state singular points
explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

__all__ = [
    "DivisorClass",
    "SurfaceKind",
    "SURFACE_KINDS",
    "class_of_E",
    "class_of_F",
    "fiber_degrees",
    "intersect",
    "is_ample_numeric",
    "seshadri_ratio",
    "star_check_reducible",
    "surface_kind",
]


class SurfaceKind(NamedTuple("SurfaceKind", [("type_index", int), ("group", str),
                                               ("group_order", int),  # gamma = |G|
                                               ("fiber_multiplicities", tuple[int, ...])])):
    """One of the seven numerical types of bielliptic surfaces; __new__ checks its data."""

    __slots__ = ()

    def __new__(cls, type_index: int, group: str, group_order: int,
                fiber_multiplicities: tuple[int, ...]) -> SurfaceKind:
        self = super().__new__(cls, type_index, group, group_order, fiber_multiplicities)
        if not 1 <= self.type_index <= 7:
            raise ValueError(f"type index must be 1..7, got {self.type_index}")
        if self.group_order % self.mu:
            raise AssertionError("corrupted surface data: gamma/mu not integral")
        if self.basis_f_factor not in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            raise AssertionError("corrupted surface data: mu/gamma not in {1, 1/2, 1/3}")
        return self

    @property
    def mu(self) -> int:
        """lcm of the singular-fiber multiplicities."""
        return lcm(*self.fiber_multiplicities)

    @property
    def basis_f_factor(self) -> Fraction:
        """mu/gamma: the F-coefficient of the second basis divisor."""
        return Fraction(self.mu, self.group_order)

    @property
    def basis_labels(self) -> tuple[str, str]:
        """The basis (E/mu, (mu/gamma) F) in the conventional notation."""
        first = f"E/{self.mu}"
        factor = self.basis_f_factor
        second = "F" if factor == 1 else f"F/{factor.denominator}"
        return first, second


SURFACE_KINDS: tuple[SurfaceKind, ...] = (
    SurfaceKind(1, "Z2", 2, (2, 2, 2, 2)),
    SurfaceKind(2, "Z2xZ2", 4, (2, 2, 2, 2)),
    SurfaceKind(3, "Z4", 4, (2, 4, 4)),
    SurfaceKind(4, "Z4xZ2", 8, (2, 4, 4)),
    SurfaceKind(5, "Z3", 3, (3, 3, 3)),
    SurfaceKind(6, "Z3xZ3", 9, (3, 3, 3)),
    SurfaceKind(7, "Z6", 6, (2, 3, 6)),
)


def surface_kind(type_index: int) -> SurfaceKind:
    if not 1 <= type_index <= 7:
        raise ValueError(f"bielliptic type index must be 1..7, got {type_index}")
    return SURFACE_KINDS[type_index - 1]


class DivisorClass(NamedTuple):
    """Integer coordinates (a, b) w.r.t. the basis (E/mu, (mu/gamma) F)."""

    a: int
    b: int

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def class_of_E(kind: SurfaceKind) -> DivisorClass:
    return DivisorClass(kind.mu, 0)


def class_of_F(kind: SurfaceKind) -> DivisorClass:
    return DivisorClass(0, kind.group_order // kind.mu)


def intersect(c1: DivisorClass, c2: DivisorClass) -> int:
    """Intersection number a1*b2 + a2*b1.

    Independent of the surface type once classes are given in basis
    coordinates.
    """
    return c1.a * c2.b + c2.a * c1.b


def fiber_degrees(kind: SurfaceKind, divisor: DivisorClass) -> tuple[int, int]:
    """(L.E, L.F): the class against the two fibers, through the intersection form."""
    return intersect(divisor, class_of_E(kind)), intersect(divisor, class_of_F(kind))


def is_ample_numeric(c: DivisorClass) -> bool:
    """Numerical ampleness gate: both coordinates >= 1.

    Then C^2 = 2ab > 0 and both fiber degrees are positive.  This is the
    standard Nakai-type consequence in these coordinates, used here as a
    validation convention for inputs that are supposed to be ample.
    """
    return c.a >= 1 and c.b >= 1


def star_check_reducible(c2: int, r: int, mults: list[int]) -> bool:
    """C^2 >= 2r + sum m_i (m_i - 1) for a reduced curve of r components; r = 1: irreducible."""
    if r < 1:
        raise ValueError(f"component count must be >= 1, got {r}")
    for m in mults:
        if m < 2:
            raise ValueError(
                f"singular multiplicities must be >= 2, got {m}; omit smooth points"
            )
    return c2 >= 2 * r + sum(m * (m - 1) for m in mults)


def seshadri_ratio(ample: DivisorClass, curve: DivisorClass, m: int) -> Fraction:
    """L.C / m as an exact rational, for ample L and multiplicity m >= 1."""
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    if not is_ample_numeric(ample):
        raise ValueError(f"divisor class {ample} is not numerically ample")
    return Fraction(intersect(ample, curve), m)
