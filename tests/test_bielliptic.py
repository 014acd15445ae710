"""Intersection lattice of the seven bielliptic types and the C^2 predicates."""

import random
from fractions import Fraction

import pytest

from seshadri.bielliptic import (
    SURFACE_KINDS,
    DivisorClass,
    SurfaceKind,
    class_of_E,
    class_of_F,
    fiber_degrees,
    intersect,
    is_ample_numeric,
    seshadri_ratio,
    star_check_reducible,
    surface_kind,
)
from seshadri.bounds import candidate_values

SEED = 20200817

# (type, group, gamma, multiplicities, mu, basis)
EXPECTED_TYPES = [
    (1, "Z2", 2, (2, 2, 2, 2), 2, ("E/2", "F")),
    (2, "Z2xZ2", 4, (2, 2, 2, 2), 2, ("E/2", "F/2")),
    (3, "Z4", 4, (2, 4, 4), 4, ("E/4", "F")),
    (4, "Z4xZ2", 8, (2, 4, 4), 4, ("E/4", "F/2")),
    (5, "Z3", 3, (3, 3, 3), 3, ("E/3", "F")),
    (6, "Z3xZ3", 9, (3, 3, 3), 3, ("E/3", "F/3")),
    (7, "Z6", 6, (2, 3, 6), 6, ("E/6", "F")),
]


class TestSurfaceData:
    def test_seven_rows_field_for_field(self):
        assert len(SURFACE_KINDS) == 7
        for kind, (idx, group, gamma, mults, mu, basis) in zip(
            SURFACE_KINDS, EXPECTED_TYPES
        ):
            assert kind.type_index == idx
            assert kind.group == group
            assert kind.group_order == gamma
            assert kind.fiber_multiplicities == mults
            assert kind.mu == mu
            assert kind.basis_labels == basis

    def test_basis_factor_values(self):
        assert {k.basis_f_factor for k in SURFACE_KINDS} == {
            Fraction(1), Fraction(1, 2), Fraction(1, 3)
        }

    def test_bad_index_rejected(self):
        for bad in (0, 8, -1):
            with pytest.raises(ValueError):
                surface_kind(bad)

    def test_constructor_refuses_inconsistent_data(self):
        with pytest.raises(ValueError, match="type index must be 1..7"):
            SurfaceKind(8, "Z2", 2, (2, 2, 2, 2))
        with pytest.raises(AssertionError, match="gamma/mu not integral"):
            SurfaceKind(1, "Z2", 3, (2, 2, 2, 2))
        with pytest.raises(AssertionError, match="mu/gamma not in"):  # mu/gamma = 1/4
            SurfaceKind(1, "Z2", 8, (2, 2, 2, 2))


def _random_class(rng: random.Random) -> DivisorClass:
    return DivisorClass(rng.randint(-50, 50), rng.randint(-50, 50))


class TestIntersectionForm:
    def test_examples(self):
        assert intersect(DivisorClass(1, 0), DivisorClass(0, 1)) == 1
        assert intersect(DivisorClass(2, 3), DivisorClass(2, 3)) == 12
        assert intersect(DivisorClass(7, -4), DivisorClass(0, 0)) == 0

    def test_self_int(self):
        for (a, b), c2 in (((1, 1), 2), ((5, 0), 0), ((-1, 1), -2)):
            assert intersect(DivisorClass(a, b), DivisorClass(a, b)) == c2

    def test_bilinearity_symmetry_evenness(self):
        rng = random.Random(SEED)
        for _ in range(1000):
            c1, c2, c3 = (_random_class(rng) for _ in range(3))
            c12 = DivisorClass(c1.a + c2.a, c1.b + c2.b)
            assert intersect(c12, c3) == intersect(c1, c3) + intersect(c2, c3)
            assert intersect(c1, c2) == intersect(c2, c1)
            assert intersect(c1, c1) == 2 * c1.a * c1.b

    def test_e_dot_f_is_gamma(self):
        for kind in SURFACE_KINDS:
            e, f = class_of_E(kind), class_of_F(kind)
            assert intersect(e, e) == 0 and intersect(f, f) == 0
            assert intersect(e, f) == kind.group_order

    def test_zero_self_intersection_is_fiber_direction(self):
        # 2ab = 0 with (a, b) != (0, 0) forces a = 0 or b = 0
        rng = random.Random(SEED + 5)
        for _ in range(1000):
            c = _random_class(rng)
            if intersect(c, c) == 0 and (c.a, c.b) != (0, 0):
                assert c.a == 0 or c.b == 0

    def test_fiber_degrees(self):
        assert fiber_degrees(surface_kind(2), DivisorClass(3, 5)) == (10, 6)
        assert fiber_degrees(surface_kind(1), DivisorClass(1, 1)) == (2, 1)
        assert fiber_degrees(surface_kind(7), DivisorClass(0, 0)) == (0, 0)

    def test_fiber_degrees_agree_with_intersect(self):
        # fiber_degrees goes through intersect; this holds it to the basis
        # expansion (mu*b, (gamma/mu)*a)
        rng = random.Random(SEED + 6)
        for kind in SURFACE_KINDS:
            for _ in range(100):
                c = _random_class(rng)
                assert fiber_degrees(kind, c) == \
                    (kind.mu * c.b, kind.group_order // kind.mu * c.a)


class TestEffectivityAndAmpleness:
    def test_effective_vertical(self):
        # (0, b) = b*(mu/gamma) F is effective iff that coefficient is a natural number
        def effective(kind, b):
            return b >= 0 and (b * kind.mu) % kind.group_order == 0

        assert effective(surface_kind(1), 1)        # mu/gamma = 1
        assert not effective(surface_kind(2), 1)    # 1/2 not integral
        assert effective(surface_kind(6), 3)        # 3 * (1/3) = 1
        assert not effective(surface_kind(1), -2)

    def test_ample_gate(self):
        assert is_ample_numeric(DivisorClass(1, 1))
        assert not is_ample_numeric(DivisorClass(0, 5))
        assert not is_ample_numeric(DivisorClass(-2, 3))


class TestStarChecks:
    def test_irreducible(self):
        assert star_check_reducible(4, 1, [2])      # boundary 4 = 2 + 2
        assert not star_check_reducible(3, 1, [2])
        assert star_check_reducible(10, 1, [2, 3])  # 10 >= 2 + 2 + 6

    def test_reducible(self):
        assert star_check_reducible(4, 2, [])      # boundary 4 = 2*2
        assert star_check_reducible(8, 2, [2])
        assert not star_check_reducible(5, 2, [2])

    def test_smooth_multiplicities_rejected(self):
        with pytest.raises(ValueError):
            star_check_reducible(10, 1, [2, 1])
        with pytest.raises(ValueError):
            star_check_reducible(10, 0, [2])

    def test_additivity_identity(self):
        # if A^2 >= 2s + sum a_i(a_i-1), B^2 >= 2t + sum b_i(b_i-1) and
        # A.B >= sum a_i b_i, then the sum curve satisfies the bound with
        # multiplicities a_i + b_i and s + t components
        rng = random.Random(SEED)
        for _ in range(1000):
            points = rng.randint(0, 5)
            a = [rng.randint(0, 6) for _ in range(points)]
            b = [rng.randint(0, 6) for _ in range(points)]
            s, t = rng.randint(1, 4), rng.randint(1, 4)
            a2 = 2 * s + sum(x * (x - 1) for x in a) + rng.randint(0, 10)
            b2 = 2 * t + sum(x * (x - 1) for x in b) + rng.randint(0, 10)
            ab = sum(x * y for x, y in zip(a, b)) + rng.randint(0, 10)
            c2 = a2 + b2 + 2 * ab
            rhs = 2 * (s + t) + sum(
                (x + y) * (x + y - 1) for x, y in zip(a, b)
            )
            assert c2 >= rhs


class TestValuesAndRatios:
    def test_elliptic_values(self):
        # An elliptic curve C with L.C = v and C^2 = 0 gives the value v;
        # Hodge index bounds v by sqrt(L^2), so the values are 1..isqrt(n).
        for n, want in ((3, [1]), (10, [1, 2, 3]), (16, [1, 2, 3, 4])):
            fibers = [(p, q) for p, q, kind in candidate_values(n, 2) if kind == "integer_fiber"]
            assert fibers == [(v, 1) for v in want]

    def test_seshadri_ratio(self):
        assert seshadri_ratio(DivisorClass(1, 1), class_of_E(surface_kind(1)), 1) == 2
        assert seshadri_ratio(DivisorClass(2, 3), DivisorClass(1, 1), 2) == Fraction(5, 2)
        assert seshadri_ratio(DivisorClass(1, 1), DivisorClass(1, 1), 1) == 2

    def test_ratio_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            seshadri_ratio(DivisorClass(0, 1), DivisorClass(1, 1), 1)
        with pytest.raises(ValueError):
            seshadri_ratio(DivisorClass(1, 1), DivisorClass(1, 1), 0)
