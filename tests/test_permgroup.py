"""Permutation and permutation-group tests, including the fingerprint trio."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from geomrep import (
    PermGroup,
    Permutation,
    correlation_group,
    dihedral_geometry,
    make_field,
    pgl_group,
    pgl_order,
)
from reference import is_transitive_on


def c(degree: int, *cycles: tuple[int, ...]) -> Permutation:
    return Permutation.from_cycles(degree, list(cycles))


@st.composite
def permutations(draw, degree: int = 6) -> Permutation:
    images = draw(st.permutations(list(range(degree))))
    return Permutation(list(images))


@st.composite
def groups(draw, max_degree: int = 7) -> PermGroup:
    degree = draw(st.integers(0, max_degree))
    gens = draw(st.lists(permutations(degree), max_size=3))
    return PermGroup(degree, gens)


def disjoint_transpositions(count: int) -> PermGroup:
    """(C2)^count as count disjoint transpositions on 2 * count points."""
    degree = 2 * count
    return PermGroup(degree, [c(degree, (2 * i, 2 * i + 1)) for i in range(count)])


def reference_fingerprint(grp: PermGroup) -> tuple:
    """Order histogram and centre order from one Permutation per element."""
    elements = grp.enumerate_elements(bound=5040)
    histogram: dict[int, int] = {}
    for g in elements:
        histogram[g.order()] = histogram.get(g.order(), 0) + 1
    center = sum(all(g * s == s * g for s in grp.generators) for g in elements)
    return tuple(sorted(histogram.items())), center


class TestPermutation:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.is_identity and e.order() == 1
        assert [e(i) for i in range(4)] == [0, 1, 2, 3]

    def test_composition_is_left_to_right(self):
        a = c(3, (0, 1))
        b = c(3, (1, 2))
        assert (a * b)(0) == 2  # 0 ->a 1 ->b 2

    def test_from_cycles(self):
        g = c(5, (0, 1, 2), (3, 4))
        assert g.to_list() == [1, 2, 0, 4, 3]
        assert g.order() == 6

    def test_invalid_images(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    @pytest.mark.parametrize(
        "images", [[1.5, 0.2, 2.9], [1.0, 0.0], [True, False], ["1", "0"], [1, None]]
    )
    def test_non_integer_images_rejected(self, images):
        with pytest.raises(ValueError, match="images must be integers"):
            Permutation(images)

    def test_empty_images(self):
        e = Permutation([])
        assert e.degree == 0 and e.is_identity and e.to_list() == []

    def test_restricted(self):
        g = c(5, (0, 1), (2, 3, 4))
        h = g.restricted(range(2))
        assert h.degree == 2 and h.to_list() == [1, 0]
        with pytest.raises(ValueError):
            g.restricted(range(3))

    @given(permutations(), permutations(), permutations())
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, a, b, c_):
        assert (a * b) * c_ == a * (b * c_)

    @given(permutations())
    @settings(max_examples=200, deadline=None)
    def test_inverse(self, g):
        assert (g * g.inverse()).is_identity
        assert (g.inverse() * g).is_identity

    @given(permutations())
    @settings(max_examples=100, deadline=None)
    def test_order_matches_power(self, g):
        n = g.order()
        power = Permutation.identity(g.degree)
        for _ in range(n):
            power = power * g
        assert power.is_identity
        assert n >= 1

    @given(permutations())
    @settings(max_examples=100, deadline=None)
    def test_cycles_cover_moved_points(self, g):
        moved = sorted(x for cyc in g.cycles() for x in cyc)
        assert moved == sorted(x for x in range(g.degree) if g(x) != x)
        assert all(len(cyc) > 1 and cyc[0] == min(cyc) for cyc in g.cycles())


class TestPermGroup:
    def test_symmetric_group_order(self):
        for n in (3, 4, 5, 6):
            grp = PermGroup(n, [c(n, (0, 1)), c(n, tuple(range(n)))])
            assert grp.order() == math.factorial(n)

    def test_trivial_group(self):
        grp = PermGroup(4, [])
        assert grp.order() == 1
        assert grp.contains(Permutation.identity(4))
        assert not grp.contains(c(4, (0, 1)))

    def test_contains_matches_enumeration(self):
        grp = PermGroup(4, [c(4, (0, 1, 2, 3))])
        listed = grp.enumerate_elements()
        assert listed == sorted(listed, key=Permutation.to_list)
        elems = set(listed)
        assert len(elems) == grp.order() == 4
        for images in itertools.permutations(range(4)):
            g = Permutation(list(images))
            assert (g in elems) == grp.contains(g)

    def test_enumeration_matches_closure(self):
        # reference: the elements as the closure of the generators under
        # products, sorted by image list
        rng = random.Random(12)
        for _ in range(40):
            degree = rng.randint(1, 6)
            gens = [
                Permutation(rng.sample(range(degree), degree))
                for _ in range(rng.randint(0, 3))
            ]
            grp = PermGroup(degree, gens)
            closure = {Permutation.identity(degree)}
            frontier = list(closure)
            while frontier:
                g = frontier.pop()
                for s in gens:
                    h = g * s
                    if h not in closure:
                        closure.add(h)
                        frontier.append(h)
            assert grp.enumerate_elements(bound=720) == sorted(
                closure, key=Permutation.to_list
            )

    def test_enumeration_bound(self):
        grp = PermGroup(6, [c(6, (0, 1)), c(6, (0, 1, 2, 3, 4, 5))])
        with pytest.raises(ValueError, match="exceeds bound"):
            grp.enumerate_elements(bound=100)

    @given(groups())
    @settings(max_examples=80, deadline=None)
    def test_element_table_lookup(self, grp):
        table = grp._element_table(bound=5040)
        elements = grp.enumerate_elements(bound=5040)
        assert table.rows.tolist() == [g.to_list() for g in elements]
        assert table.index(table.rows).tolist() == list(range(len(elements)))
        where = {g: k for k, g in enumerate(elements)}
        for s in grp.generators:
            # s * x and x * s for every element x, each in one gather
            assert table.index(table.rows[:, s.images]).tolist() == [where[s * g] for g in elements]
            assert table.index(s.images[table.rows]).tolist() == [where[g * s] for g in elements]

    @given(groups(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_element_table_membership(self, grp, data):
        table = grp._element_table(bound=5040)
        perm = st.permutations(range(grp.degree))
        rows = data.draw(st.lists(perm, min_size=1, max_size=6)) + table.rows[:2].tolist()
        got = table.contains(np.array(rows, dtype=np.int64).reshape(len(rows), grp.degree))
        assert got.tolist() == [grp.contains(Permutation(r)) for r in rows]

    def test_element_table_long_base(self):
        # base length 14 on 28 points: 28 ** 14 > 2 ** 63, and the rows are
        # still numbered exactly; (C2)^14 is the bit vectors under xor
        grp = disjoint_transpositions(14)
        table = grp._element_table(bound=2 ** 14)
        bits = table.rows[:, 0::2] % 2
        codes = bits @ (1 << np.arange(13, -1, -1))
        assert codes.tolist() == list(range(2 ** 14))
        rng = np.random.default_rng(5)
        x, y = rng.integers(0, 2 ** 14, size=(2, 500))
        products = table.rows[x][np.arange(500)[:, None], table.rows[y]]
        assert table.index(products).tolist() == (x ^ y).tolist()

    def test_element_table_degree_zero(self):
        table = PermGroup(0, [])._element_table(bound=1)
        assert table.rows.shape == (1, 0)
        assert table.index(table.rows).tolist() == [0]

    def test_orbits(self):
        grp = PermGroup(6, [c(6, (0, 1, 2)), c(6, (4, 5))])
        assert grp.orbits() == [[0, 1, 2], [3], [4, 5]]
        assert grp.orbit(1) == [0, 1, 2]

    def test_pgl34_order(self):
        field = make_field(2, 2)
        grp = pgl_group(field, 3)
        assert grp.order() == pgl_order(4, 3) == 60480

    def test_base_prefix(self):
        grp = PermGroup(5, [c(5, (0, 1)), c(5, (0, 1, 2, 3, 4))], base_prefix=(0, 1))
        assert grp.order() == 120
        stab = grp.stabilizer_generators(2)
        assert all(g(0) == 0 and g(1) == 1 for g in stab)
        fixed = PermGroup(5, stab)
        assert fixed.order() == 6  # S_3 on the remaining points


class TestFingerprints:
    def test_s5(self):
        grp = PermGroup(5, [c(5, (0, 1)), c(5, (0, 1, 2, 3, 4))])
        fp = grp.fingerprint()
        assert fp.order == 120
        assert fp.center_order == 1

    def test_a5_x_c2(self):
        grp = PermGroup(
            7, [c(7, (0, 1, 2)), c(7, (0, 1, 2, 3, 4)), c(7, (5, 6))]
        )
        fp = grp.fingerprint()
        assert fp.order == 120
        assert fp.center_order == 2
        histogram = dict(fp.order_histogram)
        assert histogram[2] == 31  # 15 in A_5, the central flip, 15 products

    def test_sl25(self):
        # SL(2,5) on the 24 nonzero vectors of GF(5)^2
        vectors = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
        index = {v: i for i, v in enumerate(vectors)}

        def action(matrix):
            return Permutation(
                [
                    index[
                        (
                            (matrix[0][0] * a + matrix[0][1] * b) % 5,
                            (matrix[1][0] * a + matrix[1][1] * b) % 5,
                        )
                    ]
                    for (a, b) in vectors
                ]
            )

        grp = PermGroup(24, [action(((1, 1), (0, 1))), action(((0, 4), (1, 0)))])
        fp = grp.fingerprint()
        assert fp.order == 120
        assert fp.center_order == 2
        assert dict(fp.order_histogram)[2] == 1  # unique involution: -I

    def test_trio_signatures_distinct(self):
        s5 = PermGroup(5, [c(5, (0, 1)), c(5, (0, 1, 2, 3, 4))]).fingerprint()
        a5c2 = PermGroup(
            7, [c(7, (0, 1, 2)), c(7, (0, 1, 2, 3, 4)), c(7, (5, 6))]
        ).fingerprint()
        assert s5.order == a5c2.order == 120
        assert (s5.center_order, s5.order_histogram) != (
            a5c2.center_order,
            a5c2.order_histogram,
        )

    @pytest.mark.parametrize(
        "name, degree, gens",
        [
            ("S4", 4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
            ("A5", 5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
            ("S6", 6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]),
        ],
    )
    def test_matches_sympy(self, name, degree, gens):
        fp = PermGroup(degree, [Permutation(g) for g in gens]).fingerprint()
        ref = PermutationGroup([SympyPermutation(list(g)) for g in gens])
        histogram: dict[int, int] = {}
        for g in ref.elements:
            histogram[g.order()] = histogram.get(g.order(), 0) + 1
        assert fp.order == ref.order()
        assert fp.order_histogram == tuple(sorted(histogram.items()))
        assert fp.center_order == ref.center().order()

    @given(groups())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_element_orders_and_products(self, grp):
        fp = grp.fingerprint(bound=5040)
        assert fp.order == grp.order()
        assert (fp.order_histogram, fp.center_order) == reference_fingerprint(grp)

    def test_long_base(self):
        # a base of 14 points: every other element is an involution, all central
        fp = disjoint_transpositions(14).fingerprint(bound=2 ** 14)
        assert fp.order_histogram == ((1, 1), (2, 2 ** 14 - 1))
        assert fp.center_order == 2 ** 14

    def test_fingerprint_json(self):
        fp = PermGroup(3, [c(3, (0, 1, 2))]).fingerprint()
        data = fp.to_json_dict()
        assert data["order"] == "3"
        assert data["center_order"] == "3"


class TestActions:
    def test_is_transitive_on_ordered_pairs(self):
        grp = PermGroup(3, [c(3, (0, 1)), c(3, (0, 1, 2))])
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        assert is_transitive_on(grp, pairs)

    def test_is_transitive_on_trivial_group(self):
        grp = PermGroup(2, [])
        assert not is_transitive_on(grp, [(0,), (1,)])

    def test_chamber_orbits_of_pentagon_system(self):
        # the type-preserving group (order 10) splits the 20 chambers into
        # two orbits; the class-swapping correlation fuses them
        sys = dihedral_geometry(5)
        res = correlation_group(sys)
        grp = PermGroup(sys.size, list(res.type_preserving_gens))
        chambers = [
            tuple(sorted(ch, key=lambda x: int(sys.type_codes[x])))
            for ch in sys.chambers()
        ]
        assert len(chambers) == 20
        assert grp.order() == 10
        assert not is_transitive_on(grp, chambers)
        elements = grp.enumerate_elements()
        orbits = set()
        for ch in chambers:
            orbits.add(min(tuple(g(x) for x in ch) for g in elements))
        assert len(orbits) == 2
        full = PermGroup(sys.size, list(res.correlation_gens))
        sets = set()
        for g in full.enumerate_elements():
            sets.add(frozenset(g(x) for x in chambers[0]))
        assert len(sets) == 20  # full group is regular on chamber sets

    def test_is_transitive_on_rejects_non_invariant(self):
        grp = PermGroup(4, [c(4, (0, 1, 2, 3))])
        with pytest.raises(ValueError, match="not invariant"):
            is_transitive_on(grp, [(0, 1)])

    def test_induced_action_on_dihedral_fibers(self):
        sys = dihedral_geometry(5)
        res = correlation_group(sys)
        grp = PermGroup(sys.size, list(res.correlation_gens))
        action = grp.induced_action(sys.fibers())
        assert action.image.order() == 2
        assert action.kernel.order() == 10
        assert grp.order() == action.image.order() * action.kernel.order()
        # the nontrivial type action swaps the two edge classes
        swap = next(g for g in action.image.generators if not g.is_identity)
        assert swap.to_list() == [0, 2, 1]

    def test_induced_action_rejects_split_blocks(self):
        grp = PermGroup(4, [c(4, (0, 1, 2, 3))])
        with pytest.raises(ValueError, match="splits block"):
            grp.induced_action([[0, 1], [2, 3]])

    def test_induced_action_order_product(self):
        grp = PermGroup(6, [c(6, (0, 1, 2)), c(6, (3, 4, 5)), c(6, (0, 3), (1, 4), (2, 5))])
        action = grp.induced_action([[0, 1, 2], [3, 4, 5]])
        assert grp.order() == action.image.order() * action.kernel.order()


class TestAgainstSympy:
    def test_order_and_contains_match_sympy(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(9)
        mismatches = []
        for trial in range(300):
            degree = rng.randint(1, 9)
            gens = [rng.sample(range(degree), degree) for _ in range(rng.randint(0, 3))]
            grp = PermGroup(degree, [Permutation(g) for g in gens])
            oracle = combinatorics.PermutationGroup(
                [combinatorics.Permutation(g) for g in gens or [list(range(degree))]]
            )
            if grp.order() != oracle.order():
                mismatches.append((trial, "order"))
            # random permutations, and products of generators that always belong
            probes = [rng.sample(range(degree), degree) for _ in range(3)]
            if gens:
                product = Permutation.identity(degree)
                for _ in range(4):
                    product = product * Permutation(rng.choice(gens))
                probes.append(product.to_list())
            for p in probes:
                if grp.contains(Permutation(p)) != oracle.contains(combinatorics.Permutation(p)):
                    mismatches.append((trial, p))
        assert mismatches == []
