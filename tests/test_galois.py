"""Finite-field arithmetic on codes, projective spaces, cross ratios, and classical maps."""

import itertools
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomrep import (
    Permutation,
    ProjectiveSubspace,
    duality_map,
    frobenius_point_map,
    make_field,
    pgl_group,
    pgl_order,
    projective_space,
)
from reference import cross_ratio, is_transitive_on


@pytest.fixture(scope="module")
def gf4():
    return make_field(2, 2)


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2)


# every code's label, frozen from the element names of earlier versions
LABELS = {
    2: "0 1",
    3: "0 1 2",
    4: "0 1 w w+1",
    5: "0 1 2 3 4",
    7: "0 1 2 3 4 5 6",
    8: "0 1 w w+1 w^2 w^2+1 w^2+w w^2+w+1",
    9: "0 1 2 w w+1 w+2 2w 2w+1 2w+2",
    27: "0 1 2 w w+1 w+2 2w 2w+1 2w+2 w^2 w^2+1 w^2+2 w^2+w w^2+w+1 w^2+w+2 w^2+2w "
    "w^2+2w+1 w^2+2w+2 2w^2 2w^2+1 2w^2+2 2w^2+w 2w^2+w+1 2w^2+w+2 2w^2+2w 2w^2+2w+1 "
    "2w^2+2w+2",
}


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)])
    def test_axioms_exhaustive(self, p, k):
        field = make_field(p, k)
        add, mul = field.add, field.mul
        elems = range(field.q)
        assert field.q == p**k
        for a, b in itertools.product(elems, repeat=2):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(elems, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a in elems:
            assert add(a, 0) == a
            assert mul(a, 1) == a
            assert add(a, field.neg(a)) == 0
            if a:
                assert mul(a, field.inv(a)) == 1
                assert field.div(a, a) == 1

    @given(
        st.integers(0, 26), st.integers(0, 26), st.integers(0, 26)
    )
    @settings(max_examples=200, deadline=None)
    def test_axioms_gf27(self, a, b, c):
        field = make_field(3, 3)
        add, mul = field.add, field.mul
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert field.sub(a, b) == add(a, field.neg(b))

    def test_chosen_moduli(self, gf4, gf9):
        # lowest irreducible monic in ascending-coefficient order
        assert gf4.modulus == (1, 1, 1)
        assert make_field(2, 3).modulus == (1, 1, 0, 1)
        assert gf9.modulus == (1, 0, 1)

    @pytest.mark.parametrize(
        "p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (3, 3)]
    )
    def test_labels(self, p, k):
        field = make_field(p, k)
        assert " ".join(field.label(c) for c in range(field.q)) == LABELS[field.q]

    def test_generator_squares_to_w_plus_one(self, gf4):
        w = 2
        assert gf4.mul(w, w) == 3
        assert gf4.label(gf4.mul(w, w)) == "w+1"

    def test_division_by_zero(self, gf4):
        with pytest.raises(ZeroDivisionError):
            gf4.div(1, 0)
        with pytest.raises(ZeroDivisionError):
            gf4.inv(0)

    def test_pow(self, gf9):
        a = 4
        assert gf9.pow(a, 0) == 1
        assert gf9.pow(a, 3) == gf9.mul(a, gf9.mul(a, a))
        assert gf9.pow(a, -1) == gf9.inv(a)

    def test_code_out_of_range(self, gf4):
        with pytest.raises(ValueError, match="out of range"):
            gf4.label(4)
        with pytest.raises(ValueError, match="out of range"):
            gf4.label(-1)

    def test_make_field_guards(self):
        with pytest.raises(ValueError, match="not prime"):
            make_field(6, 1)
        with pytest.raises(ValueError, match="degree"):
            make_field(2, 0)


class TestGaloisStructure:
    def test_frobenius_is_field_automorphism(self, gf9):
        for a, b in itertools.product(range(9), repeat=2):
            fa, fb = gf9.frob(a), gf9.frob(b)
            assert gf9.frob(gf9.add(a, b)) == gf9.add(fa, fb)
            assert gf9.frob(gf9.mul(a, b)) == gf9.mul(fa, fb)

    def test_frobenius_order_divides_k(self):
        field = make_field(2, 3)
        for a in range(8):
            x = a
            for _ in range(3):
                x = field.frob(x)
            assert x == a

    def test_frobenius_fixed_field(self, gf4):
        fixed = [a for a in range(4) if gf4.frob(a) == a]
        assert fixed == gf4.subfield_elements(1)
        assert len(fixed) == 2

    def test_subfield_degree_guard(self, gf4):
        with pytest.raises(ValueError, match="divide"):
            make_field(2, 4).subfield_elements(3)
        assert len(make_field(2, 4).subfield_elements(2)) == 4

    def test_primitive_element(self):
        for p, k in [(2, 2), (3, 2), (5, 1), (2, 4)]:
            field = make_field(p, k)
            g = field.primitive_element()
            assert field.multiplicative_order(g) == field.q - 1
            for a in range(1, field.q):
                assert (field.q - 1) % field.multiplicative_order(a) == 0

    def test_zero_has_no_order(self, gf4):
        with pytest.raises(ValueError, match="zero"):
            gf4.multiplicative_order(0)


class TestProjectiveSpaces:
    @pytest.mark.parametrize(
        "p,k,d,layer_sizes",
        [
            (2, 1, 2, (7, 7)),
            (2, 2, 2, (21, 21)),
            (2, 1, 3, (15, 35, 15)),
            (3, 1, 2, (13, 13)),
        ],
    )
    def test_layer_counts(self, p, k, d, layer_sizes):
        space = projective_space(make_field(p, k), d)
        assert tuple(len(layer) for layer in space.layers) == layer_sizes

    def test_points_per_line(self, gf4):
        space = projective_space(gf4, 2)
        for line in space.layers[1]:
            assert len(space.points_in(line)) == 5

    def test_span_and_index_round_trip(self, gf4):
        space = projective_space(gf4, 2)
        line = ProjectiveSubspace.from_rows(gf4, [space.points[0], space.points[1]])
        layer, pos = space.subspace_index(line)
        assert layer == 1
        assert space.layers[1][pos] == line

    def test_dimension_guard(self, gf4):
        with pytest.raises(ValueError, match=">= 1"):
            projective_space(gf4, 0)

    def test_point_guard(self):
        with pytest.raises(ValueError, match="too many points"):
            projective_space(make_field(2, 1), 17)


class TestCrossRatio:
    def test_standard_quadruple(self):
        # cr([1:0], [0:1], [1:1], [1:t]) = 1/t
        field = make_field(5, 1)
        space = projective_space(field, 1)
        assert space.points == ((0, 1), *((1, t) for t in range(5)))
        for t in (2, 3, 4):
            assert cross_ratio(field, (1, 0), (0, 1), (1, 1), (1, t)) == pow(t, -1, 5)

    def test_invariant_under_projectivities(self, gf4):
        space = projective_space(gf4, 1)
        group = pgl_group(gf4, 2)
        elements = group.enumerate_elements()[::7]
        quads = list(itertools.permutations(range(5), 4))[:40]
        for g in elements:
            for quad in quads:
                before = cross_ratio(gf4, *(space.points[i] for i in quad))
                after = cross_ratio(gf4, *(space.points[g(i)] for i in quad))
                assert before == after

    def test_frobenius_equivariance(self, gf4):
        space = projective_space(gf4, 1)
        frob = frobenius_point_map(space)
        for quad in itertools.permutations(range(5), 4):
            before = cross_ratio(gf4, *(space.points[i] for i in quad))
            after = cross_ratio(gf4, *(space.points[frob.perm(i)] for i in quad))
            assert after == gf4.frob(before)

    def test_rejects_repeats(self, gf4):
        space = projective_space(gf4, 1)
        p = space.points
        with pytest.raises(ValueError, match="not distinct"):
            cross_ratio(gf4, p[0], p[1], p[2], p[0])

    def test_rejects_non_collinear(self, gf4):
        space = projective_space(gf4, 2)
        line = space.points_in(space.layers[1][0])
        off = next(i for i in range(len(space.points)) if i not in line)
        pts = [space.points[i] for i in (*line[:3], off)]
        with pytest.raises(ValueError, match="not collinear"):
            cross_ratio(gf4, *pts)

    def test_value_never_degenerate(self, gf4):
        # 0 and 1 only arise from repeated points, which are rejected
        space = projective_space(gf4, 1)
        for quad in itertools.permutations(range(5), 4):
            assert cross_ratio(gf4, *(space.points[i] for i in quad)) not in (0, 1)


class TestClassicalGroups:
    @pytest.mark.parametrize(
        "q,n,order",
        [(2, 2, 6), (3, 2, 24), (4, 2, 60), (5, 2, 120), (2, 3, 168), (4, 3, 60480)],
    )
    def test_pgl_order_formula(self, q, n, order):
        assert pgl_order(q, n) == order

    @pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)])
    def test_pgl_group_matches_formula(self, p, k, n):
        field = make_field(p, k)
        group = pgl_group(field, n)
        assert group.order() == pgl_order(field.q, n)
        points = [(i,) for i in range(group.degree)]
        assert is_transitive_on(group, points)

    def test_pgl_guard(self, gf4):
        with pytest.raises(ValueError, match=">= 2"):
            pgl_group(gf4, 1)


class TestDuality:
    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
    def test_involution_and_incidence(self, p, k):
        field = make_field(p, k)
        space = projective_space(field, 2)
        dual = duality_map(space)
        npoints = len(space.points)
        assert sorted(dual.point_to_line) == list(range(npoints))
        for pi in range(npoints):
            assert dual.line_to_point[dual.point_to_line[pi]] == pi
        # p on l iff the dual point of l lies on the dual line of p
        for pi, point in enumerate(space.points):
            for li, line in enumerate(space.layers[1]):
                forward = line.contains_point(point)
                backward = space.layers[1][dual.point_to_line[pi]].contains_point(
                    space.points[dual.line_to_point[li]]
                )
                assert forward == backward

    def test_requires_plane(self, gf4):
        with pytest.raises(ValueError, match="plane"):
            duality_map(projective_space(gf4, 1))


class TestFrobeniusAction:
    def test_trivial_over_prime_field(self):
        space = projective_space(make_field(2, 1), 2)
        action = frobenius_point_map(space)
        assert action.trivial
        assert action.perm.is_identity

    def test_plane_action_order_two(self, gf4):
        space = projective_space(gf4, 2)
        action = frobenius_point_map(space)
        assert not action.trivial
        assert not action.perm.is_identity
        assert (action.perm * action.perm).is_identity

    def test_preserves_incidence(self, gf4):
        space = projective_space(gf4, 2)
        action = frobenius_point_map(space)
        npoints = len(space.points)
        for li, line in enumerate(space.layers[1]):
            image_line = space.layers[1][action.perm(npoints + li) - npoints]
            for pi in space.points_in(line):
                assert image_line.contains_point(space.points[action.perm(pi)])
