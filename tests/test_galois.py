"""Finite-field arithmetic, projective spaces, cross ratios, and classical maps."""

import itertools
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomrep import (
    FieldElement,
    Permutation,
    ProjectiveSubspace,
    cross_ratio,
    duality_map,
    frobenius_point_map,
    make_field,
    pgl_group,
    pgl_order,
    projective_space,
)
from reference import is_transitive_on


@pytest.fixture(scope="module")
def gf4():
    return make_field(2, 2)


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2)


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)])
    def test_axioms_exhaustive(self, p, k):
        field = make_field(p, k)
        elems = field.elements()
        assert len(elems) == p**k
        zero, one = field.zero, field.one
        for a, b in itertools.product(elems, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
        for a in elems:
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            if a:
                assert a * (one / a) == one

    @given(
        st.integers(0, 26), st.integers(0, 26), st.integers(0, 26)
    )
    @settings(max_examples=200, deadline=None)
    def test_axioms_gf27(self, ca, cb, cc):
        field = make_field(3, 3)
        a, b, c = field.element(ca), field.element(cb), field.element(cc)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - b == a + (-b)

    def test_chosen_moduli(self, gf4, gf9):
        # lowest irreducible monic in ascending-coefficient order
        assert gf4.modulus == (1, 1, 1)
        assert make_field(2, 3).modulus == (1, 1, 0, 1)
        assert gf9.modulus == (1, 0, 1)

    def test_element_repr(self, gf4):
        assert [repr(gf4.element(c)) for c in range(4)] == ["0", "1", "w", "w+1"]
        f8 = make_field(2, 3)
        assert repr(f8.element(7)) == "w^2+w+1"

    def test_generator_squares_to_w_plus_one(self, gf4):
        w = gf4.element(2)
        assert w * w == gf4.element(3)
        assert repr(w * w) == "w+1"

    def test_scalar_coercion(self, gf9):
        a = gf9.element(5)
        assert a + 0 == a
        assert a * 1 == a
        assert 1 - a == gf9.one - a
        assert gf9.scalar(4) == gf9.one + gf9.scalar(3)

    def test_mixed_fields_rejected(self, gf4, gf9):
        with pytest.raises(ValueError, match="different fields"):
            gf4.one + gf9.one

    def test_division_by_zero(self, gf4):
        with pytest.raises(ZeroDivisionError):
            gf4.one / gf4.zero
        with pytest.raises(ZeroDivisionError):
            gf4.inv(0)

    def test_pow(self, gf9):
        a = gf9.element(4)
        assert a**0 == gf9.one
        assert a**3 == a * a * a

    def test_code_out_of_range(self, gf4):
        with pytest.raises(ValueError, match="out of range"):
            gf4.element(4)

    def test_make_field_guards(self):
        with pytest.raises(ValueError, match="not prime"):
            make_field(6, 1)
        with pytest.raises(ValueError, match="degree"):
            make_field(2, 0)


class TestGaloisStructure:
    def test_frobenius_is_field_automorphism(self, gf9):
        for a, b in itertools.product(gf9.elements(), repeat=2):
            fa, fb = gf9.frob(a.code), gf9.frob(b.code)
            assert gf9.frob(gf9.add(a.code, b.code)) == gf9.add(fa, fb)
            assert gf9.frob(gf9.mul(a.code, b.code)) == gf9.mul(fa, fb)

    def test_frobenius_order_divides_k(self):
        field = make_field(2, 3)
        for a in range(8):
            x = a
            for _ in range(3):
                x = field.frob(x)
            assert x == a

    def test_frobenius_fixed_field(self, gf4):
        fixed = [a for a in range(4) if gf4.frob(a) == a]
        assert fixed == [e.code for e in gf4.subfield_elements(1)]
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
            for a in field.elements():
                if a:
                    assert (field.q - 1) % field.multiplicative_order(a) == 0

    def test_zero_has_no_order(self, gf4):
        with pytest.raises(ValueError, match="zero"):
            gf4.multiplicative_order(gf4.zero)


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
        line = ProjectiveSubspace.from_rows(
            gf4, [space.points[0].codes, space.points[1].codes]
        )
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
        by_codes = {p.codes: p for p in space.points}
        for t in (2, 3, 4):
            value = cross_ratio(
                by_codes[(1, 0)], by_codes[(0, 1)], by_codes[(1, 1)], by_codes[(1, t)]
            )
            assert value.code == pow(t, -1, 5)

    def test_invariant_under_projectivities(self, gf4):
        space = projective_space(gf4, 1)
        group = pgl_group(gf4, 2)
        elements = group.enumerate_elements()[::7]
        quads = list(itertools.permutations(range(5), 4))[:40]
        for g in elements:
            for quad in quads:
                before = cross_ratio(*(space.points[i] for i in quad))
                after = cross_ratio(*(space.points[g(i)] for i in quad))
                assert before == after

    def test_frobenius_equivariance(self, gf4):
        space = projective_space(gf4, 1)
        frob = frobenius_point_map(space)
        for quad in itertools.permutations(range(5), 4):
            before = cross_ratio(*(space.points[i] for i in quad))
            after = cross_ratio(*(space.points[frob.perm(i)] for i in quad))
            assert after.code == gf4.frob(before.code)

    def test_rejects_repeats(self, gf4):
        space = projective_space(gf4, 1)
        p = space.points
        with pytest.raises(ValueError, match="not distinct"):
            cross_ratio(p[0], p[1], p[2], p[0])

    def test_rejects_non_collinear(self, gf4):
        space = projective_space(gf4, 2)
        line = space.points_in(space.layers[1][0])
        off = next(i for i in range(len(space.points)) if i not in line)
        pts = [space.points[i] for i in (*line[:3], off)]
        with pytest.raises(ValueError, match="not collinear"):
            cross_ratio(*pts)

    def test_value_never_degenerate(self, gf4):
        # 0 and 1 only arise from repeated points, which are rejected
        space = projective_space(gf4, 1)
        for quad in itertools.permutations(range(5), 4):
            value = cross_ratio(*(space.points[i] for i in quad))
            assert value.code not in (0, 1)


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
