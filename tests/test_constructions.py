"""Builders: polygon, graph, quadrangle, polytope, cross-ratio, and coset systems."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomrep import (
    CosetGeometrySpec,
    IncidenceSystem,
    PermGroup,
    Permutation,
    RcReport,
    check_ft_condition,
    check_rc_condition,
    complete_graph_geometry,
    correlation_group,
    correlation_type_action,
    coset_geometry,
    cross_ratio,
    cube_geometry,
    dihedral_geometry,
    duality_truncation_perm,
    extend_truncation_correlation,
    find_isomorphism,
    frobenius_truncation_perm,
    gq22,
    hemidodecahedron_petrie,
    make_field,
    pgl_aut_via_extension,
    pgl_cross_ratio_geometry,
    pgl_group,
    pgl_order,
    point_perm_to_truncation,
    tetrahedron_spec,
    totient_pairs,
)
from geomrep import constructions
from geomrep.constructions import _coset_labels, _pair_array
from reference import brute_force_automorphisms, incidence_graph, is_transitive_on


class TestTotientPairs:
    @pytest.mark.parametrize(
        "n,expected", [(5, [1, 2]), (6, [1]), (8, [1, 3]), (12, [1, 5])]
    )
    def test_values(self, n, expected):
        assert totient_pairs(n) == expected

    @pytest.mark.parametrize("n", range(3, 20))
    def test_size_is_half_totient(self, n):
        phi = sum(1 for k in range(1, n) if math.gcd(k, n) == 1)
        assert len(totient_pairs(n)) == phi // 2


class TestPolygonSystems:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n must be >= 3"):
            dihedral_geometry(2)

    def test_odd_structure(self):
        sys = dihedral_geometry(5)
        assert sys.types == ("0", "1", "2")
        assert [len(f) for f in sys.fibers()] == [5, 5, 5]
        assert sys.pairs.shape[0] == 45  # 20 vertex-edge + 25 edge-edge

    def test_even_structure(self):
        sys = dihedral_geometry(6)
        assert sys.types == ("-1", "0", "1")
        assert [len(f) for f in sys.fibers()] == [3, 3, 6]
        assert sys.pairs.shape[0] == 21  # 9 vertex-vertex + 12 vertex-edge

    def test_even_rank_four(self):
        sys = dihedral_geometry(8)
        assert sys.types == ("-1", "0", "1", "3")
        assert [len(f) for f in sys.fibers()] == [4, 4, 8, 8]

    def test_odd_edges_join_vertices_at_class_distance(self):
        sys = dihedral_geometry(5)
        vertex_ids = set(sys.fiber("0"))
        for label, step in (("1", 1), ("2", 2)):
            for e in sys.fiber(label):
                ends = sorted(sys.neighbors(e) & vertex_ids)
                assert len(ends) == 2
                a, b = ends
                assert (b - a) % 5 in (step, 5 - step)

    def test_odd_edge_classes_fully_incident(self):
        sys = dihedral_geometry(5)
        for e1 in sys.fiber("1"):
            assert set(sys.fiber("2")) <= sys.neighbors(e1)

    def test_even_vertex_classes_fully_incident(self):
        sys = dihedral_geometry(6)
        for v in sys.fiber("-1"):
            assert set(sys.fiber("0")) <= sys.neighbors(v)


class TestCompleteGraphSystems:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n must be >= 2"):
            complete_graph_geometry(1)

    def test_structure(self):
        sys = complete_graph_geometry(4)
        assert sys.types == ("0", "1")
        assert [len(f) for f in sys.fibers()] == [4, 6]
        assert sys.pairs.shape[0] == 12
        for e in sys.fiber("1"):
            assert len(sys.neighbors(e)) == 2


class TestGeneralizedQuadrangle:
    def test_point_line_counts(self):
        sys = gq22()
        assert [len(f) for f in sys.fibers()] == [15, 15]
        points, lines = sys.fibers()
        for li in lines:
            assert len(sys.neighbors(li)) == 3
        for p in points:
            assert len(sys.neighbors(p)) == 3

    def test_two_points_on_at_most_one_line(self):
        sys = gq22()
        points, _ = sys.fibers()
        for a, b in itertools.combinations(points, 2):
            assert len(sys.neighbors(a) & sys.neighbors(b)) <= 1

    def test_quadrangle_axiom(self):
        # for a point P off a line L there is exactly one point of L collinear with P
        sys = gq22()
        points, lines = sys.fibers()
        for li in lines:
            on_line = sys.neighbors(li)
            for p in points:
                if p in on_line:
                    continue
                collinear = sum(
                    1
                    for x in on_line
                    if sys.neighbors(p) & sys.neighbors(x)
                )
                assert collinear == 1

    def test_incidence_graph_girth_eight(self):
        assert nx.girth(incidence_graph(gq22())) == 8


class TestCubeSystems:
    def test_fibers(self):
        sys = cube_geometry()
        assert sys.types == ("1", "2", "3", "4")
        assert [len(f) for f in sys.fibers()] == [4, 4, 12, 6]

    def test_adjacency_flag_controls_vertex_pairs(self):
        with_adj = cube_geometry(vertex_adjacency=True)
        without = cube_geometry(vertex_adjacency=False)
        assert with_adj.pairs.shape[0] == 84
        assert without.pairs.shape[0] == 72  # the 12 vertex-vertex pairs drop out

    def test_chambers(self):
        assert len(cube_geometry(vertex_adjacency=True).chambers()) == 24
        assert cube_geometry(vertex_adjacency=False).chambers() == []

    def test_edges_join_opposite_parities(self):
        sys = cube_geometry()
        odd = set(sys.fiber("1"))
        even = set(sys.fiber("2"))
        for e in sys.fiber("3"):
            ends = sys.neighbors(e) & (odd | even)
            assert len(ends & odd) == 1
            assert len(ends & even) == 1


class TestHemidodecahedron:
    def test_fibers(self):
        sys = hemidodecahedron_petrie()
        assert sys.types == ("0", "1", "2", "3")
        assert [len(f) for f in sys.fibers()] == [10, 15, 6, 6]

    def test_skeleton_is_petersen(self):
        sys = hemidodecahedron_petrie()
        vertices = sys.fiber("0")
        g = nx.Graph()
        g.add_nodes_from(vertices)
        for e in sys.fiber("1"):
            a, b = sorted(sys.neighbors(e) & set(vertices))
            g.add_edge(a, b)
        assert nx.is_isomorphic(g, nx.petersen_graph())

    def test_faces_are_pentagons(self):
        sys = hemidodecahedron_petrie()
        vertices = set(sys.fiber("0"))
        edges = set(sys.fiber("1"))
        for label in ("2", "3"):
            for face in sys.fiber(label):
                assert len(sys.neighbors(face) & vertices) == 5
                assert len(sys.neighbors(face) & edges) == 5

    def test_rule_grows_face_incidences(self):
        by_rule = {
            rule: hemidodecahedron_petrie(rule).pairs.shape[0]
            for rule in ("shared-edge", "shared-vertex", "always")
        }
        assert by_rule["shared-edge"] == 180
        assert by_rule["shared-vertex"] == 180
        assert by_rule["always"] == 186

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="rule must be one of"):
            hemidodecahedron_petrie("never")

    @pytest.mark.parametrize("rule", ["shared-edge", "shared-vertex", "always"])
    def test_rotation_reflection_orders(self, rule):
        sys = hemidodecahedron_petrie(rule)
        res = correlation_group(sys)
        assert (res.aut_order, res.aut_i_order) == (120, 60)
        group = PermGroup(sys.size, list(res.correlation_gens))
        assert group.fingerprint().center_order == 1


class TestCrossRatioGeometry:
    def test_rejects_small_rank(self):
        with pytest.raises(ValueError, match="n must be >= 3"):
            pgl_cross_ratio_geometry(2, make_field(2, 2))

    def test_rejects_bad_base_degree(self):
        with pytest.raises(ValueError, match="divide"):
            pgl_cross_ratio_geometry(3, make_field(2, 2), base_degree=3)

    def test_element_guard(self):
        with pytest.raises(ValueError, match="too many elements"):
            pgl_cross_ratio_geometry(3, make_field(3, 2))

    def test_prime_field_is_degenerate(self):
        geom = pgl_cross_ratio_geometry(3, make_field(2, 1))
        assert geom.degenerate
        assert geom.quads == ()
        assert geom.subspace_labels == ("0", "1")
        assert [len(f) for f in geom.system.fibers()] == [7, 7]

    def test_fano_pipeline_matches_brute_force(self):
        geom = pgl_cross_ratio_geometry(3, make_field(2, 1))
        report = pgl_aut_via_extension(geom)
        assert report.duality_extends is None
        assert (report.result.aut_order, report.result.aut_i_order) == (336, 168)
        assert report.result.aut_i_order == pgl_order(2, 3)
        assert len(brute_force_automorphisms(geom.system)) == 336

    def test_projective_three_space_orders(self):
        geom = pgl_cross_ratio_geometry(4, make_field(2, 1))
        assert geom.degenerate
        assert [len(f) for f in geom.system.fibers()] == [15, 35, 15]
        report = pgl_aut_via_extension(geom)
        assert report.result.aut_i_order == pgl_order(2, 4)
        assert report.result.out_order == 2

    def test_gf4_structure(self, pgl34):
        assert not pgl34.degenerate
        assert pgl34.system.size == 2562
        assert [len(f) for f in pgl34.system.fibers()] == [21, 21, 1260, 1260]
        assert pgl34.system.types == ("0", "1", "Q(w)", "Q(w+1)")
        assert pgl34.lambda_codes == (2, 3)
        assert pgl34.quad_offset == 42
        assert len(pgl34.quads) == 2520

    def test_gf4_serialization_digest(self, pgl34):
        # the bytes of `geomrep build pgl --q 4`
        text = pgl34.system.to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "f783797be76d5c11beea8043d5ace2a041c675c1e0b0c5264fdab6ada1023260"
        )

    def test_gf4_quads_live_on_their_lines(self, pgl34):
        space = pgl34.space
        field = pgl34.field
        for j in range(0, len(pgl34.quads), 97):
            quad = pgl34.quads[j]
            line = space.layers[1][pgl34.quad_line[j] - 21]
            for p in quad:
                assert line.contains_point(space.points[p])
            value = cross_ratio(*(space.points[p] for p in quad))
            assert value.code == pgl34.quad_lambda[j]
            assert pgl34.lambda_codes[pgl34.quad_block[j]] == value.code
            assert tuple(pgl34.quad_points[j].tolist()) == quad
            element = pgl34.quad_offset + j
            # the quad element is incident to its carrier line
            assert pgl34.quad_line[j] in pgl34.system.neighbors(element)

    def test_gf4_truncated_mode_keeps_full_orbit(self, pgl34):
        trunc = pgl_cross_ratio_geometry(3, make_field(2, 2), truncate_to_min_poly=True)
        assert trunc.truncated
        assert trunc.lambda_codes == pgl34.lambda_codes
        assert trunc.system == pgl34.system

    def test_gf4_base_degree_two_is_degenerate(self, pgl34):
        geom = pgl_cross_ratio_geometry(3, make_field(2, 2), base_degree=2)
        assert geom.degenerate
        assert geom.system == pgl34.system.truncation(["0", "1"])

    @pytest.mark.parametrize(
        "n,p,k,base_degree,truncate",
        [
            (3, 2, 1, 1, False),
            (3, 2, 1, 1, True),
            (3, 3, 1, 1, False),
            (3, 3, 1, 1, True),
            (3, 2, 2, 1, False),
            (3, 2, 2, 1, True),
            (3, 2, 2, 2, False),
            (4, 2, 1, 1, False),
            (4, 3, 1, 1, False),
        ],
    )
    def test_truncation_is_the_subspace_truncation(
        self, monkeypatch, n, p, k, base_degree, truncate
    ):
        built = []

        def recording(*args):
            built.append(_pair_array(*args))
            return built[-1]

        monkeypatch.setattr(constructions, "_pair_array", recording)
        geom = pgl_cross_ratio_geometry(
            n, make_field(p, k), base_degree=base_degree, truncate_to_min_poly=truncate
        )
        expected = geom.system.truncation(geom.subspace_labels)
        assert geom.truncation == expected
        assert geom.truncation.source_ids == expected.source_ids
        # the builder's pairs are already the system's
        (pairs,) = built
        assert_canonical(pairs, geom.system.size)
        assert np.array_equal(pairs, geom.system.pairs)

    @pytest.mark.parametrize("sizes", [[], [3, 2], [1, 0, 4], [2, 3, 1, 2, 2]])
    def test_pair_array_is_canonical(self, sizes):
        # synthetic blocks: no buildable geometry has three or more
        rng = np.random.default_rng(len(sizes))
        quad_offset = 7
        bounds = np.cumsum([0, *sizes]).tolist()
        block_ranges = list(zip(bounds[:-1], bounds[1:]))
        n = quad_offset + bounds[-1]
        # chunks as the builder gives them: distinct rows a < b, a < quad_offset
        every = [(a, b) for a in range(quad_offset) for b in range(a + 1, n)]
        rows = np.asarray(every, dtype=np.int32)[rng.permutation(len(every))[:20]]
        cross = {
            (a + quad_offset, b + quad_offset)
            for (s1, e1), (s2, e2) in itertools.combinations(block_ranges, 2)
            for a in range(s1, e1)
            for b in range(s2, e2)
        }
        for chunks in ([rows[:8], rows[8:]], [rows]):
            pairs = _pair_array(chunks, block_ranges, quad_offset, len(cross))
            assert_canonical(pairs, n)
            want = cross | {tuple(r) for chunk in chunks for r in chunk.tolist()}
            assert {tuple(r) for r in pairs.tolist()} == want


class TestExtensionOrders:
    """The orders and type action read off the type nodes and the truncation
    against those of the group on the whole system, by induced_action."""

    @pytest.mark.parametrize("truncate", [False, True], ids=["full", "truncated"])
    def test_orders_match_induced_action(self, truncate):
        geom = pgl_cross_ratio_geometry(3, make_field(2, 2), truncate_to_min_poly=truncate)
        report = pgl_aut_via_extension(geom)
        result, system = report.result, geom.system
        full = PermGroup(system.size, list(result.correlation_gens))
        action = full.induced_action(system.fibers())
        assert (result.aut_order, result.aut_i_order, result.out_order) == (120960, 60480, 2)
        assert result.aut_order == full.order()
        assert result.aut_i_order == action.kernel.order()
        assert result.out_order == action.image.order()
        assert result.type_action.generators == action.image.generators
        assert report.frobenius_type_action == ("0", "1", "Q(w+1)", "Q(w)")
        # each lifted kernel generator is a correlation that fixes every type,
        # and together they generate the kernel
        identity = list(range(system.rank))
        assert result.type_preserving_gens
        for g in result.type_preserving_gens:
            assert g.degree == system.size
            assert correlation_type_action(system, g) == identity
        kernel = PermGroup(system.size, list(result.type_preserving_gens))
        assert kernel.order() == action.kernel.order()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_degenerate_fields_take_their_own_branch(self, monkeypatch, p):
        import geomrep.constructions

        def no_chain(*args, **kwargs):
            raise AssertionError("a chain was built outside the correlation search")

        geom = pgl_cross_ratio_geometry(3, make_field(p, 1))
        monkeypatch.setattr(geomrep.constructions, "PermGroup", no_chain)
        report = pgl_aut_via_extension(geom)
        assert geom.degenerate
        assert report.reported_group == "correlation group of the system"
        assert report.result.aut_order == report.truncation_aut_order
        assert report.result.aut_i_order == pgl_order(p, 3)


class TestRestrictionExtension:
    def test_pipeline_orders(self, pgl34_pipeline):
        report = pgl34_pipeline
        assert report.result.aut_order == 120960
        assert report.result.aut_i_order == 60480
        assert report.result.out_order == 2
        assert report.result.aut_i_order == pgl_order(4, 3)

    def test_truncation_orders(self, pgl34_pipeline):
        report = pgl34_pipeline
        assert report.truncation_aut_order == 241920
        assert report.truncation_aut_i_order == 120960
        assert report.truncation_out_order == 2

    def test_pipeline_reports_frobenius(self, pgl34_pipeline):
        assert pgl34_pipeline.frobenius_extends is True
        assert pgl34_pipeline.frobenius_type_action == ("0", "1", "Q(w+1)", "Q(w)")
        assert pgl34_pipeline.to_json_dict() == {
            "reported_group": "group generated by the extended truncation correlations",
            "duality_extends": False,
            "frobenius_extends": True,
            "frobenius_type_action": ["0", "1", "Q(w+1)", "Q(w)"],
            "truncation_aut_order": "241920",
            "truncation_aut_i_order": "120960",
            "truncation_out_order": "2",
        }
        assert list(pgl34_pipeline.to_json_dict()) == [
            "reported_group",
            "duality_extends",
            "frobenius_extends",
            "frobenius_type_action",
            "truncation_aut_order",
            "truncation_aut_i_order",
            "truncation_out_order",
        ]

    @pytest.mark.parametrize(
        "p,k,base_degree,frobenius",
        [(2, 1, 1, None), (2, 2, 2, ("0", "1"))],
    )
    def test_degenerate_pipeline_reports_frobenius(self, p, k, base_degree, frobenius):
        geom = pgl_cross_ratio_geometry(3, make_field(p, k), base_degree=base_degree)
        report = pgl_aut_via_extension(geom)
        assert geom.degenerate
        assert report.duality_extends is None
        assert report.frobenius_extends is (frobenius is not None)
        assert report.frobenius_type_action == frobenius
        assert report.result.aut_order == report.truncation_aut_order
        assert report.reported_group == "correlation group of the system"

    def test_duality_does_not_extend(self, pgl34, pgl34_pipeline):
        assert pgl34_pipeline.duality_extends is False
        duality = duality_truncation_perm(pgl34)
        assert extend_truncation_correlation(pgl34, duality) is None

    def test_frobenius_extends_and_swaps_blocks(self, pgl34):
        frob = frobenius_truncation_perm(pgl34)
        assert frob is not None
        extension = extend_truncation_correlation(pgl34, frob)
        assert extension is not None
        assert correlation_type_action(pgl34.system, extension) == [0, 1, 3, 2]

    def test_collineations_extend_type_preservingly(self, pgl34):
        trunc = pgl34.system.truncation(pgl34.subspace_labels)
        for g in pgl_group(pgl34.field, 3).generators:
            lifted = point_perm_to_truncation(pgl34, g)
            assert correlation_type_action(trunc, lifted) == [0, 1]
            extension = extend_truncation_correlation(pgl34, lifted)
            assert extension is not None
            assert correlation_type_action(pgl34.system, extension) == [0, 1, 2, 3]

    def test_point_perm_degree_mismatch(self, pgl34):
        with pytest.raises(ValueError, match="degree does not match"):
            point_perm_to_truncation(pgl34, Permutation.identity(5))

    def test_point_perm_must_be_collineation(self, pgl34):
        images = list(range(21))
        images[0], images[1] = 1, 0
        with pytest.raises(ValueError, match="does not preserve the space"):
            point_perm_to_truncation(pgl34, Permutation(images))

    def test_extension_rejects_non_correlation(self, pgl34):
        images = list(range(42))
        images[0], images[1] = 1, 0
        with pytest.raises(ValueError, match="not a correlation"):
            extend_truncation_correlation(pgl34, Permutation(images))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_extension_matches_per_quad_loop(self, pgl34, q):
        geom = pgl34 if q == 4 else pgl_cross_ratio_geometry(3, make_field(q, 1))
        maps = list(correlation_group(geom.truncation).type_preserving_gens)
        maps.append(duality_truncation_perm(geom))
        frob = frobenius_truncation_perm(geom)
        if frob is not None:
            maps.append(frob)
        # not correlations of the truncation: two points swapped, two lines swapped
        for x, y in ((0, 1), (geom.truncation.size - 2, geom.truncation.size - 1)):
            images = list(range(geom.truncation.size))
            images[x], images[y] = y, x
            maps.append(Permutation(images))
        outcomes = [extension_outcome(extend_truncation_correlation, geom, f) for f in maps]
        assert outcomes == [extension_outcome(reference_extension, geom, f) for f in maps]
        if q == 4:
            assert outcomes[-4] is None  # the duality
            assert all(isinstance(o, list) for o in outcomes[:-4])

    def test_extension_of_corrupted_geometry_matches_per_quad_loop(self, pgl34):
        frob = frobenius_truncation_perm(pgl34)
        lines, blocks = list(pgl34.quad_line), list(pgl34.quad_block)
        swapped_lines = lines[:]
        swapped_lines[0], swapped_lines[-1] = lines[-1], lines[0]
        moved_block = blocks[:]
        moved_block[5] = 1 - blocks[5]
        # quad 5 fails both checks at once: its image changes block, and its
        # own line changes
        image5 = pgl34.quads.index(tuple(frob(x) for x in pgl34.quads[5]))
        both_blocks, both_lines = blocks[:], lines[:]
        both_blocks[image5] = 1 - blocks[image5]
        both_lines[5] = next(line for line in lines if line != lines[5])
        # quad 0 replaced by a quadruple that no collineation maps to a quad
        lost = pgl34.quad_points.copy()
        lost[0] = lost[0, 0]
        fewer = IncidenceSystem(
            pgl34.system.types, pgl34.system.type_codes, pgl34.system.pairs[:-1]
        )
        corrupted = [
            dataclasses.replace(pgl34, quad_line=tuple(swapped_lines)),
            dataclasses.replace(pgl34, quad_block=tuple(moved_block)),
            dataclasses.replace(
                pgl34, quad_block=tuple(moved_block), quad_line=tuple(swapped_lines)
            ),
            dataclasses.replace(
                pgl34, quad_block=tuple(both_blocks), quad_line=tuple(both_lines)
            ),
            dataclasses.replace(pgl34, quad_block=(0,) * len(blocks)),
            dataclasses.replace(pgl34, system=fewer),
            dataclasses.replace(
                pgl34,
                quads=(tuple(lost[0].tolist()),) + pgl34.quads[1:],
                quad_points=lost,
            ),
        ]
        maps = [frob, *correlation_group(pgl34.truncation).type_preserving_gens]
        messages = set()
        for geom in corrupted:
            for f in maps:
                got = extension_outcome(extend_truncation_correlation, geom, f)
                assert got == extension_outcome(reference_extension, geom, f)
                if isinstance(got, tuple):
                    messages.add(got[1])
        assert extension_outcome(reference_extension, corrupted[3], frob)[1] == (
            "extension mixes cross-ratio blocks"
        )
        assert extension_outcome(reference_extension, corrupted[-1], frob) is None
        assert messages == {
            "extension mixes cross-ratio blocks",
            "extension breaks line incidence",
            "extension block map is not a bijection",
            "extension is not a correlation",
        }


def assert_canonical(pairs: np.ndarray, n: int) -> None:
    """pairs is int32 with rows a < b and strictly ascending keys a*n + b."""
    assert pairs.dtype == np.int32 and pairs.ndim == 2 and pairs.shape[1] == 2
    assert (pairs[:, 0] < pairs[:, 1]).all()
    keys = pairs[:, 0].astype(np.int64) * n + pairs[:, 1]
    assert (keys[1:] > keys[:-1]).all()


def reference_extension(geom, f):
    """extend_truncation_correlation as a loop over the quadruples."""
    tact = correlation_type_action(geom.truncation, f)
    if tact is None:
        raise ValueError("not a correlation of the subspace truncation")
    if geom.degenerate:
        return f
    if tact[0] != 0:
        return None
    images = list(range(geom.system.size))
    for x in range(geom.truncation.size):
        images[x] = f(x)
    index = {quad: j for j, quad in enumerate(geom.quads)}
    targets = []
    for quad in geom.quads:
        target = index.get(tuple(f(x) for x in quad))
        if target is None:
            return None
        targets.append(target)
    for j, target in enumerate(targets):
        images[geom.quad_offset + j] = geom.quad_offset + target
    bmap = {}
    for j, target in enumerate(targets):
        if bmap.setdefault(geom.quad_block[j], geom.quad_block[target]) != geom.quad_block[
            target
        ]:
            raise RuntimeError("extension mixes cross-ratio blocks")
        if geom.quad_line[target] != f(geom.quad_line[j]):
            raise RuntimeError("extension breaks line incidence")
    if sorted(bmap.values()) != list(range(len(geom.lambda_codes))):
        raise RuntimeError("extension block map is not a bijection")
    phi = Permutation(images)
    if correlation_type_action(geom.system, phi) is None:
        raise RuntimeError("extension is not a correlation")
    return phi


def extension_outcome(extend, geom, f):
    """The images of extend(geom, f), None, or the type and message it raises."""
    try:
        phi = extend(geom, f)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return None if phi is None else phi.to_list()


def klein_four_spec() -> CosetGeometrySpec:
    a = Permutation([1, 0, 3, 2])
    b = Permutation([2, 3, 0, 1])
    return CosetGeometrySpec(
        PermGroup(4, [a, b]),
        (PermGroup(4, [a]), PermGroup(4, [b]), PermGroup(4, [a * b])),
    )


def duplicated_subgroup_spec() -> CosetGeometrySpec:
    s3 = PermGroup(3, [Permutation([1, 0, 2]), Permutation([1, 2, 0])])
    sub = PermGroup(3, [Permutation([1, 0, 2])])
    return CosetGeometrySpec(s3, (sub, sub))


def type_ordered_flags(sys: IncidenceSystem, typeset: set[int]):
    return [
        tuple(sorted(f, key=lambda x: int(sys.type_codes[x])))
        for f in sys.flags()
        if {int(sys.type_codes[x]) for x in f} == typeset
    ]


class TestCosetGeometries:
    def test_tetrahedron_structure(self):
        cg = coset_geometry(tetrahedron_spec())
        assert [len(f) for f in cg.system.fibers()] == [4, 6, 4]
        assert cg.action.order() == 24
        assert len(cg.cosets) == 14
        for coset, rep in zip(cg.cosets, cg.reps):
            assert rep in coset
            assert rep == min(coset)

    def test_tetrahedron_matches_simplex_system(self):
        cg = coset_geometry(tetrahedron_spec())
        verts = list(range(4))
        edges = list(itertools.combinations(verts, 2))
        faces = list(itertools.combinations(verts, 3))
        elements = [frozenset([v]) for v in verts]
        elements += [frozenset(e) for e in edges]
        elements += [frozenset(f) for f in faces]
        codes = [0] * 4 + [1] * 6 + [2] * 4
        pairs = [
            [i, j]
            for i, j in itertools.combinations(range(14), 2)
            if codes[i] != codes[j]
            and (elements[i] <= elements[j] or elements[j] <= elements[i])
        ]
        simplex = IncidenceSystem(["0", "1", "2"], codes, pairs)
        assert find_isomorphism(cg.system, simplex) is not None

    def test_tetrahedron_chamber_transitive(self):
        cg = coset_geometry(tetrahedron_spec())
        chambers = type_ordered_flags(cg.system, {0, 1, 2})
        assert len(chambers) == 24
        assert is_transitive_on(cg.action, chambers)

    def test_tetrahedron_conditions(self):
        spec = tetrahedron_spec()
        ft = check_ft_condition(spec)
        assert ft.ok
        assert ft.checked == 12
        assert ft.failures == ()
        rc = check_rc_condition(spec)
        assert rc.ok
        assert rc.checked == 4

    def test_klein_spec_fails_ft(self):
        spec = klein_four_spec()
        report = check_ft_condition(spec)
        assert not report.ok
        assert report.checked == 12
        assert report.failures == (((0, 1), 2), ((0, 2), 1), ((1, 2), 0))

    def test_klein_ft_failure_matches_flag_orbits(self):
        spec = klein_four_spec()
        cg = coset_geometry(spec)
        for r in range(1, 4):
            for typeset in itertools.combinations(range(3), r):
                flags = type_ordered_flags(cg.system, set(typeset))
                transitive = is_transitive_on(cg.action, flags)
                assert transitive == (len(typeset) < 3)
        assert len(type_ordered_flags(cg.system, {0, 1, 2})) == 8

    def test_duplicated_subgroup_spec(self):
        # the same subgroup twice: disconnected digon fan, flag-transitive
        spec = duplicated_subgroup_spec()
        cg = coset_geometry(spec)
        assert [len(f) for f in cg.system.fibers()] == [3, 3]
        assert cg.action.order() == 6
        assert check_ft_condition(spec).ok
        assert not check_rc_condition(spec).ok
        assert not cg.system.is_residually_connected()

    def test_labels_propagate(self):
        spec = tetrahedron_spec()
        labeled = CosetGeometrySpec(spec.group, spec.subgroups, ("v", "e", "f"))
        assert coset_geometry(labeled).system.types == ("v", "e", "f")

    def test_label_count_mismatch(self):
        spec = tetrahedron_spec()
        bad = CosetGeometrySpec(spec.group, spec.subgroups, ("v", "e"))
        with pytest.raises(ValueError, match="label count"):
            coset_geometry(bad)

    def test_subgroup_domain_mismatch(self):
        g = PermGroup(4, [Permutation([1, 0, 3, 2])])
        sub = PermGroup(3, [Permutation([1, 0, 2])])
        with pytest.raises(ValueError, match="different domain"):
            coset_geometry(CosetGeometrySpec(g, (sub,)))

    def test_subgroup_not_contained(self):
        a4 = PermGroup(4, [Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])])
        sub = PermGroup(4, [Permutation([1, 0, 2, 3])])
        with pytest.raises(ValueError, match="not contained"):
            coset_geometry(CosetGeometrySpec(a4, (sub,)))

    def test_spec_errors_name_the_first_bad_subgroup(self):
        a4 = PermGroup(4, [Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])])
        inside = PermGroup(4, [Permutation([1, 2, 0, 3])])
        outside = PermGroup(4, [Permutation([1, 0, 2, 3])])
        other = PermGroup(3, [Permutation([1, 0, 2])])
        for subs, message in [
            ((inside, outside, other), "subgroup 1 is not contained in the group"),
            ((inside, other, outside), "subgroup 1 acts on a different domain"),
            ((inside, inside, outside), "subgroup 2 is not contained in the group"),
        ]:
            with pytest.raises(ValueError) as err:
                coset_geometry(CosetGeometrySpec(a4, subs))
            assert str(err.value) == message

    def test_rc_requires_report_fields(self):
        rc = check_rc_condition(tetrahedron_spec())
        assert rc.failures == ()


# -- brute-force reference for the coset layer -----------------------------------
# The definitions as element sets of image tuples: cosets G_i x collected by
# right multiplication, incidence by set intersection, G_J G_i as a product set,
# and <G_{J+i}> closed under repeated products.


def _compose(a: tuple, b: tuple) -> tuple:
    """a first, then b, as Permutation's product."""
    return tuple(b[x] for x in a)


def _closure(degree: int, gens) -> frozenset:
    identity = tuple(range(degree))
    elems, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(elems)


def _products(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(_compose(x, y) for x in a for y in b)


class CosetReference:
    def __init__(self, spec: CosetGeometrySpec):
        degree = spec.group.degree
        tuples = [[tuple(g.to_list()) for g in grp.generators] for grp in (spec.group, *spec.subgroups)]
        self.group_gens = tuples[0]
        self.group = _closure(degree, tuples[0])
        self.subgroups = [_closure(degree, gens) for gens in tuples[1:]]
        self.cosets, self.codes = [], []
        for t, sub in enumerate(self.subgroups):
            found = {frozenset(_compose(h, x) for h in sub) for x in self.group}
            self.cosets += sorted(found, key=min)
            self.codes += [t] * len(found)
        self.r = len(self.subgroups)
        self.degree = degree

    def pairs(self) -> list[list[int]]:
        return [
            [a, b]
            for a, b in itertools.combinations(range(len(self.cosets)), 2)
            if self.codes[a] != self.codes[b] and self.cosets[a] & self.cosets[b]
        ]

    def action(self) -> list[list[int]]:
        """Right multiplication by each group generator, without identities and repeats."""
        lookup = {(t, c): k for k, (t, c) in enumerate(zip(self.codes, self.cosets))}
        out = []
        for g in self.group_gens:
            image = [
                lookup[(t, frozenset(_compose(x, g) for x in c))]
                for t, c in zip(self.codes, self.cosets)
            ]
            if image != sorted(image) and image not in out:
                out.append(image)
        return out

    def meet(self, j_set) -> frozenset:
        return self.group.intersection(*(self.subgroups[j] for j in j_set))

    def ft_failures(self) -> list:
        return [
            (j_set, i)
            for size in range(self.r + 1)
            for j_set in itertools.combinations(range(self.r), size)
            for i in range(self.r)
            if i not in j_set
            and _products(self.meet(j_set), self.subgroups[i])
            != self.group.intersection(
                *(_products(self.subgroups[j], self.subgroups[i]) for j in j_set)
            )
        ]

    def rc_failures(self) -> list:
        failures = []
        for size in range(self.r - 1):
            for j_set in itertools.combinations(range(self.r), size):
                seed = set()
                for i in range(self.r):
                    if i not in j_set:
                        seed |= self.meet((*j_set, i))
                if _closure(self.degree, seed) != self.meet(j_set):
                    failures.append(j_set)
        return failures


def assert_matches_reference(spec: CosetGeometrySpec) -> CosetReference:
    """Labels, cosets, reps, incidences and action against the element-set
    reference, which is returned."""
    ref = CosetReference(spec)
    table, labels = _coset_labels(spec)
    rows = [tuple(row) for row in table.rows.tolist()]
    assert rows == sorted(ref.group)
    for t, label in enumerate(labels):
        cosets = [c for c, code in zip(ref.cosets, ref.codes) if code == t]
        number = {x: k for k, c in enumerate(cosets) for x in c}
        assert label.tolist() == [number[x] for x in rows]
    cg = coset_geometry(spec)
    assert cg.system.type_codes.tolist() == ref.codes
    assert cg.system.pairs.tolist() == ref.pairs()
    assert [frozenset(tuple(g.to_list()) for g in c) for c in cg.cosets] == ref.cosets
    assert [tuple(g.to_list()) for g in cg.reps] == [min(c) for c in ref.cosets]
    assert [g.to_list() for g in cg.action.generators] == ref.action()
    return ref


def _symmetric(n: int) -> PermGroup:
    return PermGroup(n, [Permutation.from_cycles(n, [(0, 1)]),
                         Permutation.from_cycles(n, [tuple(range(n))])])


def _coset_groups() -> dict[str, PermGroup]:
    a5 = PermGroup(5, [Permutation.from_cycles(5, [(0, 1, 2)]),
                       Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    return {"S4": _symmetric(4), "A5": a5, "S5": _symmetric(5), "S6": _symmetric(6)}


def random_coset_specs() -> list[tuple[str, CosetGeometrySpec]]:
    """Seeded specs over S4, A5, S5 and S6 with small random subgroups."""
    rng = random.Random(2013)
    specs = []
    for name, group in _coset_groups().items():
        elements = group.enumerate_elements()
        drawn = 0
        while drawn < 8:
            subgroups = []
            for _ in range(rng.choice((2, 3, 4))):
                gens = [rng.choice(elements) for _ in range(rng.choice((1, 2)))]
                subgroups.append(PermGroup(group.degree, gens))
            if max(sub.order() for sub in subgroups) > 24:
                continue
            specs.append((f"{name}#{drawn}", CosetGeometrySpec(group, tuple(subgroups))))
            drawn += 1
    return specs


RANDOM_COSET_SPECS = random_coset_specs()


def coset_family_specs(seed: int) -> list[tuple[str, CosetGeometrySpec]]:
    """The benchmark's coset spec family, each spec's subgroup generators
    conjugated by one seeded random permutation."""
    groups = _coset_groups()
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "coset_family.json")
    with open(path, encoding="utf-8") as fh:
        family = json.load(fh)
    rng = random.Random(seed)
    specs = []
    for k, entry in enumerate(family):
        group = groups[entry["group"]]
        images = list(range(group.degree))
        rng.shuffle(images)
        sigma = Permutation(images)
        subgroups = tuple(
            PermGroup(group.degree, [sigma.inverse() * Permutation(h) * sigma for h in gens])
            for gens in entry["subgroups"]
        )
        specs.append((f"{entry['group']}-{k}", CosetGeometrySpec(group, subgroups)))
    return specs


def generated_order_rc(spec: CosetGeometrySpec) -> RcReport:
    """RC by orders: |G_J| against the Schreier-Sims order of the group that the
    G_{J+i} generate, grown by each element of theirs it does not yet contain."""
    table, labels = _coset_labels(spec)
    r = len(labels)
    subgroups = labels == 0
    failures = []
    checked = 0
    for size in range(r - 1):
        for j_set in itertools.combinations(range(r), size):
            checked += 1
            g_j = subgroups[list(j_set)].all(axis=0)
            outside = [i for i in range(r) if i not in j_set]
            gens: list[Permutation] = []
            generated = PermGroup(spec.group.degree, gens)
            for z in (g_j & subgroups[outside].any(axis=0)).nonzero()[0]:
                element = Permutation(table.rows[z])
                if not generated.contains(element):
                    gens.append(element)
                    generated = PermGroup(spec.group.degree, gens)
            if generated.order() != g_j.sum():
                failures.append(j_set)
    return RcReport(ok=not failures, failures=tuple(failures), checked=checked)


RC_SPECS = (
    RANDOM_COSET_SPECS
    + [("tetrahedron", tetrahedron_spec()), ("klein", klein_four_spec()),
       ("duplicated", duplicated_subgroup_spec())]
    + coset_family_specs(seed=31)
)


class TestCosetsAgainstReference:
    @pytest.mark.parametrize("name,spec", RANDOM_COSET_SPECS, ids=[n for n, _ in RANDOM_COSET_SPECS])
    def test_geometry_and_conditions(self, name, spec):
        ref = assert_matches_reference(spec)
        r = len(spec.subgroups)
        ft = check_ft_condition(spec)
        assert list(ft.failures) == ref.ft_failures()
        assert (ft.ok, ft.checked) == (not ft.failures, r * 2 ** (r - 1))
        rc = check_rc_condition(spec)
        assert list(rc.failures) == ref.rc_failures()
        assert (rc.ok, rc.checked) == (not rc.failures, sum(math.comb(r, k) for k in range(r - 1)))

    @pytest.mark.parametrize("name,spec", RC_SPECS, ids=[n for n, _ in RC_SPECS])
    def test_rc_matches_generated_order(self, name, spec):
        assert check_rc_condition(spec) == generated_order_rc(spec)

    def test_family_has_failing_specs(self):
        ft = [check_ft_condition(spec).ok for _, spec in RANDOM_COSET_SPECS]
        rc = [check_rc_condition(spec).ok for _, spec in RANDOM_COSET_SPECS]
        # 8 of the 32 fail FT and 22 fail RC
        assert ft.count(False) >= 2 and rc.count(False) >= 2


# -- the labelling: orbits of generator steps on the element table ---------------


def _dihedral(n: int) -> PermGroup:
    return PermGroup(n, [Permutation.from_cycles(n, [tuple(range(n))]),
                         Permutation([(-k) % n for k in range(n)])])


LABEL_GROUPS = {
    "trivial-3": PermGroup(3, []),
    "C6": PermGroup(6, [Permutation.from_cycles(6, [tuple(range(6))])]),
    "D5": _dihedral(5),
    "S4": _symmetric(4),
    "A5": _coset_groups()["A5"],
    "C2xS3": PermGroup(5, [Permutation.from_cycles(5, [(0, 1)]),
                           Permutation.from_cycles(5, [(2, 3)]),
                           Permutation.from_cycles(5, [(2, 3, 4)])]),
}


@st.composite
def label_specs(draw) -> CosetGeometrySpec:
    """A group with up to three subgroups, each generated by up to two drawn
    elements (none gives the trivial subgroup) or by the group's generators."""
    group = LABEL_GROUPS[draw(st.sampled_from(sorted(LABEL_GROUPS)))]
    elements = group.enumerate_elements()
    gens = st.one_of(
        st.lists(st.sampled_from(elements), max_size=2), st.just(list(group.generators))
    )
    subgroups = draw(st.lists(gens, min_size=1, max_size=3))
    return CosetGeometrySpec(group, tuple(PermGroup(group.degree, g) for g in subgroups))


class TestCosetLabels:
    @given(label_specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, spec):
        assert_matches_reference(spec)

    def test_trivial_and_whole_subgroups(self):
        s4 = _symmetric(4)
        spec = CosetGeometrySpec(s4, (PermGroup(4, []), PermGroup(4, s4.generators)))
        _, labels = _coset_labels(spec)
        assert labels[0].tolist() == list(range(24))
        assert labels[1].tolist() == [0] * 24
        assert_matches_reference(spec)

    def test_degree_zero(self):
        spec = CosetGeometrySpec(PermGroup(0, []), (PermGroup(0, []), PermGroup(0, [])))
        table, labels = _coset_labels(spec)
        assert table.rows.shape == (1, 0)
        assert labels.tolist() == [[0], [0]]
        assert_matches_reference(spec)

    def test_long_base(self):
        # (C2)^14 as 14 disjoint transpositions on 28 points: base length 14,
        # and 28 ** 14 > 2 ** 63.  Element k of the table is the bit vector k,
        # with transposition i at bit 13 - i, and products are xors.
        degree = 28
        flips = [Permutation.from_cycles(degree, [(2 * i, 2 * i + 1)]) for i in range(14)]
        group = PermGroup(degree, flips)
        gens = ([flips[0], flips[3] * flips[9], flips[13]], [flips[i] * flips[i + 1] for i in range(6)], [])
        spec = CosetGeometrySpec(group, tuple(PermGroup(degree, g) for g in gens))
        _, labels = _coset_labels(spec)
        elements = np.arange(2 ** 14)
        for label, sub in zip(labels, gens):
            span = {0}
            for h in sub:
                code = sum(1 << (13 - i) for i in range(14) if h(2 * i) != 2 * i)
                span |= {x ^ code for x in span}
            least = np.min([elements ^ x for x in sorted(span)], axis=0)
            assert label.tolist() == np.unique(least, return_inverse=True)[1].tolist()
