"""Flag, residue, truncation, and serialization behavior of incidence systems."""

import itertools
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomrep import (
    IncidenceSystem,
    Permutation,
    brute_force_automorphisms,
    complete_graph_geometry,
    correlation_type_action,
    dihedral_geometry,
    gq22,
    validate_data,
)


@st.composite
def small_systems(draw):
    rank = draw(st.integers(1, 3))
    types = [f"t{i}" for i in range(rank)]
    n = draw(st.integers(rank, 7))
    codes = list(range(rank)) + draw(
        st.lists(st.integers(0, rank - 1), min_size=n - rank, max_size=n - rank)
    )
    cross = [
        (a, b) for a in range(n) for b in range(a + 1, n) if codes[a] != codes[b]
    ]
    if cross:
        pairs = draw(st.lists(st.sampled_from(cross), max_size=12))
    else:
        pairs = []
    return IncidenceSystem(types, codes, pairs)


def brute_flags(sys: IncidenceSystem) -> set[tuple[int, ...]]:
    out = set()
    for r in range(sys.size + 1):
        for combo in itertools.combinations(range(sys.size), r):
            if all(
                b in sys.neighbors(a)
                for i, a in enumerate(combo)
                for b in combo[i + 1 :]
            ):
                out.add(combo)
    return out


def brute_chambers(sys: IncidenceSystem) -> set[tuple[int, ...]]:
    full = frozenset(range(sys.rank))
    return {
        f
        for f in brute_flags(sys)
        if frozenset(int(sys.type_codes[x]) for x in f) == full
    }


class TestConstruction:
    def test_pairs_are_deduplicated_and_sorted(self):
        sys = IncidenceSystem(["a", "b"], [0, 1], [[1, 0], [0, 1], [0, 1]])
        assert sys.pairs.tolist() == [[0, 1]]

    def test_duplicate_type_label(self):
        with pytest.raises(ValueError, match="duplicate type label"):
            IncidenceSystem(["a", "a"], [0, 1], [])

    def test_type_code_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            IncidenceSystem(["a"], [0, 1], [])

    def test_unknown_element_id(self):
        with pytest.raises(ValueError, match="unknown element id"):
            IncidenceSystem(["a", "b"], [0, 1], [[0, 2]])

    def test_self_incidence(self):
        with pytest.raises(ValueError, match="self-incidence"):
            IncidenceSystem(["a", "b"], [0, 1], [[1, 1]])

    def test_immutable(self):
        sys = IncidenceSystem(["a"], [0], [])
        with pytest.raises(AttributeError, match="immutable"):
            sys.types = ("b",)

    def test_equality_ignores_source_ids(self):
        a = IncidenceSystem(["a", "b"], [0, 1], [[0, 1]])
        b = IncidenceSystem(["a", "b"], [0, 1], [[1, 0]], source_ids=[5, 7])
        assert a == b

    def test_empty_system(self):
        sys = IncidenceSystem([], [], [])
        assert sys.rank == 0
        assert sys.size == 0
        assert list(sys.flags()) == [()]
        assert sys.chambers() == [()]
        assert sys.is_geometry()
        assert sys.is_firm()
        assert sys.is_residually_connected()


class TestValidation:
    def test_clean_data(self):
        report = validate_data(["a", "b"], ["a", "b"], [[0, 1]])
        assert report.ok
        assert report.violations == ()

    def test_unknown_type(self):
        report = validate_data(["a"], ["a", "z"], [])
        assert not report.ok
        assert ("unknown type", (1,)) in report.violations

    def test_empty_type_fiber(self):
        report = validate_data(["a", "b"], ["a", "a"], [])
        assert ("empty type fiber", (1,)) in report.violations

    def test_dangling_id(self):
        report = validate_data(["a", "b"], ["a", "b"], [[0, 9]])
        assert ("dangling id", (0, 9)) in report.violations

    def test_same_type_incidence(self):
        report = validate_data(["a", "b"], ["a", "a", "b"], [[1, 0]])
        assert ("same-type incidence", (0, 1)) in report.violations

    def test_violations_sorted(self):
        report = validate_data(["a", "b"], ["a", "a"], [[1, 0], [0, 9]])
        assert report.violations == tuple(sorted(report.violations))

    def test_validate_method_on_built_system(self):
        assert dihedral_geometry(5).validate().ok


class TestFlags:
    def test_is_flag_basics(self):
        sys = IncidenceSystem(["a", "b"], [0, 0, 1], [[0, 2]])
        assert sys.is_flag([])
        assert sys.is_flag([1])
        assert sys.is_flag([0, 2])
        assert not sys.is_flag([1, 2])
        assert not sys.is_flag([0, 1])
        assert not sys.is_flag([5])

    @given(small_systems())
    @settings(max_examples=60, deadline=None)
    def test_flags_match_brute_force(self, sys):
        listed = list(sys.flags())
        assert len(listed) == len(set(listed))
        assert set(listed) == brute_flags(sys)

    @given(small_systems())
    @settings(max_examples=60, deadline=None)
    def test_chambers_match_brute_force(self, sys):
        assert set(sys.chambers()) == brute_chambers(sys)

    def test_pentagon_chamber_count(self):
        assert len(dihedral_geometry(5).chambers()) == 20

    def test_gq22_chamber_count(self):
        # 15 lines, 3 points each
        assert len(gq22().chambers()) == 45


class TestPredicates:
    @pytest.mark.parametrize(
        "n,geometry,firm,rc,chambers",
        [
            (3, True, True, True, 6),
            (4, True, False, False, 4),
            (5, False, False, False, 20),
            (6, False, False, False, 6),
            (8, False, False, False, 0),
        ],
    )
    def test_polygon_predicate_table(self, n, geometry, firm, rc, chambers):
        sys = dihedral_geometry(n)
        assert sys.is_geometry() == geometry
        assert sys.is_firm() == firm
        assert sys.is_residually_connected() == rc
        assert len(sys.chambers()) == chambers

    def test_complete_graph_is_geometry(self):
        sys = complete_graph_geometry(4)
        assert sys.is_geometry()
        assert sys.is_firm()
        assert sys.is_residually_connected()
        assert len(sys.chambers()) == 12

    def test_gq22_predicates(self):
        sys = gq22()
        assert sys.is_geometry()
        assert sys.is_firm()
        assert sys.is_residually_connected()

    def test_disconnected_rank_two_system(self):
        sys = IncidenceSystem(["a", "b"], [0, 1, 0, 1], [[0, 1], [2, 3]])
        assert sys.is_geometry()
        assert not sys.is_firm()
        assert not sys.is_residually_connected()

    def test_rank_one_system_vacuously_connected(self):
        sys = IncidenceSystem(["a"], [0, 0], [])
        assert sys.is_residually_connected()

    @given(small_systems())
    @settings(max_examples=40, deadline=None)
    def test_firmness_matches_brute_force(self, sys):
        chambers = [frozenset(c) for c in brute_chambers(sys)]
        expected = True
        for flag in brute_flags(sys):
            fs = frozenset(flag)
            extendable = any(fs < frozenset(g) for g in brute_flags(sys))
            if extendable and sum(1 for c in chambers if fs <= c) < 2:
                expected = False
        assert sys.is_firm() == expected

    @given(small_systems())
    @settings(max_examples=40, deadline=None)
    def test_residual_connectivity_matches_brute_force(self, sys):
        expected = True
        for flag in brute_flags(sys):
            res = sys.residue(flag)
            if res.rank < 2:
                continue
            g = res.incidence_graph()
            if g.number_of_nodes() > 1 and not nx.is_connected(g):
                expected = False
        assert sys.is_residually_connected() == expected


class TestResidues:
    def test_residue_keeps_typeset_order(self):
        sys = IncidenceSystem(
            ["a", "b", "c"],
            [0, 1, 2, 2],
            [[0, 1], [1, 2], [1, 3], [0, 2]],
        )
        res = sys.residue([1])
        assert res.types == ("a", "c")

    def test_residue_rejects_non_flag(self):
        sys = IncidenceSystem(["a", "b"], [0, 1], [])
        with pytest.raises(ValueError, match="not a flag"):
            sys.residue([0, 1])

    @given(small_systems())
    @settings(max_examples=60, deadline=None)
    def test_residue_matches_definition(self, sys):
        for flag in brute_flags(sys):
            res = sys.residue(flag)
            ftypes = {int(sys.type_codes[x]) for x in flag}
            expected = [
                x
                for x in range(sys.size)
                if int(sys.type_codes[x]) not in ftypes
                and all(x in sys.neighbors(y) for y in flag)
            ]
            assert list(res.source_ids) == expected
            back = {i: x for i, x in enumerate(res.source_ids)}
            got = {(back[a], back[b]) for a, b in res.pairs.tolist()}
            want = {
                (a, b)
                for a, b in itertools.combinations(expected, 2)
                if b in sys.neighbors(a)
            }
            assert got == want

    def test_vertex_residue_of_pentagon(self):
        sys = dihedral_geometry(5)
        vertex = sys.fiber(sys.types[0])[0]
        res = sys.residue([vertex])
        assert res.rank == 2
        assert res.size == 4  # two edges of each class through a vertex


class TestTruncations:
    def test_truncation_redensifies_ids(self):
        sys = IncidenceSystem(["a", "b", "c"], [0, 1, 2], [[0, 1], [1, 2]])
        trunc = sys.truncation(["a", "c"])
        assert trunc.types == ("a", "c")
        assert trunc.size == 2
        assert trunc.source_ids == (0, 2)
        assert trunc.pairs.tolist() == []

    def test_truncation_source_ids_compose(self):
        sys = dihedral_geometry(5)
        first = sys.truncation([sys.types[0], sys.types[1]])
        second = first.truncation([sys.types[0]])
        direct = sys.truncation([sys.types[0]])
        assert second == direct
        composed = tuple(first.source_ids[i] for i in second.source_ids)
        assert composed == direct.source_ids

    def test_truncation_unknown_label(self):
        sys = IncidenceSystem(["a"], [0], [])
        with pytest.raises(ValueError, match="not a subset"):
            sys.truncation(["a", "z"])

    def test_truncation_empty_typeset(self):
        sys = IncidenceSystem(["a"], [0], [])
        with pytest.raises(ValueError, match="empty"):
            sys.truncation([])

    @given(small_systems())
    @settings(max_examples=60, deadline=None)
    def test_truncation_matches_definition(self, sys):
        keep = sys.types[: max(1, sys.rank - 1)]
        trunc = sys.truncation(keep)
        expected = [
            x for x in range(sys.size) if sys.types[sys.type_codes[x]] in set(keep)
        ]
        assert list(trunc.source_ids) == expected
        for i, x in enumerate(trunc.source_ids):
            assert trunc.types[trunc.type_codes[i]] == sys.types[sys.type_codes[x]]


class TestInterchange:
    @given(small_systems())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, sys):
        text = sys.to_json()
        back = IncidenceSystem.from_json(text)
        assert back == sys
        assert back.to_json() == text

    def test_from_json_rejects_sparse_ids(self):
        data = {
            "types": ["a"],
            "elements": [{"id": 1, "type": "a"}],
            "incidences": [],
        }
        with pytest.raises(ValueError, match="exactly 0"):
            IncidenceSystem.from_json_dict(data)

    def test_from_json_rejects_unknown_label(self):
        data = {
            "types": ["a"],
            "elements": [{"id": 0, "type": "z"}],
            "incidences": [],
        }
        with pytest.raises(ValueError, match="unknown type label"):
            IncidenceSystem.from_json_dict(data)

    def test_to_dot(self):
        sys = IncidenceSystem(["a", "b"], [0, 1], [[0, 1]])
        dot = sys.to_dot()
        assert dot == (
            "graph incidence {\n"
            '  0 [label="0:a"];\n'
            '  1 [label="1:b"];\n'
            "  0 -- 1;\n"
            "}\n"
        )

    def test_incidence_graph(self):
        sys = dihedral_geometry(5)
        g = sys.incidence_graph()
        assert g.number_of_nodes() == sys.size
        assert g.number_of_edges() == sys.pairs.shape[0]
        assert g.nodes[0]["type"] == sys.types[0]


@st.composite
def raw_data(draw):
    """Types, codes and incidences as a caller may pass them: any orientation,
    repeats, same-type pairs and empty type fibers allowed."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(2, 7))
    codes = draw(st.lists(st.integers(0, rank - 1), min_size=n, max_size=n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    pairs = draw(st.lists(pair, max_size=15))
    return [f"t{i}" for i in range(rank)], codes, pairs


def reference_induced(sys, keep, keep_types):
    """List-based subsystem on the ascending ids keep, typed by keep_types."""
    tmap = {t: i for i, t in enumerate(keep_types)}
    emap = {x: i for i, x in enumerate(keep)}
    pairs = [
        [emap[a], emap[b]] for a, b in sys.pairs.tolist() if a in emap and b in emap
    ]
    codes = [tmap[int(sys.type_codes[x])] for x in keep]
    return [sys.types[t] for t in keep_types], codes, pairs, list(keep)


def assert_same_subsystem(got, want):
    types, codes, pairs, source_ids = want
    assert got.types == tuple(types)
    assert got.type_codes.tolist() == codes
    assert got.pairs.tolist() == pairs
    assert list(got.source_ids) == source_ids


class TestArrayCore:
    """The array-based core against list-based references."""

    @given(raw_data())
    @settings(max_examples=60, deadline=None)
    def test_constructor_input_forms_agree(self, data):
        types, codes, pairs = data
        from_list = IncidenceSystem(types, codes, [list(p) for p in pairs])
        from_gen = IncidenceSystem(types, codes, (tuple(p) for p in pairs))
        from_array = IncidenceSystem(
            types, codes, np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
        )
        want = sorted({(min(p), max(p)) for p in pairs})
        for sys in (from_list, from_gen, from_array):
            assert [tuple(p) for p in sys.pairs.tolist()] == want
            assert sys.pairs.dtype == np.int32
            assert sys.pairs.shape == (len(want), 2)
            assert not sys.pairs.flags.writeable

    def test_caller_array_is_not_frozen(self):
        pairs = np.array([[1, 0]], dtype=np.int32)
        IncidenceSystem(["a", "b"], [0, 1], pairs)
        assert pairs.flags.writeable
        assert pairs.tolist() == [[1, 0]]

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize(
        "types,codes,pairs,message",
        [
            (["a", "a"], [0, 1], [], "duplicate type label"),
            (["a"], [0, 1], [], "type code out of range"),
            (["a", "b"], [0, 1], [[0, 2]], "incidence references unknown element id"),
            (["a", "b"], [0, 1], [[-1, 0]], "incidence references unknown element id"),
            (["a", "b"], [0, 1], [[1, 1]], "self-incidence"),
        ],
    )
    def test_constructor_error_messages(self, types, codes, pairs, message, as_array):
        if as_array:
            pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        with pytest.raises(ValueError) as err:
            IncidenceSystem(types, codes, pairs)
        assert str(err.value) == message

    @pytest.mark.parametrize("pairs", [[[0, 1, 2]], [[], []], [0, 1]])
    def test_rejects_rows_that_are_not_pairs(self, pairs):
        with pytest.raises(ValueError, match="pairs of element ids"):
            IncidenceSystem(["a", "b"], [0, 1, 0], pairs)

    @given(small_systems(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_matches_reference(self, sys, data):
        labels = data.draw(st.sets(st.sampled_from(sys.types), min_size=1))
        keep_types = [t for t in range(sys.rank) if sys.types[t] in labels]
        keep = [x for x in range(sys.size) if int(sys.type_codes[x]) in keep_types]
        assert_same_subsystem(
            sys.truncation(labels), reference_induced(sys, keep, keep_types)
        )

    @given(small_systems())
    @settings(max_examples=40, deadline=None)
    def test_residue_matches_reference(self, sys):
        for flag in brute_flags(sys):
            ftypes = {int(sys.type_codes[x]) for x in flag}
            keep = [
                x
                for x in range(sys.size)
                if int(sys.type_codes[x]) not in ftypes
                and all(x in sys.neighbors(y) for y in flag)
            ]
            keep_types = [t for t in range(sys.rank) if t not in ftypes]
            assert_same_subsystem(
                sys.residue(flag), reference_induced(sys, keep, keep_types)
            )

    @given(raw_data())
    @settings(max_examples=60, deadline=None)
    def test_validate_matches_validate_data(self, data):
        types, codes, pairs = data
        sys = IncidenceSystem(types, codes, pairs)
        labels = [types[c] for c in codes]
        assert sys.validate() == validate_data(types, labels, sys.pairs.tolist())

    @pytest.mark.parametrize(
        "row", [[0, 1.5], [0, True], [0, 1, 2], ["0", 1]],
        ids=["float-id", "bool-id", "three-ids", "string-id"],
    )
    def test_validate_data_reports_malformed_rows(self, row):
        report = validate_data(["a", "b"], ["a", "b"], [[0, 1], row])
        assert report.violations == (("malformed incidence", (1,)),)
        # the loader rejects the same row
        data = {"types": ["a", "b"], "elements": [{"id": 0, "type": "a"},
                {"id": 1, "type": "b"}], "incidences": [[0, 1], row]}
        with pytest.raises(ValueError, match="incidences must be pairs"):
            IncidenceSystem.from_json(json.dumps(data))

    @given(raw_data())
    @settings(max_examples=60, deadline=None)
    def test_to_json_matches_json_dumps(self, data):
        sys = IncidenceSystem(*data)
        assert sys.to_json() == json.dumps(sys.to_json_dict(), indent=2) + "\n"

    @pytest.mark.parametrize(
        "sys",
        [
            IncidenceSystem([], [], []),
            IncidenceSystem(["a", "b"], [0, 1, 1], []),
            # more pairs than one formatting block of to_json
            IncidenceSystem(
                ["a", "b"],
                [0] * 300 + [1] * 300,
                [[a, b] for a in range(300) for b in range(300, 600)],
            ),
        ],
        ids=["empty", "no-incidence", "two-blocks"],
    )
    def test_to_json_matches_json_dumps_edge_cases(self, sys):
        assert sys.to_json() == json.dumps(sys.to_json_dict(), indent=2) + "\n"

    @given(small_systems())
    @settings(max_examples=25, deadline=None)
    def test_correlation_type_action_matches_brute_force(self, sys):
        assume(sys.size <= 6)
        correlations = {
            tuple(g.to_list()) for g in brute_force_automorphisms(sys)
        }
        codes = sys.type_codes.tolist()
        for images in itertools.permutations(range(sys.size)):
            tmap = correlation_type_action(sys, Permutation(images))
            assert (tmap is not None) == (images in correlations)
            if tmap is not None:
                assert all(tmap[codes[x]] == codes[y] for x, y in enumerate(images))
