"""Flag, residue, truncation, and serialization behavior of incidence systems."""

import itertools
import json
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomrep import (
    IncidenceSystem,
    Permutation,
    complete_graph_geometry,
    correlation_type_action,
    dihedral_geometry,
    gq22,
    validate_data,
)
from geomrep.incidence import _JSON_BLOCK, PREDICATES
from reference import brute_force_automorphisms, incidence_graph


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


@st.composite
def pair_sets(draw):
    """Types, codes and a set of pairs as canonical rows: a < b, sorted, distinct."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    codes = draw(st.lists(st.integers(0, rank - 1), min_size=n, max_size=n))
    every = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = draw(st.sets(st.sampled_from(every)))
    return [f"t{i}" for i in range(rank)], codes, sorted(pairs)


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


def scan_is_firm(sys: IncidenceSystem) -> bool:
    """Firmness by counting, for each flag with an extension, the chambers over it."""
    chambers = [frozenset(c) for c in sys.chambers()]
    for flag, ext, _ in sys._flags_with_extensions():
        if ext and sum(1 for c in chambers if frozenset(flag) <= c) < 2:
            return False
    return True


def pair_neighbours(sys: IncidenceSystem) -> list[set[int]]:
    """Each element's neighbours, read from the pairs alone."""
    out = [set() for _ in range(sys.size)]
    for a, b in sys.pairs.tolist():
        out[a].add(b)
        out[b].add(a)
    return out


def brute_walk(sys: IncidenceSystem):
    """The flags, ascending, the chambers, the extension set of each flag, and
    the values of PREDICATES by their definitions, all from the pairs alone."""
    nbrs = pair_neighbours(sys)
    codes = sys.type_codes.tolist()
    full = set(range(sys.rank))
    flags = sorted(
        combo
        for r in range(sys.size + 1)
        for combo in itertools.combinations(range(sys.size), r)
        if all(b in nbrs[a] for a, b in itertools.combinations(combo, 2))
    )
    ext = {f: {x for x in range(sys.size) if all(x in nbrs[y] for y in f)} for f in flags}
    types = {f: {codes[x] for x in f} for f in flags}
    chambers = [f for f in flags if types[f] == full]

    def connected(nodes: set[int]) -> bool:
        if not nodes:
            return True
        seen, todo = set(), [min(nodes)]
        while todo:
            x = todo.pop()
            if x not in seen:
                seen.add(x)
                todo += nbrs[x] & nodes
        return seen == nodes

    values = {
        "geometry": all(types[f] == full for f in flags if not ext[f]),
        "firm": all(
            sum(set(f) <= set(c) for c in chambers) >= 2 for f in flags if ext[f]
        ),
        "rc": all(
            connected({x for x in ext[f] if codes[x] not in types[f]})
            for f in flags
            if sys.rank - len(types[f]) >= 2
        ),
    }
    return flags, chambers, ext, values


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

    @pytest.mark.parametrize(
        "codes,pairs,message",
        [
            ([0.9, 1, 1], [], "type codes must be integers"),
            ([True, 1, 1], [], "type codes must be integers"),
            (np.array([0.0, 1.0, 1.0]), [], "type codes must be integers"),
            (np.array([False, True, True]), [], "type codes must be integers"),
            ([0, 1, 1], [[0.7, 1.2], [True, 2]], "pairs of element ids"),
            ([0, 1, 1], [[0, 1], [True, 2]], "pairs of element ids"),
            ([0, 1, 1], np.array([[0.0, 1.0]]), "pairs of element ids"),
            ([0, 1, 1], np.array([[False, True]]), "pairs of element ids"),
        ],
        ids=[
            "float-codes", "bool-code", "float-code-array", "bool-code-array",
            "float-and-bool-ids", "bool-id", "float-id-array", "bool-id-array",
        ],
    )
    def test_rejects_ids_that_are_not_integers(self, codes, pairs, message):
        with pytest.raises(ValueError, match=message):
            IncidenceSystem(["a", "b"], codes, pairs)

    def test_accepts_numpy_integer_ids(self):
        codes = [np.int64(0), np.int32(1)]
        sys = IncidenceSystem(["a", "b"], codes, [[np.uint8(1), np.int64(0)]])
        assert sys.type_codes.tolist() == [0, 1]
        assert sys.pairs.tolist() == [[0, 1]]

    @pytest.mark.parametrize("x", [-1, -6, 6, 7])
    def test_neighbors_rejects_ids_outside_the_system(self, x):
        # -1 is not the last element
        with pytest.raises(ValueError, match="no element"):
            dihedral_geometry(3).neighbors(x)

    @pytest.mark.parametrize(
        "x", [True, False, np.bool_(True), 1.0, np.float64(1.0), "1", None],
        ids=["true", "false", "np-true", "float", "np-float", "str", "none"],
    )
    def test_neighbors_rejects_ids_that_are_not_integers(self, x):
        sys = IncidenceSystem(["a", "b"], [0, 1], [[0, 1]])
        with pytest.raises(ValueError, match="element ids are integers"):
            sys.neighbors(x)

    def test_neighbors_accepts_numpy_integer_ids(self):
        sys = IncidenceSystem(["a", "b"], [0, 1], [[0, 1]])
        assert sys.neighbors(np.int64(1)) == sys.neighbors(1) == {0}
        assert sys.neighbors(np.uint8(0)) == {1}

    @pytest.mark.parametrize(
        "ids",
        [[0.9, 5.5], ["3"], [True], [0, np.float64(5.0)], np.array([0.0, 5.0]), [None]],
        ids=["floats", "str", "true", "np-float", "float-array", "none"],
    )
    def test_flag_queries_reject_ids_that_are_not_integers(self, ids):
        # nothing is rounded: 0.9 is not element 0
        sys = dihedral_geometry(5)
        with pytest.raises(ValueError, match="element ids are integers"):
            sys.is_flag(ids)
        with pytest.raises(ValueError, match="element ids are integers"):
            sys.residue(ids)

    @pytest.mark.parametrize("ids", [[-1], [15], [0, 15], [2**63], [2**70], [0, 2**70]])
    def test_flag_queries_on_ids_outside_the_system(self, ids):
        sys = dihedral_geometry(5)
        assert not sys.is_flag(ids)
        with pytest.raises(ValueError, match="not a flag"):
            sys.residue(ids)

    def test_flag_queries_accept_numpy_integer_ids(self):
        sys = dihedral_geometry(5)
        flag = [np.int64(0), np.uint8(5)]
        assert sys.is_flag(flag) and sys.is_flag(np.array([0, 5], dtype=np.int32))
        assert sys.residue(flag) == sys.residue([0, 5])

    @pytest.mark.parametrize(
        "size,source_ids",
        [
            (1, [0.7]),
            (1, [True]),
            (1, np.array([0.0])),
            (1, np.array([True])),
            (1, [True, 5]),
            (1, [3, 5]),
            (2, [3]),
            (1, []),
            (1, [[3]]),
        ],
        ids=[
            "float", "bool", "float-array", "bool-array", "bool-and-extra",
            "one-too-many", "one-too-few", "none-for-one", "nested",
        ],
    )
    def test_rejects_source_ids_that_are_not_one_integer_per_element(
        self, size, source_ids
    ):
        with pytest.raises(ValueError, match="source ids must be one integer per element"):
            IncidenceSystem(["a"], [0] * size, [], source_ids=source_ids)

    def test_source_ids_are_python_ints(self):
        for source_ids in ([7, np.int64(9)], np.array([7, 9], dtype=np.uint16)):
            sys = IncidenceSystem(["a"], [0, 0], [], source_ids=source_ids)
            assert sys.source_ids == (7, 9)
            assert all(type(x) is int for x in sys.source_ids)
        assert IncidenceSystem([], [], [], source_ids=[]).source_ids == ()

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

    @given(raw_data())
    @settings(max_examples=100, deadline=None)
    def test_firmness_matches_flag_by_chamber_scan(self, data):
        sys = IncidenceSystem(*data)
        assert sys.is_firm() == scan_is_firm(sys)

    def test_firmness_stops_at_a_failing_flag(self, pgl34):
        # the q = 4 cross-ratio system has 2562 elements and 1.6 million
        # incidences; a tally over every sub-flag of every chamber peaks at
        # hundreds of MB before it finds it is not firm
        sys = pgl34.system
        sys._bit_rows()
        tracemalloc.start()
        try:
            assert not sys.is_firm()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_bit_rows_of_q4_retain_under_2_mb(self, pgl34):
        # a copy with no rows yet; the rows are 2562 ints of 2562 bits
        sys = IncidenceSystem(pgl34.system.types, pgl34.system.type_codes, pgl34.system.pairs)
        tracemalloc.start()
        try:
            rows = sys._bit_rows()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == sys.size
        assert retained < 2 * 2**20
        # built a block of rows at a time, never as one n x n array
        assert peak < 8 * 2**20

    @given(small_systems())
    @settings(max_examples=40, deadline=None)
    def test_residual_connectivity_matches_brute_force(self, sys):
        expected = True
        for flag in brute_flags(sys):
            res = sys.residue(flag)
            if res.rank < 2:
                continue
            g = incidence_graph(res)
            if g.number_of_nodes() > 1 and not nx.is_connected(g):
                expected = False
        assert sys.is_residually_connected() == expected


class TestBitRowWalk:
    """Every reader of the bit rows against definitions on the pairs, on
    valid systems and on systems with same-type incidences or empty types."""

    @given(st.one_of(small_systems(), raw_data().map(lambda d: IncidenceSystem(*d))))
    @settings(max_examples=150, deadline=None)
    def test_walk_matches_brute_force(self, sys):
        flags, chambers, ext, values = brute_walk(sys)
        nbrs = pair_neighbours(sys)
        assert [sys.neighbors(x) for x in range(sys.size)] == nbrs
        assert list(sys.flags()) == flags
        assert sys.chambers() == chambers
        got = {
            "geometry": sys.is_geometry(),
            "firm": sys.is_firm(),
            "rc": sys.is_residually_connected(),
        }
        assert got == values
        codes = sys.type_codes.tolist()
        flagset = set(flags)
        for combo in itertools.chain.from_iterable(
            itertools.combinations(range(sys.size), r) for r in range(4)
        ):
            assert sys.is_flag(combo) == (combo in flagset)
        for f in flags:
            res = sys.residue(f)
            keep = sorted(x for x in ext[f] if codes[x] not in {codes[y] for y in f})
            assert list(res.source_ids) == keep
            want = [[i, j] for (i, a), (j, b) in itertools.combinations(enumerate(keep), 2)
                    if b in nbrs[a]]
            assert res.pairs.tolist() == want

    @given(
        raw_data().map(lambda d: IncidenceSystem(*d)),
        st.lists(st.sampled_from(PREDICATES), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_predicates_answer_what_is_named(self, sys, names):
        single = {
            "geometry": sys.is_geometry(),
            "firm": sys.is_firm(),
            "rc": sys.is_residually_connected(),
        }
        got = sys._predicates(names)
        assert list(got) == list(dict.fromkeys(names))
        assert got == {name: single[name] for name in names}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_predicates_on_every_order_of_every_subset(self, n):
        sys = dihedral_geometry(n)
        single = {name: sys._predicates([name])[name] for name in PREDICATES}
        for r in range(len(PREDICATES) + 1):
            for names in itertools.permutations(PREDICATES, r):
                for repeated in (names, names + names[:1]):
                    fresh = IncidenceSystem(sys.types, sys.type_codes, sys.pairs)
                    got = fresh._predicates(repeated)
                    assert list(got) == list(names)
                    assert got == {name: single[name] for name in names}

    def test_predicates_reject_unknown_names(self):
        with pytest.raises(ValueError, match="unknown predicate: validate"):
            gq22()._predicates(["rc", "validate"])


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
        g = incidence_graph(sys)
        assert g.number_of_nodes() == sys.size
        assert g.number_of_edges() == sys.pairs.shape[0]
        assert g.nodes[0]["type"] == sys.types[0]


def _parity_system(top):
    """Ids 0..top typed by parity, with pairs of one-digit and of top-width ids."""
    pairs = {(a, b) for a in (0, top - 1, top) for b in (1, top - 1, top) if (a + b) % 2}
    return IncidenceSystem(["even", "odd"], [i % 2 for i in range(top + 1)], sorted(pairs))


def reference_type_action(sys, images):
    """correlation_type_action by Python sets of unordered pairs."""
    codes = sys.type_codes.tolist()
    tmap = {}
    for x, y in enumerate(images):
        if tmap.setdefault(codes[x], codes[y]) != codes[y]:
            return None
    if len(set(tmap.values())) != len(tmap):
        return None
    pairs = {frozenset(p) for p in sys.pairs.tolist()}
    if {frozenset(images[x] for x in p) for p in pairs} != pairs:
        return None
    return [tmap.get(t, -1) for t in range(sys.rank)]


def _symmetric_system(rng):
    """A random system and a correlation of it that may permute the types.

    Every fiber has m elements, t * m + i for i < m; g sends t * m + i to
    sigma(t) * m + pi_t(i).  The pairs are random cross-type pairs and every
    pair of up to two type pairs (a type with itself among them), closed
    under g.
    """
    rank = int(rng.integers(1, 5))
    m = int(rng.integers(2, 12))
    sigma = rng.permutation(rank)
    images = np.concatenate([sigma[t] * m + rng.permutation(m) for t in range(rank)])
    g = Permutation(images)
    codes = np.repeat(np.arange(rank), m)
    seeds = []
    for _ in range(int(rng.integers(0, 3 * m))):
        a, b = rng.integers(0, rank * m, 2).tolist()
        if codes[a] != codes[b]:
            seeds.append((a, b))
    fibers = np.arange(rank * m).reshape(rank, m).tolist()
    for t, u in rng.integers(0, rank, (int(rng.integers(0, 3)), 2)).tolist():
        seeds += [(a, b) for a in fibers[t] for b in fibers[u] if a < b or t != u]
    pairs = set()
    for a, b in seeds:
        while (min(a, b), max(a, b)) not in pairs:
            pairs.add((min(a, b), max(a, b)))
            a, b = int(images[a]), int(images[b])
    return IncidenceSystem([f"t{i}" for i in range(rank)], codes, sorted(pairs)), g


def full_key_action(sys, g):
    """correlation_type_action by the sorted image keys of every pair of the system."""
    n, codes = sys.size, sys.type_codes
    if g.degree != n:
        return None
    tmap = np.full(sys.rank, -1, dtype=np.int64)
    tmap[codes] = codes[g.images]
    if not np.array_equal(tmap[codes], codes[g.images]):
        return None
    ends = g.images.astype(np.int64)[sys.pairs]
    keys = np.sort(ends.min(axis=1) * n + ends.max(axis=1))
    if not np.array_equal(keys, sys.pairs[:, 0].astype(np.int64) * n + sys.pairs[:, 1]):
        return None
    return tmap.tolist()


def plant_blocks(sys, blocks):
    """Copy of sys with every possible pair of each type pair (t, u) in blocks."""
    fibers = sys.fibers()
    extra = [
        (a, b) for t, u in blocks for a in fibers[t] for b in fibers[u] if a < b or t != u
    ]
    return IncidenceSystem(sys.types, sys.type_codes, sys.pairs.tolist() + extra)


def reference_blocks(sys):
    """The complete type pairs t <= u, and the other pairs, by Python sets."""
    codes, fibers = sys.type_codes.tolist(), sys.fibers()
    present = {frozenset(p) for p in sys.pairs.tolist()}
    complete = set()
    for t, u in itertools.combinations_with_replacement(range(sys.rank), 2):
        possible = {frozenset((a, b)) for a in fibers[t] for b in fibers[u] if a != b}
        if possible and possible <= present:
            complete.add((t, u))
    rest = {p for p in present if tuple(sorted(codes[x] for x in p)) not in complete}
    return complete, rest


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
        from_arrays = [
            IncidenceSystem(types, codes, np.asarray(pairs, dtype=dtype).reshape(-1, 2))
            for dtype in (np.int32, np.int64, np.uint16)
        ]
        want = sorted({(min(p), max(p)) for p in pairs})
        for sys in (from_list, from_gen, *from_arrays):
            assert [tuple(p) for p in sys.pairs.tolist()] == want
            assert sys.pairs.dtype == np.int32
            assert sys.pairs.shape == (len(want), 2)
            assert not sys.pairs.flags.writeable

    @pytest.mark.parametrize("n", [46_340, 70_000])
    def test_int32_and_int64_ids_agree(self, n):
        # keys min*n + max fit int32 up to n = 46 340; for 70 000 ids the key
        # of the last two is over 2**32
        ids = [[n - 1, n - 2], [0, n - 1], [n - 2, 1]]
        got = [
            IncidenceSystem(["a", "b"], [0, 1] * (n // 2), np.array(ids, dtype=dtype))
            for dtype in (np.int32, np.int64)
        ]
        assert got[0].pairs.tolist() == got[1].pairs.tolist() == [
            [0, n - 1],
            [1, n - 2],
            [n - 2, n - 1],
        ]

    @given(pair_sets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_canonical_and_other_forms_agree(self, pair_set, data):
        # canonical rows are adopted as they are, the others sorted first: the
        # system is the same either way
        types, codes, canonical = pair_set
        shuffled = data.draw(st.permutations(canonical))
        flipped = [(b, a) for a, b in shuffled]
        repeats = data.draw(st.lists(st.sampled_from(canonical), max_size=4)) if canonical else []
        forms = [canonical, shuffled, flipped, sorted(canonical + repeats), shuffled + repeats]
        want = [list(p) for p in canonical]
        for form in forms:
            for dtype in (np.int32, np.int64):
                given_pairs = np.asarray(form, dtype=dtype).reshape(-1, 2)
                sys = IncidenceSystem(types, codes, given_pairs)
                assert sys.pairs.tolist() == want
                assert sys.pairs.dtype == np.int32
                assert not sys.pairs.flags.writeable
                assert sys == IncidenceSystem(types, codes, form)
                # the system owns its rows: the caller may change theirs
                assert not np.shares_memory(sys.pairs, given_pairs)
                assert given_pairs.flags.writeable
                given_pairs[:] = given_pairs[::-1]
                given_pairs += 1
                assert sys.pairs.tolist() == want

    @pytest.mark.parametrize("pairs", [[], [[0, 1]], [[1, 0]], [[0, 1], [0, 1]]])
    @pytest.mark.parametrize("as_array", [None, np.int64, np.int32])
    def test_zero_and_one_pair(self, pairs, as_array):
        if as_array is not None:
            pairs = np.asarray(pairs, dtype=as_array).reshape(-1, 2)
        sys = IncidenceSystem(["a", "b"], [0, 1, 0], pairs)
        assert sys.pairs.tolist() == ([[0, 1]] if len(pairs) else [])
        assert sys.pairs.dtype == np.int32 and sys.pairs.shape[1] == 2
        assert not sys.pairs.flags.writeable
        if as_array is not None:
            assert pairs.flags.writeable

    def test_caller_array_is_not_frozen(self):
        pairs = np.array([[1, 0]], dtype=np.int32)
        IncidenceSystem(["a", "b"], [0, 1], pairs)
        assert pairs.flags.writeable
        assert pairs.tolist() == [[1, 0]]

    @pytest.mark.parametrize("as_array", [None, np.int64, np.int32])
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
        if as_array is not None:
            pairs = np.asarray(pairs, dtype=as_array).reshape(-1, 2)
        with pytest.raises(ValueError) as err:
            IncidenceSystem(types, codes, pairs)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "codes,pairs,message",
        [
            ([0, 1], [[0, 2**70]], "incidence references unknown element id"),
            ([0, 1], [[-(2**70), 1]], "incidence references unknown element id"),
            ([0, 1], [[0, 2**64], [1, -1]], "incidence references unknown element id"),
            ([0, 2**70], [], "type code out of range"),
            # within int64 but not int32, where the codes are kept
            ([0, 2**32], [], "type code out of range"),
        ],
        ids=["id-2**70", "id--2**70", "ids-2**64-and-negative", "code-2**70", "code-2**32"],
    )
    def test_wide_integers_are_out_of_range(self, codes, pairs, message):
        with pytest.raises(ValueError) as err:
            IncidenceSystem(["a", "b"], codes, pairs)
        assert str(err.value) == message

    def test_validate_data_reports_ids_beyond_int64_as_dangling(self):
        report = validate_data(["a", "b"], ["a", "b"], [[0, 1], [0, 2**70], [-(2**70), 1]])
        assert report.violations == (("dangling id", (-(2**70), 1)), ("dangling id", (0, 2**70)))

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
        # and so does the constructor, as a list or as an array
        with pytest.raises(ValueError, match="incidences must be pairs"):
            IncidenceSystem(["a", "b"], [0, 1], [[0, 1], row])
        with pytest.raises(ValueError, match="incidences must be pairs"):
            IncidenceSystem(["a", "b"], [0, 1], np.array([[0, 1], row], dtype=object))

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
            IncidenceSystem(["a", "b"], [0, 1], [[0, 1]]),
            # ids of one to four digits in each column of one block
            IncidenceSystem(
                ["even", "odd"],
                [i % 2 for i in range(1001)],
                [[0, 1], [0, 999], [9, 10], [99, 100], [100, 999], [1, 1000]],
            ),
            # more pairs than one formatting block of to_json
            IncidenceSystem(
                ["a", "b"],
                [0] * 300 + [1] * 300,
                [[a, b] for a in range(300) for b in range(300, 600)],
            ),
            *[_parity_system(top) for top in (9, 10, 99, 100, 999, 1000, 9999, 10000)],
            # exactly one block, and one pair more
            *[
                IncidenceSystem(
                    ["a", "b"],
                    [0] * 257 + [1] * 256,
                    [[a, 257 + b] for a in range(257) for b in range(256)][:k],
                )
                for k in (_JSON_BLOCK, _JSON_BLOCK + 1)
            ],
        ],
        ids=["empty", "no-incidence", "one-pair", "mixed-widths", "two-blocks"]
        + [f"ids-to-{top}" for top in (9, 10, 99, 100, 999, 1000, 9999, 10000)]
        + ["one-block", "one-block-and-a-pair"],
    )
    def test_to_json_matches_json_dumps_edge_cases(self, sys):
        text = sys.to_json()
        assert text == json.dumps(sys.to_json_dict(), indent=2) + "\n"
        assert IncidenceSystem.from_json(text) == sys

    @given(small_systems(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_correlation_type_action_matches_brute_force(self, sys, data):
        assume(sys.size <= 6)
        # complete type pairs planted, a type with itself among them
        block = st.tuples(st.integers(0, sys.rank - 1), st.integers(0, sys.rank - 1))
        sys = plant_blocks(sys, data.draw(st.lists(block, max_size=2)))
        correlations = {
            tuple(g.to_list()) for g in brute_force_automorphisms(sys)
        }
        codes = sys.type_codes.tolist()
        for images in itertools.permutations(range(sys.size)):
            tmap = correlation_type_action(sys, Permutation(images))
            assert (tmap is not None) == (images in correlations)
            if tmap is not None:
                assert all(tmap[codes[x]] == codes[y] for x, y in enumerate(images))

    def test_correlation_type_action_matches_pair_sets(self):
        rng = np.random.default_rng(41)
        outcomes = []
        for _ in range(300):
            sys, g = _symmetric_system(rng)
            cases = [(sys, g.to_list())]
            # one pair of images swapped inside a fiber
            images = g.to_list()
            x, y = rng.choice(sys.size, 2, replace=False).tolist()
            if sys.type_codes[x] == sys.type_codes[y]:
                images[x], images[y] = images[y], images[x]
                cases.append((sys, images))
            # one pair of the system dropped
            if sys.pairs.shape[0]:
                fewer = IncidenceSystem(sys.types, sys.type_codes, sys.pairs[1:])
                cases.append((fewer, g.to_list()))
            cases.append((sys, rng.permutation(sys.size).tolist()))
            for system, images in cases:
                want = reference_type_action(system, images)
                assert full_key_action(system, Permutation(images)) == want
                assert correlation_type_action(system, Permutation(images)) == want
                outcomes.append(want is not None)
        # g itself is always accepted; the perturbed maps mostly are not
        assert 300 < sum(outcomes) < len(outcomes) - 300

    def test_correlation_type_action_on_int64_keys(self):
        # n = 70000 > 46340, so n * n >= 2**31 and the keys need int64: the
        # swap sends the pair (0, 20000), key 20000, to (61356, 67296), key
        # 2**32 + 20000, which an int32 key would wrap to 20000
        n = 70_000
        assert 61356 * n + 67296 == 2**32 + 20000
        codes = [0] * n
        codes[20000] = codes[67296] = 1
        sys = IncidenceSystem(["a", "b"], codes, [[0, 20000]])
        swap = list(range(n))
        swap[0], swap[61356], swap[20000], swap[67296] = 61356, 0, 67296, 20000
        for images in (swap, list(range(n))):
            want = reference_type_action(sys, images)
            assert correlation_type_action(sys, Permutation(images)) == want
        assert correlation_type_action(sys, Permutation(swap)) is None
        # a correlation with keys above 2**31: (3, 67296) and (4, 67296) swap
        both = IncidenceSystem(["a", "b"], codes, [[3, 67296], [4, 67296]])
        images = list(range(n))
        images[3], images[4] = 4, 3
        assert correlation_type_action(both, Permutation(images)) == [0, 1]
        keys = both._complete_blocks()[2]
        assert keys.dtype == np.int64
        assert keys.tolist() == [3 * n + 67296, 4 * n + 67296]


class TestCompleteBlocks:
    """The record of complete type pairs, and the correlation check that reads it."""

    def test_cross_type_block(self):
        base = IncidenceSystem(["a", "b", "c"], [0, 0, 1, 1, 1, 2], [[0, 5]])
        sys = plant_blocks(base, [(1, 0)])
        complete, rest, keys = sys._complete_blocks()
        assert complete.tolist() == [[False, True, False], [True, False, False], [False] * 3]
        assert rest.tolist() == [[0, 5]]
        assert sys._complete_blocks()[1] is rest

    def test_same_type_block(self):
        # type a: all three of its pairs; type b: one of its three
        pairs = [[0, 1], [0, 2], [1, 2], [3, 4], [0, 3]]
        sys = IncidenceSystem(["a", "b"], [0, 0, 0, 1, 1, 1], pairs)
        complete, rest, keys = sys._complete_blocks()
        assert complete.tolist() == [[True, False], [False, False]]
        assert rest.tolist() == [[0, 3], [3, 4]]

    def test_no_complete_block_keeps_pairs(self):
        sys = gq22()
        complete, rest, keys = sys._complete_blocks()
        assert not complete.any()
        assert rest is sys.pairs
        assert not complete.flags.writeable and not rest.flags.writeable
        assert not keys.flags.writeable

    def test_empty_and_singleton_types(self):
        # a singleton type has no possible pair with itself, an empty type none at all
        sys = IncidenceSystem(["a", "b", "c"], [0, 2], [[0, 1]])
        complete, rest, keys = sys._complete_blocks()
        assert complete.tolist() == [[False, False, True], [False] * 3, [True, False, False]]
        assert rest.shape == (0, 2)
        assert correlation_type_action(sys, Permutation.identity(2)) == [0, -1, 2]
        assert correlation_type_action(sys, Permutation([1, 0])) == [2, -1, 0]

    def test_rank_one(self):
        full = IncidenceSystem(["a"], [0, 0, 0], [[0, 1], [0, 2], [1, 2]])
        partial = IncidenceSystem(["a"], [0, 0, 0], [[0, 1], [1, 2]])
        assert full._complete_blocks()[0].tolist() == [[True]]
        assert partial._complete_blocks()[1] is partial.pairs
        for sys in (full, partial):
            for images in itertools.permutations(range(3)):
                want = reference_type_action(sys, images)
                assert correlation_type_action(sys, Permutation(images)) == want
        assert correlation_type_action(full, Permutation([2, 0, 1])) == [0]
        empty = IncidenceSystem([], [], [])
        assert empty._complete_blocks()[0].shape == (0, 0)
        assert correlation_type_action(empty, Permutation.identity(0)) == []

    def test_degree_mismatch(self):
        sys = plant_blocks(IncidenceSystem(["a", "b"], [0, 0, 1], []), [(0, 1)])
        assert correlation_type_action(sys, Permutation.identity(3)) == [0, 1]
        for degree in (2, 4):
            assert correlation_type_action(sys, Permutation.identity(degree)) is None

    def test_complete_block_onto_an_incomplete_block_of_its_size(self):
        # four types of two elements each, a-b complete; g swaps a with c and b with d
        codes = [0, 0, 1, 1, 2, 2, 3, 3]
        g = Permutation([4, 5, 6, 7, 0, 1, 2, 3])
        # c-d with none of its 4 pairs, then with 3 of them
        for cd in ([], [[4, 6], [4, 7], [5, 6]]):
            sys = plant_blocks(IncidenceSystem(list("abcd"), codes, cd), [(0, 1)])
            assert full_key_action(sys, g) is None
            assert correlation_type_action(sys, g) is None
        # with a-d and c-b pairs that g swaps, only the flags reject g: it maps
        # the other pairs onto themselves
        sys = plant_blocks(IncidenceSystem(list("abcd"), codes, [[0, 6], [2, 4]]), [(0, 1)])
        rest = sys._complete_blocks()[1]
        assert sorted(map(sorted, g.images[rest].tolist())) == rest.tolist()
        assert full_key_action(sys, g) is None
        assert correlation_type_action(sys, g) is None
        # once c-d is complete too, g is a correlation
        both = plant_blocks(sys, [(2, 3)])
        assert correlation_type_action(both, g) == full_key_action(both, g) == [2, 3, 0, 1]

    @given(raw_data(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_record_matches_pair_sets(self, raw, data):
        types, codes, pairs = raw
        block = st.tuples(st.integers(0, len(types) - 1), st.integers(0, len(types) - 1))
        sys = plant_blocks(IncidenceSystem(types, codes, pairs), data.draw(st.lists(block, max_size=3)))
        complete, rest, keys = sys._complete_blocks()
        want_complete, want_rest = reference_blocks(sys)
        assert {(t, u) for t, u in np.argwhere(complete).tolist() if t <= u} == want_complete
        assert np.array_equal(complete, complete.T)
        assert {frozenset(p) for p in rest.tolist()} == want_rest
        assert rest.tolist() == sorted(rest.tolist())
        assert (rest is sys.pairs) == (not want_complete)
        assert keys.dtype == np.int32
        assert keys.tolist() == [a * sys.size + b for a, b in rest.tolist()]

    def test_q4_record(self, pgl34, pgl34_pipeline):
        sys = pgl34.system
        complete, rest, keys = sys._complete_blocks()
        assert sys.types == ("0", "1", "Q(w)", "Q(w+1)")
        assert np.argwhere(complete).tolist() == [[2, 3], [3, 2]]
        assert rest.shape == (12705, 2)
        assert sys.pairs.shape[0] - rest.shape[0] == 1260 * 1260
        for g in pgl34_pipeline.result.correlation_gens[:3]:
            assert correlation_type_action(sys, g) == full_key_action(sys, g)
            assert correlation_type_action(sys, g) is not None
