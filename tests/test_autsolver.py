"""Correlation-group search, brute-force agreement, and verdict reporting."""

import importlib.util
import itertools
import json
import math
import pathlib
import random
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomrep
from geomrep import (
    CosetGeometrySpec,
    IncidenceSystem,
    autsearch,
    PermGroup,
    Permutation,
    complete_graph_geometry,
    correlation_group,
    coset_geometry,
    correlation_type_action,
    cube_geometry,
    dihedral_geometry,
    find_isomorphism,
    gq22,
    hemidodecahedron_petrie,
    make_field,
    pgl_cross_ratio_geometry,
    projective_space,
    tetrahedron_spec,
    type_preserving_group,
    verify_representation,
)
from reference import brute_force_automorphisms


def relabel(sys: IncidenceSystem, perm: list[int]) -> IncidenceSystem:
    """Copy of sys with element x renamed perm[x]."""
    inverse = [0] * len(perm)
    for x, y in enumerate(perm):
        inverse[y] = x
    return IncidenceSystem(
        types=sys.types,
        type_codes=[int(sys.type_codes[inverse[y]]) for y in range(sys.size)],
        pairs=[[perm[a], perm[b]] for a, b in sys.pairs.tolist()],
    )


@st.composite
def random_systems(draw, max_size=8):
    """Systems of up to max_size elements, with no empty type fiber."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(rank, max_size))
    codes = list(range(rank)) + draw(
        st.lists(st.integers(0, rank - 1), min_size=n - rank, max_size=n - rank)
    )
    cross = [
        (a, b) for a in range(n) for b in range(a + 1, n) if codes[a] != codes[b]
    ]
    pairs = draw(st.lists(st.sampled_from(cross), max_size=16)) if cross else []
    return IncidenceSystem([f"t{i}" for i in range(rank)], codes, pairs)


def with_twins(sys: IncidenceSystem, copies: dict[int, int]) -> IncidenceSystem:
    """Copy of sys where element x gains copies[x] twins: same type, same neighbours."""
    codes = sys.type_codes.tolist()
    adj = [set(sys.neighbors(x)) for x in range(sys.size)]
    for x, k in sorted(copies.items()):
        for _ in range(k):
            z = len(codes)
            codes.append(codes[x])
            adj.append(set(adj[x]))
            for y in adj[x]:
                adj[y].add(z)
    pairs = [(a, b) for a, around in enumerate(adj) for b in around if a < b]
    return IncidenceSystem(sys.types, codes, pairs)


@st.composite
def twinned_systems(draw):
    """Random systems in which up to three elements get one or two same-type twins."""
    sys = draw(random_systems(max_size=7))
    chosen = draw(
        st.lists(st.integers(0, sys.size - 1), min_size=1, max_size=3, unique=True)
    )
    return with_twins(sys, {x: draw(st.integers(1, 2)) for x in chosen})


def counting_refine(adj, p, queue, ref=None):
    """Refinement by neighbour counts for every splitter, singletons included.

    The engine's refinement before singleton splitters had their own branch,
    kept as the reference whose traces, partitions and early exits the
    engine's ``_refine`` must match.  Like the engine, it stops once the
    partition is discrete.
    """
    count = [0] * len(adj)
    lab, cellof, size = p.lab, p.cellof, p.size
    cells = len(lab) - size.count(0)
    queued = set(queue) if cells < len(lab) else set()
    trace = []
    while queued:
        s = min(queued)
        queued.remove(s)
        touched = []
        for w in lab[s : s + size[s]]:
            for u in adj[w]:
                if not count[u]:
                    touched.append(u)
                count[u] += 1
        by_cell = {}
        for u in touched:
            by_cell.setdefault(cellof[u], []).append(u)
        for c in sorted(by_cell):
            k = size[c]
            groups = {}
            for u in by_cell[c]:
                groups.setdefault(count[u], []).append(u)
            if len(by_cell[c]) < k:
                groups[0] = [x for x in lab[c : c + k] if not count[x]]
            keys = sorted(groups)
            event = (s, c, tuple((n, len(groups[n])) for n in keys))
            if ref is not None and (len(trace) == len(ref) or ref[len(trace)] != event):
                return None
            trace.append(event)
            if len(keys) == 1:
                continue
            pos = c
            frags = []
            for n in keys:
                part = groups[n]
                lab[pos : pos + len(part)] = part
                size[pos] = len(part)
                if pos != c:
                    for u in part:
                        cellof[u] = pos
                frags.append(pos)
                pos += len(part)
            cells += len(frags) - 1
            if cells == len(lab):
                queued.clear()
                break
            if c not in queued:
                frags.remove(max(frags, key=lambda f: (size[f], -f)))
            queued.update(frags)
        for u in touched:
            count[u] = 0
    if ref is not None and len(trace) != len(ref):
        return None
    return trace


def partition(cells) -> autsearch._Partition:
    """The ordered partition with the given cells, in order."""
    n = sum(map(len, cells))
    lab, cellof, size = [], [0] * n, [0] * n
    for cell in cells:
        size[len(lab)] = len(cell)
        for v in cell:
            cellof[v] = len(lab)
        lab += cell
    return autsearch._Partition(lab, cellof, size)


@st.composite
def graphs_and_partitions(draw):
    """A graph on up to 12 vertices with adjacency lists in random order, an
    ordered partition of its vertices and a queue of cell starts."""
    n = draw(st.integers(1, 12))
    edges = draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
    )
    adj = [[] for _ in range(n)]
    for a, b in edges:
        if a < b:
            adj[a].append(b)
            adj[b].append(a)
    adj = [draw(st.permutations(around)) for around in adj]
    colors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    cells = [[v for v in order if colors[v] == c] for c in range(4)]
    cells = [cell for cell in cells if cell]
    starts = list(itertools.accumulate([0] + [len(cell) for cell in cells[:-1]]))
    queue = draw(st.lists(st.sampled_from(starts), min_size=1, unique=True))
    return adj, cells, queue


def unquotiented_group(sys: IncidenceSystem) -> autsearch.AutResult:
    """correlation_group searched on sys itself, twins and all: the search
    before twins were merged, kept as the reference for the quotient."""
    n, r = sys.size, sys.rank
    engine = autsearch._augmented_engine(sys)
    gens, aut_order, k, aut_i_order = engine.automorphisms()
    type_action = PermGroup(r, [Permutation([t - n for t in g[n : n + r]]) for g in gens])
    return autsearch.AutResult(
        correlation_gens=tuple(Permutation(g[:n]) for g in gens),
        aut_order=aut_order,
        type_preserving_gens=tuple(Permutation(g[:n]) for g in gens[:k]),
        aut_i_order=aut_i_order,
        type_action=type_action,
        out_order=type_action.order(),
        types=sys.types,
        search_nodes=engine.nodes,
    )


def reference_twin_classes(sys: IncidenceSystem) -> list[list[int]]:
    """Classes of two or more elements with equal type and neighbour set."""
    classes: dict[tuple, list[int]] = {}
    for x in range(sys.size):
        classes.setdefault((int(sys.type_codes[x]), sys.neighbors(x)), []).append(x)
    return sorted(c for c in classes.values() if len(c) > 1)


def result_fields(res: autsearch.AutResult) -> tuple:
    """Every field of res, the type action by its generators."""
    return (
        res.correlation_gens,
        res.aut_order,
        res.type_preserving_gens,
        res.aut_i_order,
        tuple(res.type_action.generators),
        res.out_order,
        res.types,
        res.search_nodes,
        res.twin_classes,
    )


def sympy_order(degree: int, gens) -> int:
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(g.to_list()) for g in gens]
        or [combinatorics.Permutation(list(range(degree)))]
    ).order()


def s4_spec() -> CosetGeometrySpec:
    """S4 with a Klein four-group, a 4-cycle and a transposition: cosets with twins."""
    s4 = PermGroup(4, [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])])
    return CosetGeometrySpec(
        s4,
        (
            PermGroup(4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])]),
            PermGroup(4, [Permutation([1, 2, 3, 0])]),
            PermGroup(4, [Permutation([1, 0, 2, 3])]),
        ),
    )


def switched(sys: IncidenceSystem, rng: random.Random, rounds: int) -> IncidenceSystem:
    """Copy with pairs (a, b), (c, d) of matching types rewired to (a, d), (c, b).

    Keeps every element's type and degree, so the copy has the same profile
    and may or may not be isomorphic to sys.
    """
    codes = sys.type_codes.tolist()
    pairs = {tuple(p) for p in sys.pairs.tolist()}
    for _ in range(rounds):
        if len(pairs) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(pairs), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if (
            codes[a] == codes[c]
            and codes[b] == codes[d]
            and len(new) == 2
            and not new & pairs
            and all(x != y for x, y in new)
        ):
            pairs -= {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
            pairs |= new
    return IncidenceSystem(sys.types, codes, sorted(pairs))


def typed_graph(sys: IncidenceSystem) -> nx.Graph:
    """Incidence graph plus one node per type joined to its fiber."""
    g = nx.Graph()
    g.add_nodes_from(range(sys.size), kind="element")
    g.add_nodes_from((("type", t) for t in range(sys.rank)), kind="type")
    g.add_edges_from(map(tuple, sys.pairs.tolist()))
    g.add_edges_from((x, ("type", c)) for x, c in enumerate(sys.type_codes.tolist()))
    return g


def is_isomorphism(a: IncidenceSystem, b: IncidenceSystem, mapping: list[int]) -> bool:
    if sorted(mapping) != list(range(b.size)):
        return False
    image_pairs = {
        (min(mapping[x], mapping[y]), max(mapping[x], mapping[y]))
        for x, y in a.pairs.tolist()
    }
    type_map = {(int(a.type_codes[x]), int(b.type_codes[mapping[x]])) for x in range(a.size)}
    return (
        image_pairs == {tuple(p) for p in b.pairs.tolist()}
        and len(type_map) == len({s for s, _ in type_map}) == len({t for _, t in type_map})
    )


def subspace_system(d: int, p: int, k: int) -> IncidenceSystem:
    """All proper subspaces of PG(d, p^k), typed by dimension, incident by containment."""
    space = projective_space(make_field(p, k), d)
    point_sets = [[frozenset(space.points_in(s)) for s in layer] for layer in space.layers]
    offsets = list(itertools.accumulate([0] + [len(layer) for layer in point_sets]))
    codes = [m for m, layer in enumerate(point_sets) for _ in layer]
    pairs = [
        (offsets[i] + x, offsets[j] + y)
        for i, j in itertools.combinations(range(d), 2)
        for x, small in enumerate(point_sets[i])
        for y, big in enumerate(point_sets[j])
        if small <= big
    ]
    return IncidenceSystem([str(m) for m in range(d)], codes, pairs)


class TestSearchAgainstBruteForce:
    @pytest.mark.parametrize(
        "sys",
        [
            dihedral_geometry(3),
            dihedral_geometry(4),
            dihedral_geometry(6),
            dihedral_geometry(8),
            complete_graph_geometry(3),
            complete_graph_geometry(4),
            IncidenceSystem(["a", "b"], [0, 1, 0, 1], [[0, 1], [2, 3]]),
        ],
    )
    def test_orders_and_elements_match(self, sys):
        res = correlation_group(sys)
        brute = brute_force_automorphisms(sys)
        assert res.aut_order == len(brute)
        group = PermGroup(sys.size, list(res.correlation_gens))
        assert {tuple(g.to_list()) for g in group.enumerate_elements()} == {
            tuple(g.to_list()) for g in brute
        }
        type_preserving = sum(
            1
            for g in brute
            if correlation_type_action(sys, g) == list(range(sys.rank))
        )
        assert res.aut_i_order == type_preserving

    @given(random_systems())
    @settings(max_examples=60, deadline=None)
    def test_random_systems(self, sys):
        res = correlation_group(sys)
        brute = brute_force_automorphisms(sys)
        # the generators lie in the group of all correlations, and the group
        # they generate has its order: so the two element sets are equal
        assert set(res.correlation_gens) <= set(brute)
        assert res.aut_order == len(brute)
        codes = sys.type_codes.tolist()
        kernel = [g for g in brute if all(codes[g(x)] == c for x, c in enumerate(codes))]
        assert res.aut_i_order == len(kernel) == type_preserving_group(sys).order()

    def test_direct_kernel_search_agrees(self):
        for sys in (dihedral_geometry(5), gq22(), complete_graph_geometry(4)):
            res = correlation_group(sys)
            assert type_preserving_group(sys).order() == res.aut_i_order


class TestOrdersAgainstSympy:
    """Orders read off the search tree against sympy's Schreier-Sims."""

    @staticmethod
    def check(sys: IncidenceSystem) -> None:
        res = correlation_group(sys)
        assert res.aut_order == sympy_order(sys.size, res.correlation_gens)
        # Aut_I comes from the same search as Aut: its generators must be
        # correlations fixing every type, generate a group of the order read
        # off the tree, and agree with the independent type-colored search
        for g in res.type_preserving_gens:
            assert correlation_type_action(sys, g) == list(range(sys.rank))
        assert res.aut_i_order == sympy_order(sys.size, res.type_preserving_gens)
        assert res.aut_i_order == type_preserving_group(sys).order()

    @given(twinned_systems())
    @settings(max_examples=60, deadline=None)
    def test_random_systems_with_twins(self, sys):
        self.check(sys)

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_planes(self, p, k):
        self.check(subspace_system(2, p, k))

    @pytest.mark.parametrize(
        "sys",
        [dihedral_geometry(n) for n in (3, 4, 5, 6, 8)]
        + [complete_graph_geometry(n) for n in (3, 4, 5)]
        + [gq22(), cube_geometry(), cube_geometry(vertex_adjacency=False)]
        + [hemidodecahedron_petrie()],
    )
    def test_bundled_families(self, sys):
        self.check(sys)

    @pytest.mark.parametrize("seed", range(4))
    def test_relabelled_coset_systems_with_twins(self, seed):
        rng = random.Random(seed)
        spec = [tetrahedron_spec(), s4_spec()][seed % 2]
        sys = coset_geometry(spec).system
        sys = with_twins(sys, {x: rng.randint(1, 2) for x in rng.sample(range(sys.size), 2)})
        perm = list(range(sys.size))
        rng.shuffle(perm)
        self.check(relabel(sys, perm))

    def test_no_chain_of_element_degree(self, monkeypatch):
        degrees = []
        init = PermGroup.__init__

        def spy(self, degree, *args, **kwargs):
            degrees.append(degree)
            init(self, degree, *args, **kwargs)

        monkeypatch.setattr(PermGroup, "__init__", spy)
        for sys in (subspace_system(2, 3, 1), gq22(), dihedral_geometry(5), cube_geometry()):
            degrees.clear()
            correlation_group(sys)
            # only the action on types is built as a group
            assert degrees == [sys.rank]


class TestKnownOrders:
    @pytest.mark.parametrize(
        "n,aut,aut_i",
        [(3, 12, 6), (4, 8, 4), (5, 20, 10), (6, 12, 6), (7, 42, 14), (8, 32, 8)],
    )
    def test_polygon_systems(self, n, aut, aut_i):
        res = correlation_group(dihedral_geometry(n))
        assert (res.aut_order, res.aut_i_order) == (aut, aut_i)
        assert res.out_order == aut // aut_i

    @pytest.mark.parametrize(
        "n,aut,aut_i", [(3, 12, 6), (4, 24, 24), (5, 120, 120)]
    )
    def test_complete_graph_systems(self, n, aut, aut_i):
        res = correlation_group(complete_graph_geometry(n))
        assert (res.aut_order, res.aut_i_order) == (aut, aut_i)

    def test_gq22_orders(self):
        res = correlation_group(gq22())
        assert (res.aut_order, res.aut_i_order, res.out_order) == (1440, 720, 2)

    @pytest.mark.parametrize("vertex_adjacency", [True, False])
    def test_cube_orders(self, vertex_adjacency):
        sys = cube_geometry(vertex_adjacency=vertex_adjacency)
        res = correlation_group(sys)
        assert (res.aut_order, res.aut_i_order, res.out_order) == (48, 24, 2)
        kernel = PermGroup(sys.size, list(res.type_preserving_gens))
        vertex_orbits = [
            orbit for orbit in kernel.orbits() if int(sys.type_codes[orbit[0]]) < 2
        ]
        assert sorted(len(o) for o in vertex_orbits) == [4, 4]

    def test_kernel_is_normal(self):
        sys = dihedral_geometry(5)
        res = correlation_group(sys)
        kernel = PermGroup(sys.size, list(res.type_preserving_gens))
        for g in res.correlation_gens:
            for h in res.type_preserving_gens:
                assert kernel.contains(g.inverse() * h * g)

    def test_json_dict(self):
        res = correlation_group(dihedral_geometry(5))
        data = res.to_json_dict()
        assert data["aut_order"] == "20"
        assert data["aut_i_order"] == "10"
        assert data["out_order"] == "2"
        labels = {tuple(g) for g in data["type_action_gens"]}
        swap = (res.types[0], res.types[2], res.types[1])
        assert swap in labels


class TestTypeAction:
    def test_identity_is_type_preserving(self):
        sys = dihedral_geometry(5)
        assert correlation_type_action(sys, Permutation.identity(sys.size)) == [
            0,
            1,
            2,
        ]

    def test_generators_are_correlations(self):
        sys = dihedral_geometry(5)
        res = correlation_group(sys)
        actions = set()
        for g in res.correlation_gens:
            tact = correlation_type_action(sys, g)
            assert tact is not None
            actions.add(tuple(tact))
        assert actions <= {(0, 1, 2), (0, 2, 1)}

    def test_pair_breaking_permutation_rejected(self):
        sys = dihedral_geometry(5)
        # swapping two non-equivalent vertices alone breaks incidences
        images = list(range(sys.size))
        images[0], images[2] = 2, 0
        assert correlation_type_action(sys, Permutation(images)) is None

    def test_wrong_degree_rejected(self):
        sys = dihedral_geometry(5)
        assert correlation_type_action(sys, Permutation.identity(3)) is None

    def test_type_mixing_rejected(self):
        sys = IncidenceSystem(["a", "b"], [0, 0, 1, 1], [])
        assert correlation_type_action(sys, Permutation([0, 2, 1, 3])) is None

    def test_empty_type_maps_to_minus_one(self):
        sys = IncidenceSystem(["a", "b", "c"], [0, 0, 1, 1], [])
        assert correlation_type_action(sys, Permutation.identity(4)) == [0, 1, -1]
        assert correlation_type_action(sys, Permutation([2, 3, 0, 1])) == [1, 0, -1]
        # a bijection that splits a fibre induces no type map
        assert correlation_type_action(sys, Permutation([0, 2, 1, 3])) is None
        assert correlation_type_action(sys, Permutation([2, 0, 1, 3])) is None


class TestIsomorphism:
    def test_identity_isomorphism(self):
        sys = dihedral_geometry(5)
        mapping = find_isomorphism(sys, sys)
        assert mapping is not None
        assert correlation_type_action(sys, Permutation(mapping)) is not None

    def test_relabeled_copy(self):
        sys = gq22()
        perm = [(7 * x + 3) % sys.size for x in range(sys.size)]
        other = relabel(sys, perm)
        mapping = find_isomorphism(sys, other)
        assert mapping is not None
        neighbors = {
            (a, b) for a, b in sys.pairs.tolist()
        } | {(b, a) for a, b in sys.pairs.tolist()}
        for a, b in neighbors:
            assert (
                min(mapping[a], mapping[b]),
                max(mapping[a], mapping[b]),
            ) in {tuple(p) for p in other.pairs.tolist()}

    def test_deep_search_tree(self):
        # 1200 interchangeable elements: the first path is 1200 levels deep
        sys = IncidenceSystem(["a", "b"], [0] * 1200 + [1], [])
        other = relabel(sys, list(range(sys.size))[::-1])
        mapping = find_isomorphism(sys, other)
        assert mapping is not None and is_isomorphism(sys, other, mapping)

    def test_size_mismatch(self):
        assert find_isomorphism(dihedral_geometry(3), dihedral_geometry(4)) is None

    def test_non_isomorphic_same_profile(self):
        # eight-cycle vs two four-cycles: same fibers, degrees, and pair count
        cycle8 = IncidenceSystem(
            ["a", "b"],
            [0, 1, 0, 1, 0, 1, 0, 1],
            [[i, (i + 1) % 8] for i in range(8)],
        )
        two_cycles = IncidenceSystem(
            ["a", "b"],
            [0, 1, 0, 1, 0, 1, 0, 1],
            [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]],
        )
        assert find_isomorphism(cycle8, two_cycles) is None
        assert find_isomorphism(cycle8, cycle8) is not None


class TestIsomorphismAgainstVF2:
    @given(random_systems(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_relabelled_copy(self, sys, rng):
        perm = list(range(sys.size))
        rng.shuffle(perm)
        other = relabel(sys, perm)
        mapping = find_isomorphism(sys, other)
        assert mapping is not None and is_isomorphism(sys, other, mapping)

    @given(random_systems(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_same_profile_pairs(self, sys, rng):
        other = switched(sys, rng, rounds=4)
        expected = nx.is_isomorphic(
            typed_graph(sys),
            typed_graph(other),
            node_match=lambda x, y: x["kind"] == y["kind"],
        )
        mapping = find_isomorphism(sys, other)
        assert (mapping is not None) == expected
        if mapping is not None:
            assert is_isomorphism(sys, other, mapping)

    @pytest.mark.parametrize("seed", range(6))
    def test_switched_planes(self, seed):
        rng = random.Random(seed)
        plane = subspace_system(2, 2, 1)
        other = switched(plane, rng, rounds=3)
        perm = list(range(plane.size))
        rng.shuffle(perm)
        copy = relabel(plane, perm)
        assert find_isomorphism(plane, copy) is not None
        same = nx.is_isomorphic(typed_graph(plane), typed_graph(other))
        assert (find_isomorphism(plane, other) is not None) == same


class TestClosedFormOrders:
    # |PΓL(d+1, q)| times 2 for the duality
    @pytest.mark.parametrize(
        "d,p,k,aut",
        [(2, 7, 1, 11_261_376), (2, 2, 3, 98_896_896), (3, 3, 1, 24_261_120)],
    )
    def test_projective_spaces(self, d, p, k, aut):
        res = correlation_group(subspace_system(d, p, k))
        assert (res.aut_order, res.aut_i_order, res.out_order) == (aut, aut // 2, 2)


class TestSearchNodes:
    def test_plane_search_is_small_and_repeatable(self):
        plane = pgl_cross_ratio_geometry(3, make_field(5, 1)).system
        for seed in range(3):
            perm = list(range(plane.size))
            random.Random(seed).shuffle(perm)
            copy = relabel(plane, perm)
            first, second = correlation_group(copy), correlation_group(copy)
            assert first.aut_order == 744_000
            assert 0 < first.search_nodes <= 100
            assert second.search_nodes == first.search_nodes
            assert second.correlation_gens == first.correlation_gens

    def test_search_nodes_count_one_search(self, monkeypatch):
        sys = gq22()
        engine = autsearch._augmented_engine(sys)
        engine.automorphisms()
        built = []
        init = autsearch._Engine.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(autsearch._Engine, "__init__", spy)
        assert correlation_group(sys).search_nodes == engine.nodes
        assert len(built) == 1

    @pytest.mark.parametrize(
        "make,bound",
        [
            (lambda: pgl_cross_ratio_geometry(3, make_field(2, 2)).truncation, 40),
            (gq22, 20),
        ],
        ids=["pg24-truncation", "gq22"],
    )
    def test_search_cost(self, make, bound):
        assert 0 < correlation_group(make()).search_nodes <= bound

    @pytest.mark.parametrize(
        "sys",
        [gq22(), cube_geometry(), hemidodecahedron_petrie(), subspace_system(3, 2, 1)],
        ids=["gq22", "cube", "hemidodecahedron", "pg3-2"],
    )
    def test_type_levels_come_first(self, sys):
        engine = autsearch._augmented_engine(sys)
        r = sys.rank
        type_levels = [t < r for _, t, _ in engine.path]
        # the levels that split the type nodes are a prefix of the first path
        assert type_levels == sorted(type_levels, reverse=True)
        nodes = [node for node, _, _ in engine.path] + [engine.leaf]
        node = nodes[type_levels.count(True)]
        # below them every type node is a singleton, so fixed
        assert all(node.size[i] == 1 for i in range(r))
        assert sorted(node.lab[:r]) == list(range(sys.size, sys.size + r))

    def test_equal_traces_give_correlations(self, monkeypatch):
        # the adjacency check at a leaf whose trace equals the first leaf's
        # is a safety net: the full trace should already imply the map works
        rejected = []
        leaf_map = autsearch._Engine._leaf_map

        def spy(self, *args):
            image = leaf_map(self, *args)
            if image is None:
                rejected.append(args)
            return image

        monkeypatch.setattr(autsearch._Engine, "_leaf_map", spy)
        systems = [subspace_system(2, p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1))]
        systems += [dihedral_geometry(8), complete_graph_geometry(5), gq22(), cube_geometry()]
        for seed, sys in enumerate(systems):
            perm = list(range(sys.size))
            random.Random(seed).shuffle(perm)
            copy = relabel(sys, perm)
            correlation_group(copy)
            type_preserving_group(copy)
            assert find_isomorphism(sys, copy) is not None
        assert rejected == []

    def test_search_nodes_not_reported(self):
        res = correlation_group(dihedral_geometry(5))
        assert res.search_nodes > 0
        assert "search_nodes" not in res.to_json_dict()
        twinned = correlation_group(with_twins(dihedral_geometry(5), {0: 1}))
        assert twinned.twin_classes == 1
        assert "twin_classes" not in twinned.to_json_dict()
        assert "search_nodes" not in verify_representation(
            dihedral_geometry(5), 10, 20, result=res
        ).to_json_dict()


def bench_solver_systems() -> dict[str, IncidenceSystem]:
    """The systems of scripts/bench_solver.py, by row name."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_solver.py"
    spec = importlib.util.spec_from_file_location("bench_solver", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.systems(geomrep))


# scripts/bench_solver.py rows: search_nodes, twin_classes, |Aut|, |Aut_I|
BENCH_ROWS = {
    "pg2-q2": (16, 0, 336, 168),
    "pg2-q3": (24, 0, 11232, 5616),
    "pg2-q4": (33, 0, 241920, 120960),
    "pg2-q5": (24, 0, 744000, 372000),
    "dihedral-3": (10, 0, 12, 6),
    "dihedral-4": (7, 0, 8, 4),
    "dihedral-5": (10, 0, 20, 10),
    "dihedral-6": (7, 0, 12, 6),
    "dihedral-7": (28, 0, 42, 14),
    "dihedral-8": (12, 0, 32, 8),
    "dihedral-10": (11, 0, 40, 10),
    "dihedral-12": (12, 0, 48, 12),
    "complete-3": (10, 0, 12, 6),
    "complete-4": (7, 0, 24, 24),
    "complete-5": (12, 0, 120, 120),
    "gq22": (18, 0, 1440, 720),
    "cube": (12, 0, 48, 24),
    "cube-faces": (12, 0, 48, 24),
    "hemidodecahedron": (11, 0, 120, 60),
    "pg2-q3-twins": (8, 3, 3456, 3456),
    "pg2-q5-twins": (21, 3, 23040, 23040),
    "s4-coset-twins": (3, 3, 48, 48),
}


class TestSingletonRefinement:
    """The singleton-splitter branch of _refine against counting_refine."""

    @given(graphs_and_partitions(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs_and_partitions(self, case, data):
        adj, cells, queue = case
        engine = autsearch._Engine(adj, cells)
        p, q = partition(cells), partition(cells)
        trace = engine._refine(p, queue)
        assert trace == counting_refine(adj, q, queue)
        assert (p.lab, p.cellof, p.size) == (q.lab, q.cellof, q.size)
        refs = [trace, trace + [(0, 0, ())]]
        if trace:
            j = data.draw(st.integers(0, len(trace) - 1))
            s, c, _ = trace[j]
            refs += [trace[:-1], trace[:j] + [(s, c, ((0, 99),))] + trace[j + 1 :]]
        for ref in refs:
            p, q = partition(cells), partition(cells)
            got = engine._refine(p, queue, ref)
            assert got == counting_refine(adj, q, queue, ref)
            assert (got is None) == (ref is not trace)
            # a refinement that leaves ref stops at the same event
            assert (p.lab, p.cellof, p.size) == (q.lab, q.cellof, q.size)

    @pytest.mark.parametrize(
        "sys",
        [subspace_system(2, p, k) for p, k in ((2, 1), (3, 1), (2, 2))]
        + [dihedral_geometry(n) for n in (5, 7, 8)]
        + [complete_graph_geometry(5), gq22(), cube_geometry(), hemidodecahedron_petrie()]
        + [with_twins(coset_geometry(s4_spec()).system, {0: 2, 9: 1})],
    )
    def test_searches_match(self, sys, monkeypatch):
        def reference(engine, p, queue, ref=None):
            engine.nodes += 1
            return counting_refine(engine.adj, p, queue, ref)

        def run(refine):
            calls = []

            def spy(engine, p, queue, ref=None):
                out = refine(engine, p, queue, ref)
                calls.append((out, p.lab[:], p.cellof[:], p.size[:]))
                return out

            perm = list(range(sys.size))
            random.Random(sys.size).shuffle(perm)
            with monkeypatch.context() as m:
                m.setattr(autsearch._Engine, "_refine", spy)
                res = correlation_group(sys)
                kernel = type_preserving_group(sys).generators
                mapping = find_isomorphism(sys, relabel(sys, perm))
            return calls, result_fields(res), kernel, mapping

        new, old = run(autsearch._Engine._refine), run(reference)
        assert new[0] == old[0]
        assert new[1:] == old[1:]

    def test_bench_rows_keep_their_searches(self):
        rows = {
            name: correlation_group(sys) for name, sys in bench_solver_systems().items()
        }
        got = {
            name: (r.search_nodes, r.twin_classes, r.aut_order, r.aut_i_order)
            for name, r in rows.items()
        }
        assert got == BENCH_ROWS
        assert sum(r[0] for r in BENCH_ROWS.values() if not r[1]) == 276

    def test_committed_bench_table_has_these_searches(self):
        # BENCH_solver.json, as scripts/bench_solver.py last wrote it, holds
        # the same counters: a change in search order fails here and above,
        # not only on wall time
        path = pathlib.Path(__file__).resolve().parents[1] / "BENCH_solver.json"
        rows = json.loads(path.read_text())["rows"]
        got = {
            r["system"]: (r["search_nodes"], r["twin_classes"], r["aut_order"], r["aut_i_order"])
            for r in rows
        }
        assert got == BENCH_ROWS


class TestTwinQuotient:
    @given(twinned_systems())
    @settings(max_examples=60, deadline=None)
    def test_elements_match_brute_force(self, sys):
        res, ref = correlation_group(sys), unquotiented_group(sys)
        assert res.twin_classes >= 1
        assert (res.aut_order, res.aut_i_order, res.out_order) == (
            ref.aut_order,
            ref.aut_i_order,
            ref.out_order,
        )
        group = PermGroup(sys.size, list(res.correlation_gens))
        assert group.order() == res.aut_order
        if res.aut_order <= 5040:  # brute force lists every element
            brute = brute_force_automorphisms(sys)
            # the generators lie in the group of all correlations and
            # generate a group of its order: so the element sets are equal
            assert set(res.correlation_gens) <= set(brute)
            assert res.aut_order == len(brute)
        assert res.aut_i_order == type_preserving_group(sys).order()
        kernel = PermGroup(sys.size, list(res.type_preserving_gens))
        assert kernel.order() == res.aut_i_order
        for g in res.type_preserving_gens:
            assert correlation_type_action(sys, g) == list(range(sys.rank))

    @given(st.one_of(twinned_systems(), random_systems(max_size=12)))
    @settings(max_examples=150, deadline=None)
    def test_classes_are_exact(self, sys):
        assert autsearch._twin_classes(sys) == reference_twin_classes(sys)

    @given(twinned_systems())
    @settings(max_examples=60, deadline=None)
    def test_quotient_is_the_merged_system(self, sys):
        classes = autsearch._twin_classes(sys)
        quotient, sizes, lift = autsearch._twin_quotient(sys, classes)
        # the merged system built directly: each element renumbered to its
        # class's quotient id, the pairs de-duplicated by the constructor
        n = sys.size
        rep = np.arange(n)
        for members in classes:
            rep[members] = members[0]
        keep = rep == np.arange(n)
        qid = (np.cumsum(keep) - 1)[rep]
        assert quotient == IncidenceSystem(sys.types, sys.type_codes[keep], qid[sys.pairs])
        assert sizes == np.bincount(qid).tolist()
        assert sorted(len(c) for c in classes) == sorted(k for k in sizes if k > 1)
        # the identity lifts to the identity; a quotient correlation that
        # keeps class sizes lifts to a correlation mapping each class onto
        # its image class (test_lift_keeps_class_order checks the order)
        assert lift(list(range(quotient.size))) == Permutation.identity(n)
        for g in correlation_group(quotient).correlation_gens:
            if any(sizes[g(x)] != sizes[x] for x in range(quotient.size)):
                continue  # swaps classes of different sizes: no lift
            lifted = lift(g.to_list())
            assert correlation_type_action(sys, lifted) is not None
            for x in range(n):
                assert qid[lifted(x)] == g(int(qid[x]))

    @pytest.mark.parametrize(
        "sys",
        [subspace_system(2, p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1))]
        + [dihedral_geometry(n) for n in (3, 4, 5, 6, 7, 8)]
        + [complete_graph_geometry(n) for n in (3, 4, 5)]
        + [gq22(), cube_geometry(), cube_geometry(vertex_adjacency=False)]
        + [hemidodecahedron_petrie()],
    )
    def test_twin_free_systems_are_searched_as_they_are(self, sys):
        assert autsearch._twin_classes(sys) == []
        assert result_fields(correlation_group(sys)) == result_fields(unquotiented_group(sys))

    @pytest.mark.parametrize("seed", range(3))
    def test_orders_match_the_unquotiented_search(self, seed):
        rng = random.Random(seed)
        base = [subspace_system(2, 3, 1), coset_geometry(s4_spec()).system, gq22()][seed]
        sys = with_twins(base, {x: rng.randint(1, 3) for x in rng.sample(range(base.size), 3)})
        res, ref = correlation_group(sys), unquotiented_group(sys)
        assert res.twin_classes == 3
        assert (res.aut_order, res.aut_i_order, res.out_order) == (
            ref.aut_order,
            ref.aut_i_order,
            ref.out_order,
        )
        assert res.search_nodes < ref.search_nodes
        for g in res.correlation_gens:
            assert correlation_type_action(sys, g) is not None

    def test_class_of_three_gives_sym3(self):
        # one element of type b on three elements of type a: the a's are twins
        sys = IncidenceSystem(["a", "b"], [0, 1, 0, 0], [[0, 1], [1, 2], [1, 3]])
        res = correlation_group(sys)
        assert res.twin_classes == 1
        assert autsearch._twin_classes(sys) == [[0, 2, 3]]
        # the quotient is one a and one b, rigid: only the transposition and
        # the full cycle of the class remain
        assert [g.to_list() for g in res.correlation_gens] == [[2, 1, 0, 3], [2, 1, 3, 0]]
        assert res.type_preserving_gens == res.correlation_gens
        assert (res.aut_order, res.aut_i_order, res.out_order) == (6, 6, 1)
        group = PermGroup(sys.size, list(res.correlation_gens))
        assert {tuple(g.to_list()) for g in group.enumerate_elements()} == {
            (a, 1, b, c) for a, b, c in itertools.permutations([0, 2, 3])
        }

    def test_lift_keeps_class_order(self):
        sys = with_twins(cube_geometry(), {0: 1, 1: 2})
        classes = autsearch._twin_classes(sys)
        assert classes == [[0, 26], [1, 27, 28]]
        res = correlation_group(sys)
        # the lifted quotient generators come first, then one transposition
        # per class and one cycle per class of three or more
        lifted = res.correlation_gens[:-3]
        assert lifted
        for g in lifted:
            for members in classes:
                image = [g(x) for x in members]
                # the i-th member goes to the i-th member of its image class
                assert sorted(image) in classes and image == sorted(image)

    def test_no_twins_with_equal_types_but_other_neighbours(self):
        sys = IncidenceSystem(["a", "b"], [0, 0, 1, 1], [[0, 2], [1, 3]])
        assert autsearch._twin_classes(sys) == []
        assert correlation_group(sys).twin_classes == 0

    def test_isolated_twins_give_a_factorial(self):
        sys = IncidenceSystem(["a", "b"], [0] * 1200 + [1], [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = correlation_group(sys)
        assert res.twin_classes == 1
        assert res.aut_order == res.aut_i_order == math.factorial(1200)
        assert len(res.correlation_gens) == 2

    def test_q4_cross_ratio_orders(self, pgl34):
        # 210 classes of 12 ordered quadruples; the quotient has 252 elements,
        # below the warning size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = correlation_group(pgl34.system)
        twins = math.factorial(12) ** 210
        assert res.twin_classes == 210
        assert (res.aut_order, res.aut_i_order, res.out_order) == (
            241920 * twins,
            120960 * twins,
            2,
        )
        assert len(res.correlation_gens) == len(res.type_preserving_gens) + 1 == 429

    def test_warning_counts_the_searched_elements(self):
        n = 602
        cycle = IncidenceSystem(
            ["a", "b"], [i % 2 for i in range(n)], [[i, (i + 1) % n] for i in range(n)]
        )
        with pytest.warns(UserWarning, match=r"^correlation search on 602 elements may be slow$"):
            res = correlation_group(cycle)
        assert (res.aut_order, res.aut_i_order) == (1204, 602)


class TestVerification:
    def test_exact_match(self):
        report = verify_representation(dihedral_geometry(8), 8, 32)
        assert report.verdict == "representation"
        assert report.result.aut_order == 32
        assert report.aut_fingerprint is not None

    def test_weak_containment(self):
        # triangle system over-represents: expected orders divide computed ones
        report = verify_representation(complete_graph_geometry(3), 6, 6)
        assert report.verdict == "weak-or-mismatch"

    def test_incompatible(self):
        report = verify_representation(complete_graph_geometry(3), 5, 7)
        assert report.verdict == "fail"

    def test_fingerprint_center(self):
        report = verify_representation(gq22(), 720, 1440)
        assert report.verdict == "representation"
        assert report.aut_fingerprint is not None
        assert report.aut_fingerprint.center_order == 1

    def test_json_shape(self):
        report = verify_representation(dihedral_geometry(3), 6, 12, "triangle")
        data = report.to_json_dict()
        assert data["verdict"] == "representation"
        assert data["description"] == "triangle"
        assert data["expected_inn"] == "6"
        assert data["expected_aut"] == "12"


class TestBruteForceGuard:
    def test_element_bound(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            brute_force_automorphisms(gq22())

    def test_bound_override(self):
        with pytest.raises(ValueError, match="exceeds bound"):
            brute_force_automorphisms(dihedral_geometry(3), element_bound=5)

    def test_shares_no_neighbour_code_with_the_search(self, monkeypatch):
        def unused(*args):
            raise AssertionError("the oracle read a neighbour record of the library")

        monkeypatch.setattr(geomrep.autsearch, "_element_adjacency", unused)
        monkeypatch.setattr(IncidenceSystem, "_neighbour_index", unused)
        monkeypatch.setattr(IncidenceSystem, "_bit_rows", unused)
        assert len(brute_force_automorphisms(dihedral_geometry(5))) == 20


class TestEmptyTypeFiber:
    def test_correlation_group_names_the_empty_type(self):
        sys = IncidenceSystem(["a", "b"], [0, 0], [])
        assert ("empty type fiber", (1,)) in sys.validate().violations
        assert sys.empty_types() == [1]
        with pytest.raises(ValueError, match="empty type fiber: no element has type 'b'"):
            correlation_group(sys)

    def test_every_empty_type_is_named(self):
        sys = IncidenceSystem(["a", "b", "c"], [1, 1], [])
        with pytest.raises(ValueError, match="no element has type 'a', 'c'$"):
            correlation_group(sys)
