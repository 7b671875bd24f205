"""Reduced words, folded subgroup graphs, intersections, and rose-cover actions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomrep import (
    FreeAutomorphism,
    bounded_ft_check,
    concat,
    format_word,
    graph_basis,
    intersection,
    k_group,
    membership,
    parse_word,
    product_membership,
    rc_check_exact,
    reduce_word,
    rose_cover_generators,
    stallings_graph,
    subgroup_action,
    word_inverse,
)
from geomrep.freegroup import (
    _canonical,
    _folded,
    _product_column,
    _product_words_bulk,
    _trimmed,
    all_reduced_words,
)

letters = st.integers(-2, 2).filter(bool)
raw_words = st.lists(letters, max_size=12)
generator_lists = st.lists(
    st.lists(st.integers(-3, 3).filter(bool), max_size=8).map(reduce_word),
    min_size=1,
    max_size=5,
)
signed_arcs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(-3, 3).filter(bool), st.integers(0, 7)),
    max_size=16,
)


@pytest.fixture(scope="module")
def rose2():
    gens, parabolics = rose_cover_generators(2)
    return gens, parabolics, [stallings_graph(p, 2) for p in parabolics]


class TestWords:
    def test_reduce_examples(self):
        assert reduce_word([1, -1]) == ()
        assert reduce_word([1, 2, -2, -1, 1]) == (1,)
        assert reduce_word([2, 1, 1, -1]) == (2, 1)

    def test_reduce_rejects_zero(self):
        with pytest.raises(ValueError, match="letter 0"):
            reduce_word([1, 0])

    @given(raw_words)
    @settings(max_examples=100, deadline=None)
    def test_inverse_cancels(self, w):
        assert reduce_word(list(w) + list(word_inverse(w))) == ()

    @given(raw_words, raw_words)
    @settings(max_examples=100, deadline=None)
    def test_reduction_is_congruent(self, u, v):
        assert concat(u, reduce_word(v)) == concat(u, v)

    def test_reduction_congruence_bulk(self):
        rng = random.Random(0)
        for _ in range(10_000):
            u = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randrange(9))]
            v = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randrange(9))]
            assert concat(reduce_word(u), v) == concat(u, v)

    def test_parse_format_round_trip(self):
        assert parse_word("x1 x2^-1") == (1, -2)
        assert parse_word("1") == ()
        assert format_word(()) == "1"
        for w in all_reduced_words(2, 3):
            assert parse_word(format_word(w)) == w

    def test_parse_rejects_garbage(self):
        assert parse_word("") == ()  # empty string is the identity
        for bad in ("abc", "x0", "x1^2"):
            with pytest.raises(ValueError, match="bad word token"):
                parse_word(bad)

    def test_all_reduced_words_counts(self):
        words = all_reduced_words(2, 6)
        assert len(words) == 1457  # 1 + sum of 4 * 3^(l-1)
        assert len(set(words)) == len(words)
        for w in words:
            assert reduce_word(w) == w


class TestStallingsGraphs:
    def test_rose_cover_shape(self, rose2):
        gens, _, _ = rose2
        graph = stallings_graph(gens)
        assert graph.size == 5
        assert len(graph.arcs) == 8
        assert graph.rank() == 4

    def test_power_generators_fold_to_full_line(self):
        assert stallings_graph([(1, 1), (1, 1, 1)]) == stallings_graph([(1,)])

    def test_alphabet_distinguishes_ambient_rank(self):
        assert stallings_graph([(1,)], 2) != stallings_graph([(1,)], 1)

    def test_letters_beyond_alphabet_rejected(self):
        with pytest.raises(ValueError, match=r"letter x2 is beyond the alphabet x1..x1"):
            stallings_graph([(2, 1, -2)], 1)
        with pytest.raises(ValueError, match="beyond the alphabet"):
            stallings_graph([(1,), (3,)], 2)
        # a word that reduces away uses no letter
        assert stallings_graph([(2, -2)], 1) == stallings_graph([], 1)

    def test_automorphism_images_beyond_rank_rejected(self):
        with pytest.raises(ValueError, match="beyond the alphabet"):
            FreeAutomorphism(1, ((2,),))

    def test_normal_form_ignores_presentation(self):
        rng = random.Random(1)
        pool = all_reduced_words(2, 4)[1:]
        for _ in range(40):
            gens = rng.sample(pool, rng.randrange(1, 4))
            graph = stallings_graph(gens, 2)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            inverted = [word_inverse(w) for w in shuffled]
            assert stallings_graph(inverted, 2) == graph
            if len(gens) >= 2:
                redundant = [*gens, concat(gens[0], gens[1])]
                assert stallings_graph(redundant, 2) == graph
            assert graph.rank() <= len(gens)

    def test_membership_basics(self, rose2):
        gens, _, graphs = rose2
        graph = graphs[0]
        assert membership((), graph)
        for w in gens[1:]:
            assert membership(w, graph)
            assert membership(word_inverse(w), graph)
        assert not membership((1,), graph)

    def test_membership_matches_generator_adjunction(self):
        # w lies in H iff adding w as a generator leaves the graph unchanged
        h_gens = [(1, 1), (2, 1)]
        graph = stallings_graph(h_gens, 2)
        for w in all_reduced_words(2, 4):
            expected = stallings_graph([*h_gens, w], 2) == graph
            assert membership(w, graph) == expected

    def test_basis_generates_graph(self, rose2):
        _, _, graphs = rose2
        basis = graph_basis(graphs[0])
        assert len(basis) == 3
        assert stallings_graph(basis, 2) == graphs[0]


class TestIntersections:
    def test_parabolic_chain(self, rose2):
        _, _, graphs = rose2
        pair = intersection(graphs[0], graphs[1])
        assert pair.rank() == 2
        assert [format_word(w) for w in graph_basis(pair)] == [
            "x1 x2 x1^-1",
            "x1^-1 x2 x1",
        ]
        triple = intersection(pair, graphs[2])
        assert triple.rank() == 1
        assert [format_word(w) for w in graph_basis(triple)] == ["x1^-1 x2 x1"]
        assert intersection(triple, graphs[3]).rank() == 0

    def test_symmetry_and_idempotence(self, rose2):
        _, _, graphs = rose2
        assert intersection(graphs[0], graphs[1]) == intersection(
            graphs[1], graphs[0]
        )
        assert intersection(graphs[0], graphs[0]) == graphs[0]

    def test_whole_group_is_neutral(self, rose2):
        _, _, graphs = rose2
        rose = stallings_graph([(1,), (2,)], 2)
        assert intersection(graphs[0], rose) == graphs[0]

    def test_matches_pairwise_membership(self, rose2):
        _, _, graphs = rose2
        both = intersection(graphs[0], graphs[1])
        for w in all_reduced_words(2, 5):
            expected = membership(w, graphs[0]) and membership(w, graphs[1])
            assert membership(w, both) == expected


    @pytest.mark.parametrize("pair", [(0, 10), (2, 6), (4, 8), (5, 9)])
    def test_rank_three_parabolic_pairs(self, pair):
        # these pairs once hung or lost common generators in the trim step
        gens, parabolics = rose_cover_generators(3)
        h, k = (stallings_graph(parabolics[i], 3) for i in pair)
        common = [w for i, w in enumerate(gens) if i not in pair]
        assert intersection(h, k) == stallings_graph(common, 3)


arc_sets = st.sets(
    st.tuples(st.integers(0, 7), st.integers(1, 9), st.integers(0, 7)), max_size=14
)


class TestTrim:
    @given(arc_sets, st.sets(st.integers(0, 7), max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_trim_keeps_exactly_the_core(self, arcs, protected):
        kept = _trimmed(set(protected), set(arcs))
        assert kept <= arcs
        degree: dict[int, int] = {}
        for u, _, v in kept:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        # every unprotected vertex left has degree >= 2 ...
        assert all(d >= 2 for x, d in degree.items() if x not in protected)
        # ... and no arc between two such vertices (or protected ones) is dropped
        for u, _, v in arcs - kept:
            assert u not in degree or v not in degree

    def test_letter_equal_to_a_leaf_id(self):
        # a cycle 0-1-2-0 plus a leaf 3 hanging off 0, on letters 1..3
        arcs = {(0, 3, 1), (1, 1, 2), (2, 2, 0), (0, 1, 3)}
        assert _trimmed({0}, arcs) == {(0, 3, 1), (1, 1, 2), (2, 2, 0)}


def _is_folded(arcs) -> bool:
    """No vertex has two arcs with the same letter in the same direction."""
    arcs = list(arcs)
    heads = {(u, letter) for u, letter, _ in arcs}
    tails = {(v, letter) for _, letter, v in arcs}
    return len(heads) == len(tails) == len(arcs)


def _base_component(base, arcs) -> set:
    """The arcs of the connected component that holds the basepoint."""
    reached, frontier = {base}, [base]
    while frontier:
        x = frontier.pop()
        for u, _, v in arcs:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    return {arc for arc in arcs if arc[0] in reached}


class TestFold:
    @given(generator_lists, st.data())
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_reordering_and_nielsen_moves(self, gens, data):
        graph = stallings_graph(gens, 3)
        assert stallings_graph(data.draw(st.permutations(gens)), 3) == graph
        if len(gens) >= 2:
            i, j = data.draw(st.permutations(range(len(gens))))[:2]
            moved = list(gens)
            moved[i] = concat(gens[i], gens[j])
            assert stallings_graph(moved, 3) == graph

    @given(generator_lists)
    @settings(max_examples=200, deadline=None)
    def test_result_is_folded_and_accepts_generators(self, gens):
        graph = stallings_graph(gens, 3)
        assert _is_folded(graph.arcs)
        assert all(letter > 0 for _, letter, _ in graph.arcs)
        for w in gens:
            assert membership(w, graph)
            assert membership(word_inverse(w), graph)

    @given(signed_arcs, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_fold_of_any_arc_list_is_confluent(self, arcs, rng):
        base, folded = _folded(0, arcs)
        assert _is_folded(folded)
        # the same arcs in another order, some written backwards, fold alike
        shuffled = [
            (v, -letter, u) if rng.random() < 0.5 else (u, letter, v)
            for u, letter, v in arcs
        ]
        rng.shuffle(shuffled)
        base2, folded2 = _folded(0, shuffled)
        assert _canonical(base, _base_component(base, folded), 3) == _canonical(
            base2, _base_component(base2, folded2), 3
        )


class TestProductMembership:
    @pytest.mark.parametrize(
        "h_gens, k_gens, counts",
        [
            ([(1, 1), (2,)], [(2, 2), (1,)], (171, 171, 473)),
            (*rose_cover_generators(2)[1][0:2], None),
            (*rose_cover_generators(2)[1][2:4], None),
        ],
        ids=["powers", "parabolics01", "parabolics23"],
    )
    def test_against_split_oracle(self, h_gens, k_gens, counts):
        # the three product pairs of acceptance criterion 9, against the
        # brute-force split search
        h = stallings_graph(h_gens, 2)
        k = stallings_graph(k_gens, 2)
        words = all_reduced_words(2, 6)
        in_h = [w for w in words if membership(w, h)]
        in_k = [w for w in words if membership(w, k)]
        products = {
            p
            for u in in_h
            for v in in_k
            if len(p := concat(u, v)) <= 6
        }
        if counts is not None:
            assert (len(in_h), len(in_k), len(products)) == counts
        assert _product_words_bulk(h, k, words) == [w in products for w in words]
        for w in words:
            assert product_membership(w, h, k) == (w in products)

    def test_constructive_products(self, rose2):
        _, _, graphs = rose2
        h, k = graphs[0], graphs[1]
        h_words = [concat(u, v) for u in graph_basis(h) for v in graph_basis(h)]
        k_words = [word_inverse(w) for w in graph_basis(k)]
        for u in h_words:
            for v in k_words:
                assert product_membership(concat(u, v), h, k)

    def test_not_closed_under_products(self, rose2):
        _, _, graphs = rose2
        # x1 lies in neither parabolic product H.K for H = K complements
        assert not product_membership((1,), graphs[0], graphs[1])


class TestAutomorphisms:
    def test_images_must_form_basis(self):
        with pytest.raises(ValueError, match="do not form a basis"):
            FreeAutomorphism(2, ((1,), (1,)))
        with pytest.raises(ValueError, match="do not form a basis"):
            FreeAutomorphism(2, ((1, 1), (2,)))

    def test_nielsen_transformation_is_valid(self):
        phi = FreeAutomorphism(2, ((1, 2), (2,)))
        assert phi.apply((1,)) == (1, 2)
        assert phi.apply((-1,)) == (-2, -1)

    def test_apply_rejects_foreign_letters(self):
        phi = FreeAutomorphism(2, ((-1,), (2,)))
        with pytest.raises(ValueError, match="beyond the rank"):
            phi.apply((3,))

    def test_k_group_guard(self):
        with pytest.raises(ValueError, match="n must be >= 2"):
            k_group(1)

    def test_k_group_images(self):
        invert, rotate, swap = k_group(2)
        assert invert.images == ((-1,), (2,))
        assert rotate.images == ((2,), (1,))
        assert swap.images == rotate.images  # rotation and swap agree at n = 2

    def test_known_applications(self):
        invert, _, swap = k_group(2)
        assert invert.apply((2, 1, -2)) == (2, -1, -2)
        assert swap.apply((2, 1, -2)) == (1, 2, -1)

    def test_involutions(self):
        invert, _, swap = k_group(2)
        for w in all_reduced_words(2, 4):
            assert invert.apply(invert.apply(w)) == w
            assert swap.apply(swap.apply(w)) == w


class TestSubgroupAction:
    def test_dihedral_action_on_parabolics(self, rose2):
        _, parabolics, _ = rose2
        action = subgroup_action(k_group(2), parabolics)
        assert action.order() == 8
        assert [g.to_list() for g in action.generators] == [
            [0, 1, 3, 2],
            [2, 3, 0, 1],
        ]
        fp = action.fingerprint()
        assert fp.order_histogram == ((1, 1), (2, 5), (4, 2))
        assert fp.center_order == 2

    def test_rank_three_action(self):
        gens, parabolics = rose_cover_generators(3)
        assert len(gens) == 12
        assert all(len(p) == 11 for p in parabolics)
        action = subgroup_action(k_group(3), parabolics)
        assert action.order() == 48  # 2^3 * 3!

    def test_duplicate_family_rejected(self, rose2):
        _, parabolics, _ = rose2
        doubled = [parabolics[0], list(reversed(parabolics[0]))]
        with pytest.raises(ValueError, match="are the same subgroup"):
            subgroup_action(k_group(2), doubled)

    def test_family_alphabet_grows_to_the_automorphism_rank(self):
        # the family uses only x1, but the rank-2 images leave <x1>
        conjugate = FreeAutomorphism(2, ((2, 1, -2), (2,)))
        with pytest.raises(ValueError, match=r"matches no family member \(witness word x2 x1 x2\^-1\)"):
            subgroup_action([conjugate], [[(1,)], []])
        invert = FreeAutomorphism(2, ((-1,), (2,)))
        action = subgroup_action([invert], [[(1,)], [(1, 1)]])
        assert action.order() == 1

    def test_unclosed_family_reports_witness(self, rose2):
        _, parabolics, _ = rose2
        with pytest.raises(ValueError, match=r"matches no family member \(witness"):
            subgroup_action(k_group(2), parabolics[:2])


class TestBoundedFt:
    def test_all_pairs_pass(self, rose2):
        _, parabolics, _ = rose2
        import itertools

        pairs = 0
        for r in range(4):
            for j_set in itertools.combinations(range(4), r):
                for i in range(4):
                    if i in j_set:
                        continue
                    report = bounded_ft_check(parabolics, j_set, i, 6)
                    assert report.ok, (j_set, i, report.counterexamples)
                    assert report.words_checked == 1457
                    pairs += 1
        assert pairs == 32

    def test_single_pair_deeper_bound(self, rose2):
        _, parabolics, _ = rose2
        report = bounded_ft_check(parabolics, (1, 2), 0, 8)
        assert report.ok
        assert report.j_set == (1, 2)

    def test_empty_j_is_vacuous(self, rose2):
        _, parabolics, _ = rose2
        report = bounded_ft_check(parabolics, (), 3, 4)
        assert report.ok
        assert report.counterexamples == ()

    def test_i_must_be_outside_j(self, rose2):
        _, parabolics, _ = rose2
        with pytest.raises(ValueError, match="outside J"):
            bounded_ft_check(parabolics, (0, 1), 1, 4)

    def test_length_bound_cap(self, rose2):
        _, parabolics, _ = rose2
        with pytest.raises(ValueError, match="<= 10"):
            bounded_ft_check(parabolics, (), 0, 11)

    def test_negative_length_bound_rejected(self, rose2):
        _, parabolics, _ = rose2
        with pytest.raises(ValueError, match=">= 0"):
            bounded_ft_check(parabolics, (), 0, -3)

    def test_failing_family_counterexamples_in_word_order(self):
        # G_0 and G_1 meet trivially, so G_J G_2 is <x1 x2> alone, while
        # x1^-1 = x2 (x1 x2)^-1 lies in both G_0 G_2 and G_1 G_2
        report = bounded_ft_check(FAILING_FAMILY, (0, 1), 2, 4)
        assert not report.ok
        assert report.words_checked == 161
        assert report.counterexamples == (
            "x1^-1",
            "x2",
            "x1^-1 x2^-1 x1^-1",
            "x2 x1 x2",
        )


FAILING_FAMILY = [[(1,)], [(2,)], [(1, 2)]]


def _ft_pairs(family, n):
    """The (J, i) pairs that `geomrep free rose --check ft` visits at rank n."""
    r = len(family)
    if n == 2:
        j_sets = [j for size in range(r) for j in itertools.combinations(range(r), size)]
    else:
        j_sets = [()] + [(j,) for j in range(r)]
    return [(j_set, i) for j_set in j_sets for i in range(r) if i not in j_set]


def _ft_oracle(family, length_bound):
    """(J, i) -> (ok, words checked, counterexamples) from per-word product
    membership, recomputing every product set for the pair at hand."""
    alphabet = max(abs(l) for gens in family for w in gens for l in w)
    graphs = [stallings_graph(gens, alphabet) for gens in family]
    whole = stallings_graph([w for gens in family for w in gens], alphabet)
    words = all_reduced_words(alphabet, length_bound)

    def check(j_set, i):
        g_j = whole
        for j in j_set:
            g_j = intersection(g_j, graphs[j])
        lhs = _product_words_bulk(g_j, graphs[i], words)
        rhs = [
            all(_product_words_bulk(graphs[j], graphs[i], [w])[0] for j in j_set)
            if j_set
            else a
            for w, a in zip(words, lhs)
        ]
        bad = tuple(format_word(w) for w, a, b in zip(words, lhs, rhs) if a != b)
        return not bad, len(words), bad

    return check


class TestFtColumns:
    """bounded_ft_check reads shared product-set columns; it must report what a
    per-word evaluation reports, whatever the columns already cached."""

    @pytest.mark.parametrize(
        "family,n,bounds",
        [
            (rose_cover_generators(2)[1], 2, (6,)),
            (rose_cover_generators(3)[1], 3, (3,)),
            (FAILING_FAMILY, 2, (0, 2, 4)),
        ],
        ids=["rose2", "rose3", "failing"],
    )
    def test_matches_oracle_cold_then_shuffled_warm(self, family, n, bounds):
        cases = [(j_set, i, b) for j_set, i in _ft_pairs(family, n) for b in bounds]
        oracles = {b: _ft_oracle(family, b) for b in bounds}
        want = {(j_set, i, b): oracles[b](j_set, i) for j_set, i, b in cases}
        _product_column.cache_clear()
        for order in (cases, random.Random(n).sample(cases, len(cases))):
            for case in order:
                report = bounded_ft_check(family, *case)
                got = (report.ok, report.words_checked, report.counterexamples)
                assert got == want[case], case

    @pytest.mark.parametrize(
        "n,bound,reads,columns", [(2, 6, 80, 32), (3, 3, 276, 144)]
    )
    def test_one_column_per_subgroup_pair(self, n, bound, reads, columns):
        family = rose_cover_generators(n)[1]
        _product_column.cache_clear()
        for j_set, i in _ft_pairs(family, n):
            bounded_ft_check(family, j_set, i, bound)
        info = _product_column.cache_info()
        assert info.hits + info.misses == reads
        assert info.misses == columns

    def test_column_is_read_only(self, rose2):
        _, _, graphs = rose2
        column = _product_column(graphs[0], graphs[1], 3)
        assert column.dtype == bool
        assert len(column) == len(all_reduced_words(2, 3))
        with pytest.raises(ValueError):
            column[0] = not column[0]


class TestRcExact:
    def test_rose_family_passes(self, rose2):
        _, parabolics, _ = rose2
        report = rc_check_exact(parabolics)
        assert report.ok
        assert report.checked == 11
        assert report.failures == ()

    def test_detects_failure(self):
        family = [[(2, 1, -2), (-2, 1, 2)], [(2, 1, -2)], [(1,)]]
        report = rc_check_exact(family)
        assert not report.ok
        assert report.checked == 4
        assert report.failures == ((0,), (2,))

    def test_rank_three_family_passes(self):
        report = rc_check_exact(rose_cover_generators(3)[1])
        assert report.ok
        assert report.checked == 4083
        assert report.failures == ()
