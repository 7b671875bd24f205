"""Acceptance gate: one timed test per published criterion."""

import itertools
import math
import random
import time

import networkx as nx
from conftest import fixture_time, record_acceptance

from geomrep import (
    CosetGeometrySpec,
    IncidenceSystem,
    PermGroup,
    Permutation,
    check_ft_condition,
    check_rc_condition,
    complete_graph_geometry,
    concat,
    correlation_group,
    correlation_type_action,
    coset_geometry,
    cube_geometry,
    dihedral_geometry,
    extend_truncation_correlation,
    frobenius_truncation_perm,
    gq22,
    hemidodecahedron_petrie,
    intersection,
    k_group,
    make_field,
    membership,
    pgl_cross_ratio_geometry,
    product_membership,
    rc_check_exact,
    bounded_ft_check,
    rose_cover_generators,
    stallings_graph,
    subgroup_action,
    tetrahedron_spec,
)
from geomrep.freegroup import all_reduced_words, graph_basis
from reference import brute_force_automorphisms, incidence_graph, is_transitive_on


def totient(n: int) -> int:
    return sum(1 for k in range(1, n) if math.gcd(k, n) == 1)


def type_ordered_flags(sys: IncidenceSystem, typeset: set[int]):
    return [
        tuple(sorted(f, key=lambda x: int(sys.type_codes[x])))
        for f in sys.flags()
        if {int(sys.type_codes[x]) for x in f} == typeset
    ]


def test_criterion_1_polygon_family_orders():
    failures = []
    worst = 0.0
    for n in (3, 4, 5, 6, 7, 8, 10, 12):
        started = time.perf_counter()
        res = correlation_group(dihedral_geometry(n))
        worst = max(worst, time.perf_counter() - started)
        if n == 3:
            ok = res.aut_order == 12 and res.aut_order == 2 * res.aut_i_order
        else:
            want_aut = n * totient(n)
            want_inn = 2 * n if n % 2 else n
            ok = (res.aut_order, res.aut_i_order) == (want_aut, want_inn)
        if not ok:
            failures.append((n, res.aut_order, res.aut_i_order))
    passed = not failures and worst < 5.0
    record_acceptance(
        "1 polygon family orders",
        passed,
        f"n in 3..12, slowest case {worst:.2f}s"
        + (f", failures {failures}" if failures else ""),
    )
    assert not failures
    assert worst < 5.0


def test_criterion_2_complete_graph_orders():
    failures = []
    worst = 0.0
    for n, want_aut in ((3, 12), (4, 24), (5, 120), (7, 5040)):
        started = time.perf_counter()
        res = correlation_group(complete_graph_geometry(n))
        worst = max(worst, time.perf_counter() - started)
        want_inn = math.factorial(n)
        if n == 3:
            ok = res.aut_order == 12 and res.aut_order == 2 * res.aut_i_order
        else:
            ok = (res.aut_order, res.aut_i_order) == (want_aut, want_inn)
        if not ok:
            failures.append((n, res.aut_order, res.aut_i_order))
    passed = not failures and worst < 5.0
    record_acceptance(
        "2 complete graph orders",
        passed,
        f"K_3 weak case plus K_4, K_5, K_7; slowest {worst:.2f}s"
        + (f", failures {failures}" if failures else ""),
    )
    assert not failures
    assert worst < 5.0


def test_criterion_3_generalized_quadrangle():
    started = time.perf_counter()
    sys = gq22()
    counts = [len(f) for f in sys.fibers()]
    girth = nx.girth(incidence_graph(sys))
    res = correlation_group(sys)
    center = PermGroup(sys.size, list(res.correlation_gens)).fingerprint().center_order
    elapsed = time.perf_counter() - started
    passed = (
        counts == [15, 15]
        and girth == 8
        and (res.aut_i_order, res.aut_order) == (720, 1440)
        and center == 1
        and elapsed < 30.0
    )
    record_acceptance(
        "3 generalized quadrangle",
        passed,
        f"15+15 elements, girth {girth}, orders {res.aut_i_order}/{res.aut_order}, "
        f"center {center}, {elapsed:.2f}s",
    )
    assert passed


def test_criterion_4_cube():
    started = time.perf_counter()
    sys = cube_geometry()
    res = correlation_group(sys)
    kernel = PermGroup(sys.size, list(res.type_preserving_gens))
    vertex_orbits = sorted(
        len(o) for o in kernel.orbits() if int(sys.type_codes[o[0]]) < 2
    )
    elapsed = time.perf_counter() - started
    passed = (
        (res.aut_i_order, res.aut_order) == (24, 48)
        and vertex_orbits == [4, 4]
        and elapsed < 5.0
    )
    record_acceptance(
        "4 cube",
        passed,
        f"orders {res.aut_i_order}/{res.aut_order}, vertex orbits {vertex_orbits}, "
        f"{elapsed:.2f}s",
    )
    assert passed


def test_criterion_5_hemidodecahedron():
    started = time.perf_counter()
    sys = hemidodecahedron_petrie("shared-edge")
    vertices = sys.fiber("0")
    skeleton = nx.Graph()
    skeleton.add_nodes_from(vertices)
    for e in sys.fiber("1"):
        a, b = sorted(sys.neighbors(e) & set(vertices))
        skeleton.add_edge(a, b)
    petersen_like = (
        skeleton.number_of_nodes() == 10
        and all(d == 3 for _, d in skeleton.degree())
        and nx.girth(skeleton) == 5
    )
    pentagon_split = [len(sys.fiber("2")), len(sys.fiber("3"))]
    res = correlation_group(sys)
    center = PermGroup(sys.size, list(res.correlation_gens)).fingerprint().center_order
    elapsed = time.perf_counter() - started
    passed = (
        petersen_like
        and pentagon_split == [6, 6]
        and (res.aut_i_order, res.aut_order) == (60, 120)
        and center == 1
        and elapsed < 30.0
    )
    record_acceptance(
        "5 hemidodecahedron",
        passed,
        f"petersen skeleton {petersen_like}, pentagons {pentagon_split}, "
        f"orders {res.aut_i_order}/{res.aut_order}, center {center}, {elapsed:.2f}s",
    )
    assert passed


def test_criterion_6_cross_ratio_geometry(pgl34, pgl34_pipeline):
    started = time.perf_counter()
    frob = frobenius_truncation_perm(pgl34)
    extension = extend_truncation_correlation(pgl34, frob)
    tact = (
        correlation_type_action(pgl34.system, extension)
        if extension is not None
        else None
    )
    swaps_blocks = tact == [0, 1, 3, 2]
    elapsed = (
        fixture_time("pgl34_build")
        + fixture_time("pgl34_pipeline")
        + (time.perf_counter() - started)
    )
    inn_ok = pgl34_pipeline.result.aut_i_order == 60480
    passed = inn_ok and extension is not None and swaps_blocks and elapsed < 600.0
    record_acceptance(
        "6 cross-ratio geometry",
        passed,
        f"aut_i {pgl34_pipeline.result.aut_i_order}, aut "
        f"{pgl34_pipeline.result.aut_order}, frobenius swaps quadruple types "
        f"{swaps_blocks}, duality extends {pgl34_pipeline.duality_extends}, "
        f"{elapsed:.1f}s",
    )
    assert passed


def _klein_spec() -> CosetGeometrySpec:
    a = Permutation([1, 0, 3, 2])
    b = Permutation([2, 3, 0, 1])
    return CosetGeometrySpec(
        PermGroup(4, [a, b]),
        (PermGroup(4, [a]), PermGroup(4, [b]), PermGroup(4, [a * b])),
    )


def _doubled_spec() -> CosetGeometrySpec:
    s3 = PermGroup(3, [Permutation([1, 0, 2]), Permutation([1, 2, 0])])
    reflection = PermGroup(3, [Permutation([1, 0, 2])])
    return CosetGeometrySpec(s3, (reflection, reflection))


def _random_specs(rng: random.Random, count: int) -> list[CosetGeometrySpec]:
    s4 = PermGroup(4, [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])])
    a4 = PermGroup(4, [Permutation([1, 2, 0, 3]), Permutation([1, 0, 3, 2])])
    d12 = PermGroup(6, [Permutation([1, 2, 3, 4, 5, 0]), Permutation([0, 5, 4, 3, 2, 1])])
    pools = [s4, a4, d12]
    specs = []
    while len(specs) < count:
        group = pools[rng.randrange(len(pools))]
        elements = group.enumerate_elements()
        subgroups = tuple(
            PermGroup(
                group.degree,
                [elements[rng.randrange(len(elements))] for _ in range(2)],
            )
            for _ in range(rng.choice((2, 3)))
        )
        total = sum(group.order() // s.order() for s in subgroups)
        if total > 60:
            continue
        specs.append(CosetGeometrySpec(group, subgroups))
    return specs


def test_criterion_7_coset_condition_equivalences():
    started = time.perf_counter()
    rng = random.Random(0)
    specs = [tetrahedron_spec(), _klein_spec(), _doubled_spec(), *_random_specs(rng, 5)]
    ft_mismatches = []
    rc_mismatches = []
    rc_compared = 0
    for idx, spec in enumerate(specs):
        cg = coset_geometry(spec)
        r = cg.system.rank
        transitive = all(
            is_transitive_on(cg.action, type_ordered_flags(cg.system, set(typeset)))
            for size in range(1, r + 1)
            for typeset in itertools.combinations(range(r), size)
        )
        ft = check_ft_condition(spec)
        if ft.ok != transitive:
            ft_mismatches.append(idx)
        if ft.ok:
            rc_compared += 1
            if check_rc_condition(spec).ok != cg.system.is_residually_connected():
                rc_mismatches.append(idx)
    elapsed = time.perf_counter() - started
    passed = not ft_mismatches and not rc_mismatches and elapsed < 60.0
    record_acceptance(
        "7 coset condition equivalences",
        passed,
        f"{len(specs)} specs (3 fixed + {len(specs) - 3} random), "
        f"rc compared on {rc_compared}, {elapsed:.2f}s"
        + (f", ft mismatches {ft_mismatches}" if ft_mismatches else "")
        + (f", rc mismatches {rc_mismatches}" if rc_mismatches else ""),
    )
    assert passed


def test_criterion_8_free_group_family():
    started = time.perf_counter()
    problems = []

    gens2, parabolics2 = rose_cover_generators(2)
    graphs2 = [stallings_graph(p, 2) for p in parabolics2]
    if stallings_graph(gens2, 2).rank() != 4:
        problems.append("rank n=2")
    gens3, parabolics3 = rose_cover_generators(3)
    if stallings_graph(gens3, 3).rank() != 12:
        problems.append("rank n=3")

    for size in (2, 3, 4):
        for combo in itertools.combinations(range(4), size):
            meet = graphs2[combo[0]]
            for j in combo[1:]:
                meet = intersection(meet, graphs2[j])
            common = [w for i, w in enumerate(gens2) if i not in combo]
            expected = stallings_graph(common, 2)
            agree = all(
                membership(w, expected) for w in graph_basis(meet)
            ) and all(membership(w, meet) for w in common)
            if not agree:
                problems.append(f"intersection {combo}")
    if intersection(
        intersection(graphs2[0], graphs2[1]), intersection(graphs2[2], graphs2[3])
    ).rank() != 0:
        problems.append("quadruple not trivial")

    if not rc_check_exact(parabolics2).ok:
        problems.append("rc")
    for size in range(4):
        for j_set in itertools.combinations(range(4), size):
            for i in range(4):
                if i in j_set:
                    continue
                if not bounded_ft_check(parabolics2, j_set, i, 8).ok:
                    problems.append(f"ft {j_set} {i}")

    action2 = subgroup_action(k_group(2), parabolics2)
    fp = action2.fingerprint()
    a, b = action2.generators[0], action2.generators[1]
    dihedral8 = (
        action2.order() == 8
        and a * b != b * a
        and fp.order_histogram == ((1, 1), (2, 5), (4, 2))
    )
    if not dihedral8:
        problems.append("action n=2 is not the dihedral group of order 8")
    if subgroup_action(k_group(3), parabolics3).order() != 48:
        problems.append("action n=3 order")

    elapsed = time.perf_counter() - started
    passed = not problems and elapsed < 120.0
    record_acceptance(
        "8 free group family",
        passed,
        f"ranks 4/12, 11 intersection identities, rc, 32 ft pairs at L=8, "
        f"actions 8/48, {elapsed:.2f}s"
        + (f", problems {problems}" if problems else ""),
    )
    assert passed


def _bundled_small_systems() -> list[tuple[str, IncidenceSystem]]:
    return [
        *((f"polygon n={n}", dihedral_geometry(n)) for n in (3, 4, 5, 6, 8)),
        *((f"complete n={n}", complete_graph_geometry(n)) for n in (3, 4, 5)),
        ("tetrahedron cosets", coset_geometry(tetrahedron_spec()).system),
        ("klein cosets", coset_geometry(_klein_spec()).system),
        ("doubled subgroup cosets", coset_geometry(_doubled_spec()).system),
        ("plane q=2", pgl_cross_ratio_geometry(3, make_field(2, 1)).system),
    ]


def test_criterion_9_oracle_suites():
    started = time.perf_counter()
    aut_mismatches = []
    for name, sys in _bundled_small_systems():
        assert sys.size <= 24
        solver = correlation_group(sys).aut_order
        brute = len(brute_force_automorphisms(sys))
        if solver != brute:
            aut_mismatches.append((name, solver, brute))

    words = all_reduced_words(2, 6)
    _, parabolics = rose_cover_generators(2)
    graphs = [stallings_graph(p, 2) for p in parabolics]
    pairs = [
        (graphs[0], graphs[1]),
        (graphs[2], graphs[3]),
        (stallings_graph([(1, 1), (2,)], 2), stallings_graph([(2, 2), (1,)], 2)),
    ]
    product_mismatches = 0
    for h, k in pairs:
        in_h = [w for w in words if membership(w, h)]
        in_k = [w for w in words if membership(w, k)]
        split = {p for u in in_h for v in in_k if len(p := concat(u, v)) <= 6}
        for w in words:
            if product_membership(w, h, k) != (w in split):
                product_mismatches += 1

    elapsed = time.perf_counter() - started
    passed = not aut_mismatches and product_mismatches == 0 and elapsed < 300.0
    record_acceptance(
        "9 oracle suites",
        passed,
        f"12 systems vs exhaustive search, 3 product pairs x {len(words)} words, "
        f"{elapsed:.2f}s"
        + (f", aut mismatches {aut_mismatches}" if aut_mismatches else "")
        + (
            f", product mismatches {product_mismatches}"
            if product_mismatches
            else ""
        ),
    )
    assert passed
