"""Correlation and type-preserving automorphism groups of incidence systems."""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections.abc import Callable

import numpy as np

from .incidence import IncidenceSystem, _pair_keys
from .perms import GroupFingerprint, PermGroup, Permutation

# Above this many elements (after merging twins) the search gets slow
_SEARCH_WARN = 600

Cells = list[list[int]]
# One refinement event: (splitter start, touched cell start, and for each
# count of neighbours in the splitter, ascending, the number of the cell's
# vertices with that count)
Event = tuple[int, int, tuple[tuple[int, int], ...]]


class _Partition:
    """Ordered partition of 0..N-1: the vertex list ``lab`` cut into cells.

    A cell is named by its start, the position of its first vertex in ``lab``;
    ``size[start]`` is its length and ``cellof[v]`` the start of v's cell.
    Refinement only splits cells, so a start names the same cell for good.
    """

    __slots__ = ("lab", "cellof", "size")

    def __init__(self, lab: list[int], cellof: list[int], size: list[int]):
        self.lab = lab
        self.cellof = cellof
        self.size = size

    def individualized(self, t: int, v: int) -> "_Partition":
        """Copy with v split off as a singleton at the front of cell t."""
        lab, cellof, size = self.lab[:], self.cellof[:], self.size[:]
        k = size[t]
        i = lab.index(v, t, t + k)
        lab[t], lab[i] = v, lab[t]
        size[t], size[t + 1] = 1, k - 1
        for u in lab[t + 1 : t + k]:
            cellof[u] = t + 1
        return _Partition(lab, cellof, size)

    def target(self, head: int = 0) -> int | None:
        """Start of the cell to individualize next, or None if discrete.

        The first non-singleton cell that holds one of the first head
        positions of lab, if any; else the first largest non-singleton cell.
        """
        best, best_size = None, 1
        i, n = 0, len(self.lab)
        while i < n:
            k = self.size[i]
            if k > best_size:
                # no earlier cell is non-singleton, so i is the first one
                if i < head:
                    return i
                best, best_size = i, k
            i += k
        return best


class _Engine:
    """Individualization-refinement search on one vertex-colored graph.

    The first path (individualize the first vertex of the target cell of
    ``_Partition.target`` until the partition is discrete) is the reference.
    Every other node is refined against the trace of the first-path node at
    its level and dropped at the first event that differs.  A leaf whose
    trace equals the first leaf's gives a candidate map, which is checked
    against the adjacency.  Each vertex's neighbour list is ascending.
    """

    def __init__(self, adj: list[list[int]], cells: Cells, head: int = 0):
        self.adj = adj
        self.nodes = 0  # refinements done: a deterministic measure of the search
        self._count = [0] * len(adj)
        lab: list[int] = []
        cellof = [0] * len(adj)
        size = [0] * len(adj)
        starts = []
        for cell in cells:
            if not cell:
                continue
            start = len(lab)
            starts.append(start)
            size[start] = len(cell)
            for v in cell:
                cellof[v] = start
            lab.extend(cell)
        self.root = _Partition(lab, cellof, size)
        self.root_trace = self._refine(self.root, starts)
        # the first path: (node, target start, trace of its first child) per
        # level.  Its levels that split the first head positions come first.
        self.head = head
        self.path: list[tuple[_Partition, int, list[Event]]] = []
        node, t = self.root, self.root.target(head)
        while t is not None:
            child = node.individualized(t, node.lab[t])
            self.path.append((node, t, self._refine(child, [t])))
            node, t = child, child.target(head)
        self.leaf = node

    def _refine(
        self, p: _Partition, queue: list[int], ref: list[Event] | None = None
    ) -> list[Event] | None:
        """Refine p to equitable in place; the trace, or None on leaving ref.

        Refinement stops once p is discrete (one cell per vertex), which the
        trace shows: each event tells how many cells its split makes.
        """
        self.nodes += 1
        adj, count = self.adj, self._count
        lab, cellof, size = p.lab, p.cellof, p.size
        # only cell starts hold a non-zero size
        cells = len(lab) - size.count(0)
        queued = set(queue) if cells < len(lab) else set()
        trace: list[Event] = []
        while queued:
            s = min(queued)
            queued.remove(s)
            if size[s] == 1:
                # every touched vertex has one neighbour in s: a touched cell
                # splits into its untouched vertices, then its touched ones,
                # with no counting
                w = lab[s]
                by_cell: dict[int, list[int]] = {}
                for u in adj[w]:
                    c = cellof[u]
                    if c in by_cell:
                        by_cell[c].append(u)
                    else:
                        by_cell[c] = [u]
                for c in sorted(by_cell):
                    part = by_cell[c]
                    k, m = size[c], len(part)
                    event = (s, c, ((1, m),) if m == k else ((0, k - m), (1, m)))
                    if ref is not None and (
                        len(trace) == len(ref) or ref[len(trace)] != event
                    ):
                        return None
                    trace.append(event)
                    if m == k:
                        continue
                    pos = c + k - m
                    for u in part:
                        cellof[u] = pos
                    lab[c:pos] = [x for x in lab[c : c + k] if cellof[x] == c]
                    lab[pos : c + k] = part
                    size[c], size[pos] = k - m, m
                    cells += 1
                    if cells == len(lab):
                        queued.clear()
                        break
                    # both fragments are queued, except the first larger one
                    # when the cell was not queued already
                    if c in queued or k - m >= m:
                        queued.add(pos)
                    else:
                        queued.add(c)
                continue
            touched = []
            for w in lab[s : s + size[s]]:
                for u in adj[w]:
                    if not count[u]:
                        touched.append(u)
                    count[u] += 1
            by_cell = {}
            for u in touched:
                c = cellof[u]
                if c in by_cell:
                    by_cell[c].append(u)
                else:
                    by_cell[c] = [u]
            for c in sorted(by_cell):
                k = size[c]
                groups: dict[int, list[int]] = {}
                for u in by_cell[c]:
                    n = count[u]
                    if n in groups:
                        groups[n].append(u)
                    else:
                        groups[n] = [u]
                if len(by_cell[c]) < k:
                    groups[0] = [x for x in lab[c : c + k] if not count[x]]
                keys = sorted(groups)
                event = (s, c, tuple((n, len(groups[n])) for n in keys))
                if ref is not None and (
                    len(trace) == len(ref) or ref[len(trace)] != event
                ):
                    for u in touched:
                        count[u] = 0
                    return None
                trace.append(event)
                if len(keys) == 1:
                    continue
                # fragments in ascending count order; all are queued, except
                # the first largest when the cell was not queued already
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

    def match(self, ref: "_Engine") -> list[int] | None:
        """A map from ref's vertices to ours with the trace of ref's first leaf.

        None if there is none; the root traces must already agree.
        """
        if not ref.path:
            return ref._leaf_map(ref.leaf.lab, self.root.lab, self)
        t = ref.path[0][1]
        return self._search(self.root, 0, ref, self.root.lab[t : t + self.root.size[t]])

    def _search(
        self, node: _Partition, level: int, ref: "_Engine", choices: list[int]
    ) -> list[int] | None:
        """Depth-first below the children of node (at ref's level) that
        individualize one of choices, for a leaf that ref's first leaf maps to."""
        stack = [(node, level, iter(choices))]
        while stack:
            node, level, todo = stack[-1]
            v = next(todo, None)
            if v is None:
                stack.pop()
                continue
            t = ref.path[level][1]
            child = node.individualized(t, v)
            if self._refine(child, [t], ref.path[level][2]) is None:
                continue
            if level + 1 == len(ref.path):
                found = ref._leaf_map(ref.leaf.lab, child.lab, self)
                if found is not None:
                    return found
                continue
            t = ref.path[level + 1][1]
            stack.append((child, level + 1, iter(child.lab[t : t + child.size[t]])))
        return None

    def _leaf_map(
        self, lab: list[int], other_lab: list[int], other: "_Engine"
    ) -> list[int] | None:
        """lab[i] -> other_lab[i] if that maps our adjacency onto other's, else None."""
        image = [0] * len(lab)
        for v, w in zip(lab, other_lab):
            image[v] = w
        for v, around in enumerate(self.adj):
            if other.adj[image[v]] != sorted([image[u] for u in around]):
                return None
        return image

    def automorphisms(self) -> tuple[list[list[int]], int, int, int]:
        """Generators of the color-preserving automorphism group, as image
        lists, and the group's order; then k and the order of gens[:k], which
        generate the pointwise stabilizer of the first head positions.

        Bottom-up over the first path: at each level, every vertex of the
        target cell outside the orbit of the first-path choice under the
        generators found so far (all of which fix the path above) is tried.
        So the final orbit at a level is the orbit of the stabilizer of the
        path above, and the order is the product of those orbit sizes: only
        the identity fixes the whole path, whose leaf is discrete.  The levels
        that split the head form a prefix of the path, after which every head
        position is a singleton: the generators found below that prefix
        generate its stabilizer, which is the head's.
        """
        gens: list[list[int]] = []
        order = 1
        below_head = None
        for level in reversed(range(len(self.path))):
            node, t, _ = self.path[level]
            if below_head is None and t < self.head:
                below_head = len(gens), order
            v0 = node.lab[t]
            orbit = _closure(v0, gens)
            for u in node.lab[t + 1 : t + node.size[t]]:
                if u in orbit:
                    continue
                found = self._search(node, level, self, [u])
                if found is not None:
                    gens.append(found)
                    orbit = _closure(v0, gens)
            order *= len(orbit)
        if below_head is None:  # no level splits the head
            below_head = len(gens), order
        return gens, order, *below_head


def _closure(seed: int, gens: list[list[int]]) -> set[int]:
    orbit = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _element_adjacency(sys: IncidenceSystem) -> list[list[int]]:
    bounds, nbrs = sys._neighbour_index()
    nbrs, bounds = nbrs.tolist(), bounds.tolist()
    return [nbrs[i:j] for i, j in zip(bounds, bounds[1:])]


def _augmented_adjacency(sys: IncidenceSystem) -> list[list[int]]:
    """Element nodes + one node per type + apex; ties each element to its type."""
    n, r = sys.size, sys.rank
    apex = n + r
    codes = sys.type_codes.tolist()
    adj = [nbrs + [n + c] for nbrs, c in zip(_element_adjacency(sys), codes)]
    adj += [fiber + [apex] for fiber in sys.fibers()]
    adj.append(list(range(n, apex)))
    return adj


def _augmented_engine(
    sys: IncidenceSystem, types_first: bool = True, sizes: list[int] | None = None
) -> _Engine:
    """Engine on the augmented graph: type nodes, apex and elements colored apart.

    With types_first the type nodes are individualized before any element,
    so the search's stabilizer of the type nodes, Aut_I, comes with Aut.
    sizes, if given, splits the elements into one cell per twin class size,
    ascending.
    """
    n, r = sys.size, sys.rank
    by_size: dict[int, list[int]] = {}
    for x, k in enumerate(sizes or [1] * n):
        by_size.setdefault(k, []).append(x)
    return _Engine(
        _augmented_adjacency(sys),
        [list(range(n, n + r)), [n + r]] + [by_size[k] for k in sorted(by_size)],
        head=r if types_first else 0,
    )


def _twin_classes(sys: IncidenceSystem) -> list[list[int]]:
    """Classes of two or more same-type false twins, ascending, by first member.

    Twins have equal type and equal neighbourhoods, so they are never
    incident: each class is one (type, neighbour list) key.
    """
    bounds, nbrs = sys._neighbour_index()
    bounds = bounds.tolist()
    classes: dict[tuple[int, bytes], list[int]] = {}
    for x, t in enumerate(sys.type_codes.tolist()):
        classes.setdefault((t, nbrs[bounds[x] : bounds[x + 1]].tobytes()), []).append(x)
    return [c for c in classes.values() if len(c) > 1]


def _twin_quotient(
    sys: IncidenceSystem, classes: list[list[int]]
) -> tuple[IncidenceSystem, list[int], Callable[[list[int]], Permutation]]:
    """sys with each twin class merged into one element, the class size of
    each quotient element, and the lift of a quotient correlation (the images
    of the quotient elements) to sys: the i-th member of a class goes to the
    i-th member of its image class.  Twins have equal neighbourhoods, so
    the quotient is the subsystem induced on each class's first member."""
    n = sys.size
    rep = np.arange(n)
    for members in classes:
        rep[members] = members[0]
    keep = np.flatnonzero(rep == np.arange(n))
    quotient = sys._induced(keep, list(range(sys.rank)))
    qid = np.searchsorted(keep, rep)
    sizes = np.bincount(qid)
    members = np.argsort(qid, kind="stable")
    start = np.concatenate([[0], np.cumsum(sizes)])
    slot = np.empty(n, dtype=np.int64)
    slot[members] = np.arange(n) - start[qid[members]]

    def lift(images: list[int]) -> Permutation:
        return Permutation(members[start[np.asarray(images)[qid]] + slot])

    return quotient, sizes.tolist(), lift


def _symmetric_generators(n: int, members: list[int]) -> list[Permutation]:
    """A transposition and, for three or more members, a full cycle: Sym(members)."""
    cycles = [members[:2], members] if len(members) > 2 else [members]
    return [Permutation.from_cycles(n, [c]) for c in cycles]


@dataclasses.dataclass(frozen=True)
class AutResult:
    """Correlation group of an incidence system and its type-preserving kernel."""

    correlation_gens: tuple[Permutation, ...]
    aut_order: int
    type_preserving_gens: tuple[Permutation, ...]
    aut_i_order: int
    type_action: PermGroup
    out_order: int
    types: tuple[str, ...]
    # refinements made by the one augmented-graph search, and the number of
    # twin classes (of two or more elements) merged before it; 0 when no
    # search produced the result.  Not part of the result's value: kept out
    # of comparisons and reports.
    search_nodes: int = dataclasses.field(default=0, compare=False)
    twin_classes: int = dataclasses.field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.aut_order != self.aut_i_order * self.out_order:
            raise ValueError("inconsistent orders")

    def to_json_dict(self) -> dict:
        r = len(self.types)
        return {
            "correlation_gens": [g.to_list() for g in self.correlation_gens],
            "aut_order": str(self.aut_order),
            "type_preserving_gens": [g.to_list() for g in self.type_preserving_gens],
            "aut_i_order": str(self.aut_i_order),
            "out_order": str(self.out_order),
            "type_action_gens": [
                [self.types[g(i)] for i in range(r)] for g in self.type_action.generators
            ],
        }


def correlation_group(sys: IncidenceSystem) -> AutResult:
    """Full correlation group Aut via augmented-graph search; kernel is Aut_I.

    Same-type twins (equal neighbourhoods) are merged first: the search runs
    on the quotient, with each element colored by its class size, and each
    quotient generator is lifted class by class.  Each class C adds Sym(C)
    (a transposition, and a full cycle when |C| > 2) to both groups, and
    both orders gain the factor prod |C|!.  A system without twins is its
    own quotient, every class of size 1.

    One search gives both groups: it individualizes the type nodes first, so
    the generators it finds below those levels generate their stabilizer
    Aut_I.  Both orders are read off the search tree; only the action on
    types, a group of degree rank, is built as a ``PermGroup``, and its
    order, from Schreier-Sims, must be |Aut| / |Aut_I|.
    """
    empty = [repr(sys.types[t]) for t in sys.empty_types()]
    if empty:
        raise ValueError(
            f"empty type fiber: no element has type {', '.join(empty)}"
        )
    classes = _twin_classes(sys)
    quotient, sizes, lift = _twin_quotient(sys, classes)
    m, r = quotient.size, sys.rank
    if m > _SEARCH_WARN:
        warnings.warn(f"correlation search on {m} elements may be slow", stacklevel=2)
    engine = _augmented_engine(quotient, sizes=sizes)
    gens, aut_order, k, aut_i_order = engine.automorphisms()
    # the images of the type nodes m..m+r-1 give the action on types
    type_action = PermGroup(
        r, [Permutation([t - m for t in g[m : m + r]]) for g in gens]
    )
    lifted = [lift(g[:m]) for g in gens]
    twins = [g for c in classes for g in _symmetric_generators(sys.size, c)]
    factor = math.prod(math.factorial(len(c)) for c in classes)
    return AutResult(
        correlation_gens=tuple(lifted + twins),
        aut_order=aut_order * factor,
        type_preserving_gens=tuple(lifted[:k] + twins),
        aut_i_order=aut_i_order * factor,
        type_action=type_action,
        out_order=type_action.order(),
        types=sys.types,
        search_nodes=engine.nodes,
        twin_classes=len(classes),
    )


def type_preserving_group(sys: IncidenceSystem) -> PermGroup:
    """Aut_I by its own search, with each type fiber its own fixed color."""
    gens, *_ = _Engine(_element_adjacency(sys), sys.fibers()).automorphisms()
    return PermGroup(sys.size, [Permutation(g) for g in gens])


def correlation_type_action(
    sys: IncidenceSystem, g: Permutation
) -> list[int] | None:
    """Induced type map (by index; -1 for an empty type) if g is a correlation, else None.

    g maps each fibre onto a fibre of equal size, so each type pair's full
    block onto its image's: g is a correlation iff the type map keeps the
    complete type pairs and g the other pairs (``_complete_blocks``).
    """
    n, r = sys.size, sys.rank
    if g.degree != n:
        return None
    # the two agree iff g maps each fibre into one type; as g is onto, each
    # nonempty type then receives a whole fibre's images, so tmap is one to one
    codes = sys.type_codes
    image_codes = codes[g.images]
    tmap = np.full(r, -1, dtype=codes.dtype)
    tmap[codes] = image_codes
    if not np.array_equal(tmap[codes], image_codes):
        return None
    complete, pairs, want = sys._complete_blocks()
    t = np.flatnonzero(tmap >= 0)
    if not np.array_equal(complete[np.ix_(t, t)], complete[np.ix_(tmap[t], tmap[t])]):
        return None
    if pairs.shape[0]:
        # the image pairs' keys are distinct (g is a bijection), and sorted
        # they equal the record's keys iff g maps the pairs onto themselves
        ends = g.images.astype(want.dtype)[pairs]
        keys = _pair_keys(ends[:, 0], ends[:, 1], n)
        keys.sort()
        if not np.array_equal(keys, want):
            return None
    return tmap.tolist()


def find_isomorphism(
    sys_a: IncidenceSystem, sys_b: IncidenceSystem
) -> list[int] | None:
    """Element bijection a->b preserving incidence and the type partition, or None."""
    na, ra = sys_a.size, sys_a.rank
    if (na, ra) != (sys_b.size, sys_b.rank):
        return None
    if sorted(len(f) for f in sys_a.fibers()) != sorted(
        len(f) for f in sys_b.fibers()
    ):
        return None
    if sys_a.pairs.shape[0] != sys_b.pairs.shape[0]:
        return None
    # no group is read off these searches, and the first largest cell gives
    # the shorter search when the type nodes need not come first
    engine_a = _augmented_engine(sys_a, types_first=False)
    engine_b = _augmented_engine(sys_b, types_first=False)
    if engine_a.root_trace != engine_b.root_trace:
        return None
    mapping = engine_b.match(engine_a)
    return None if mapping is None else mapping[:na]


@dataclasses.dataclass(frozen=True)
class RepresentationReport:
    """Verdict on whether computed Aut orders match an expected group pair."""

    description: str
    expected_inn: int
    expected_aut: int
    result: AutResult
    verdict: str
    explanation: str
    type_action_orbits: tuple[tuple[str, ...], ...]
    aut_fingerprint: GroupFingerprint | None

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "expected_inn": str(self.expected_inn),
            "expected_aut": str(self.expected_aut),
            "aut_order": str(self.result.aut_order),
            "aut_i_order": str(self.result.aut_i_order),
            "out_order": str(self.result.out_order),
            "verdict": self.verdict,
            "explanation": self.explanation,
            "type_action_orbits": [list(o) for o in self.type_action_orbits],
            "aut_fingerprint": (
                None
                if self.aut_fingerprint is None
                else self.aut_fingerprint.to_json_dict()
            ),
        }


def verify_representation(
    sys: IncidenceSystem,
    expected_inn: int,
    expected_aut: int,
    description: str = "",
    result: AutResult | None = None,
) -> RepresentationReport:
    """Compare computed Aut_I/Aut orders against an expected Inn/Aut pair."""
    if result is None:
        result = correlation_group(sys)
    if result.aut_i_order == expected_inn and result.aut_order == expected_aut:
        verdict = "representation"
        explanation = (
            f"orders match: aut_i_order={result.aut_i_order}, "
            f"aut_order={result.aut_order}"
        )
    elif (
        expected_inn > 0
        and expected_aut > 0
        and result.aut_i_order % expected_inn == 0
        and result.aut_order % expected_aut == 0
    ):
        verdict = "weak-or-mismatch"
        explanation = (
            f"computed aut_i_order={result.aut_i_order}, "
            f"aut_order={result.aut_order} differ from expected "
            f"({expected_inn}, {expected_aut}) but expected orders divide them"
        )
    else:
        verdict = "fail"
        explanation = (
            f"computed aut_i_order={result.aut_i_order}, "
            f"aut_order={result.aut_order} incompatible with expected "
            f"({expected_inn}, {expected_aut})"
        )
    orbits = tuple(
        tuple(result.types[i] for i in orbit) for orbit in result.type_action.orbits()
    )
    fingerprint = None
    if result.aut_order <= 2000:
        group = PermGroup(sys.size, list(result.correlation_gens))
        fingerprint = group.fingerprint(bound=2000)
    return RepresentationReport(
        description=description or repr(sys),
        expected_inn=expected_inn,
        expected_aut=expected_aut,
        result=result,
        verdict=verdict,
        explanation=explanation,
        type_action_orbits=orbits,
        aut_fingerprint=fingerprint,
    )
