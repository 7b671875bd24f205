"""Correlation and type-preserving automorphism groups of incidence systems."""

from __future__ import annotations

import dataclasses
import warnings
from typing import Iterable

import numpy as np

from .incidence import IncidenceSystem
from .perms import GroupFingerprint, PermGroup, Permutation

# Above this size raw search gets slow; large structured systems should go
# through a restriction-extension pipeline instead.
_SEARCH_WARN = 600

Cells = list[list[int]]


def _refine(adj: list[frozenset[int]], cells: Cells) -> Cells:
    """Equitable refinement of an ordered partition; split order is canonical."""
    cells = [sorted(c) for c in cells if c]
    changed = True
    while changed:
        changed = False
        idx: dict[int, int] = {}
        for ci, cell in enumerate(cells):
            for v in cell:
                idx[v] = ci
        new_cells: Cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                counts = [0] * len(cells)
                for u in adj[v]:
                    counts[idx[u]] += 1
                sig.setdefault(tuple(counts), []).append(v)
            if len(sig) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(sig):
                    new_cells.append(sorted(sig[key]))
        cells = new_cells
    return cells


def _target_cell(cells: Cells) -> int | None:
    """Index of the smallest non-singleton cell (first on ties), or None."""
    best = None
    for i, cell in enumerate(cells):
        if len(cell) > 1 and (best is None or len(cell) < len(cells[best])):
            best = i
    return best


def _individualize(cells: Cells, target: int, v: int) -> Cells:
    rest = [u for u in cells[target] if u != v]
    return cells[:target] + [[v], rest] + cells[target + 1 :]


def _find_iso(
    adj_a: list[frozenset[int]],
    cells_a: Cells,
    adj_b: list[frozenset[int]],
    cells_b: Cells,
) -> dict[int, int] | None:
    """One cell-order-respecting isomorphism between two colored graphs, or None."""
    cells_a = _refine(adj_a, cells_a)
    cells_b = _refine(adj_b, cells_b)
    if [len(c) for c in cells_a] != [len(c) for c in cells_b]:
        return None
    target = _target_cell(cells_a)
    if target is None:
        mapping = {ca[0]: cb[0] for ca, cb in zip(cells_a, cells_b)}
        for v, image in mapping.items():
            if {mapping[u] for u in adj_a[v]} != adj_b[image]:
                return None
        return mapping
    v = cells_a[target][0]
    for u in cells_b[target]:
        found = _find_iso(
            adj_a,
            _individualize(cells_a, target, v),
            adj_b,
            _individualize(cells_b, target, u),
        )
        if found is not None:
            return found
    return None


def _closure(seed: int, gens: list[Permutation]) -> set[int]:
    orbit = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g(x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _aut_gens(adj: list[frozenset[int]], cells: Cells, degree: int) -> list[Permutation]:
    """Generators of the colored-graph automorphism group fixing each cell setwise."""
    cells = _refine(adj, cells)
    target = _target_cell(cells)
    if target is None:
        return []
    v0 = cells[target][0]
    gens = _aut_gens(adj, _individualize(cells, target, v0), degree)
    orbit = _closure(v0, gens)
    for u in cells[target][1:]:
        if u in orbit:
            continue
        mapping = _find_iso(
            adj,
            _individualize(cells, target, v0),
            adj,
            _individualize(cells, target, u),
        )
        if mapping is not None:
            gens.append(Permutation([mapping[i] for i in range(degree)]))
            orbit = _closure(v0, gens)
    return gens


def _element_adjacency(sys: IncidenceSystem) -> list[frozenset[int]]:
    return [sys.neighbors(x) for x in range(sys.size)]


def _augmented_adjacency(sys: IncidenceSystem) -> list[frozenset[int]]:
    """Element nodes + one node per type + apex; ties each element to its type."""
    n, r = sys.size, sys.rank
    apex = n + r
    adj = [sys.neighbors(i) | {n + c} for i, c in enumerate(sys.type_codes.tolist())]
    adj += [frozenset(fiber) | {apex} for fiber in sys.fibers()]
    adj.append(frozenset(range(n, apex)))
    return adj


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
    """Full correlation group Aut via augmented-graph search; kernel is Aut_I."""
    n, r = sys.size, sys.rank
    if n > _SEARCH_WARN:
        warnings.warn(
            f"raw correlation search on {n} elements may be slow; "
            "consider a restriction-extension pipeline",
            stacklevel=2,
        )
    adj = _augmented_adjacency(sys)
    cells = [list(range(n)), list(range(n, n + r)), [n + r]]
    gens = _aut_gens(adj, cells, n + r + 1)
    elem_gens = [g.restricted(range(n)) for g in gens]
    group = PermGroup(n, elem_gens)
    action = group.induced_action(sys.fibers())
    return AutResult(
        correlation_gens=tuple(elem_gens),
        aut_order=group.order(),
        type_preserving_gens=tuple(action.kernel.generators),
        aut_i_order=action.kernel.order(),
        type_action=action.image,
        out_order=action.image.order(),
        types=sys.types,
    )


def type_preserving_group(sys: IncidenceSystem) -> PermGroup:
    """Aut_I directly: search with each type fiber its own fixed color."""
    gens = _aut_gens(_element_adjacency(sys), sys.fibers(), sys.size)
    return PermGroup(sys.size, gens)


def brute_force_automorphisms(
    sys: IncidenceSystem, element_bound: int = 24
) -> list[Permutation]:
    """All correlations by exhaustive backtracking; independent of the search kernel."""
    n = sys.size
    if n > element_bound:
        raise ValueError(f"too large: {n} elements exceeds bound {element_bound}")
    adj = _element_adjacency(sys)
    codes = sys.type_codes.tolist()
    fiber_sizes = [len(f) for f in sys.fibers()]
    degrees = [len(adj[x]) for x in range(n)]
    image = [-1] * n
    used = [False] * n
    tmap: dict[int, int] = {}
    tused: set[int] = set()
    found: list[Permutation] = []

    def rec(i: int) -> None:
        if i == n:
            found.append(Permutation(list(image)))
            return
        ci = codes[i]
        for y in range(n):
            if used[y] or degrees[y] != degrees[i]:
                continue
            cy = codes[y]
            fresh = ci not in tmap
            if fresh:
                if cy in tused or fiber_sizes[cy] != fiber_sizes[ci]:
                    continue
            elif tmap[ci] != cy:
                continue
            if any((j in adj[i]) != (image[j] in adj[y]) for j in range(i)):
                continue
            image[i] = y
            used[y] = True
            if fresh:
                tmap[ci] = cy
                tused.add(cy)
            rec(i + 1)
            if fresh:
                del tmap[ci]
                tused.discard(cy)
            used[y] = False
            image[i] = -1

    rec(0)
    return found


def correlation_type_action(
    sys: IncidenceSystem, g: Permutation
) -> list[int] | None:
    """Induced type map (by type index) if g is a correlation of sys, else None."""
    n, r = sys.size, sys.rank
    if g.degree != n:
        return None
    codes = sys.type_codes
    image_codes = codes[g.images]
    tmap = [-1] * r
    for t in range(r):
        values = np.unique(image_codes[codes == t])
        if values.size > 1:
            return None
        if values.size == 1:
            tmap[t] = int(values[0])
    seen = [t for t in tmap if t != -1]
    if len(set(seen)) != len(seen):
        return None
    pairs = sys.pairs
    if pairs.shape[0]:
        # key min*n + max per pair: the image keys are distinct (g is a
        # bijection), and the sorted system pairs have ascending keys
        ends = g.images[pairs]
        lo = np.minimum(ends[:, 0], ends[:, 1])
        hi = np.maximum(ends[:, 0], ends[:, 1])
        keys = pairs[:, 0].astype(np.int64) * n + pairs[:, 1]
        if not np.array_equal(np.sort(lo * n + hi), keys):
            return None
    return tmap


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
    cells_a = [list(range(na)), list(range(na, na + ra)), [na + ra]]
    cells_b = [list(range(na)), list(range(na, na + ra)), [na + ra]]
    mapping = _find_iso(
        _augmented_adjacency(sys_a), cells_a, _augmented_adjacency(sys_b), cells_b
    )
    if mapping is None:
        return None
    return [mapping[i] for i in range(na)]


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
