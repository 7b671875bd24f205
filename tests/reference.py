"""Reference implementations that the tests check the library against.

They read a system only from its ``types``, ``type_codes`` and ``pairs``, so
they share no neighbour index, bit rows or search code with the library.
``cross_ratio`` reads points as code tuples and checks the builder's
cross-ratio classes with the field's tables alone, and
``point_perm_to_truncation`` lifts a collineation from the points to every
subspace layer of a ``PglGeometry`` by spanning the image points.
"""

from __future__ import annotations

import collections
from typing import Sequence

import networkx as nx

from geomrep import (
    FiniteField,
    IncidenceSystem,
    PermGroup,
    Permutation,
    PglGeometry,
    ProjectiveSubspace,
    correlation_type_action,
)


def incidence_graph(sys: IncidenceSystem) -> nx.Graph:
    """Multipartite graph: one node per element, one edge per incidence."""
    g = nx.Graph()
    g.add_nodes_from((i, {"type": sys.types[c]}) for i, c in enumerate(sys.type_codes.tolist()))
    g.add_edges_from(sys.pairs.tolist())
    return g


def brute_force_automorphisms(
    sys: IncidenceSystem, element_bound: int = 24
) -> list[Permutation]:
    """All correlations by exhaustive backtracking over the pairs themselves."""
    n = sys.size
    if n > element_bound:
        raise ValueError(f"too large: {n} elements exceeds bound {element_bound}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in sys.pairs.tolist():
        adj[a].add(b)
        adj[b].add(a)
    codes = sys.type_codes.tolist()
    fiber_sizes = collections.Counter(codes)
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


def is_transitive_on(group: PermGroup, tuples: Sequence[tuple[int, ...]]) -> bool:
    """True iff the componentwise action of group has a single orbit on the tuple list."""
    if not tuples:
        raise ValueError("tuple list is empty")
    pool = set(tuples)
    for t in tuples:
        if any(p < 0 or p >= group.degree for p in t):
            raise ValueError(f"tuple {t} contains out-of-domain point")
    seen = {tuples[0]}
    queue = [tuples[0]]
    while queue:
        t = queue.pop(0)
        for g in group.generators:
            image = tuple(g(p) for p in t)
            if image not in pool:
                raise ValueError(f"tuple list not invariant: {t} -> {image}")
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return len(seen) == len(pool)


def cross_ratio(
    field: FiniteField,
    p1: tuple[int, ...],
    p2: tuple[int, ...],
    p3: tuple[int, ...],
    p4: tuple[int, ...],
) -> int:
    """(|p1 p3|·|p2 p4|) / (|p2 p3|·|p1 p4|) of four distinct collinear points,
    in coordinates on their common line, as a field code."""
    points = (p1, p2, p3, p4)
    if len(set(points)) != 4:
        raise ValueError("not distinct")
    line = ProjectiveSubspace.from_rows(field, points)
    if line.dim != 1:
        raise ValueError("not collinear")
    j1, j2 = (next(i for i, x in enumerate(row) if x) for row in line.basis)
    ab = [(p[j1], p[j2]) for p in points]

    def det(i: int, j: int) -> int:
        (a1, b1), (a2, b2) = ab[i], ab[j]
        return field.sub(field.mul(a1, b2), field.mul(a2, b1))

    return field.div(field.mul(det(0, 2), det(1, 3)), field.mul(det(1, 2), det(0, 3)))


def point_perm_to_truncation(geom: PglGeometry, point_perm: Permutation) -> Permutation:
    """Extend a collineation given on points to all included subspace layers."""
    space = geom.space
    included = [int(lab) for lab in geom.subspace_labels]
    npts = len(space.points)
    if point_perm.degree != npts:
        raise ValueError("permutation degree does not match the point count")
    images: list[int] = list(point_perm.to_list())
    offset = npts
    for m in included[1:]:
        layer = space.layers[m]
        index = {s.basis: i for i, s in enumerate(layer)}
        for s in layer:
            rows = [space.points[point_perm(p)] for p in space.points_in(s)]
            img = ProjectiveSubspace.from_rows(space.field, rows)
            if img.basis not in index:
                raise ValueError("point permutation does not preserve the space")
            images.append(offset + index[img.basis])
        offset += len(layer)
    result = Permutation(images)
    if correlation_type_action(geom.truncation, result) is None:
        raise ValueError("point permutation does not preserve the space")
    return result
