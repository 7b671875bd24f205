"""Reference implementations that the tests check the library against.

They read a system only from its ``types``, ``type_codes`` and ``pairs``, so
they share no neighbour index, bit rows or search code with the library.
"""

from __future__ import annotations

import collections
from typing import Sequence

import networkx as nx

from geomrep import IncidenceSystem, PermGroup, Permutation


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
