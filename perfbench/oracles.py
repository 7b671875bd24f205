"""Reference answers computed by the benchmark's own code, independent of geomrep.

Permutations here are plain tuples of images, composed left to right like
``geomrep.Permutation``: ``compose(a, b)`` applies a first, then b.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np


# -- projective planes and bundled families ---------------------------------


def pgaml3_order(q: int) -> int:
    """|PGammaL(3, q)| = q^3 (q^3 - 1)(q^2 - 1) e, for q = p^e."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = round(math.log(q, p))
    if p**e != q:
        raise ValueError(f"{q} is not a prime power")
    return q**3 * (q**3 - 1) * (q**2 - 1) * e


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n) if math.gcd(k, n) == 1)


def dihedral_orders(n: int) -> tuple[int, int]:
    """(aut, aut_i) of the polygon geometry, as pinned by acceptance criterion 1."""
    if n == 3:
        return 12, 6
    return n * _totient(n), (2 * n if n % 2 else n)


# (aut, aut_i) pinned by acceptance criteria 2-5
COMPLETE_ORDERS = {3: (12, 6), 4: (24, 24), 5: (120, 120), 7: (5040, 5040)}
GQ22_ORDERS = (1440, 720)
CUBE_ORDERS = (48, 24)
HEMIDODECAHEDRON_ORDERS = (120, 60)


def pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """Sorted int64 keys min*n+max of an incidence pair array."""
    p = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    return np.sort(p[:, 0] * n + p[:, 1])


def maps_system(
    images: list[int], codes_a: np.ndarray, keys_a: np.ndarray,
    codes_b: np.ndarray, keys_b: np.ndarray,
) -> str | None:
    """None iff images is a bijection a -> b carrying types blockwise and pairs onto pairs."""
    n = len(codes_a)
    img = np.asarray(images, dtype=np.int64)
    if img.shape != (n,) or sorted(img.tolist()) != list(range(n)):
        return "not a bijection of the elements"
    tmap: dict[int, int] = {}
    for ca, cb in zip(codes_a.tolist(), np.asarray(codes_b)[img].tolist()):
        if tmap.setdefault(ca, cb) != cb:
            return "splits a type fiber"
    if len(set(tmap.values())) != len(tmap):
        return "merges two types"
    a, b = keys_a // n, keys_a % n
    ia, ib = img[a], img[b]
    mapped = np.sort(np.minimum(ia, ib) * n + np.maximum(ia, ib))
    if not np.array_equal(mapped, keys_b):
        return "does not carry incidences onto incidences"
    return None


# -- coset geometries -------------------------------------------------------


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(b.__getitem__, a))


def closure(
    degree: int, gens: list[tuple[int, ...]], limit: int | None = None
) -> list[tuple[int, ...]] | None:
    """All elements of the generated group, sorted; None once there are more than limit."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        if limit is not None and len(seen) > limit:
            return None
        frontier = fresh
    return sorted(seen)


class CosetOracle:
    """Coset incidence structure of (G; G_1..G_r) and the answers derived from it."""

    def __init__(
        self, degree: int, group_gens: list[tuple[int, ...]],
        subgroup_gens: list[list[tuple[int, ...]]],
    ) -> None:
        """subgroup_gens lists generators of each G_i; a full element list also does."""
        elements = closure(degree, group_gens)
        index = {g: i for i, g in enumerate(elements)}
        self.group_order = len(elements)
        self.subgroup_orders = []
        self.subgroup_sets: list[frozenset[int]] = []
        # coset_of[t][g] = id of the coset G_t g containing element g
        coset_of: list[list[int]] = []
        self.type_codes: list[int] = []
        for t, gens in enumerate(subgroup_gens):
            sub = closure(degree, gens)
            self.subgroup_orders.append(len(sub))
            self.subgroup_sets.append(frozenset(index[h] for h in sub))
            row = [-1] * len(elements)
            for gi, g in enumerate(elements):
                if row[gi] != -1:
                    continue
                cid = len(self.type_codes)
                self.type_codes.append(t)
                for h in sub:
                    row[index[compose(h, g)]] = cid
            coset_of.append(row)
        self.size = len(self.type_codes)
        adj: list[set[int]] = [set() for _ in range(self.size)]
        for gi in range(len(elements)):
            cs = [row[gi] for row in coset_of]
            for a, b in itertools.combinations(cs, 2):
                adj[a].add(b)
                adj[b].add(a)
        self.adj = [frozenset(s) for s in adj]
        self.pair_count = sum(len(s) for s in adj) // 2
        # right multiplication by each group generator, as a permutation of cosets
        self.action_gens = []
        for x in group_gens:
            image = [0] * self.size
            for row in coset_of:
                for gi, g in enumerate(elements):
                    image[row[gi]] = row[index[compose(g, x)]]
            self.action_gens.append(tuple(image))
        self.action_order = len(closure(self.size, self.action_gens))
        self.rank = len(subgroup_gens)

    def twin_class_max(self) -> int:
        """Largest set of same-type cosets with identical neighbourhoods."""
        classes = collections.Counter(zip(self.type_codes, self.adj))
        return max(classes.values())

    def connected(self) -> bool:
        return self._connected_within(set(range(self.size)))

    def ft_product_work(self) -> int:
        """Element products the set-product FT criterion forms: sum |G_J| |G_i|."""
        r = self.rank
        full = frozenset(range(self.group_order))
        work = 0
        for size in range(r + 1):
            for j_set in itertools.combinations(range(r), size):
                g_j = full.intersection(*(self.subgroup_sets[j] for j in j_set))
                work += sum(
                    len(g_j) * self.subgroup_orders[i] for i in range(r) if i not in j_set
                )
        return work

    def _flags(self):
        """(flag, common neighbours) for every flag, the empty flag included."""
        def extend(flag, ext):
            yield flag, ext
            last = flag[-1] if flag else -1
            for v in sorted(ext):
                if v > last:
                    yield from extend(flag + (v,), ext & self.adj[v])

        yield from extend((), frozenset(range(self.size)))

    def answers(self) -> dict:
        """Flag transitivity per typeset, residual connectedness, geometry and firmness."""
        full = frozenset(range(self.rank))
        flags = list(self._flags())
        by_typeset: dict[frozenset, set] = collections.defaultdict(set)
        chambers: list[tuple[int, ...]] = []
        geometry = True
        rc = True
        for flag, ext in flags:
            types = frozenset(self.type_codes[x] for x in flag)
            if flag:
                by_typeset[types].add(frozenset(flag))
            if types == full:
                chambers.append(flag)
            elif not ext:
                geometry = False
            if self.rank - len(types) >= 2:
                nodes = {x for x in ext if self.type_codes[x] not in types}
                rc = rc and self._connected_within(nodes)
        on_chambers: collections.Counter = collections.Counter()
        for c in chambers:
            for size in range(len(c) + 1):
                on_chambers.update(frozenset(s) for s in itertools.combinations(c, size))
        firm = all(on_chambers[frozenset(flag)] >= 2 for flag, ext in flags if ext)
        transitive = all(
            self._single_orbit(pool) for pool in by_typeset.values()
        ) and len(by_typeset) == 2**self.rank - 1
        return {"ft": transitive, "rc": rc, "geometry": geometry, "firm": firm}

    def _connected_within(self, nodes: set[int]) -> bool:
        if len(nodes) <= 1:
            return True
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            for y in self.adj[stack.pop()] & nodes:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(nodes)

    def _single_orbit(self, pool: set[frozenset[int]]) -> bool:
        start = next(iter(pool))
        seen = {start}
        stack = [start]
        while stack:
            flag = stack.pop()
            for g in self.action_gens:
                image = frozenset(g[x] for x in flag)
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
        return len(seen) == len(pool)


# -- free groups --------------------------------------------------------------


def reduce_word(letters) -> tuple[int, ...]:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def reduced_words(rank: int, max_len: int) -> list[tuple[int, ...]]:
    """Every reduced word of length at most max_len, shortest first."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in letters if not (w and w[-1] == -a)]
        out.extend(frontier)
    return out


def reduced_word_count(rank: int, max_len: int) -> int:
    """1 + 2n sum_{k<L} (2n-1)^k, the number of reduced words of length <= L."""
    return 1 + sum(2 * rank * (2 * rank - 1) ** k for k in range(max_len))


class Automaton:
    """Folded subgroup graph of a generating set, by naive union-find folding."""

    def __init__(self, generators) -> None:
        arcs = []
        fresh = 1
        for word in generators:
            word = reduce_word(word)
            prev = 0
            for j, a in enumerate(word):
                nxt = 0 if j == len(word) - 1 else fresh
                fresh += nxt != 0
                arcs.append((prev, a, nxt))
                prev = nxt
        parent = list(range(fresh))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        while True:
            trans: dict[tuple[int, int], int] = {}
            merged = False
            for u, a, v in arcs:
                u, v = find(u), find(v)
                for key, target in (((u, a), v), ((v, -a), u)):
                    seen = trans.setdefault(key, target)
                    if find(seen) != find(target):
                        parent[find(seen)] = find(target)
                        merged = True
            if not merged:
                break
        self.base = find(0)
        self.trans = {(find(u), a): find(v) for (u, a), v in trans.items()}

    def accepts(self, word) -> bool:
        state = self.base
        for a in reduce_word(word):
            state = self.trans.get((state, a))
            if state is None:
                return False
        return state == self.base


def graph_words(size: int, arcs) -> tuple[list[tuple[int, ...]], dict]:
    """Free basis of a based graph (basepoint 0) and its transition table."""
    trans: dict[tuple[int, int], int] = {}
    for u, a, v in arcs:
        trans[(u, a)] = v
        trans[(v, -a)] = u
    out: dict[int, list[tuple[int, int]]] = collections.defaultdict(list)
    for (u, a), v in sorted(trans.items()):
        out[u].append((a, v))
    path = {0: ()}
    queue = collections.deque([0])
    tree = set()
    while queue:
        x = queue.popleft()
        for a, v in out[x]:
            if v not in path:
                path[v] = path[x] + (a,)
                tree.add((x, a, v) if a > 0 else (v, -a, x))
                queue.append(v)
    basis = [
        reduce_word(path[u] + (a,) + tuple(-b for b in reversed(path[v])))
        for (u, a, v) in arcs
        if (u, a, v) not in tree
    ]
    return basis, trans


def traces_loop(trans: dict, word) -> bool:
    state = 0
    for a in reduce_word(word):
        state = trans.get((state, a))
        if state is None:
            return False
    return state == 0


def split_products(h_gens, k_gens, words) -> set[tuple[int, ...]]:
    """Words up to the longest input word that factor as u v, u in H, v in K (split search)."""
    max_len = max(len(w) for w in words)
    h, k = Automaton(h_gens), Automaton(k_gens)
    in_h = [w for w in words if h.accepts(w)]
    in_k = [w for w in words if k.accepts(w)]
    return {p for u in in_h for v in in_k if len(p := reduce_word(u + v)) <= max_len}


def group_stats(degree: int, gens: list[tuple[int, ...]]) -> tuple[int, bool, tuple]:
    """Order, abelian-or-not and element-order histogram of a small permutation group."""
    elements = closure(degree, gens)
    abelian = all(compose(a, b) == compose(b, a) for a in gens for b in gens)
    hist: collections.Counter = collections.Counter()
    identity = tuple(range(degree))
    for g in elements:
        k, x = 1, g
        while x != identity:
            x = compose(x, g)
            k += 1
        hist[k] += 1
    return len(elements), abelian, tuple(sorted(hist.items()))
