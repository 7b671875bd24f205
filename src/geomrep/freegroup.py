"""Free-group words, Stallings subgroup graphs, and the rose-cover subgroup family."""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import re
from typing import Iterable, Sequence

import numpy as np

from .perms import PermGroup, Permutation

# A word is a tuple of nonzero ints: i means x_i, -i means x_i^-1 (1-indexed).
Word = tuple[int, ...]


def reduce_word(letters: Iterable[int]) -> Word:
    """Free reduction to the unique normal form."""
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_inverse(word: Iterable[int]) -> Word:
    return tuple(-letter for letter in reversed(list(word)))


def concat(*words: Iterable[int]) -> Word:
    return reduce_word(itertools.chain(*words))


_TOKEN = re.compile(r"^x([1-9]\d*)(\^-1)?$")


def parse_word(text: str) -> Word:
    """Parse \"x1 x2^-1\" syntax; \"1\" or the empty string is the identity."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad word token: {token!r}")
        index = int(m.group(1))
        letters.append(-index if m.group(2) else index)
    return reduce_word(letters)


def format_word(word: Iterable[int]) -> str:
    word = tuple(word)
    if not word:
        return "1"
    return " ".join(
        f"x{abs(letter)}" + ("" if letter > 0 else "^-1") for letter in word
    )


@dataclasses.dataclass(frozen=True)
class StallingsGraph:
    """Folded core graph of a finitely generated subgroup; basepoint is vertex 0."""

    alphabet: int
    size: int
    arcs: tuple[tuple[int, int, int], ...]

    def rank(self) -> int:
        return len(self.arcs) - self.size + 1


def _adjacency(
    arcs: Iterable[tuple[int, int, int]],
) -> collections.defaultdict[int, dict[int, int]]:
    """Signed-letter -> target map of every vertex of a folded arc set."""
    trans: collections.defaultdict[int, dict[int, int]] = collections.defaultdict(dict)
    for u, letter, v in arcs:
        trans[u][letter] = v
        trans[v][-letter] = u
    return trans


@functools.lru_cache(maxsize=256)
def _transitions(graph: StallingsGraph) -> collections.defaultdict[int, dict[int, int]]:
    return _adjacency(graph.arcs)


def _letters(alphabet: int) -> list[int]:
    return [s * i for i in range(1, alphabet + 1) for s in (1, -1)]


def _folded(
    base: int, arcs: Iterable[tuple[int, int, int]]
) -> tuple[int, set[tuple[int, int, int]]]:
    """Union-find fold of signed arcs; returns the basepoint's class and the arcs.

    Each class root keeps one signed-letter -> target map. When a letter
    already leads elsewhere, the two targets are united and the arcs of the
    dropped root (the one with fewer arcs) go back on the worklist, so no
    step rescans the whole arc set.
    """
    parent: dict[int, int] = {}
    out: collections.defaultdict[int, dict[int, int]] = collections.defaultdict(dict)
    work = list(arcs)

    def find(x: int) -> int:
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    while work:
        u, letter, v = work.pop()
        u, v = find(u), find(v)
        for x, a, y in ((u, letter, v), (v, -letter, u)):
            z = find(out[x].setdefault(a, y))
            if z != y:
                if len(out[z]) < len(out[y]):
                    z, y = y, z
                parent[y] = z
                work.extend((z, b, t) for b, t in out.pop(y).items())
                break
    folded = {
        (x, a, find(y)) for x, step in out.items() for a, y in step.items() if a > 0
    }
    return find(base), folded


def _trimmed(
    protected: set[int], arcs: set[tuple[int, int, int]]
) -> set[tuple[int, int, int]]:
    """Remove hanging trees so every unprotected vertex has degree >= 2."""
    arcs = set(arcs)
    incident: dict[int, list[tuple[int, int, int]]] = {}
    for arc in arcs:
        incident.setdefault(arc[0], []).append(arc)
        incident.setdefault(arc[2], []).append(arc)
    degree = {x: len(at) for x, at in incident.items()}
    leaves = [x for x, d in degree.items() if d == 1 and x not in protected]
    while leaves:
        leaf = leaves.pop()
        for arc in incident[leaf]:
            if arc in arcs:
                arcs.remove(arc)
                other = arc[2] if arc[0] == leaf else arc[0]
                degree[other] -= 1
                if degree[other] == 1 and other not in protected:
                    leaves.append(other)
    return arcs


def _spanning_tree(
    trans: dict[int, dict[int, int]], base: int, alphabet: int
) -> dict[int, tuple[int, int] | None]:
    """BFS in letter order: each vertex -> (parent, letter), in visiting order."""
    tree: dict[int, tuple[int, int] | None] = {base: None}
    queue = [base]
    letters = _letters(alphabet)
    for x in queue:
        step = trans[x]
        for letter in letters:
            y = step.get(letter)
            if y is not None and y not in tree:
                tree[y] = (x, letter)
                queue.append(y)
    return tree


def _canonical(
    base: int,
    arcs: set[tuple[int, int, int]],
    alphabet: int,
) -> StallingsGraph:
    """BFS renumbering from the basepoint; a normal form for folded graphs."""
    tree = _spanning_tree(_adjacency(arcs), base, alphabet)
    order = {x: i for i, x in enumerate(tree)}
    new_arcs = sorted((order[u], letter, order[v]) for (u, letter, v) in arcs)
    return StallingsGraph(alphabet=alphabet, size=len(order), arcs=tuple(new_arcs))


def stallings_graph(
    generators: Iterable[Word], alphabet: int | None = None
) -> StallingsGraph:
    """Wedge of generator loops, folded to confluence and trimmed to the core."""
    generators = [reduce_word(w) for w in generators]
    used = max((abs(l) for w in generators for l in w), default=1)
    if alphabet is None:
        alphabet = used
    elif used > alphabet:
        raise ValueError(f"letter x{used} is beyond the alphabet x1..x{alphabet}")
    arcs: list[tuple[int, int, int]] = []
    fresh = 1
    for word in generators:
        path = [0, *range(fresh, fresh + len(word) - 1), 0]
        fresh += len(path) - 2
        arcs.extend(zip(path, word, path[1:]))
    return _core(arcs, alphabet)


def _join(graphs: Iterable[StallingsGraph], alphabet: int) -> StallingsGraph:
    """Graph of the subgroup generated by the given ones: their wedge at vertex 0."""
    arcs: list[tuple[int, int, int]] = []
    offset = 0
    for graph in graphs:
        arcs.extend(
            (u and u + offset, letter, v and v + offset) for u, letter, v in graph.arcs
        )
        offset += graph.size
    return _core(arcs, alphabet)


def _core(arcs: list[tuple[int, int, int]], alphabet: int) -> StallingsGraph:
    """Fold signed arcs around basepoint 0, trim to the core, renumber."""
    base, folded = _folded(0, arcs)
    return _canonical(base, _trimmed({base}, folded), alphabet)


def _trace(trans: dict[int, dict[int, int]], word: Iterable[int]) -> list[int]:
    """Vertices visited reading the word from the basepoint, up to a missing arc."""
    states = [0]
    for letter in word:
        nxt = trans[states[-1]].get(letter)
        if nxt is None:
            break
        states.append(nxt)
    return states


def membership(word: Iterable[int], graph: StallingsGraph) -> bool:
    """True iff the word traces a basepoint-to-basepoint path."""
    w = reduce_word(word)
    states = _trace(_transitions(graph), w)
    return len(states) > len(w) and states[-1] == 0


def _fiber_walk(
    h: StallingsGraph, k: StallingsGraph
) -> tuple[dict[tuple[int, int], int], set[tuple[int, int, int]]]:
    """Pair BFS of the fiber product from both basepoints: pair index and arcs."""
    th, tk = _transitions(h), _transitions(k)
    index = {(0, 0): 0}
    queue = [(0, 0)]
    arcs: set[tuple[int, int, int]] = set()
    for a, b in queue:
        src = index[(a, b)]
        step = tk[b]
        for letter, a2 in th[a].items():
            b2 = step.get(letter)
            if b2 is None:
                continue
            pair = (a2, b2)
            if pair not in index:
                index[pair] = len(index)
                queue.append(pair)
            if letter > 0:
                arcs.add((src, letter, index[pair]))
    return index, arcs


@functools.lru_cache(maxsize=512)
def _fiber_reach(h: StallingsGraph, k: StallingsGraph) -> frozenset[tuple[int, int]]:
    """Pairs jointly reachable from both basepoints by a common word."""
    return frozenset(_fiber_walk(h, k)[0])


def intersection(h: StallingsGraph, k: StallingsGraph) -> StallingsGraph:
    """Basepoint component of the fiber product; represents H intersect K."""
    _, arcs = _fiber_walk(h, k)
    return _canonical(0, _trimmed({0}, arcs), max(h.alphabet, k.alphabet))


def graph_basis(graph: StallingsGraph) -> list[Word]:
    """Free basis from a BFS spanning tree; one word per non-tree arc."""
    tree = _spanning_tree(_transitions(graph), 0, graph.alphabet)
    path: dict[int, Word] = {}
    for y, step in tree.items():
        path[y] = () if step is None else path[step[0]] + (step[1],)
    return [
        concat(path[u], (letter,), word_inverse(path[v]))
        for (u, letter, v) in graph.arcs
        if tree[v] != (u, letter) and tree[u] != (v, -letter)
    ]


def product_membership(
    word: Iterable[int], h: StallingsGraph, k: StallingsGraph
) -> bool:
    """True iff word is in H*K."""
    return _product_words_bulk(h, k, [reduce_word(word)])[0]


def _product_words_bulk(
    h: StallingsGraph, k: StallingsGraph, words: Sequence[Word]
) -> list[bool]:
    """Product membership of reduced words: w = uv with u read in H from the
    basepoint, v read backwards in K to it, and the two ends jointly reachable."""
    reach = _fiber_reach(h, k)
    th, tk = _transitions(h), _transitions(k)
    out = []
    for w in words:
        prefix = _trace(th, w)
        suffix = _trace(tk, [-letter for letter in reversed(w)])
        m = len(w)
        out.append(
            any(
                (prefix[i], suffix[m - i]) in reach
                for i in range(max(0, m + 1 - len(suffix)), len(prefix))
            )
        )
    return out


@functools.lru_cache(maxsize=256)
def _product_column(
    h: StallingsGraph, k: StallingsGraph, length_bound: int
) -> np.ndarray:
    """Read-only H*K membership of every reduced word up to the length bound,
    in the order of `all_reduced_words`; one bool (byte) per word.

    Keyed by canonical graphs, so every (J, i) pair of a bounded FT sweep
    that meets the same two subgroups reads one column."""
    words = all_reduced_words(max(h.alphabet, k.alphabet), length_bound)
    column = np.array(_product_words_bulk(h, k, words), dtype=bool)
    column.flags.writeable = False
    return column


def all_reduced_words(alphabet: int, max_len: int) -> list[Word]:
    """Every reduced word of length at most max_len, shortest first."""
    out: list[Word] = [()]
    frontier: list[Word] = [()]
    letters = _letters(alphabet)
    for _ in range(max_len):
        grown = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                grown.append(w + (letter,))
        out.extend(grown)
        frontier = grown
    return out


@dataclasses.dataclass(frozen=True)
class FreeAutomorphism:
    """Generator-image map whose images are verified to form a basis."""

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError("image count must equal the rank")
        object.__setattr__(
            self, "images", tuple(reduce_word(w) for w in self.images)
        )
        rose = StallingsGraph(
            alphabet=self.rank,
            size=1,
            arcs=tuple((0, i, 0) for i in range(1, self.rank + 1)),
        )
        if stallings_graph(self.images, self.rank) != rose:
            raise ValueError("images do not form a basis")

    def apply(self, word: Iterable[int]) -> Word:
        out: list[int] = []
        for letter in reduce_word(word):
            if abs(letter) > self.rank:
                raise ValueError("word uses a generator beyond the rank")
            image = self.images[abs(letter) - 1]
            out.extend(image if letter > 0 else word_inverse(image))
        return reduce_word(out)


def k_group(n: int) -> list[FreeAutomorphism]:
    """Generators inverting x_1, rotating the basis, and swapping x_1 with x_2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    invert = FreeAutomorphism(n, ((-1,),) + tuple((i,) for i in range(2, n + 1)))
    rotate = FreeAutomorphism(n, tuple((i % n + 1,) for i in range(1, n + 1)))
    swap = FreeAutomorphism(
        n, ((2,), (1,)) + tuple((i,) for i in range(3, n + 1))
    )
    return [invert, rotate, swap]


def rose_cover_generators(n: int) -> tuple[list[Word], list[list[Word]]]:
    """The 2n(n-1) conjugates x_j^{+-1} x_i x_j^{-+1} and their parabolic families."""
    if n < 2:
        raise ValueError("n must be >= 2")
    gens: list[Word] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j == i:
                continue
            gens.append((j, i, -j))
            gens.append((-j, i, j))
    parabolics = [
        [w for idx, w in enumerate(gens) if idx != skip] for skip in range(len(gens))
    ]
    return gens, parabolics


def _family_graphs(
    family: Sequence[Sequence[Word]], least: int = 1
) -> tuple[int, list[StallingsGraph]]:
    """Common alphabet of the family, of at least `least` letters, and each member's graph over it."""
    alphabet = max([least, *(abs(l) for gens in family for w in gens for l in w)])
    return alphabet, [stallings_graph(gens, alphabet) for gens in family]


def subgroup_action(
    automorphisms: Sequence[FreeAutomorphism],
    family: Sequence[Sequence[Word]],
) -> PermGroup:
    """Permutation group induced on the family; errors carry a witness word."""
    if not family:
        raise ValueError("family is empty")
    # images under a rank-n automorphism may use any of the n letters
    rank = max((phi.rank for phi in automorphisms), default=1)
    alphabet, graphs = _family_graphs(family, rank)
    for a, b in itertools.combinations(range(len(family)), 2):
        if graphs[a] == graphs[b]:
            raise ValueError(f"family members {a} and {b} are the same subgroup")
    perms = []
    for phi in automorphisms:
        images = []
        for fi, gens in enumerate(family):
            image_gens = [phi.apply(w) for w in gens]
            image_graph = stallings_graph(image_gens, alphabet)
            if image_graph not in graphs:
                witness = format_word(image_gens[0])
                raise ValueError(
                    f"image of family member {fi} matches no family member "
                    f"(witness word {witness})"
                )
            images.append(graphs.index(image_graph))
        perms.append(Permutation(images))
    return PermGroup(len(family), perms)


@dataclasses.dataclass(frozen=True)
class BoundedFtReport:
    """Exhaustive check of G_J G_i = intersection of G_j G_i on short words."""

    ok: bool
    j_set: tuple[int, ...]
    i: int
    length_bound: int
    words_checked: int
    counterexamples: tuple[str, ...]


def bounded_ft_check(
    family: Sequence[Sequence[Word]],
    j_set: Iterable[int],
    i: int,
    length_bound: int,
) -> BoundedFtReport:
    """Compare the two product sets on every reduced word up to the length bound."""
    j_set = tuple(sorted(set(j_set)))
    if i in j_set:
        raise ValueError("i must lie outside J")
    if not 0 <= length_bound <= 10:
        raise ValueError(f"length bound must be >= 0 and <= 10, not {length_bound}")
    alphabet, graphs = _family_graphs(family)
    g_j = stallings_graph(itertools.chain.from_iterable(family), alphabet)
    for j in j_set:
        g_j = intersection(g_j, graphs[j])
    lhs = _product_column(g_j, graphs[i], length_bound)
    columns = [_product_column(graphs[j], graphs[i], length_bound) for j in j_set]
    rhs = np.logical_and.reduce(columns) if columns else lhs
    differ = np.flatnonzero(lhs != rhs)
    words = all_reduced_words(alphabet, length_bound) if differ.size else []
    counterexamples = tuple(format_word(words[w]) for w in differ)
    return BoundedFtReport(
        ok=not counterexamples,
        j_set=j_set,
        i=i,
        length_bound=length_bound,
        words_checked=len(lhs),
        counterexamples=counterexamples,
    )


@dataclasses.dataclass(frozen=True)
class RcExactReport:
    """Exact check of G_J = <G_{J+i} : i outside J> over all corank >= 2 sets."""

    ok: bool
    checked: int
    failures: tuple[tuple[int, ...], ...]


def rc_check_exact(family: Sequence[Sequence[Word]]) -> RcExactReport:
    """Verify residual connectedness subgroup identities by Stallings arithmetic."""
    r = len(family)
    alphabet, graphs = _family_graphs(family)
    cache: dict[tuple[int, ...], StallingsGraph] = {
        (): stallings_graph(itertools.chain.from_iterable(family), alphabet)
    }

    def subgroup(j_set: tuple[int, ...]) -> StallingsGraph:
        if j_set not in cache:
            head = j_set[:-1]
            cache[j_set] = intersection(subgroup(head), graphs[j_set[-1]])
        return cache[j_set]

    failures = []
    checked = 0
    for size in range(r - 1):
        for j_set in itertools.combinations(range(r), size):
            checked += 1
            above = [
                subgroup(tuple(sorted((*j_set, i)))) for i in range(r) if i not in j_set
            ]
            if _join(above, alphabet) != subgroup(j_set):
                failures.append(j_set)
    return RcExactReport(ok=not failures, checked=checked, failures=tuple(failures))
