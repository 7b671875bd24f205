"""Free-group words, Stallings subgroup graphs, and the rose-cover subgroup family."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import re
from typing import Iterable, Sequence

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


@functools.lru_cache(maxsize=None)
def _transitions(graph: StallingsGraph) -> dict[tuple[int, int], int]:
    trans: dict[tuple[int, int], int] = {}
    for u, letter, v in graph.arcs:
        trans[(u, letter)] = v
        trans[(v, -letter)] = u
    return trans


def _letters(alphabet: int) -> list[int]:
    return [s * i for i in range(1, alphabet + 1) for s in (1, -1)]


def _folded(
    marks: list[int], arcs: set[tuple[int, int, int]]
) -> tuple[list[int], set[tuple[int, int, int]]]:
    """Merge targets of equally labeled arcs until no vertex branches on a letter."""
    while True:
        seen: dict[tuple[int, int, int], int] = {}
        merge = None
        for (u, letter, v) in arcs:
            for key, tgt in (((u, letter, 0), v), ((v, letter, 1), u)):
                if key in seen:
                    if seen[key] != tgt:
                        merge = (seen[key], tgt)
                        break
                else:
                    seen[key] = tgt
            if merge:
                break
        if merge is None:
            return marks, arcs
        keep, drop = min(merge), max(merge)
        marks = [keep if m == drop else m for m in marks]
        arcs = {
            (keep if a == drop else a, letter, keep if b == drop else b)
            for (a, letter, b) in arcs
        }


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


def _canonical(
    base: int,
    arcs: set[tuple[int, int, int]],
    alphabet: int,
) -> StallingsGraph:
    """BFS renumbering from the basepoint; a normal form for folded graphs."""
    trans: dict[tuple[int, int], int] = {}
    for u, letter, v in arcs:
        trans[(u, letter)] = v
        trans[(v, -letter)] = u
    order = {base: 0}
    queue = [base]
    letters = _letters(alphabet)
    while queue:
        x = queue.pop(0)
        for letter in letters:
            y = trans.get((x, letter))
            if y is not None and y not in order:
                order[y] = len(order)
                queue.append(y)
    new_arcs = sorted(
        (order[u], letter, order[v])
        for (u, letter, v) in arcs
        if u in order and v in order
    )
    return StallingsGraph(alphabet=alphabet, size=len(order), arcs=tuple(new_arcs))


def _wedge_arcs(
    generators: Iterable[Word], start: int
) -> tuple[set[tuple[int, int, int]], int]:
    arcs: set[tuple[int, int, int]] = set()
    fresh = start
    for word in generators:
        word = reduce_word(word)
        prev = 0
        for j, letter in enumerate(word):
            nxt = 0 if j == len(word) - 1 else fresh
            if nxt != 0:
                fresh += 1
            arcs.add((prev, letter, nxt) if letter > 0 else (nxt, -letter, prev))
            prev = nxt
    return arcs, fresh


def stallings_graph(
    generators: Iterable[Word], alphabet: int | None = None
) -> StallingsGraph:
    """Wedge of generator loops, folded to confluence and trimmed to the core."""
    generators = [reduce_word(w) for w in generators]
    if alphabet is None:
        alphabet = max((abs(l) for w in generators for l in w), default=1)
    arcs, _ = _wedge_arcs(generators, 1)
    (base,), arcs = _folded([0], arcs)
    arcs = _trimmed({base}, arcs)
    return _canonical(base, arcs, alphabet)


def membership(word: Iterable[int], graph: StallingsGraph) -> bool:
    """True iff the word traces a basepoint-to-basepoint path."""
    trans = _transitions(graph)
    state = 0
    for letter in reduce_word(word):
        nxt = trans.get((state, letter))
        if nxt is None:
            return False
        state = nxt
    return state == 0


def intersection(h: StallingsGraph, k: StallingsGraph) -> StallingsGraph:
    """Basepoint component of the fiber product; represents H intersect K."""
    th, tk = _transitions(h), _transitions(k)
    alphabet = max(h.alphabet, k.alphabet)
    letters = _letters(alphabet)
    index = {(0, 0): 0}
    queue = [(0, 0)]
    arcs: set[tuple[int, int, int]] = set()
    while queue:
        a, b = queue.pop(0)
        src = index[(a, b)]
        for letter in letters:
            a2 = th.get((a, letter))
            b2 = tk.get((b, letter))
            if a2 is None or b2 is None:
                continue
            state = (a2, b2)
            if state not in index:
                index[state] = len(index)
                queue.append(state)
            dst = index[state]
            arcs.add((src, letter, dst) if letter > 0 else (dst, -letter, src))
    arcs = _trimmed({0}, arcs)
    return _canonical(0, arcs, alphabet)


def graph_basis(graph: StallingsGraph) -> list[Word]:
    """Free basis from a BFS spanning tree; one word per non-tree arc."""
    trans = _transitions(graph)
    letters = _letters(graph.alphabet)
    path: dict[int, Word] = {0: ()}
    queue = [0]
    tree: set[tuple[int, int, int]] = set()
    while queue:
        x = queue.pop(0)
        for letter in letters:
            y = trans.get((x, letter))
            if y is not None and y not in path:
                path[y] = path[x] + (letter,)
                tree.add((x, letter, y) if letter > 0 else (y, -letter, x))
                queue.append(y)
    return [
        concat(path[u], (letter,), word_inverse(path[v]))
        for (u, letter, v) in graph.arcs
        if (u, letter, v) not in tree
    ]


def product_membership(
    word: Iterable[int], h: StallingsGraph, k: StallingsGraph
) -> bool:
    """True iff word is in H*K: tail-extend H by the word and fiber-product with K."""
    w = reduce_word(word)
    alphabet = max(h.alphabet, k.alphabet, max((abs(l) for l in w), default=1))
    arcs = set(h.arcs)
    fresh = h.size
    prev = 0
    for letter in w:
        arcs.add((prev, letter, fresh) if letter > 0 else (fresh, -letter, prev))
        prev = fresh
        fresh += 1
    (base, tail_end), arcs = _folded([0, prev], arcs)
    trans: dict[tuple[int, int], int] = {}
    for u, letter, v in arcs:
        trans[(u, letter)] = v
        trans[(v, -letter)] = u
    tk = _transitions(k)
    letters = _letters(alphabet)
    start = (base, 0)
    seen = {start}
    queue = [start]
    while queue:
        a, b = queue.pop(0)
        if (a, b) == (tail_end, 0):
            return True
        for letter in letters:
            a2 = trans.get((a, letter))
            b2 = tk.get((b, letter))
            if a2 is None or b2 is None:
                continue
            if (a2, b2) not in seen:
                seen.add((a2, b2))
                queue.append((a2, b2))
    return (tail_end, 0) in seen


@functools.lru_cache(maxsize=None)
def _fiber_reach(h: StallingsGraph, k: StallingsGraph) -> frozenset[tuple[int, int]]:
    """Pairs jointly reachable from both basepoints by a common word."""
    th, tk = _transitions(h), _transitions(k)
    letters = _letters(max(h.alphabet, k.alphabet))
    seen = {(0, 0)}
    queue = [(0, 0)]
    while queue:
        a, b = queue.pop(0)
        for letter in letters:
            a2 = th.get((a, letter))
            b2 = tk.get((b, letter))
            if a2 is None or b2 is None or (a2, b2) in seen:
                continue
            seen.add((a2, b2))
            queue.append((a2, b2))
    return frozenset(seen)


def _product_words_bulk(
    h: StallingsGraph, k: StallingsGraph, words: Sequence[Word]
) -> list[bool]:
    """Batch product membership: split each word and consult the joint-reach set."""
    reach = _fiber_reach(h, k)
    th, tk = _transitions(h), _transitions(k)
    out = []
    for w in words:
        m = len(w)
        prefix: list[int | None] = [0]
        for letter in w:
            prefix.append(None if prefix[-1] is None else th.get((prefix[-1], letter)))
        suffix: list[int | None] = [None] * m + [0]
        for i in range(m - 1, -1, -1):
            if suffix[i + 1] is not None:
                suffix[i] = tk.get((suffix[i + 1], -w[i]))
        out.append(
            any(
                prefix[i] is not None
                and suffix[i] is not None
                and (prefix[i], suffix[i]) in reach
                for i in range(m + 1)
            )
        )
    return out


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


def apply_automorphism(phi: FreeAutomorphism, word: Iterable[int]) -> Word:
    return phi.apply(word)


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


def subgroup_action(
    automorphisms: Sequence[FreeAutomorphism],
    family: Sequence[Sequence[Word]],
) -> PermGroup:
    """Permutation group induced on the family; errors carry a witness word."""
    if not family:
        raise ValueError("family is empty")
    alphabet = max(
        (abs(l) for gens in family for w in gens for l in w), default=1
    )
    graphs = [stallings_graph(gens, alphabet) for gens in family]

    def same_subgroup(
        gens_a: Sequence[Word], graph_a: StallingsGraph, graph_b: StallingsGraph
    ) -> bool:
        return all(membership(w, graph_b) for w in gens_a) and all(
            membership(w, graph_a) for w in graph_basis(graph_b)
        )

    for a, b in itertools.combinations(range(len(family)), 2):
        if same_subgroup(family[a], graphs[a], graphs[b]):
            raise ValueError(f"family members {a} and {b} are the same subgroup")
    perms = []
    for phi in automorphisms:
        images = []
        for fi, gens in enumerate(family):
            image_gens = [phi.apply(w) for w in gens]
            image_graph = stallings_graph(image_gens, alphabet)
            target = next(
                (
                    gj
                    for gj in range(len(family))
                    if same_subgroup(image_gens, image_graph, graphs[gj])
                ),
                None,
            )
            if target is None:
                witness = format_word(image_gens[0])
                raise ValueError(
                    f"image of family member {fi} matches no family member "
                    f"(witness word {witness})"
                )
            images.append(target)
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
    if length_bound > 10:
        raise ValueError("length bound must be <= 10")
    alphabet = max(
        (abs(l) for gens in family for w in gens for l in w), default=1
    )
    graphs = [stallings_graph(gens, alphabet) for gens in family]
    ambient = stallings_graph(
        [w for gens in family for w in gens], alphabet
    )
    g_j = ambient
    for j in j_set:
        g_j = intersection(g_j, graphs[j])
    words = all_reduced_words(alphabet, length_bound)
    lhs = _product_words_bulk(g_j, graphs[i], words)
    if j_set:
        rhs_cols = [_product_words_bulk(graphs[j], graphs[i], words) for j in j_set]
        rhs = [all(col[wi] for col in rhs_cols) for wi in range(len(words))]
    else:
        rhs = lhs
    counterexamples = tuple(
        format_word(w) for w, a, b in zip(words, lhs, rhs) if a != b
    )
    return BoundedFtReport(
        ok=not counterexamples,
        j_set=j_set,
        i=i,
        length_bound=length_bound,
        words_checked=len(words),
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
    alphabet = max(
        (abs(l) for gens in family for w in gens for l in w), default=1
    )
    graphs = [stallings_graph(gens, alphabet) for gens in family]
    ambient = stallings_graph([w for gens in family for w in gens], alphabet)
    cache: dict[tuple[int, ...], StallingsGraph] = {(): ambient}

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
            target = subgroup(j_set)
            joined: list[Word] = []
            for i in range(r):
                if i not in j_set:
                    joined.extend(graph_basis(subgroup(tuple(sorted((*j_set, i))))))
            generated = stallings_graph(joined, alphabet)
            agree = all(
                membership(w, generated) for w in graph_basis(target)
            ) and all(membership(w, target) for w in graph_basis(generated))
            if not agree:
                failures.append(j_set)
    return RcExactReport(ok=not failures, checked=checked, failures=tuple(failures))
