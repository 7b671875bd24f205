"""Permutation groups: deterministic stabilizer chains, orbits, fingerprints."""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# image bytes of the identity, per degree
_IDENTITY_KEYS: dict[int, bytes] = {}


class Permutation:
    """A bijection of {0..degree-1}; (a * b) applies a first, then b."""

    __slots__ = ("images", "_key")

    def __init__(self, images: Sequence[int] | np.ndarray):
        arr = np.array(images)
        if arr.ndim != 1:
            raise ValueError("images must be a flat sequence")
        # an empty list parses as float; anything else must be integer, not bool
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError("images must be integers")
        arr = arr.astype(np.int64, copy=False)
        n = arr.shape[0]
        seen = np.zeros(n, dtype=bool)
        if n and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("images out of range")
        seen[arr] = True
        if not seen.all():
            raise ValueError("images is not a bijection")
        arr.setflags(write=False)
        self.images = arr
        self._key = arr.tobytes()

    @classmethod
    def _from_bijection(cls, arr: np.ndarray) -> "Permutation":
        """Wrap a fresh int64 image array already known to be a bijection."""
        perm = cls.__new__(cls)
        arr.setflags(write=False)
        perm.images = arr
        perm._key = arr.tobytes()
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(np.arange(degree, dtype=np.int64))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles given as point sequences."""
        images = np.arange(degree, dtype=np.int64)
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)(cycle[:1])):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return int(self.images.shape[0])

    @property
    def is_identity(self) -> bool:
        n = len(self.images)
        if n not in _IDENTITY_KEYS:
            _IDENTITY_KEYS[n] = np.arange(n, dtype=np.int64).tobytes()
        return self._key == _IDENTITY_KEYS[n]

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        # a composition of bijections is one: no re-validation
        return Permutation._from_bijection(other.images[self.images])

    def inverse(self) -> "Permutation":
        inv = np.empty(self.degree, dtype=np.int64)
        inv[self.images] = np.arange(self.degree)
        return Permutation._from_bijection(inv)

    def order(self) -> int:
        return math.lcm(*[len(c) for c in self.cycles()])

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimum, sorted by minimum."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            p = self(start)
            while p != start:
                seen[p] = True
                cycle.append(p)
                p = self(p)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def restricted(self, points: Sequence[int]) -> "Permutation":
        """The induced permutation on an invariant point list, reindexed 0..len-1."""
        index = {p: i for i, p in enumerate(points)}
        try:
            return Permutation([index[self(p)] for p in points])
        except KeyError:
            raise ValueError("point list is not invariant") from None

    def to_list(self) -> list[int]:
        return self.images.tolist()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "Permutation") -> bool:
        return self.to_list() < other.to_list()

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)


class _Level:
    """One stabilizer-chain level: base point, strong generators, transversal."""

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}


@dataclass(frozen=True)
class GroupFingerprint:
    """Order, element-order histogram, and center order of a small group."""

    order: int
    order_histogram: tuple[tuple[int, int], ...]
    center_order: int

    def to_json_dict(self) -> dict:
        return {
            "order": str(self.order),
            "order_histogram": {str(k): v for k, v in self.order_histogram},
            "center_order": str(self.center_order),
        }


@dataclass(frozen=True)
class BlockAction:
    """Induced action of a group on a block system: image group and kernel."""

    image: "PermGroup"
    kernel: "PermGroup"


class _ElementTable:
    """The elements of a group as one read-only int64 (order, degree) array of
    image rows in lexicographic order, with an exact row -> index lookup.

    The rows are formed level by level: after level j, every u_j * ... * u_0
    with u_i in level i's transversal (sorted by point), where u * p has
    images p.images[u.images], so one gather per level forms all products
    with that level's transversal. The product with positions t_0, t_1, ...
    is formed at place code = (t_0 |T_1| + t_1) |T_2| + ..., which is below
    the order, so sifting a row through the chain numbers it exactly at any
    degree.
    """

    __slots__ = ("rows", "base", "_inverses", "_positions", "_rank")

    def __init__(self, degree: int, levels: Sequence[_Level]):
        rows = np.arange(degree, dtype=np.int64)[np.newaxis, :]
        self._inverses, self._positions = [], []
        for lv in levels:
            points = sorted(lv.transversal)
            trans = np.stack([lv.transversal[p].images for p in points])
            rows = rows[:, trans].reshape(-1, degree)
            inverses = np.empty_like(trans)
            inverses[np.arange(len(points))[:, None], trans] = np.arange(degree)
            position = np.full(degree, -1, dtype=np.int64)
            position[points] = np.arange(len(points))
            self._inverses.append(inverses)
            self._positions.append(position)
        order = np.lexsort(rows.T[::-1]) if degree else np.arange(len(rows))
        self._rank = np.empty(len(rows), dtype=np.int64)
        self._rank[order] = np.arange(len(rows))
        self.rows = rows[order]
        self.rows.setflags(write=False)
        self.base = np.array([lv.point for lv in levels], dtype=np.int64)

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The table index of each row of rows; every row must be a group element."""
        return self._rank[self._code(rows)]

    def contains(self, rows: np.ndarray) -> np.ndarray:
        """Whether each row of rows, a permutation of the domain, is a group element."""
        code = self._code(rows)
        inside = (code >= 0) & (code < len(self._rank))
        inside[inside] = (self.rows[self._rank[code[inside]]] == rows[inside]).all(axis=1)
        return inside

    def _code(self, rows: np.ndarray) -> np.ndarray:
        """The place where each row was formed, if it is a group element.

        Any other row gets some code, perhaps out of range: a base image
        outside its level's orbit reads position -1.
        """
        # an element is fixed by its base images; sifting h -> h * u_t^-1 at a
        # level moves the later base images through u_t^-1
        images = rows[:, self.base]
        code = np.zeros(len(rows), dtype=np.int64)
        for j, (inverses, position) in enumerate(zip(self._inverses, self._positions)):
            t = position[images[:, j]]
            code = code * len(inverses) + t
            images[:, j + 1:] = inverses[t[:, None], images[:, j + 1:]]
        return code


class PermGroup:
    """Permutation group with an eagerly built deterministic stabilizer chain."""

    def __init__(self, degree: int, generators: Iterable[Permutation],
                 base_prefix: Sequence[int] = ()):
        self.degree = degree
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._identity = Permutation.identity(degree)
        self._build_chain(tuple(base_prefix))
        self._base_prefix_len = len(base_prefix)

    # chain construction

    def _build_chain(self, base_prefix: tuple[int, ...]) -> None:
        levels = self._levels = [_Level(p) for p in base_prefix]

        def first_moved(g: Permutation) -> int:
            diff = np.nonzero(g.images != np.arange(self.degree))[0]
            return int(diff[0])

        def place(g: Permutation, start: int) -> int:
            """Add g as a strong generator at levels start..j; return j."""
            j = start
            while j < len(levels) and g(levels[j].point) == levels[j].point:
                j += 1
            if j == len(levels):
                levels.append(_Level(first_moved(g)))
            for l in range(start, j + 1):
                levels[l].gens.append(g)
            return j

        for g in self.generators:
            place(g, 0)

        def rebuild_transversal(level: _Level) -> None:
            trans = {level.point: self._identity}
            queue = collections.deque([level.point])
            while queue:
                p = queue.popleft()
                for g in level.gens:
                    q = g(p)
                    if q not in trans:
                        trans[q] = trans[p] * g
                        queue.append(q)
            level.transversal = trans

        i = len(levels) - 1
        while i >= 0:
            lv = levels[i]
            rebuild_transversal(lv)
            found = None
            for p in sorted(lv.transversal):
                up = lv.transversal[p]
                for g in lv.gens:
                    q = g(p)
                    schreier = up * g * lv.transversal[q].inverse()
                    if schreier.is_identity:
                        continue
                    h = self._sift(schreier, i + 1)
                    if not h.is_identity:
                        found = (h, i + 1)
                        break
                if found:
                    break
            if found:
                h, start = found
                j = place(h, start)
                for l in range(start, j + 1):
                    rebuild_transversal(levels[l])
                i = j
            else:
                i -= 1

    # queries

    def order(self) -> int:
        n = 1
        for lv in self._levels:
            n *= len(lv.transversal)
        return n

    def _sift(self, g: Permutation, start: int = 0) -> Permutation:
        """The residue of sifting g through levels start.. of the chain."""
        h = g
        for i in range(start, len(self._levels)):
            lv = self._levels[i]
            p = h(lv.point)
            if p == lv.point:
                continue
            if p not in lv.transversal:
                return h
            h = h * lv.transversal[p].inverse()
        return h

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._sift(g).is_identity

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    def orbit(self, point: int) -> list[int]:
        seen = {point}
        queue = collections.deque([point])
        while queue:
            p = queue.popleft()
            for g in self.generators:
                q = g(p)
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return sorted(seen)

    def orbits(self) -> list[list[int]]:
        """Orbit partition of the domain, cells sorted by minimum element."""
        seen = set()
        out = []
        for p in range(self.degree):
            if p in seen:
                continue
            orb = self.orbit(p)
            seen.update(orb)
            out.append(orb)
        return out

    def _element_table(self, bound: int) -> _ElementTable:
        """The sorted element table of the group (at most bound elements)."""
        n = self.order()
        if n > bound:
            raise ValueError(f"group too large: order {n} exceeds bound {bound}")
        return _ElementTable(self.degree, self._levels)

    def enumerate_elements(self, bound: int = 10000) -> list[Permutation]:
        """All elements, sorted lexicographically by image arrays."""
        return [Permutation._from_bijection(row) for row in self._element_table(bound).rows]

    def fingerprint(self, bound: int = 10000) -> GroupFingerprint:
        """Order, element-order histogram, center order (≤ bound elements)."""
        table = self._element_table(bound)
        rows, base = table.rows, table.base
        # an element is fixed by its base images: x^m is the identity when it
        # fixes the base, and x^(m+1)(b) = x(x^m(b)) is one gather per power
        orders = np.zeros(len(rows), dtype=np.int64)
        todo = np.arange(len(rows))
        power = rows[:, base]
        m = 1
        while todo.size:
            done = (power == base).all(axis=1)
            orders[todo[done]] = m
            todo, power = todo[~done], power[~done]
            power = rows[todo[:, None], power]
            m += 1
        # x * s has images s.images[x.images], s * x has x.images[s.images]
        central = np.ones(len(rows), dtype=bool)
        for s in self.generators:
            central &= (s.images[rows] == rows[:, s.images]).all(axis=1)
        counts = np.bincount(orders)
        values = np.flatnonzero(counts)
        return GroupFingerprint(
            order=len(rows),
            order_histogram=tuple(zip(values.tolist(), counts[values].tolist())),
            center_order=int(np.count_nonzero(central)),
        )

    def induced_action(self, blocks: Sequence[Sequence[int]]) -> BlockAction:
        """Action on disjoint blocks: image group on block indices plus kernel."""
        block_of: dict[int, int] = {}
        for bi, block in enumerate(blocks):
            for p in block:
                if p in block_of:
                    raise ValueError("blocks are not disjoint")
                block_of[p] = bi
        nb = len(blocks)
        block_perms = []
        extended = []
        for g in self.generators:
            images = []
            for bi, block in enumerate(blocks):
                targets = {block_of.get(g(p)) for p in block}
                if len(targets) != 1 or None in targets:
                    raise ValueError(
                        f"generator {g!r} splits block {bi}"
                    )
                images.append(targets.pop())
            bp = Permutation(images)
            block_perms.append(bp)
            ext = np.concatenate([g.images, np.array(images, dtype=np.int64) + self.degree])
            extended.append(Permutation(ext))
        image = PermGroup(nb, block_perms)
        prefix = tuple(range(self.degree, self.degree + nb))
        big = PermGroup(self.degree + nb, extended, base_prefix=prefix)
        kernel_gens = [
            g.restricted(range(self.degree)) for g in big.stabilizer_generators(nb)
        ]
        kernel = PermGroup(self.degree, kernel_gens)
        return BlockAction(image=image, kernel=kernel)

    def stabilizer_generators(self, prefix_len: int) -> list[Permutation]:
        """Strong generators fixing the first prefix_len base-prefix points."""
        if prefix_len > self._base_prefix_len:
            raise ValueError("chain was not built with that base prefix")
        if prefix_len >= len(self._levels):
            return []
        return list(self._levels[prefix_len].gens)
