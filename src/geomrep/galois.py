"""Finite fields GF(p^k), projective spaces, cross-ratio, duality, Frobenius."""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable, Sequence

from .perms import PermGroup, Permutation

_POINT_GUARD = 100_000


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        a.pop()
    return _poly_trim(tuple(a))


def _monic_polys(degree: int, p: int) -> Iterable[tuple[int, ...]]:
    for coeffs in itertools.product(range(p), repeat=degree):
        yield (*coeffs, 1)


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for g in _monic_polys(d, p):
            if not _poly_mod(m, g, p):
                return False
    return True


@dataclasses.dataclass(frozen=True)
class FieldElement:
    """Element of GF(p^k), encoded as an integer in base p (coefficient vector)."""

    field: "FiniteField"
    code: int

    def _coerce(self, other: object) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    def __add__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.code, o.code))

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.code, o.code))

    def __rsub__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(o.code, self.code))

    def __mul__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, o.code))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.code, o.code))

    def __rtruediv__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(o.code, self.code))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg(self.code))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.code, e))

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self.field.modulus == other.field.modulus
            and self.code == other.code
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.modulus, self.code))

    def coeffs(self) -> tuple[int, ...]:
        """Coefficient vector, lowest degree first, length k."""
        c, v = [], self.code
        for _ in range(self.field.k):
            c.append(v % self.field.p)
            v //= self.field.p
        return tuple(c)

    def __repr__(self) -> str:
        terms = []
        for i in reversed(range(self.field.k)):
            c = self.coeffs()[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "w" if i == 1 else f"w^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"


class FiniteField:
    """GF(p^k) with precomputed arithmetic tables over integer codes 0..q-1."""

    __slots__ = ("p", "k", "q", "modulus", "_add", "_mul", "_neg", "_inv", "_frob")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]) -> None:
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("degree must be >= 1")
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        self.p, self.k, self.q = p, k, p**k
        self.modulus = tuple(x % p for x in modulus[:-1]) + (1,)
        add = [[0] * self.q for _ in range(self.q)]
        mul = [[0] * self.q for _ in range(self.q)]
        for a in range(self.q):
            pa = self._decode(a)
            for b in range(a, self.q):
                pb = self._decode(b)
                s = self._encode(
                    tuple((x + y) % p for x, y in itertools.zip_longest(pa, pb, fillvalue=0))
                )
                m = self._encode(_poly_mod(_poly_mul(pa, pb, p), self.modulus, p))
                add[a][b] = add[b][a] = s
                mul[a][b] = mul[b][a] = m
        self._add, self._mul = add, mul
        self._neg = [row.index(0) for row in add]
        inv = [0] * self.q
        for a in range(1, self.q):
            inv[a] = next(b for b in range(1, self.q) if mul[a][b] == 1)
        self._inv = inv
        self._frob = [self.pow(a, p) for a in range(self.q)]

    def _decode(self, code: int) -> tuple[int, ...]:
        c, v = [], code
        while v:
            c.append(v % self.p)
            v //= self.p
        return tuple(c)

    def _encode(self, coeffs: Sequence[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    # integer-code arithmetic (used by the linear algebra helpers)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        out, base = 1, a
        while e:
            if e & 1:
                out = self._mul[out][base]
            base = self._mul[base][base]
            e >>= 1
        return out

    def frob(self, a: int) -> int:
        return self._frob[a]

    # element-level API

    def element(self, code: int) -> FieldElement:
        if not 0 <= code < self.q:
            raise ValueError("code out of range")
        return FieldElement(self, code)

    def scalar(self, n: int) -> FieldElement:
        return FieldElement(self, n % self.p)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def elements(self) -> list[FieldElement]:
        return [FieldElement(self, c) for c in range(self.q)]

    def multiplicative_order(self, x: FieldElement) -> int:
        if x.code == 0:
            raise ValueError("zero has no multiplicative order")
        n, acc = 1, x.code
        while acc != 1:
            acc = self._mul[acc][x.code]
            n += 1
        return n

    def primitive_element(self) -> FieldElement:
        """Smallest-code generator of the multiplicative group."""
        return next(
            FieldElement(self, c)
            for c in range(1, self.q)
            if self.multiplicative_order(FieldElement(self, c)) == self.q - 1
        )

    def subfield_elements(self, degree: int = 1) -> list[FieldElement]:
        """Elements of the subfield GF(p^degree); degree must divide k."""
        if self.k % degree != 0:
            raise ValueError("subfield degree must divide k")
        fix = self.p**degree
        return [x for x in self.elements() if self.pow(x.code, fix) == x.code]

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """GF(p^k) with the lexicographically smallest monic irreducible modulus."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k == 1:
        return FiniteField(p, 1, (0, 1))
    for code in range(p**k):
        coeffs = []
        v = code
        for _ in range(k):
            coeffs.append(v % p)
            v //= p
        modulus = (*coeffs, 1)
        if _is_irreducible(modulus, p):
            return FiniteField(p, k, modulus)
    raise AssertionError("no irreducible modulus found")


# -- linear algebra over integer codes --------------------------------------


def _rref(field: FiniteField, rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form; returns the nonzero rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


def _pivot(row: Sequence[int]) -> int:
    return next(i for i, x in enumerate(row) if x != 0)


def _in_span(field: FiniteField, basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    v = list(vec)
    for row in basis:
        c = _pivot(row)
        if v[c] != 0:
            f = v[c]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return all(x == 0 for x in v)


@dataclasses.dataclass(frozen=True)
class ProjectivePoint:
    """Projective point; coordinates normalized so the first nonzero entry is 1."""

    field: FiniteField
    codes: tuple[int, ...]

    @classmethod
    def make(cls, field: FiniteField, codes: Sequence[int]) -> "ProjectivePoint":
        codes = tuple(int(c) % field.q for c in codes)
        lead = next((c for c in codes if c != 0), None)
        if lead is None:
            raise ValueError("projective point must be nonzero")
        inv = field.inv(lead)
        return cls(field, tuple(field.mul(inv, c) for c in codes))

    @property
    def coords(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, c) for c in self.codes)

    def __repr__(self) -> str:
        return "[" + ":".join(repr(x) for x in self.coords) + "]"


@dataclasses.dataclass(frozen=True)
class ProjectiveSubspace:
    """Subspace as a reduced-echelon basis matrix (unique per subspace)."""

    field: FiniteField
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(
        cls, field: FiniteField, rows: Iterable[Sequence[int]]
    ) -> "ProjectiveSubspace":
        basis = _rref(field, rows)
        if not basis:
            raise ValueError("subspace must be nonzero")
        return cls(field, basis)

    @property
    def dim(self) -> int:
        """Projective dimension."""
        return len(self.basis) - 1

    def contains(self, other: "ProjectiveSubspace") -> bool:
        return all(_in_span(self.field, self.basis, row) for row in other.basis)

    def contains_point(self, p: ProjectivePoint) -> bool:
        return _in_span(self.field, self.basis, p.codes)

    def __repr__(self) -> str:
        return f"ProjectiveSubspace(dim={self.dim}, basis={self.basis})"


def incident(a: ProjectiveSubspace, b: ProjectiveSubspace) -> bool:
    """Symmetrized containment."""
    return a.contains(b) or b.contains(a)


def _all_points(field: FiniteField, nvars: int) -> list[ProjectivePoint]:
    seen = set()
    points = []
    for codes in itertools.product(range(field.q), repeat=nvars):
        if all(c == 0 for c in codes):
            continue
        p = ProjectivePoint.make(field, codes)
        if p.codes not in seen:
            seen.add(p.codes)
            points.append(p)
    points.sort(key=lambda p: p.codes)
    return points


@dataclasses.dataclass(frozen=True)
class ProjectiveSpace:
    """PG(d, q): every subspace of projective dimension 0..d-1, by layer."""

    field: FiniteField
    d: int
    layers: tuple[tuple[ProjectiveSubspace, ...], ...]
    points: tuple[ProjectivePoint, ...]

    def __post_init__(self) -> None:
        sub_idx = {}
        for m, layer in enumerate(self.layers):
            for i, s in enumerate(layer):
                sub_idx[s.basis] = (m, i)
        object.__setattr__(self, "_sub_idx", sub_idx)

    def subspace_index(self, s: ProjectiveSubspace) -> tuple[int, int]:
        """(layer, position) of a subspace."""
        return self._sub_idx[s.basis]

    def points_in(self, s: ProjectiveSubspace) -> list[int]:
        return [i for i, p in enumerate(self.points) if s.contains_point(p)]


def projective_space(field: FiniteField, d: int) -> ProjectiveSpace:
    """All proper subspaces of PG(d, q) with deterministic ordering."""
    if d < 1:
        raise ValueError("projective dimension must be >= 1")
    q = field.q
    npoints = (q ** (d + 1) - 1) // (q - 1)
    if npoints > _POINT_GUARD:
        raise ValueError(f"too many points: {npoints} exceeds {_POINT_GUARD}")
    points = _all_points(field, d + 1)
    layer0 = tuple(
        ProjectiveSubspace.from_rows(field, [p.codes]) for p in points
    )
    layers = [layer0]
    for m in range(1, d):
        prev = layers[m - 1]
        seen: dict[tuple, ProjectiveSubspace] = {}
        for s in prev:
            for p in points:
                if s.contains_point(p):
                    continue
                bigger = ProjectiveSubspace.from_rows(field, [*s.basis, p.codes])
                seen.setdefault(bigger.basis, bigger)
        layers.append(tuple(sorted(seen.values(), key=lambda s: s.basis)))
    return ProjectiveSpace(field, d, tuple(layers), tuple(points))


def cross_ratio(
    p1: ProjectivePoint, p2: ProjectivePoint, p3: ProjectivePoint, p4: ProjectivePoint
) -> FieldElement:
    """(|p1 p3|·|p2 p4|) / (|p2 p3|·|p1 p4|) in coordinates on the common line."""
    pts = (p1, p2, p3, p4)
    field = p1.field
    if len({p.codes for p in pts}) != 4:
        raise ValueError("not distinct")
    basis = _rref(field, [p.codes for p in pts])
    if len(basis) != 2:
        raise ValueError("not collinear")
    j1, j2 = _pivot(basis[0]), _pivot(basis[1])
    ab = [(p.codes[j1], p.codes[j2]) for p in pts]

    def det(i: int, j: int) -> int:
        (a1, b1), (a2, b2) = ab[i], ab[j]
        return field.sub(field.mul(a1, b2), field.mul(a2, b1))

    num = field.mul(det(0, 2), det(1, 3))
    den = field.mul(det(1, 2), det(0, 3))
    return FieldElement(field, field.div(num, den))


def pgl_order(q: int, n: int) -> int:
    """|PGL(n, q)| by the classical formula."""
    prod = 1
    for i in range(n):
        prod *= q**n - q**i
    return prod // (q - 1)


def _matrix_point_perm(
    field: FiniteField,
    matrix: Sequence[Sequence[int]],
    points: Sequence[ProjectivePoint],
    index: dict[tuple[int, ...], int],
) -> Permutation:
    images = []
    for p in points:
        out = [
            functools.reduce(
                field.add, (field.mul(matrix[r][c], p.codes[c]) for c in range(len(p.codes)))
            )
            for r in range(len(matrix))
        ]
        images.append(index[ProjectivePoint.make(field, out).codes])
    return Permutation(images)


def pgl_group(field: FiniteField, n: int) -> PermGroup:
    """PGL(n, q) as a permutation group on the points of PG(n-1, q)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    q = field.q
    npoints = (q**n - 1) // (q - 1)
    if npoints > _POINT_GUARD:
        raise ValueError(f"too many points: {npoints} exceeds {_POINT_GUARD}")
    points = _all_points(field, n)
    index = {p.codes: i for i, p in enumerate(points)}
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    transvection = [row[:] for row in ident]
    transvection[0][1] = 1
    cycle = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    gamma = field.primitive_element().code
    diag = [row[:] for row in ident]
    diag[0][0] = gamma
    gens = [
        _matrix_point_perm(field, m, points, index)
        for m in (transvection, cycle, diag)
    ]
    return PermGroup(npoints, gens)


@dataclasses.dataclass(frozen=True)
class DualityMap:
    """Point<->line bijection of a projective plane via the standard dot form."""

    space: ProjectiveSpace
    point_to_line: tuple[int, ...]
    line_to_point: tuple[int, ...]


def duality_map(space: ProjectiveSpace) -> DualityMap:
    """p = [a:b:c] maps to the line {x : ax+by+cz = 0}; an involution."""
    if space.d != 2:
        raise ValueError("duality requires a projective plane (d = 2)")
    field = space.field

    def dot(u: Sequence[int], v: Sequence[int]) -> int:
        return functools.reduce(
            field.add, (field.mul(a, b) for a, b in zip(u, v))
        )

    lines = space.layers[1]
    p2l = []
    for p in space.points:
        (li,) = [
            i
            for i, line in enumerate(lines)
            if all(dot(p.codes, row) == 0 for row in line.basis)
        ]
        p2l.append(li)
    l2p = [0] * len(lines)
    for pi, li in enumerate(p2l):
        l2p[li] = pi
    return DualityMap(space, tuple(p2l), tuple(l2p))


@dataclasses.dataclass(frozen=True)
class FrobeniusAction:
    """x -> x^p applied coordinate-wise to every subspace; trivial iff k = 1."""

    space: ProjectiveSpace
    perm: Permutation
    trivial: bool


def frobenius_point_map(space: ProjectiveSpace) -> FrobeniusAction:
    """Permutation of all subspaces (layers concatenated) under the Galois map."""
    field = space.field
    sizes = [len(layer) for layer in space.layers]
    offsets = [sum(sizes[:m]) for m in range(len(sizes))]
    total = sum(sizes)
    if field.k == 1:
        return FrobeniusAction(space, Permutation(list(range(total))), True)
    images = [0] * total
    for m, layer in enumerate(space.layers):
        for i, s in enumerate(layer):
            mapped = tuple(tuple(field.frob(c) for c in row) for row in s.basis)
            mm, mi = space.subspace_index(ProjectiveSubspace(field, mapped))
            images[offsets[m] + i] = offsets[mm] + mi
    return FrobeniusAction(space, Permutation(images), False)
