"""Builders for the bundled incidence systems, plus coset geometries and FT/RC checks."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .autsearch import AutResult, correlation_group, correlation_type_action
from .galois import (
    FiniteField,
    ProjectiveSpace,
    duality_map,
    frobenius_point_map,
    incident,
    projective_space,
)
from .incidence import IncidenceSystem
from .perms import PermGroup, Permutation, _ElementTable

_GROUP_GUARD = 100_000
_PGL_ELEMENT_GUARD = 100_000
_PGL_PAIR_GUARD = 20_000_000


def totient_pairs(n: int) -> list[int]:
    """Smallest-of-{k, n-k} over units k mod n; has phi(n)/2 members for n >= 3."""
    return sorted({min(k, n - k) for k in range(1, n) if math.gcd(k, n) == 1})


def dihedral_geometry(n: int) -> IncidenceSystem:
    """Polygon geometry of the dihedral group D_2n: vertices plus edge classes E_i."""
    if n < 3:
        raise ValueError("n must be >= 3")
    tau = totient_pairs(n)
    # an even polygon's vertices split by parity: odd ones "-1", even ones "0"
    even = n % 2 == 0
    types = ["-1"] * even + ["0"] + [str(i) for i in tau]
    codes = [int(even and v % 2 == 0) for v in range(n)]
    codes += [c for c in range(1 + even, len(types)) for _ in range(n)]
    pairs: list[list[int]] = []
    for ci, i in enumerate(tau):
        for v in range(n):
            e = n + ci * n + v
            pairs.append([v, e])
            pairs.append([(v + i) % n, e])
    for c1, c2 in itertools.combinations(range(len(tau)), 2):
        for v1 in range(n):
            for v2 in range(n):
                pairs.append([n + c1 * n + v1, n + c2 * n + v2])
    if even:
        for a in range(1, n, 2):
            for b in range(0, n, 2):
                pairs.append([a, b])
    return IncidenceSystem(types, codes, pairs)


def complete_graph_geometry(n: int) -> IncidenceSystem:
    """Vertex-edge rank-2 system of the complete graph K_n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    edges = list(itertools.combinations(range(n), 2))
    codes = [0] * n + [1] * len(edges)
    pairs = []
    for ei, (a, b) in enumerate(edges):
        pairs.append([a, n + ei])
        pairs.append([b, n + ei])
    return IncidenceSystem(["0", "1"], codes, pairs)


def gq22() -> IncidenceSystem:
    """GQ(2,2): transpositions of S_6 vs triple transpositions, cycle containment."""
    points = list(itertools.combinations(range(6), 2))
    # the 15 perfect matchings of 0..5, each as its pairs in order
    lines = [m for m in itertools.combinations(points, 3) if len(set().union(*m)) == 6]
    codes = [0] * len(points) + [1] * len(lines)
    pairs = []
    for li, line in enumerate(lines):
        for pair in line:
            pairs.append([points.index(pair), len(points) + li])
    return IncidenceSystem(["point", "line"], codes, pairs)


def cube_geometry(vertex_adjacency: bool = True) -> IncidenceSystem:
    """Cube with 2-colored vertices: types are P1, P2, edges, faces."""
    verts = list(itertools.product((0, 1), repeat=3))
    p1 = [v for v in verts if sum(v) % 2 == 0]
    p2 = [v for v in verts if sum(v) % 2 == 1]
    order = p1 + p2
    vid = {v: i for i, v in enumerate(order)}
    edges = sorted(
        tuple(sorted((u, v)))
        for u, v in itertools.combinations(verts, 2)
        if sum(a != b for a, b in zip(u, v)) == 1
    )
    faces = [(axis, val) for axis in range(3) for val in (0, 1)]
    ne, base_e = len(edges), 8
    base_f = base_e + ne
    codes = [0] * 4 + [1] * 4 + [2] * ne + [3] * 6
    pairs = []
    for ei, (u, v) in enumerate(edges):
        pairs.append([vid[u], base_e + ei])
        pairs.append([vid[v], base_e + ei])
    for fi, (axis, val) in enumerate(faces):
        for v in verts:
            if v[axis] == val:
                pairs.append([vid[v], base_f + fi])
        for ei, (u, v) in enumerate(edges):
            if u[axis] == val and v[axis] == val:
                pairs.append([base_e + ei, base_f + fi])
    if vertex_adjacency:
        for u in p1:
            for v in p2:
                if sum(a != b for a, b in zip(u, v)) == 1:
                    pairs.append([vid[u], vid[v]])
    return IncidenceSystem(["1", "2", "3", "4"], codes, pairs)


_HEMI_RULES = ("shared-edge", "shared-vertex", "always")


def _canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    best = None
    for s in (seq, seq[::-1]):
        for r in range(len(s)):
            cand = s[r:] + s[:r]
            if best is None or cand < best:
                best = cand
    return best


def hemidodecahedron_petrie(rule: str = "shared-edge") -> IncidenceSystem:
    """Hemidodecahedron on the Petersen graph with faces and Petrie polygons."""
    if rule not in _HEMI_RULES:
        raise ValueError(f"rule must be one of {_HEMI_RULES}")
    verts = sorted(itertools.combinations(range(1, 6), 2))
    vid = {v: i for i, v in enumerate(verts)}
    edges = sorted(
        (vid[u], vid[v])
        for u, v in itertools.combinations(verts, 2)
        if not set(u) & set(v)
    )
    eid = {e: i for i, e in enumerate(edges)}

    # the ordering (a, b, c, d, e) of 1..5 traces the pentagon ab, cd, ea, bc,
    # de; each pentagon comes from the 10 orderings of one parity, and A5
    # keeps parity, so each class is an orbit of 6. The even class, which
    # holds the least pentagon, is the faces; the odd one the Petrie polygons.
    classes: tuple[set, set] = (set(), set())
    for order in itertools.permutations(range(1, 6)):
        a, b, c, d, e = order
        cycle = tuple(vid[tuple(sorted(s))] for s in ((a, b), (c, d), (e, a), (b, c), (d, e)))
        parity = sum(x > y for x, y in itertools.combinations(order, 2)) % 2
        classes[parity].add(_canonical_cycle(cycle))
    faces, petries = sorted(classes[0]), sorted(classes[1])

    # 10 vertices, 15 edges, then the faces and the Petrie polygons
    base_e, base_f, base_p = 10, 25, 31
    codes = [0] * 10 + [1] * 15 + [2] * 6 + [3] * 6
    pairs = []
    for ei, (a, b) in enumerate(edges):
        pairs += [[a, base_e + ei], [b, base_e + ei]]

    def cycle_edges(c: tuple[int, ...]) -> set[tuple[int, int]]:
        return {tuple(sorted((c[i], c[(i + 1) % 5]))) for i in range(5)}

    for x, c in enumerate(faces + petries, base_f):
        pairs += [[v, x] for v in c] + [[base_e + eid[e], x] for e in cycle_edges(c)]
    for fi, fc in enumerate(faces):
        for pi, pc in enumerate(petries):
            if rule == "always":
                hit = True
            elif rule == "shared-edge":
                hit = bool(cycle_edges(fc) & cycle_edges(pc))
            else:
                hit = bool(set(fc) & set(pc))
            if hit:
                pairs.append([base_f + fi, base_p + pi])
    return IncidenceSystem(["0", "1", "2", "3"], codes, pairs)


# -- cross-ratio geometry for PGL(n, K) --------------------------------------


@dataclasses.dataclass(frozen=True)
class PglGeometry:
    """Subspaces of PG(n-1, K) plus cross-ratio-typed quadruple layers.

    truncation is the system restricted to the subspace types; in degenerate
    mode there are no quadruple types, so it covers the whole system. Quad j
    is element quad_offset + j: its points are row j of quad_points, its
    lambda-block quad_block[j] and its line quad_line[j], all read-only int64.
    """

    system: IncidenceSystem
    truncation: IncidenceSystem
    space: ProjectiveSpace
    degenerate: bool
    subspace_labels: tuple[str, ...]
    lambda_codes: tuple[int, ...]
    quad_offset: int
    quad_points: np.ndarray
    quad_block: np.ndarray
    quad_line: np.ndarray


def pgl_cross_ratio_geometry(
    n: int,
    field: FiniteField,
    base_degree: int = 1,
    truncate_to_min_poly: bool = False,
) -> PglGeometry:
    """Cross-ratio geometry over K for PGL(n, K), with base field F = GF(p^base_degree)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if field.k % base_degree != 0:
        raise ValueError("base degree must divide the field degree")
    space = projective_space(field, n - 1)
    base_codes = set(field.subfield_elements(base_degree))
    lam_pool = [c for c in range(field.q) if c not in base_codes]
    degenerate = not lam_pool

    if degenerate:
        included = list(range(n - 1))
        lams: list[int] = []
    elif truncate_to_min_poly:
        included = [0, 1]
        step = field.p**base_degree
        orbit_len = field.k // base_degree

        def galois_orbit(c: int) -> list[int]:
            orbit = [c]
            y = field.pow(c, step)
            while y != c:
                orbit.append(y)
                y = field.pow(y, step)
            return orbit

        lam0 = next(c for c in lam_pool if len(galois_orbit(c)) == orbit_len)
        lams = sorted(galois_orbit(lam0))
    else:
        included = list(range(n - 1))
        lams = lam_pool

    layer_sizes = [len(space.layers[m]) for m in included]
    offsets = [sum(layer_sizes[:i]) for i in range(len(included))]
    nsub = sum(layer_sizes)
    q = field.q
    # each ordered triple of distinct collinear points has exactly one fourth
    # point at each cross-ratio outside {0, 1}
    nelements = nsub + len(lams) * len(space.layers[1]) * (q + 1) * q * (q - 1)
    if nelements > _PGL_ELEMENT_GUARD:
        raise ValueError(f"too many elements: {nelements} exceeds {_PGL_ELEMENT_GUARD}")

    subspace_labels = tuple(str(m) for m in included)
    lam_block = {c: b for b, c in enumerate(lams)}

    # one row (block, p1, p2, p3, p4, line) per quad, typed by the cross-ratio
    # of its line coordinates
    rows: list[tuple[int, ...]] = []
    if not degenerate:
        line_off = offsets[1]
        for li, line in enumerate(space.layers[1]):
            pts = space.points_in(line)
            j1 = next(i for i, x in enumerate(line.basis[0]) if x != 0)
            j2 = next(i for i, x in enumerate(line.basis[1]) if x != 0)
            coords = {p: (space.points[p][j1], space.points[p][j2]) for p in pts}

            def det(a: int, b: int) -> int:
                (a1, b1), (a2, b2) = coords[a], coords[b]
                return field.sub(field.mul(a1, b2), field.mul(a2, b1))

            for quad in itertools.permutations(pts, 4):
                p1, p2, p3, p4 = quad
                num = field.mul(det(p1, p3), det(p2, p4))
                den = field.mul(det(p2, p3), det(p1, p4))
                lam = field.div(num, den)
                if lam in lam_block:
                    rows.append((lam_block[lam], *quad, line_off + li))

    # the quads block by block, each block in order of its points
    table = np.array(sorted(rows), dtype=np.int64).reshape(-1, 6)
    table.flags.writeable = False
    quad_block, quad_points, quad_line = table[:, 0], table[:, 1:5], table[:, 5]
    nq = len(table)
    sizes = np.bincount(quad_block, minlength=len(lams)).tolist()
    ends = list(itertools.accumulate(sizes))
    block_ranges = [(e - s, e) for s, e in zip(sizes, ends)]
    quad_offset = nsub
    total_cross = sum(s1 * s2 for s1, s2 in itertools.combinations(sizes, 2))
    if total_cross > _PGL_PAIR_GUARD:
        raise ValueError(
            f"too many incidences: {total_cross} quad pairs exceed {_PGL_PAIR_GUARD}"
        )

    types = list(subspace_labels) + [f"Q({field.label(c)})" for c in lams]
    codes = np.repeat(np.arange(len(types)), layer_sizes + sizes)

    # subspace-subspace incidence by symmetrized containment
    sub_pairs = []
    for i1, i2 in itertools.combinations(range(len(included)), 2):
        for a, sa in enumerate(space.layers[included[i1]]):
            for b, sb in enumerate(space.layers[included[i2]]):
                if incident(sa, sb):
                    sub_pairs.append([offsets[i1] + a, offsets[i2] + b])
    sub_pairs = np.asarray(sub_pairs, dtype=np.int32).reshape(-1, 2)
    # the subspaces are elements 0..nsub-1, so this is system.truncation(subspace_labels)
    truncation = IncidenceSystem(
        subspace_labels, codes[:nsub], sub_pairs, source_ids=range(nsub)
    )
    chunks = [sub_pairs]
    if nq:
        qids = np.arange(nq, dtype=np.int32) + quad_offset
        # point-quad: x is one of the four entries
        chunks.append(
            np.stack([quad_points.astype(np.int32).reshape(-1), np.repeat(qids, 4)], axis=1)
        )
        # line-quad: the common line of the quadruple
        chunks.append(np.stack([quad_line.astype(np.int32), qids], axis=1))
        # higher-subspace-quad: {p1..p4} inside x, i.e. the quad's line inside x
        for i2 in range(2, len(included)):
            contains_line: dict[int, list[int]] = {}
            for b, sb in enumerate(space.layers[included[i2]]):
                for li, line in enumerate(space.layers[1]):
                    if sb.contains(line):
                        contains_line.setdefault(offsets[1] + li, []).append(
                            offsets[i2] + b
                        )
            hs_pairs = [
                [x, quad_offset + j]
                for j, line_eid in enumerate(quad_line.tolist())
                for x in contains_line.get(line_eid, ())
            ]
            if hs_pairs:
                chunks.append(np.asarray(hs_pairs, dtype=np.int32))
    # canonical pairs, which the constructor adopts without a sort; the array
    # is freed once the system is built
    system = IncidenceSystem(
        types, codes, _pair_array(chunks, block_ranges, quad_offset, total_cross)
    )
    return PglGeometry(
        system=system,
        truncation=truncation,
        space=space,
        degenerate=degenerate,
        subspace_labels=subspace_labels,
        lambda_codes=tuple(lams),
        quad_offset=quad_offset,
        quad_points=quad_points,
        quad_block=quad_block,
        quad_line=quad_line,
    )


def _pair_array(
    chunks: list[np.ndarray],
    block_ranges: list[tuple[int, int]],
    quad_offset: int,
    total_cross: int,
) -> np.ndarray:
    """One canonical int32 array of every pair: rows a < b, sorted, distinct.

    The chunks hold distinct rows a < b with a < quad_offset; they come first,
    sorted.  Then come the quad-quad pairs across distinct-lambda blocks, the
    consecutive quad ranges block_ranges (total_cross pairs in all): for each
    block [s, e), every a in it against every later quad b >= e, a-major, by
    one broadcast.
    """
    small = np.concatenate(chunks)
    pairs = np.empty((small.shape[0] + total_cross, 2), dtype=np.int32)
    at = small.shape[0]
    pairs[:at] = small[np.lexsort((small[:, 1], small[:, 0]))]
    end = block_ranges[-1][1] if block_ranges else 0
    for s, e in block_ranges:
        rows = pairs[at : at + (e - s) * (end - e)].reshape(e - s, end - e, 2)
        rows[:, :, 0] = np.arange(s, e, dtype=np.int32)[:, None] + quad_offset
        rows[:, :, 1] = np.arange(e, end, dtype=np.int32) + quad_offset
        at += (e - s) * (end - e)
    return pairs


def duality_truncation_perm(geom: PglGeometry) -> Permutation:
    """Point<->line duality as a permutation of the rank-2 subspace truncation."""
    if geom.space.d != 2:
        raise ValueError("duality requires a projective plane (d = 2)")
    dm = duality_map(geom.space)
    npts = len(geom.space.points)
    images = [npts + dm.point_to_line[i] for i in range(npts)]
    images += [dm.line_to_point[li] for li in range(len(geom.space.layers[1]))]
    return Permutation(images)


def frobenius_truncation_perm(geom: PglGeometry) -> Permutation | None:
    """Galois action restricted to the included subspace layers; None when trivial."""
    fa = frobenius_point_map(geom.space)
    if fa.trivial:
        return None
    nsub = geom.quad_offset
    return fa.perm.restricted(range(nsub))


def extend_truncation_correlation(
    geom: PglGeometry, f: Permutation
) -> Permutation | None:
    """Componentwise extension of a truncation correlation to the quadruple layers."""
    trunc = geom.truncation
    tact = correlation_type_action(trunc, f)
    if tact is None:
        raise ValueError("not a correlation of the subspace truncation")
    if geom.degenerate:
        return f
    if tact[0] != 0:
        # points are not preserved, so image quadruples are not elements
        return None
    sys = geom.system
    off, nq = geom.quad_offset, geom.quad_points.shape[0]
    # each quad's image, looked up by its key among the sorted quad keys; f
    # maps points to points, so the image quads have keys too
    shape = (len(geom.space.points),) * 4
    keys = np.ravel_multi_index(geom.quad_points.T, shape)
    order = np.argsort(keys)
    image_keys = np.ravel_multi_index(f.images[geom.quad_points].T, shape)
    at = np.searchsorted(keys, image_keys, sorter=order).clip(max=nq - 1)
    if not np.array_equal(keys[order[at]], image_keys):
        return None
    targets = order[at]
    images = np.arange(sys.size)
    images[: trunc.size] = f.images
    images[off:] = off + targets
    phi = Permutation(images)
    # verify: constant injective block map, and image quads sit on the image
    # lines; the first quad to fail either decides the error
    nb = len(geom.lambda_codes)
    src = geom.quad_block
    dst = src[targets]
    blocks, first = np.unique(src, return_index=True)
    bmap = np.full(nb, -1, dtype=np.int64)
    bmap[blocks] = dst[first]
    mixed = dst != bmap[src]
    lines = geom.quad_line
    broken = lines[targets] != f.images[lines]
    bad = mixed | broken
    if bad.any():
        j = int(bad.argmax())
        raise RuntimeError(
            "extension mixes cross-ratio blocks" if mixed[j] else "extension breaks line incidence"
        )
    if not np.array_equal(np.sort(dst[first]), np.arange(nb)):
        raise RuntimeError("extension block map is not a bijection")
    if correlation_type_action(sys, phi) is None:
        raise RuntimeError("extension is not a correlation")
    return phi


@dataclasses.dataclass(frozen=True)
class PglAutReport:
    """Correlation group of the cross-ratio geometry via restriction-extension.

    reported_group names the group whose orders result holds: the correlation
    group of the system in degenerate mode, else the group generated by the
    extended truncation correlations, which need not be all of Aut.
    """

    result: AutResult
    reported_group: str
    duality_extends: bool | None
    frobenius_extends: bool
    frobenius_type_action: tuple[str, ...] | None
    truncation_aut_order: int
    truncation_aut_i_order: int
    truncation_out_order: int

    def to_json_dict(self) -> dict:
        return {
            "reported_group": self.reported_group,
            "duality_extends": self.duality_extends,
            "frobenius_extends": self.frobenius_extends,
            "frobenius_type_action": (
                None
                if self.frobenius_type_action is None
                else list(self.frobenius_type_action)
            ),
            "truncation_aut_order": str(self.truncation_aut_order),
            "truncation_aut_i_order": str(self.truncation_aut_i_order),
            "truncation_out_order": str(self.truncation_out_order),
        }


def pgl_aut_via_extension(geom: PglGeometry) -> PglAutReport:
    """Aut of the full geometry from correlations of its subspace truncation.

    Also reports whether the duality (planes only) and the Frobenius map of the
    truncation extend, and how the extended Frobenius map acts on the types.
    """
    sys = geom.system
    trunc_aut = correlation_group(geom.truncation)
    frob = frobenius_truncation_perm(geom)
    frob_ext = extend_truncation_correlation(geom, frob) if frob is not None else None
    frob_types = None
    if frob_ext is not None:
        # frob_ext is a verified correlation, so one element per fiber shows
        # where the fiber goes
        first = np.unique(sys.type_codes, return_index=True)[1]
        frob_types = tuple(
            sys.types[t] for t in sys.type_codes[frob_ext.images[first]].tolist()
        )
    duality_extends = None
    if geom.degenerate:
        # the truncation is the whole system
        result = trunc_aut
        reported_group = "correlation group of the system"
    else:
        reported_group = "group generated by the extended truncation correlations"
        ext_gens = []
        for g in trunc_aut.type_preserving_gens:
            e = extend_truncation_correlation(geom, g)
            if e is None:
                raise RuntimeError(
                    "type-preserving truncation correlation failed to extend"
                )
            ext_gens.append(e)
        if geom.space.d == 2:
            dual_ext = extend_truncation_correlation(geom, duality_truncation_perm(geom))
            duality_extends = dual_ext is not None
            if dual_ext is not None:
                ext_gens.append(dual_ext)
        # an extended correlation maps points to points and each quad to the
        # quad of its image points, so its truncation part fixes it: the group
        # acts faithfully on the r type nodes followed by the m truncation
        # elements, and its chain is built there, the type nodes first
        r, m = sys.rank, geom.truncation.size
        codes = sys.type_codes
        small_gens = []
        for e in ext_gens:
            tmap = np.full(r, -1, dtype=np.int64)
            tmap[codes] = codes[e.images]
            small_gens.append(Permutation(np.concatenate([tmap, r + e.images[:m]])))
        small = PermGroup(r + m, small_gens, base_prefix=range(r))
        type_action = PermGroup(r, [g.restricted(range(r)) for g in small.generators])
        kernel_gens = []
        for g in small.stabilizer_generators(r):
            e = extend_truncation_correlation(geom, g.restricted(range(r, r + m)))
            if e is None:
                raise RuntimeError("type-preserving correlation failed to extend")
            kernel_gens.append(e)
        out_order = type_action.order()
        result = AutResult(
            correlation_gens=tuple(ext_gens),
            aut_order=small.order(),
            type_preserving_gens=tuple(kernel_gens),
            aut_i_order=small.order() // out_order,
            type_action=type_action,
            out_order=out_order,
            types=sys.types,
        )
    return PglAutReport(
        result=result,
        reported_group=reported_group,
        duality_extends=duality_extends,
        frobenius_extends=frob_ext is not None,
        frobenius_type_action=frob_types,
        truncation_aut_order=trunc_aut.aut_order,
        truncation_aut_i_order=trunc_aut.aut_i_order,
        truncation_out_order=trunc_aut.out_order,
    )


# -- coset geometries --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CosetGeometrySpec:
    """Group with a family of subgroups; type i elements are the cosets G_i g."""

    group: PermGroup
    subgroups: tuple[PermGroup, ...]
    labels: tuple[str, ...] | None = None

    def type_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            if len(self.labels) != len(self.subgroups):
                raise ValueError("label count does not match subgroup count")
            return tuple(self.labels)
        return tuple(str(i) for i in range(len(self.subgroups)))


def _check_spec(spec: CosetGeometrySpec) -> _ElementTable:
    """The element table of G, once the subgroups are checked, in order,
    to act on G's domain and to lie in G (all generators in one batch)."""
    if spec.group.order() > _GROUP_GUARD:
        raise ValueError(f"group too large: order exceeds {_GROUP_GUARD}")
    table = spec.group._element_table(_GROUP_GUARD)
    subs = spec.subgroups
    # the subgroups before the first on another domain
    same = next((i for i, sub in enumerate(subs) if sub.degree != spec.group.degree), len(subs))
    owner = [i for i, sub in enumerate(subs[:same]) for _ in sub.generators]
    if owner:
        rows = np.stack([g.images for sub in subs[:same] for g in sub.generators])
        outside = ~table.contains(rows)
        if outside.any():
            raise ValueError(f"subgroup {owner[int(outside.argmax())]} is not contained in the group")
    if same < len(subs):
        raise ValueError(f"subgroup {same} acts on a different domain")
    return table


def _coset_labels(spec: CosetGeometrySpec) -> tuple[_ElementTable, np.ndarray]:
    """The element table of G and labels[i, z], the number of the coset G_i z.

    G_i z is the orbit of z under the steps z -> h z for the generators h of
    G_i; h z has images z.images[h.images], so each step is one gather of the
    table and one lookup. Each element takes the least element of its orbit
    by min-label propagation with pointer jumping, and cosets are numbered in
    order of their least element. The identity is the least element of G, so
    G_i itself is the coset labelled 0.
    """
    table = _check_spec(spec)
    labels = np.empty((len(spec.subgroups), len(table.rows)), dtype=np.int64)
    for label, sub in zip(labels, spec.subgroups):
        steps = [table.index(table.rows[:, h.images]) for h in sub.generators]
        least = np.arange(len(table.rows))
        while True:
            merged = least
            for step in steps:
                merged = np.minimum(merged, least[step])
            merged = merged[merged]
            if np.array_equal(merged, least):
                break
            least = merged
        # each orbit's least element is the one that is its own least
        label[:] = (np.cumsum(least == np.arange(len(least))) - 1)[least]
    return table, labels


def _cosets_meeting(label: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """hit[k, c] is True when coset c of one type meets the element set parts[k]."""
    hit = np.zeros((len(parts), int(label.max()) + 1), dtype=bool)
    rows, cols = np.nonzero(parts)
    hit[rows, label[cols]] = True
    return hit


@dataclasses.dataclass(frozen=True)
class CosetGeometry:
    """Coset incidence system with the right-multiplication action of the group."""

    system: IncidenceSystem
    action: PermGroup


def coset_geometry(spec: CosetGeometrySpec) -> CosetGeometry:
    """All cosets G_i x; two of different types are incident when they share an element."""
    table, labels = _coset_labels(spec)
    sizes = labels.max(axis=1) + 1
    # ids[i, z] is the element id of the type-i coset that contains element z
    ids = labels + (np.cumsum(sizes) - sizes)[:, None]
    pairs = [np.stack([a, b], axis=1) for a, b in itertools.combinations(ids, 2)]
    codes = np.repeat(np.arange(len(sizes)), sizes)
    system = IncidenceSystem(spec.type_labels(), codes, np.concatenate(pairs) if pairs else [])
    # cosets are numbered by their least element, so each coset's least
    # element, its representative, is the first element that carries its label
    reps = np.concatenate([np.unique(label, return_index=True)[1] for label in labels])
    rep_rows = table.rows[reps]
    # right multiplication by g maps the coset of rep to the coset of rep * g,
    # whose images are g.images[rep.images]
    action_gens = [
        Permutation(ids[codes, table.index(g.images[rep_rows])]) for g in spec.group.generators
    ]
    return CosetGeometry(system=system, action=PermGroup(len(reps), action_gens))


@dataclasses.dataclass(frozen=True)
class FtReport:
    """Set-product flag-transitivity criterion over all (J, i) pairs."""

    ok: bool
    failures: tuple[tuple[tuple[int, ...], int], ...]
    checked: int


def check_ft_condition(spec: CosetGeometrySpec) -> FtReport:
    """Compare G_J G_i with the intersection of the G_j G_i for every J and i not in J.

    Both sides are unions of left cosets of G_i. Their inverses G_i G_J and
    G_i G_j are the unions of the cosets G_i x that meet G_J and G_j, so the
    sides agree exactly when those sets of coset labels do.
    """
    _, labels = _coset_labels(spec)
    r = len(labels)
    subgroups = labels == 0
    meets = [_cosets_meeting(label, subgroups) for label in labels]
    failures = []
    checked = 0
    for size in range(r + 1):
        for j_set in itertools.combinations(range(r), size):
            g_j = subgroups[list(j_set)].all(axis=0)
            for i in range(r):
                if i in j_set:
                    continue
                checked += 1
                lhs = _cosets_meeting(labels[i], g_j[None])[0]
                if not np.array_equal(lhs, meets[i][list(j_set)].all(axis=0)):
                    failures.append((j_set, i))
    return FtReport(ok=not failures, failures=tuple(failures), checked=checked)


@dataclasses.dataclass(frozen=True)
class RcReport:
    """Subgroup-generation residual-connectedness criterion over all corank >= 2 sets."""

    ok: bool
    failures: tuple[tuple[int, ...], ...]
    checked: int


def check_rc_condition(spec: CosetGeometrySpec) -> RcReport:
    """Verify G_J = <G_{J+i} : i outside J> whenever at least two types are outside J.

    G_{J+i} z = G_J ∩ G_i z, so joining elements of G_J that share a G_i-coset for
    some i outside J makes the class of the identity (element 0) the right side.
    """
    _, labels = _coset_labels(spec)
    r = len(labels)
    subgroups = labels == 0
    failures = []
    checked = 0
    for size in range(r - 1):
        for j_set in itertools.combinations(range(r), size):
            checked += 1
            g_j = subgroups[list(j_set)].all(axis=0)
            outside = [i for i in range(r) if i not in j_set]
            reach = np.arange(len(g_j)) == 0
            while True:
                before = np.count_nonzero(reach)
                for i in outside:
                    reach = g_j & _cosets_meeting(labels[i], reach[None])[0][labels[i]]
                if np.count_nonzero(reach) == before:
                    break
            if before != np.count_nonzero(g_j):
                failures.append(j_set)
    return RcReport(ok=not failures, failures=tuple(failures), checked=checked)


def tetrahedron_spec() -> CosetGeometrySpec:
    """S_4 with vertex, edge, and face stabilizers of the tetrahedron."""

    def generated(*cycles: tuple[int, ...]) -> PermGroup:
        return PermGroup(4, [Permutation.from_cycles(4, [c]) for c in cycles])

    vertex = generated((1, 2), (1, 2, 3))
    edge = generated((0, 1), (2, 3))
    face = generated((0, 1), (0, 1, 2))
    return CosetGeometrySpec(group=generated((0, 1), (0, 1, 2, 3)), subgroups=(vertex, edge, face))
