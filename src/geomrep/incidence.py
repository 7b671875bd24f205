"""Finite incidence systems: flags, chambers, residues, truncations."""

from __future__ import annotations

import collections
import dataclasses
import gc
import itertools
import json
import re
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validity check; ok iff violations is empty."""

    ok: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    @classmethod
    def from_violations(
        cls, violations: Iterable[tuple[str, tuple[int, ...]]]
    ) -> "ValidationReport":
        vs = tuple(sorted(violations))
        return cls(ok=not vs, violations=vs)


def _id_pair(row: Iterable[int]) -> tuple[int, int] | None:
    """row as two int ids, or None unless it is exactly two integers."""
    try:
        a, b = row
    except (TypeError, ValueError):
        return None
    # bool is a subclass of int, but true is not an id
    if all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (a, b)):
        return int(a), int(b)
    return None


def validate_data(
    types: Iterable[str],
    element_types: Iterable[str],
    incidences: Iterable[Iterable[int]],
) -> ValidationReport:
    """Validate raw system data before construction; reports instead of raising.

    An incidence that is not exactly two integers is reported as a
    "malformed incidence" at its row index.
    """
    types = tuple(types)
    labels = list(element_types)
    index = {t: i for i, t in enumerate(types)}
    n = len(labels)
    violations: list[tuple[str, tuple[int, ...]]] = []
    codes = []
    for i, lab in enumerate(labels):
        if lab not in index:
            violations.append(("unknown type", (i,)))
            codes.append(-1)
        else:
            codes.append(index[lab])
    used = set(codes)
    for t in range(len(types)):
        if t not in used:
            violations.append(("empty type fiber", (t,)))
    for row, pair in enumerate(incidences):
        ids = _id_pair(pair)
        if ids is None:
            violations.append(("malformed incidence", (row,)))
            continue
        a, b = ids
        if not (0 <= a < n and 0 <= b < n):
            violations.append(("dangling id", (min(a, b), max(a, b))))
        elif codes[a] == codes[b]:
            violations.append(("same-type incidence", (min(a, b), max(a, b))))
    return ValidationReport.from_violations(violations)


def _json_list(data: dict, field: str) -> list:
    if field not in data:
        raise ValueError(f"missing field: {field}")
    value = data[field]
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON list")
    return value


def _int_pairs(rows: list, check_bools: bool = True) -> np.ndarray:
    """rows as an int64 (k, 2) array; ValueError unless each row is two JSON integers."""
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    try:
        arr = np.asarray(rows)
    except ValueError:  # rows of different lengths
        arr = np.empty(0)
    # numpy folds true and false into an integer array that also holds ints
    if (
        arr.ndim != 2
        or arr.shape[1] != 2
        or arr.dtype.kind not in "iu"
        or (check_bools and bool in set(map(type, itertools.chain.from_iterable(rows))))
    ):
        raise ValueError("incidences must be pairs of integer element ids")
    return arr.astype(np.int64, copy=False)


# json.dumps(..., indent=2) of one incidence [a, b] at its depth in to_json
_JSON_PAIR = "    [\n      %d,\n      %d\n    ]"
# pairs per block, both when writing the interchange text and when reading it
_JSON_BLOCK = 1 << 16
_JSON_WS = json.decoder.WHITESPACE.match
_JSON_VALUE = json.JSONDecoder().scan_once
# in a list of integer pairs, only the last pair's "]" is followed by another "]"
_JSON_PAIRS_END = re.compile(r"\][ \t\n\r]*\]").search


def _strict_pairs(block: str) -> np.ndarray | None:
    """The int64 (k, 2) array of a block of pairs in the strict shape, else None.

    A block is in the strict shape when it is k pairs ``[a, b]`` joined by
    ``,``, each id a JSON integer of at most 18 digits (no sign, no leading
    zero), with the JSON whitespace `` \t\n\r`` anywhere except inside an
    id.  ``json.loads("[" + block + "]")`` reads such a block as exactly these
    k pairs of ints, so the array equals what the JSON path returns.  The
    shape is checked, and the ids read, with byte and array operations.
    """
    if not block.isascii():
        return None
    raw = block.encode("ascii")
    packed = raw.translate(None, b" \t\n\r")
    marks = packed.translate(None, b"0123456789")
    k = len(marks) // 4 + 1
    if marks != (b"[,]," * k)[:-1]:
        return None
    # the raw text must hold 2k runs of digits: whitespace inside an id would
    # split a run there that the packed text shows as one
    raw_digit = (np.frombuffer(raw, dtype=np.uint8) - 48) < 10  # other bytes wrap to >= 10
    if np.count_nonzero(raw_digit[1:] > raw_digit[:-1]) != 2 * k:
        return None
    del raw, raw_digit  # the largest arrays of a block: free them before making more
    dense = np.frombuffer(packed, dtype=np.uint8)
    digit = (dense - 48) < 10
    # from the "[" at 0, runs of digits start and end by turns
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    if digit[0] or edges.shape[0] != 4 * k:
        return None
    edges += 1
    starts, ends = edges[0::2], edges[1::2]
    # the 4k - 1 marks fill the 2k + 1 gaps around the runs, each gap at least
    # one mark; "],[" in each of the k - 1 gaps between pairs leaves exactly
    # "[" before the first run, "," inside each pair and "]" after the last
    if (starts[2::2] - ends[1:-1:2] != 3).any():
        return None
    width = ends - starts
    if width.max() > 18 or ((width > 1) & (dense[starts] == 48)).any():
        return None
    # each id as a zero-padded number of width.max() digits, by Horner's rule;
    # an id shorter than the place reads some other byte there, then zeroed
    values = np.zeros(2 * k, dtype=np.int64)
    for place in range(int(width.max()), 0, -1):
        column = dense.take(ends - place, mode="clip") - 48
        column[width < place] = 0
        values *= 10
        values += column
    return values.reshape(k, 2)


def _read_pairs(text: str, pos: int) -> tuple[np.ndarray, int]:
    """The integer pairs of the JSON list at text[pos] == "[", and the end of the list.

    The list is read in blocks of about _JSON_BLOCK pairs, so its pairs never
    exist as Python lists all at once.  A block in the strict shape of
    ``_strict_pairs`` (such as every block ``to_json`` writes) becomes its
    array without ``json.loads``; any other block is parsed by ``json.loads``
    and checked by ``_int_pairs``, which alone decide what is rejected and
    how.  Either way the block gives the same pairs.
    """
    body = pos + 1
    first = _JSON_WS(text, body).end()
    if text.startswith("]", first):
        return np.empty((0, 2), dtype=np.int64), first + 1
    match = _JSON_PAIRS_END(text, body)
    if match is None:
        raise json.JSONDecodeError("unterminated incidences list", text, pos)
    stop = match.start() + 1  # just after the last pair's "]"
    # the int64 pairs read so far, as bytes: one growing buffer leaves no block
    # arrays among the freed temporaries of later blocks, and needs no concatenation
    out = bytearray()
    count = 0
    pos = body
    # the mean width of a pair so far; the first pair's width before that
    width = text.index("]", body) + 1 - body
    while True:
        # aim at the middle of the block's last pair
        start = min(pos + int(width * (_JSON_BLOCK - 0.5)), stop - 1)
        cut = text.index("]", start) + 1
        block = text[pos:cut]
        pairs = _strict_pairs(block)
        if pairs is None:
            # true and false both contain an "e", which no integer pair does
            pairs = _int_pairs(json.loads("[" + block + "]"), "e" in block)
        out += pairs.data
        count += pairs.shape[0]
        if cut == stop:
            break
        pos = _JSON_WS(text, cut).end()
        if not text.startswith(",", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos = _JSON_WS(text, pos + 1).end()
        width = (pos - body) / count
    return np.frombuffer(out, dtype=np.int64).reshape(count, 2), match.end()


def _json_object(text: str, pos: int) -> tuple[dict, int]:
    """The JSON object at text[pos] == "{", and the position just after it."""
    data: dict = {}
    pos = _JSON_WS(text, pos + 1).end()
    if text.startswith("}", pos):
        return data, pos + 1
    while True:
        if not text.startswith('"', pos):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", text, pos
            )
        key, pos = json.decoder.scanstring(text, pos + 1)
        pos = _JSON_WS(text, pos).end()
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        pos = _JSON_WS(text, pos + 1).end()
        if key == "incidences" and text.startswith("[", pos):
            data[key], pos = _read_pairs(text, pos)
        else:
            try:
                data[key], pos = _JSON_VALUE(text, pos)
            except StopIteration as exc:
                raise json.JSONDecodeError("Expecting value", text, exc.value) from None
        pos = _JSON_WS(text, pos).end()
        if text.startswith("}", pos):
            return data, pos + 1
        if not text.startswith(",", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos = _JSON_WS(text, pos + 1).end()


class IncidenceSystem:
    """Immutable multipartite incidence system over dense element ids 0..n-1."""

    __slots__ = ("types", "type_codes", "pairs", "source_ids", "_adj")

    def __init__(
        self,
        types: Iterable[str],
        type_codes: Iterable[int],
        pairs: Iterable[Iterable[int]],
        source_ids: Iterable[int] | None = None,
    ) -> None:
        tps = tuple(str(t) for t in types)
        if len(set(tps)) != len(tps):
            raise ValueError("duplicate type label")
        codes = np.asarray(list(type_codes), dtype=np.int32)
        n = codes.shape[0]
        if n and (codes.min() < 0 or codes.max() >= len(tps)):
            raise ValueError("type code out of range")
        arr = np.asarray(
            pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64
        )
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("incidences must be pairs of element ids")
        if arr.shape[0]:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("incidence references unknown element id")
            a, b = arr[:, 0], arr[:, 1]
            if (a == b).any():
                raise ValueError("self-incidence")
            # one int64 key min*n + max per unordered pair; sorted keys are
            # sorted pairs.  Each temporary is freed as soon as it is used.
            keys = np.minimum(a, b)
            keys *= n
            keys += np.maximum(a, b)
            keys.sort()
            keep = np.empty(keys.shape[0], dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
            del keep
            arr = np.empty((keys.shape[0], 2), dtype=np.int32)
            np.floor_divide(keys, n, out=arr[:, 0], casting="unsafe")
            np.remainder(keys, n, out=arr[:, 1], casting="unsafe")
        else:
            arr = np.empty((0, 2), dtype=np.int32)
        codes.flags.writeable = False
        arr.flags.writeable = False
        object.__setattr__(self, "types", tps)
        object.__setattr__(self, "type_codes", codes)
        object.__setattr__(self, "pairs", arr)
        object.__setattr__(
            self,
            "source_ids",
            None if source_ids is None else tuple(int(x) for x in source_ids),
        )
        object.__setattr__(self, "_adj", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IncidenceSystem is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.types)

    @property
    def size(self) -> int:
        return int(self.type_codes.shape[0])

    def fibers(self) -> list[list[int]]:
        """Element ids grouped by type, in typeset order."""
        out: list[list[int]] = [[] for _ in self.types]
        for i, c in enumerate(self.type_codes.tolist()):
            out[c].append(i)
        return out

    def empty_types(self) -> list[int]:
        """Codes of the types that no element has, in typeset order."""
        return np.setdiff1d(np.arange(self.rank), self.type_codes).tolist()

    def fiber(self, type_label: str) -> list[int]:
        return self.fibers()[self.types.index(type_label)]

    def _adjacency(self) -> list[frozenset[int]]:
        if self._adj is None:
            ends = np.concatenate([self.pairs, self.pairs[:, ::-1]])
            ends = ends[np.argsort(ends[:, 0])]
            bounds = np.searchsorted(ends[:, 0], np.arange(self.size + 1)).tolist()
            nbrs = ends[:, 1].tolist()
            adj = [frozenset(nbrs[i:j]) for i, j in zip(bounds, bounds[1:])]
            object.__setattr__(self, "_adj", adj)
        return self._adj

    def neighbors(self, x: int) -> frozenset[int]:
        """Elements incident to x."""
        return self._adjacency()[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceSystem):
            return NotImplemented
        return (
            self.types == other.types
            and np.array_equal(self.type_codes, other.type_codes)
            and np.array_equal(self.pairs, other.pairs)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"IncidenceSystem(rank={self.rank}, elements={self.size}, "
            f"incidences={self.pairs.shape[0]})"
        )

    # -- validity ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report same-type incidences and empty type fibers."""
        # the constructor already rejects unknown types and dangling ids
        codes, pairs = self.type_codes, self.pairs
        same = pairs[codes[pairs[:, 0]] == codes[pairs[:, 1]]]
        return ValidationReport.from_violations(
            [("empty type fiber", (t,)) for t in self.empty_types()]
            + [("same-type incidence", (a, b)) for a, b in same.tolist()]
        )

    # -- flags -------------------------------------------------------------

    def is_flag(self, ids: Iterable[int]) -> bool:
        """True iff ids are elements of the system and pairwise incident."""
        xs = sorted({int(x) for x in ids})
        if xs and not (0 <= xs[0] and xs[-1] < self.size):
            return False
        adj = self._adjacency()
        return all(b in adj[a] for i, a in enumerate(xs) for b in xs[i + 1 :])

    def _flags_with_extensions(
        self,
    ) -> Iterator[tuple[tuple[int, ...], frozenset[int]]]:
        """Every flag together with its full set of common neighbors."""
        adj = self._adjacency()
        universe = frozenset(range(self.size))

        def extend(flag: list[int], ext: frozenset[int]):
            yield tuple(flag), ext
            last = flag[-1] if flag else -1
            for v in sorted(ext):
                if v > last:
                    flag.append(v)
                    yield from extend(flag, ext & adj[v])
                    flag.pop()

        yield from extend([], universe)

    def flags(self) -> Iterator[tuple[int, ...]]:
        """All flags (pairwise-incident element sets), including the empty flag."""
        for flag, _ in self._flags_with_extensions():
            yield flag

    def chambers(self) -> list[tuple[int, ...]]:
        """Flags whose typeset is the full typeset."""
        codes = self.type_codes
        full = frozenset(range(self.rank))
        return [
            f for f in self.flags() if frozenset(int(codes[x]) for x in f) == full
        ]

    # -- geometry predicates -----------------------------------------------

    def is_geometry(self) -> bool:
        """True iff every flag extends to a chamber (every maximal flag has full type)."""
        codes = self.type_codes
        full = frozenset(range(self.rank))
        for flag, ext in self._flags_with_extensions():
            if not ext and frozenset(int(codes[x]) for x in flag) != full:
                return False
        return True

    def is_firm(self) -> bool:
        """True iff every non-maximal flag lies in at least two chambers."""
        chambers = [frozenset(c) for c in self.chambers()]
        for flag, ext in self._flags_with_extensions():
            if ext:
                fs = frozenset(flag)
                if sum(1 for c in chambers if fs <= c) < 2:
                    return False
        return True

    def residue(self, flag: Iterable[int]) -> "IncidenceSystem":
        """Subsystem of elements incident to every element of the flag."""
        xs = sorted({int(x) for x in flag})
        if not self.is_flag(xs):
            raise ValueError("not a flag")
        codes = self.type_codes
        ftypes = {int(codes[x]) for x in xs}
        commons = frozenset(range(self.size))
        adj = self._adjacency()
        for x in xs:
            commons &= adj[x]
        keep = [x for x in sorted(commons) if int(codes[x]) not in ftypes]
        return self._induced(keep, [t for t in range(self.rank) if t not in ftypes])

    def truncation(self, typeset: Iterable[str]) -> "IncidenceSystem":
        """Subsystem of elements whose type lies in typeset; ids re-densified."""
        want = {str(t) for t in typeset}
        unknown = want - set(self.types)
        if unknown:
            raise ValueError(
                f"typeset is not a subset of the system typeset: {sorted(unknown)}"
            )
        if not want:
            raise ValueError("truncation typeset is empty")
        keep_types = [t for t in range(self.rank) if self.types[t] in want]
        keep = np.flatnonzero(np.isin(self.type_codes, keep_types))
        return self._induced(keep, keep_types)

    def _induced(
        self, keep: Iterable[int], keep_types: list[int]
    ) -> "IncidenceSystem":
        """Subsystem on the ascending element ids keep, typed by keep_types."""
        keep = np.asarray(keep, dtype=np.int64)
        emap = np.full(self.size, -1, dtype=np.int64)
        emap[keep] = np.arange(keep.shape[0])
        tmap = np.full(self.rank, -1, dtype=np.int32)
        tmap[keep_types] = np.arange(len(keep_types))
        # emap is increasing on keep, so the kept pairs stay sorted
        a, b = emap[self.pairs[:, 0]], emap[self.pairs[:, 1]]
        inside = (a >= 0) & (b >= 0)
        return IncidenceSystem(
            types=[self.types[t] for t in keep_types],
            type_codes=tmap[self.type_codes[keep]],
            pairs=np.stack([a[inside], b[inside]], axis=1),
            source_ids=keep.tolist(),
        )

    def _connected(self, nodes: list[int]) -> bool:
        """Connectivity of the incidence graph restricted to nodes (empty: True)."""
        if len(nodes) <= 1:
            return True
        nodeset = set(nodes)
        adj = self._adjacency()
        seen = {nodes[0]}
        queue = collections.deque([nodes[0]])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y in nodeset and y not in seen:
                    seen.add(y)
                    queue.append(y)
        return len(seen) == len(nodeset)

    def is_residually_connected(self) -> bool:
        """True iff every residue of rank >= 2 has a connected incidence graph."""
        if self.rank < 2:
            return True
        codes = self.type_codes
        for flag, ext in self._flags_with_extensions():
            ftypes = {int(codes[x]) for x in flag}
            if self.rank - len(ftypes) < 2:
                continue
            nodes = [x for x in sorted(ext) if int(codes[x]) not in ftypes]
            if not self._connected(nodes):
                return False
        return True

    def incidence_graph(self) -> nx.Graph:
        """Multipartite graph: one node per element, one edge per incidence."""
        import networkx as nx

        g = nx.Graph()
        for i, c in enumerate(self.type_codes.tolist()):
            g.add_node(i, type=self.types[c])
        g.add_edges_from(self.pairs.tolist())
        return g

    # -- interchange -------------------------------------------------------

    def _json_head(self) -> dict:
        return {
            "types": list(self.types),
            "elements": [
                {"id": i, "type": self.types[c]}
                for i, c in enumerate(self.type_codes.tolist())
            ],
        }

    def to_json_dict(self) -> dict:
        return {**self._json_head(), "incidences": self.pairs.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IncidenceSystem":
        """The system of parsed interchange data.

        ``incidences`` is a list of pairs, or the int64 (k, 2) array that
        ``from_json`` reads.
        """
        if not isinstance(data, dict):
            raise ValueError("interchange data must be a JSON object")
        types = tuple(str(t) for t in _json_list(data, "types"))
        index = {t: i for i, t in enumerate(types)}
        elements = _json_list(data, "elements")
        for pos, e in enumerate(elements):
            if not isinstance(e, dict):
                raise ValueError("elements must be JSON objects")
            for field in ("id", "type"):
                if field not in e:
                    raise ValueError(f"element {pos} is missing field: {field}")
        # bool is a subclass of int, but true is not an id
        if not all(type(e["id"]) is int for e in elements):
            raise ValueError("element ids must be integers")
        n = len(elements)
        if sorted(e["id"] for e in elements) != list(range(n)):
            raise ValueError("element ids must be exactly 0..n-1")
        codes = [0] * n
        for e in elements:
            lab = str(e["type"])
            if lab not in index:
                raise ValueError(f"unknown type label: {lab!r}")
            codes[e["id"]] = index[lab]
        pairs = data.get("incidences")
        if not isinstance(pairs, np.ndarray):
            pairs = _int_pairs(_json_list(data, "incidences"))
        return cls(types=types, type_codes=codes, pairs=pairs)

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2) plus a newline."""
        return "".join(self.json_blocks())

    def json_blocks(self) -> Iterator[str]:
        """The text of ``to_json`` in consecutive pieces, never built whole."""
        head = json.dumps(self._json_head(), indent=2)[: -len("\n}")]
        if not self.pairs.shape[0]:
            yield head + ',\n  "incidences": []\n}\n'
            return
        # json.dumps formats each pair as a nested list on four lines; format
        # the pairs in blocks, without one Python list per incidence
        yield head + ',\n  "incidences": [\n'
        for start in range(0, self.pairs.shape[0], _JSON_BLOCK):
            block = self.pairs[start : start + _JSON_BLOCK]
            if start:
                yield ",\n"
            yield ",\n".join([_JSON_PAIR] * block.shape[0]) % tuple(block.ravel().tolist())
        yield "\n  ]\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "IncidenceSystem":
        """The system of an interchange text.

        Every top-level member is parsed as ``json.loads`` parses it, the last
        of duplicate keys winning, except that a list under ``incidences`` is
        read in blocks of about ``_JSON_BLOCK`` pairs (see ``_read_pairs``) and
        must hold integer pairs even where a later duplicate key replaces it.
        A block of plain integer pairs, such as every block ``to_json``
        writes, is read with array operations instead of ``json.loads``; every
        other block is parsed by ``json.loads``, and the pairs are the same
        either way.
        """
        pos = _JSON_WS(text, 0).end()
        if not text.startswith("{", pos):
            raise ValueError("interchange data must be a JSON object")
        # json.loads makes one small list per pair of a block it parses; none
        # can be part of a cycle, so the cyclic collector's passes are wasted
        enabled = gc.isenabled()
        gc.disable()
        try:
            data, pos = _json_object(text, pos)
        finally:
            if enabled:
                gc.enable()
        pos = _JSON_WS(text, pos).end()
        if pos != len(text):
            raise json.JSONDecodeError("Extra data", text, pos)
        return cls.from_json_dict(data)

    def to_dot(self) -> str:
        lines = ["graph incidence {"]
        for i, c in enumerate(self.type_codes.tolist()):
            lines.append(f'  {i} [label="{i}:{self.types[c]}"];')
        if self.pairs.shape[0]:
            edge = "  %d -- %d;"
            lines.append(
                "\n".join([edge] * self.pairs.shape[0]) % tuple(self.pairs.ravel().tolist())
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
