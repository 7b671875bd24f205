"""Finite incidence systems: flags, chambers, residues, truncations."""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
from typing import Generator, Iterable, Iterator

import numpy as np


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


def _int_array(values: Iterable) -> np.ndarray | None:
    """values as an integer array, or None unless every entry is an integer.

    An integer array is returned as it is.  Other values, such as JSON
    lists, are read by np.asarray, which folds true and false into an
    integer array that also holds ints, so their entries' types are checked
    too; an empty list gives an empty int64 array.  Integers beyond int64
    give an array of Python objects, which range checks compare exactly.
    """
    if isinstance(values, np.ndarray):
        return values if values.dtype.kind in "iu" else None
    values = list(values)
    try:
        arr = np.asarray(values, dtype=None if values else np.int64)
    except ValueError:  # rows of different lengths
        return None
    if arr.dtype.kind not in "iuO":
        return None
    flat = itertools.chain.from_iterable(values) if arr.ndim == 2 else values
    kinds = set(map(type, flat))
    # bool is a subclass of int, but true is not an id
    if bool in kinds or not all(issubclass(t, (int, np.integer)) for t in kinds):
        return None
    return arr


def _pair_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The key min*n + max of each pair (a[i], b[i]) of ids below n, so sorted
    keys are sorted pairs: int32 when n*n < 2**31, else int64.  The keys are
    the one full-size array made, as min*(n - 1) + a + b summed in place."""
    dtype = np.int32 if n * n < 2**31 else np.int64
    keys = np.minimum(a, b, dtype=dtype)
    keys *= n - 1
    np.add(keys, a, out=keys, dtype=dtype)
    np.add(keys, b, out=keys, dtype=dtype)
    return keys


def _id_pair(row: Iterable[int]) -> tuple[int, int] | None:
    """row as two int ids, or None unless it is exactly two integers."""
    arr = _int_array([row])
    return None if arr is None or arr.shape != (1, 2) else tuple(arr[0].tolist())


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


# the layout of json_blocks: json.dumps(head, indent=2) of every member but
# the incidences, without its closing _JSON_BRACE; then the list, which opens
# with _JSON_OPEN, holds rows that each run from a pair's "[" to the next
# pair's (the bytes before, between and after its two ids, where the last row
# lacks the separator _JSON_SEP), and closes with _JSON_CLOSE; an empty list is
# _JSON_KEY and _JSON_END.  _PAD is a byte that none of that text holds
_JSON_BRACE = "\n}"
_JSON_KEY, _JSON_END = b',\n  "incidences": [', b"]\n}\n"
_JSON_OPEN, _JSON_CLOSE = _JSON_KEY + b"\n    ", b"\n  " + _JSON_END
_JSON_SEP = b",\n    "
_JSON_ROW_END = b"\n    ]"
_JSON_ROW = (b"[\n      ", b",\n      ", _JSON_ROW_END + _JSON_SEP)
_PAD = 0xFF
# pairs per block, both when writing the interchange text and when reading it;
# a block's temporaries (about 2 MB when writing) fit in the heap that freeing a
# large system leaves, where blocks of 65 536 pairs made the heap grow
_JSON_BLOCK = 1 << 14
# bytes of interchange text read at a time
_READ_CHUNK = 1 << 20
# a text of at most this many bytes is parsed by one json.loads, which is faster
# there than the byte reader: to_json's text of 180 pairs (7 KB) loads in about
# 190 us against 205 us, one of 300 pairs (11 KB) in 280 us against 250 us
_SMALL_TEXT = 1 << 13
# parses the head of a text: not json.loads, which is left to whole texts
_JSON_HEAD = json.JSONDecoder().decode
# bytes of the dense boolean block from which bit rows are packed at a time
_ROW_BLOCK = 1 << 20
# the geometry predicates, by the names that ``_predicates`` answers to
PREDICATES = ("geometry", "firm", "rc")


def _json_row(widths: list[int], fill: int) -> tuple[bytes, list[int]]:
    """One row of _JSON_ROW whose two ids have rooms of the widths, every room
    byte fill; and where the two rooms start."""
    head, mid, tail = _JSON_ROW
    width_a, width_b = widths
    row = b"".join([head, bytes([fill]) * width_a, mid, bytes([fill]) * width_b, tail])
    return row, [len(head), len(head) + width_a + len(mid)]


def _pairs_text(block: np.ndarray) -> bytes:
    """The text ``to_json`` writes for the (k, 2) id array block: k rows of _JSON_ROW.

    Each column of ids gets rooms as wide as its widest id, which each id
    fills by place value, right aligned.  In a column whose ids differ in
    width, the places above an id's leading digit hold _PAD; those bytes, few
    in a row, are then deleted by ``bytes.replace``, which copies the runs
    between them whole.  A block without pad is written as it is.
    """
    # each column's narrowest and widest id (one column at a time: numpy
    # reduces a (k, 2) array along its rows pair by pair)
    least = [len(str(block[:, col].min())) for col in (0, 1)]
    most = [len(str(block[:, col].max())) for col in (0, 1)]
    row, rooms = _json_row(most, _PAD)
    text = np.empty((block.shape[0], len(row)), dtype=np.uint8)
    text[:] = np.frombuffer(row, dtype=np.uint8)
    rest = block
    # the rooms' places from their last: rest is each id without the digits
    # already written, and 0 once the id has none left, which can happen only
    # past the narrowest id of its column
    for back in range(max(most)):
        high = rest // 10
        digit = rest - high * 10
        digit += 48
        if back >= min(least):
            digit[rest == 0] = _PAD
        for col, at in enumerate(rooms):
            if back < most[col]:
                text[:, at + most[col] - 1 - back] = digit[:, col]
        rest = high
    text = text.tobytes()
    return text if least == most else text.replace(bytes([_PAD]), b"")


def _row_pairs(block: bytes) -> np.ndarray | None:
    """The int64 (k, 2) array of a block of k rows of _JSON_ROW, else None.

    The block is k pairs as ``to_json`` writes them, with the ids of each
    column all of one width, read from the first row: k rows of one length
    but the last, which lacks _JSON_SEP.  XORed with k copies of the row whose
    rooms hold "0", every byte of the layout becomes 0 and every digit its
    value; then each room's place is a column of the block viewed as a
    matrix of rows, which gives the ids by Horner's rule.  Any other byte, an
    id with a leading zero or one of more than 18 digits gives None.  Every
    block this reads is in the strict shape of ``_strict_pairs``, which reads
    it as the same array.
    """
    head, mid, tail = _JSON_ROW
    width_a = block.find(mid[:1], len(head)) - len(head)
    at_b = len(head) + width_a + len(mid)
    widths = [width_a, block.find(tail[:1], at_b) - at_b]
    if not all(0 < width <= 18 for width in widths):
        return None
    zero, rooms = _json_row(widths, ord("0"))
    k, short = divmod(len(block) + len(_JSON_SEP), len(zero))
    if short:
        return None
    # one pass of each array operation over the whole block
    digits = np.frombuffer(block, dtype=np.uint8) ^ np.frombuffer(zero * k, np.uint8, len(block))
    # 9 in the rooms and 0 elsewhere
    limit = bytes(a ^ b for a, b in zip(_json_row(widths, ord("9"))[0], zero))
    if (digits > np.frombuffer(limit * k, np.uint8, len(block))).any():
        return None
    pairs = np.empty((k, 2), dtype=np.int64)
    for col, (at, width) in enumerate(zip(rooms, widths)):
        # the room's places in every row, from its leading one
        lead = digits[at :: len(zero)]
        if width > 1 and not lead.all():
            return None
        value = lead.astype(np.int64)
        for place in range(at + 1, at + width):
            value *= 10
            value += digits[place :: len(zero)]
        pairs[:, col] = value
    return pairs


def _strict_pairs(block: bytes) -> np.ndarray | None:
    """The int64 (k, 2) array of a block of pairs in the strict shape, else None.

    A block is in the strict shape when it is k pairs ``[a, b]`` joined by
    ``,``, each id a JSON integer of at most 18 digits (no sign, no leading
    zero), with the JSON whitespace `` \t\n\r`` anywhere except inside an
    id.  ``json.loads(b"[" + block + b"]")`` reads such a block as exactly
    these k pairs of ints, so the array equals what the JSON path returns.
    The shape is checked, and the ids read, with byte and array operations.
    """
    packed = block.translate(None, b" \t\n\r")
    # any byte but the marks, such as one of a multi-byte character, stays here
    marks = packed.translate(None, b"0123456789")
    k = len(marks) // 4 + 1
    if marks != (b"[,]," * k)[:-1]:
        return None
    # the raw text must hold 2k runs of digits: whitespace inside an id would
    # split a run there that the packed text shows as one
    raw_digit = (np.frombuffer(block, dtype=np.uint8) - 48) < 10  # other bytes wrap to >= 10
    if np.count_nonzero(raw_digit[1:] > raw_digit[:-1]) != 2 * k:
        return None
    del raw_digit  # the largest array of a block: free it before making more
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


def _packed_rows(block: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array as an int whose bit j is the row's column j."""
    data = memoryview(np.packbits(block, axis=1, bitorder="little").tobytes())
    width = (block.shape[1] + 7) // 8
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(block.shape[0])]


class _Declined(Exception):
    """Raised where the byte reader leaves a text to json.loads."""


class _ByteStream:
    """The bytes of an iterable of chunks, read as they are needed.

    buf[pos:] is what has been read and not yet consumed.  Reading more drops
    the consumed bytes, so only pos stays valid across ``more``.
    """

    __slots__ = ("buf", "pos", "eof", "_chunks")

    def __init__(self, chunks: Iterable[bytes]) -> None:
        self._chunks = iter(chunks)
        self.buf = bytearray()
        self.pos = 0
        self.eof = False

    def more(self) -> bool:
        """Append the next non-empty chunk; False once there is none."""
        for chunk in self._chunks:
            if chunk:
                # deleting a bytearray's head moves its start, not its bytes
                del self.buf[: self.pos]
                self.pos = 0
                self.buf += chunk
                return True
        self.eof = True
        return False

    def fill(self, size: int) -> None:
        """Read until size bytes past pos are buffered, or the chunks end."""
        while len(self.buf) - self.pos < size and self.more():
            pass


def _read_pairs(src: _ByteStream) -> np.ndarray:
    """The rows of the incidences list from src.pos, just after _JSON_OPEN,
    to the end of the text, which must be _JSON_CLOSE.

    The rows are read in blocks of about _JSON_BLOCK pairs, each cut at a
    row end, as an int32 (k, 2) array that never exists as Python lists.
    Each block goes to two decoders in turn.  ``_row_pairs`` reads a block in
    the layout that ``json_blocks`` writes, with the ids of each column all
    of one width, which is all but a few blocks of such a list;
    ``_strict_pairs`` reads any other block in the strict shape, in which
    the first decoder's blocks lie.  Each block must be followed by
    _JSON_SEP or by the end.  A list in any other shape, or with an id of
    2**31 or more (which no system has), raises _Declined.
    """
    # the pairs read so far as int32 bytes: one growing buffer leaves no block
    # arrays among the freed temporaries of later blocks, and needs no concatenation
    out = bytearray()
    count = 0
    # the mean width of a pair in the last block; 0 makes the first block one pair
    width = 0.0
    while True:
        buf, at = src.buf, src.pos
        # the block ends at the row end about _JSON_BLOCK pairs on, else at
        # the last one read
        target = at + max(int(width * (_JSON_BLOCK - 0.5)), 0)
        end = buf.find(_JSON_ROW_END, target)
        if end < 0:
            end = buf.rfind(_JSON_ROW_END, at)
        if end < 0:
            # a row of _JSON_ROW, even with two ids of 18 digits, would have
            # ended within what is buffered: the text is in another layout
            if len(buf) - at > len(b"".join(_JSON_ROW)) + 36 or not src.more():
                raise _Declined
            continue
        cut = end + len(_JSON_ROW_END)
        block = buf[at:cut]
        pairs = _row_pairs(block)
        if pairs is None:
            pairs = _strict_pairs(block)
        del block
        # an id of 2**31 or more is one that no system has: json.loads decides the error
        if pairs is None or pairs.max() >= 2**31:
            raise _Declined
        out += pairs.astype(np.int32).data
        count += pairs.shape[0]
        width = (cut - at) / pairs.shape[0]
        src.pos = cut
        # with one byte more than the end holds buffered, unless there is none
        src.fill(len(_JSON_CLOSE) + 1)
        if src.buf.startswith(_JSON_SEP, src.pos):
            src.pos += len(_JSON_SEP)
        elif len(src.buf) - src.pos == len(_JSON_CLOSE) and src.buf.endswith(_JSON_CLOSE):
            return np.frombuffer(out, dtype=np.int32).reshape(count, 2)
        else:
            raise _Declined


def _json_object(chunks: Iterable[bytes]) -> dict | None:
    """json.loads of the UTF-8 text of the chunks, or None where it declines.

    A text of at most _SMALL_TEXT bytes is decoded and parsed whole.  A longer
    one is read only in the layout of ``json_blocks``, with a non-empty
    incidences list last: the head, every byte before the first _JSON_OPEN,
    is closed by _JSON_BRACE and parsed by one JSON decode, and the rest is
    read by ``_read_pairs``.  _JSON_OPEN holds raw newlines, which no JSON
    string does, and the closed head parses only if the list opened there is
    a member of a non-empty top-level object.  So the head's members and the
    list are what json.loads of the whole text gives, a later incidences
    member winning over an earlier one there too.  Any other text gives None,
    so that json.loads of the whole text decides it, and every error.
    """
    src = _ByteStream(chunks)
    try:
        src.fill(_SMALL_TEXT + 1)
        if src.eof and len(src.buf) <= _SMALL_TEXT:
            return json.loads(src.buf.decode("utf-8"))
        start = 0
        while (at := src.buf.find(_JSON_OPEN, start)) < 0:
            start = max(len(src.buf) - len(_JSON_OPEN) + 1, 0)
            if not src.more():
                return None
        # json.loads decides the head decoder's own errors, and an empty head "{"
        try:
            data = _JSON_HEAD(src.buf[:at].decode("utf-8") + _JSON_BRACE)
        except (ValueError, RecursionError):
            return None
        if not data:
            return None
        src.pos = at + len(_JSON_OPEN)
        data["incidences"] = _read_pairs(src)
        return data
    except (_Declined, UnicodeEncodeError):
        # UnicodeEncodeError is a chunk that failed to encode, as from_json
        # makes them from a text with a lone surrogate
        return None


class IncidenceSystem:
    """Immutable multipartite incidence system over dense element ids 0..n-1."""

    __slots__ = ("types", "type_codes", "pairs", "source_ids", "_rows", "_blocks")

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
        codes = _int_array(type_codes)
        if codes is None or codes.ndim != 1:
            raise ValueError("type codes must be integers")
        n = codes.shape[0]
        if n and (codes.min() < 0 or codes.max() >= len(tps)):
            raise ValueError("type code out of range")
        codes = codes.astype(np.int32)
        # integer arrays are read as they are, with no int64 copy
        arr = _int_array(pairs)
        if arr is not None and arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("incidences must be pairs of element ids, each an integer")
        if arr.shape[0]:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("incidence references unknown element id")
            a, b = arr[:, 0], arr[:, 1]
            if (a == b).any():
                raise ValueError("self-incidence")
            # one key per unordered pair; each temporary is freed once used
            keys = _pair_keys(a, b, n)
            if (keys[1:] > keys[:-1]).all() and (a < b).all():
                # canonical already (rows a < b, sorted, distinct), as the
                # builders and _induced give them: adopt a copy of the rows,
                # never the caller's array itself
                arr = arr.astype(np.int32)
            else:
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
        if source_ids is not None:
            ids = _int_array(source_ids)
            if ids is None or ids.shape != (n,):
                raise ValueError("source ids must be one integer per element")
            source_ids = tuple(ids.tolist())
        object.__setattr__(self, "source_ids", source_ids)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_blocks", None)

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

    def _neighbour_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Each element's neighbours, ascending: x's are nbrs[bounds[x] : bounds[x + 1]]."""
        pairs = self.pairs
        # the reversed pairs (each element's smaller neighbours) sort stably
        # before the pairs themselves (its larger ones)
        src = np.concatenate([pairs[:, 1], pairs[:, 0]])
        nbrs = np.concatenate([pairs[:, 0], pairs[:, 1]])[np.argsort(src, kind="stable")]
        bounds = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.size), out=bounds[1:])
        return bounds, nbrs

    def _bit_rows(self) -> list[int]:
        """Bit rows: bit y of rows[x] is set iff x and y are incident.

        Packed from dense boolean blocks of about _ROW_BLOCK bytes, each
        filled straight from ``pairs``: block rows x hold the pairs (x, y),
        which form one run, as pairs are sorted by their first id.  Packing a
        block by rows gives each x its larger neighbours, and packing it by
        columns gives each y its smaller neighbours in the block.
        """
        if self._rows is None:
            n, pairs = self.size, self.pairs
            first, second = pairs[:, 0], pairs[:, 1]
            step = max(1, _ROW_BLOCK // max(n, 1))
            rows: list[int] = []
            smaller = [0] * n
            hi = 0
            for start in range(0, n, step):
                stop = min(start + step, n)
                # bisect reads a few entries, where np.searchsorted would
                # copy the strided column whole
                lo, hi = hi, bisect.bisect_left(first, stop, hi)
                block = np.zeros((stop - start, n), dtype=bool)
                block[first[lo:hi] - start, second[lo:hi]] = True
                rows += _packed_rows(block)
                for y, bits in enumerate(_packed_rows(block[:, start:].T), start):
                    smaller[y] |= bits << start
            rows = [a | b for a, b in zip(rows, smaller)]
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def _fiber_bits(self) -> list[int]:
        """Each type's elements as bits, in typeset order."""
        return _packed_rows(np.arange(self.rank)[:, None] == self.type_codes[None, :])

    def _ids(self, bits: int) -> np.ndarray:
        """The ascending element ids whose bits are set in bits."""
        data = np.frombuffer(bits.to_bytes((self.size + 7) // 8, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(data, bitorder="little"))

    def _complete_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(complete, rest, rest_keys): complete[t, u] says that type pair t, u
        has all its possible pairs, at least one (|T|·|U| for t != u,
        |T|(|T| - 1)/2 for t == u); rest holds the ascending pairs of the other
        type pairs, ``pairs`` itself when none is complete, and rest_keys their
        ascending ``_pair_keys``.  Filled once, by one pass over ``pairs``;
        every array is read-only.
        """
        if self._blocks is None:
            r = self.rank
            sizes = np.bincount(self.type_codes, minlength=r)
            possible = np.triu(np.outer(sizes, sizes)) - np.diag(sizes * (sizes + 1) // 2)
            # each pair's type pair t * r + u, t <= u
            ends = self.type_codes.astype(np.min_scalar_type(r * r))[self.pairs]
            block = np.minimum(ends[:, 0], ends[:, 1])
            block *= r
            block += np.maximum(ends[:, 0], ends[:, 1])
            present = np.bincount(block, minlength=r * r).reshape(r, r)
            complete = (present == possible) & (possible > 0)
            complete |= complete.T
            rest = self.pairs
            if complete.any():
                rest = rest.compress(~complete.ravel().take(block), axis=0)
            keys = _pair_keys(rest[:, 0], rest[:, 1], self.size)
            complete.flags.writeable = rest.flags.writeable = keys.flags.writeable = False
            object.__setattr__(self, "_blocks", (complete, rest, keys))
        return self._blocks

    def _element_ids(self, ids: Iterable[int]) -> set[int] | None:
        """The distinct ids, or None if one of them names no element.

        ValueError unless each id is an integer (``_int_array``): a float, a
        string or a bool is not, and nothing is rounded."""
        ids = list(ids)
        arr = _int_array(ids)
        if arr is None or arr.ndim != 1:
            raise ValueError(f"element ids are integers, not {ids!r}")
        xs = set(arr.tolist())
        return xs if all(0 <= x < self.size for x in xs) else None

    def neighbors(self, x: int) -> frozenset[int]:
        """Elements incident to x."""
        if self._element_ids([x]) is None:
            raise ValueError(f"no element {x}: ids are 0..{self.size - 1}")
        return frozenset(self._ids(self._bit_rows()[x]).tolist())

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
        xs = self._element_ids(ids)
        if xs is None:
            return False
        rows = self._bit_rows()
        bits = sum(1 << x for x in xs)
        return all(not (bits ^ 1 << x) & ~rows[x] for x in xs)

    def _flags_with_extensions(self) -> Generator[tuple[tuple[int, ...], int, int], bool, None]:
        """Every flag, in ascending pre-order, with its extension set and type
        mask as bits: the elements incident to every member (all of them for
        the empty flag), and the types of the members.

        Sending False in reply to a flag skips the flags that extend it.
        """
        rows, codes = self._bit_rows(), self.type_codes.tolist()
        everything = (1 << self.size) - 1
        if (yield (), everything, 0) is False:
            return
        # each frame: a flag, its extension set and type mask, and the members
        # of the extension set above its last member that are still to visit
        stack = [((), everything, 0, everything)]
        while stack:
            flag, ext, mask, todo = stack[-1]
            if not todo:
                stack.pop()
                continue
            low = todo & -todo
            stack[-1] = (flag, ext, mask, todo ^ low)
            v = low.bit_length() - 1
            child = (flag + (v,), ext & rows[v], mask | 1 << codes[v])
            if (yield child) is not False:
                stack.append((*child, child[1] >> v + 1 << v + 1))

    def flags(self) -> Iterator[tuple[int, ...]]:
        """All flags (pairwise-incident element sets), including the empty flag."""
        for flag, _, _ in self._flags_with_extensions():
            yield flag

    def chambers(self) -> list[tuple[int, ...]]:
        """Flags whose typeset is the full typeset."""
        full = (1 << self.rank) - 1
        return [f for f, _, mask in self._flags_with_extensions() if mask == full]

    # -- geometry predicates -----------------------------------------------

    def is_geometry(self) -> bool:
        """True iff every flag extends to a chamber (every maximal flag has full type)."""
        return self._predicates(["geometry"])["geometry"]

    def is_firm(self) -> bool:
        """True iff every non-maximal flag lies in at least two chambers."""
        return self._predicates(["firm"])["firm"]

    def is_residually_connected(self) -> bool:
        """True iff every residue of rank >= 2 has a connected incidence graph."""
        return self._predicates(["rc"])["rc"]

    def _predicates(self, names: Iterable[str]) -> dict[str, bool]:
        """The value of each named predicate of PREDICATES, in one flag walk.

        The walk stops once every named predicate is found false, and it
        never extends a flag G whose extension set E is non-empty with no two
        members incident: every G + v, v in E, is then maximal, so they are
        decided by E and G's missing types M alone.  Each G + v has full type
        iff M is empty or the one type of v.  G's chambers are G itself if M
        is empty and the G + v of full type; every non-maximal flag lies in
        such a G (add members while one is incident to all), and its chambers
        include G's.  Below a flag whose residue has rank < 2, only geometry
        and firmness need the walk.
        """
        answers = dict.fromkeys(names, True)
        for name in answers:
            if name not in PREDICATES:
                raise ValueError(f"unknown predicate: {name}")
        geometry, firm = "geometry" in answers, "firm" in answers
        rc = "rc" in answers and self.rank >= 2
        if not (geometry or firm or rc):
            return answers
        rows, fibers = self._bit_rows(), self._fiber_bits()
        rank, full = self.rank, (1 << self.rank) - 1
        everything = (1 << self.size) - 1
        # the elements whose type is not in a mask, by mask
        outside: dict[int, int] = {}
        walk = self._flags_with_extensions()
        descend = None
        while geometry or firm or rc:
            try:
                flag, ext, mask = walk.send(descend)
            except StopIteration:
                break
            # the residue of the flag has rank >= 2
            deep = rank - mask.bit_count() >= 2
            if rc and deep:
                if mask not in outside:
                    outside[mask] = everything ^ sum(f for t, f in enumerate(fibers) if mask >> t & 1)
                if not self._connected(ext & outside[mask], rows):
                    rc = answers["rc"] = False
            descend = geometry or firm or rc and deep
            if not ext:
                if geometry and mask != full:
                    geometry = answers["geometry"] = False
                continue
            if not (geometry or firm):
                continue
            # E has an incident pair iff one of its members is incident to E
            rest = ext
            while rest and not ext & rows[(rest & -rest).bit_length() - 1]:
                rest &= rest - 1
            if rest:
                continue
            descend = False
            missing = full ^ mask
            if missing:
                # the members of E of the one missing type, if one is missing
                single = 0
                if missing & missing - 1 == 0:
                    single = ext & fibers[missing.bit_length() - 1]
                if geometry and single != ext:
                    geometry = answers["geometry"] = False
                if firm and single.bit_count() < 2:
                    firm = answers["firm"] = False
        return answers

    def residue(self, flag: Iterable[int]) -> "IncidenceSystem":
        """Subsystem of elements incident to every element of the flag."""
        xs = self._element_ids(flag)
        if xs is None or not self.is_flag(xs):
            raise ValueError("not a flag")
        rows, fibers = self._bit_rows(), self._fiber_bits()
        ftypes = {int(self.type_codes[x]) for x in xs}
        commons = (1 << self.size) - 1
        for x in xs:
            commons &= rows[x]
        for t in ftypes:
            commons &= ~fibers[t]
        return self._induced(self._ids(commons), [t for t in range(self.rank) if t not in ftypes])

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
        # ids are below 2**31 (the pairs are int32), and so are the new ones
        emap = np.full(self.size, -1, dtype=np.int32)
        emap[keep] = np.arange(keep.shape[0])
        tmap = np.full(self.rank, -1, dtype=np.int32)
        tmap[keep_types] = np.arange(len(keep_types))
        # emap is increasing on keep, so the kept pairs stay sorted
        # one int32 gather (emap.take would first copy the ids to int64)
        mapped = emap[self.pairs]
        return IncidenceSystem(
            types=[self.types[t] for t in keep_types],
            type_codes=tmap[self.type_codes[keep]],
            pairs=mapped[(mapped[:, 0] >= 0) & (mapped[:, 1] >= 0)],
            source_ids=keep,
        )

    @staticmethod
    def _connected(nodes: int, rows: list[int]) -> bool:
        """Connectivity of the incidence graph on the elements whose bits are
        set in nodes (none: True), by breadth-first search on bit rows."""
        seen = frontier = nodes & -nodes
        while frontier:
            reach = 0
            while frontier:
                reach |= rows[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = reach & nodes & ~seen
            seen |= frontier
        return seen == nodes

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

        ``incidences`` is a list of pairs, or the int32 (k, 2) array that
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
            pairs = _json_list(data, "incidences")
        return cls(types=types, type_codes=codes, pairs=pairs)

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_dict(), indent=2) plus a newline."""
        return b"".join(self.json_blocks()).decode("ascii")

    def json_blocks(self) -> Iterator[bytes]:
        """The ASCII bytes of ``to_json`` in consecutive pieces, never built whole.

        The head's members, _JSON_OPEN, the rows and _JSON_CLOSE: the layout
        that ``from_json`` reads without json.loads (``_json_object``).  The
        pairs are written in blocks of _JSON_BLOCK, each encoded by array
        operations (``_pairs_text``) without one Python int per id.
        """
        head = json.dumps(self._json_head(), indent=2).removesuffix(_JSON_BRACE).encode("ascii")
        k = self.pairs.shape[0]
        if not k:
            yield head + _JSON_KEY + _JSON_END
            return
        yield head + _JSON_OPEN
        for start in range(0, k, _JSON_BLOCK):
            text = _pairs_text(self.pairs[start : start + _JSON_BLOCK])
            # no separator after the last pair
            yield text if start + _JSON_BLOCK < k else text[: -len(_JSON_SEP)]
        yield _JSON_CLOSE

    @classmethod
    def from_json(cls, text: str) -> "IncidenceSystem":
        """The system of an interchange text: ``from_json_dict(json.loads(text))``.

        The text's UTF-8 bytes go, a megabyte at a time, through the byte
        reader ``_json_object``.  A text of more than 8 KiB in the layout that
        ``json_blocks`` writes, with a non-empty ``incidences`` list last, is
        read without json.loads: the members before the list by one JSON
        decode, the list in blocks of array operations (``_read_pairs``).
        Any other text, such as a short one, malformed JSON, another layout
        or a list of other values, is parsed by one ``json.loads`` of the
        whole text, which decides what is rejected and how.  The system, or
        the error, is the same either way.
        """
        step = _READ_CHUNK
        data = _json_object(text[i : i + step].encode("utf-8") for i in range(0, len(text), step))
        return cls.from_json_dict(json.loads(text) if data is None else data)

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
