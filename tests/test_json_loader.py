"""The block reader of interchange text against json.loads, and its memory use."""

import json
import random
import tracemalloc

import numpy as np
import pytest

import geomrep.incidence
from geomrep import IncidenceSystem

LABELS = ["a", "b", "c", "é", "型", "[", "]]", "a]b", "[[0, 1]]", "incidences", '"q"', "\\"]
WHITESPACE = ["", " ", "\t", "\n", "\r\n", " \r\n\t"]
# edits that break a document or change what it holds; \f and \xa0 are
# whitespace to Python but not to JSON
TOKENS = ["true", "false", "1.5", "]", "[", ",", "]]", "(", ")", "-", "1e3", "null", '"',
          " ", "\t", "\f", "\xa0", "0", "{", "}", ":", "01", "00", "-0", "+1", "\v", "\uff11",
          "\u0663", "1234567890123456789", "12345678901234567890", str(2**63)]


def _reference_int_pairs(value):
    return all(
        isinstance(p, list)
        and len(p) == 2
        and all(type(x) is int and -(2**63) <= x < 2**63 for x in p)
        for p in value
    )


def reference_data(text):
    """json.loads(text), plus the one rule the block reader adds.

    A list under a top-level "incidences" key must hold integer pairs even when
    a later duplicate key replaces it, because the reader checks each list as
    it reads it.
    """
    objects = []

    def hook(members):
        objects.append(members)
        return dict(members)

    data = json.loads(text, object_pairs_hook=hook)
    if isinstance(data, dict):
        for key, value in objects[-1]:  # the top-level object closes last
            if key == "incidences" and isinstance(value, list):
                if not _reference_int_pairs(value):
                    raise ValueError("incidences must be pairs of integer element ids")
    return data


def reference_load(text):
    return IncidenceSystem.from_json_dict(reference_data(text))


def _dumps(rng, value):
    """value as JSON text in one of several layouts."""
    pair_list = isinstance(value, list) and all(isinstance(p, list) for p in value)
    if pair_list and value and all(len(p) == 2 for p in value) and rng.random() < 0.4:
        # the layout of to_json
        pair = "    [\n      %s,\n      %s\n    ]"
        return "[\n" + ",\n".join(pair % tuple(map(json.dumps, p)) for p in value) + "\n  ]"
    if pair_list and value and rng.random() < 0.5:
        ws = lambda: rng.choice(WHITESPACE)  # noqa: E731
        items = [
            "[" + ws() + (ws() + "," + ws()).join(json.dumps(x) for x in p) + ws() + "]"
            for p in value
        ]
        return "[" + ws() + (ws() + "," + ws()).join(items) + ws() + "]"
    indent = rng.choice([None, None, 0, 1, 2, "\t"])
    separators = rng.choice([None, (",", ":"), (", ", ": ")])
    return json.dumps(value, indent=indent, separators=separators, ensure_ascii=rng.random() < 0.5)


def random_document(rng):
    """A random interchange text: valid or not, in any key order and layout."""
    rank = rng.randint(1, 3)
    types = rng.sample(LABELS, rank)
    n = rng.randint(0, 6)
    codes = [rng.randrange(rank) for _ in range(n)]
    elements = []
    for i in rng.sample(range(n), n):
        members = [("id", i), ("type", types[codes[i]])]
        if rng.random() < 0.2:
            members.append(("incidences", [[0, 1]]))
        if rng.random() < 0.1:
            members.append(("note", {"incidences": "]]"}))
        rng.shuffle(members)
        elements.append(dict(members))
    ids = range(max(n, 1))
    pairs = [[rng.choice(ids), rng.choice(ids)] for _ in range(rng.randint(0, 12))]
    pairs = [p for p in pairs if p[0] != p[1] or rng.random() < 0.05]
    members = [("types", types), ("elements", elements), ("incidences", pairs)]
    if rng.random() < 0.3:
        members.append(("meta", {"incidences": [[0, 1]], "list": [[2, 3]]}))
    if rng.random() < 0.2:
        members.append(("comment", "incidences: [[0, 1]] ]]"))
    rng.shuffle(members)
    if rng.random() < 0.3:
        key = rng.choice(["types", "elements", "incidences"])
        earlier = rng.choice([[], [[1, 0]], 5, "x", {"incidences": []}, ["a"], [[0, 1.5]]])
        members.insert(rng.randrange(len(members) + 1), (key, earlier))
    ws = lambda: rng.choice(WHITESPACE)  # noqa: E731
    body = ("," + ws()).join(
        ws() + json.dumps(key) + ws() + ":" + ws() + _dumps(rng, value) + ws()
        for key, value in members
    )
    text = ws() + "{" + body + "}" + ws()
    if rng.random() < 0.1:
        text += rng.choice(["x", "{}", "]", "[]", "0", "\n}"])
    if rng.random() < 0.1:
        text = text.replace('"incidences"', '"incid\\u0065nces"', 1)
    return text


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:pos] + text[pos + 1 :]
        elif kind == 1:
            text = text[:pos] + rng.choice(TOKENS) + text[pos:]
        else:
            text = text[:pos] + rng.choice(TOKENS) + text[pos + 2 :]
    return text


def outcome(load, text):
    try:
        system = load(text)
    except ValueError:
        return None
    return system.types, system.type_codes.tolist(), system.pairs.tolist()


@pytest.mark.parametrize("block", [1, 2, 3])
def test_block_reader_matches_json_loads(monkeypatch, block):
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", block)
    rng = random.Random(1000 + block)
    loaded = 0
    for i in range(3400):
        text = random_document(rng)
        if i % 2:
            text = mutate(rng, text)
        want = outcome(reference_load, text)
        assert outcome(IncidenceSystem.from_json, text) == want, text
        loaded += want is not None
    # both outcomes occur often enough for the comparison to mean something
    assert 600 < loaded < 3000


@pytest.mark.parametrize(
    "block,pairs",
    [
        ("[0, 1]", [[0, 1]]),
        (" \t[1 ,\r\n2],[3,4]", [[1, 2], [3, 4]]),
        ("[123456789012345678,0]", [[123456789012345678, 0]]),
        ("[1234567890123456789,0]", None),
        ("[01,2]", None),
        ("[1 2,3]", None),
        ("[,],[1 2,3 4]", None),
        ("[0,1]0,1[,],[0,1]", None),
        ("[,]1,2[3,4]", None),
        ("5[1,]2", None),
        ("[1,\v2]", None),
        ("[\uff11,2]", None),
        ("[-1,2]", None),
        ("[1,2],", None),
        ("[[1,2]]", None),
        ("(0,1]", None),
        ("[0,1),(2,3]", None),
        ("(0,1),(2,3)", None),
        ("[0,1],(2,3)", None),
        ("", None),
    ],
)
def test_strict_pairs(block, pairs):
    """The array path reads plain integer pairs as json.loads does and declines the rest."""
    got = geomrep.incidence._strict_pairs(block)
    if pairs is None:
        assert got is None
    else:
        assert got.dtype == np.int64
        assert got.tolist() == pairs == json.loads("[" + block + "]")


def random_pair_document(rng):
    """A document that holds only an incidence list, with ids of 1 to 5 digits."""
    pairs = []
    for _ in range(rng.randint(1, 12)):
        digits = [rng.randint(1, 5) for _ in range(2)]
        pairs.append([rng.randrange(10 ** (d - 1) if d > 1 else 0, 10**d) for d in digits])
    ws = lambda: rng.choice(WHITESPACE)  # noqa: E731
    return "{" + ws() + '"incidences":' + ws() + _dumps(rng, pairs) + ws() + "}"


def parsed(load, text):
    """The members that load reads from text, or None if it raises ValueError."""
    try:
        data = load(text)
    except ValueError:
        return None
    if not isinstance(data, dict):
        return None  # from_json_dict rejects it
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
def test_pair_reader_matches_json_loads(monkeypatch, block):
    # ids too large for any element list, so the pairs are compared as read
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", block)
    monkeypatch.setattr(IncidenceSystem, "from_json_dict", classmethod(lambda cls, data: data))
    rng = random.Random(2000 + block)
    loaded = 0
    for i in range(2000):
        text = random_pair_document(rng)
        if i % 2:
            text = mutate(rng, text)
        want = parsed(reference_data, text)
        assert parsed(IncidenceSystem.from_json, text) == want, text
        loaded += want is not None
    assert 1050 < loaded < 1900


def _spanning_system(pairs):
    """The system of pairs over ids 0..max, typed by parity."""
    n = int(np.max(pairs)) + 1
    return IncidenceSystem(["even", "odd"], [i % 2 for i in range(n)], pairs)


def test_to_json_blocks_skip_json_loads(monkeypatch):
    calls = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: calls.append(a) or real_loads(*a, **kw))
    k = 3 * geomrep.incidence._JSON_BLOCK + 1
    ids = np.arange(k, dtype=np.int64) % 2000
    system = _spanning_system(np.stack([2 * ids, 2 * ids + 1 + 2 * (np.arange(k) // 2000)], 1))
    assert system.pairs.shape[0] == k
    assert IncidenceSystem.from_json(system.to_json()) == system
    assert calls == []


# ids on both sides of the 9/10, 99/100 and 9999/10000 digit widths
BOUNDARY_PAIRS = [[8, 9], [10, 11], [98, 99], [100, 101], [9998, 9999], [10000, 10001]]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_round_trip_across_block_and_digit_widths(monkeypatch, offset):
    block = 10
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", block)
    extra = [[a, b] for a in (0, 2, 4) for b in (1, 3, 5, 7, 9, 11)]
    pairs = BOUNDARY_PAIRS + extra[: block + offset - len(BOUNDARY_PAIRS)]
    system = _spanning_system(pairs)
    assert system.pairs.shape[0] == block + offset
    text = system.to_json()
    loaded = IncidenceSystem.from_json(text)
    assert loaded == system
    assert loaded.to_json() == text


@pytest.mark.parametrize(
    "text",
    [
        '{"types": [], "elements": [], "incidences": []}',
        '{"types":["a","b"],"elements":[{"id":0,"type":"a"},{"id":1,"type":"b"}],'
        '"incidences":[ \r\n\t]}',
        '\r\n{\t"incidences" :\r\n[[0,1]\r\n,\t[1 , 0]\t]\r\n, "types":["a","b"],'
        '"elements":[{"type":"b","id":1},{"id":0,"type":"a"}]}\r\n',
    ],
    ids=["empty", "empty-with-whitespace", "crlf-tab"],
)
def test_block_reader_accepts(text):
    assert outcome(IncidenceSystem.from_json, text) == outcome(reference_load, text) is not None


HEAD = '{"types": ["a", "b"], "elements": [{"id": 0, "type": "a"}, {"id": 1, "type": "b"}], '


@pytest.mark.parametrize(
    "text",
    [
        HEAD + '"incidences": []} x',
        HEAD + '"incidences": [[0, 1]]]}',
        HEAD + '"incidences": [[0, 1],]}',
        HEAD + '"incidences": [[0, 1] [1, 0]]}',
        HEAD + '"incidences": [[0, 1]\f]}',
        HEAD + '"incidences": [\xa0]}',
        HEAD + '"incidences": [[0, [1]]]}',
        HEAD + '"incidences": [[0, 1), (1, 0]]}',
        HEAD + '"incidences": [[0, 1]',
        HEAD + '"incidences": [[0, true]], "incidences": [[0, 1]]}',
        '["types"]',
    ],
    ids=["trailing-data", "extra-bracket", "trailing-comma", "missing-comma", "form-feed",
         "nbsp", "nested", "parentheses", "unterminated", "bool-before-duplicate",
         "not-an-object"],
)
def test_block_reader_rejects(text):
    with pytest.raises(ValueError):
        reference_load(text)
    with pytest.raises(ValueError):
        IncidenceSystem.from_json(text)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_from_json_peak_memory():
    # 250 000 pairs, 8.7 MB of text.  Read by one json.loads of the whole
    # text, this document peaked at 49.5 MB; the block reader takes about 14 MB.
    codes = [0] * 1000 + [1] * 1000
    pairs = np.stack(np.divmod(np.arange(250_000), 1000), axis=1)
    pairs[:, 1] += 1000
    text = IncidenceSystem(["a", "b"], codes, pairs).to_json()
    peak = _traced_peak(lambda: IncidenceSystem.from_json(text))
    assert peak < 49.5e6 / 3


def test_constructor_peak_memory():
    # an int64 input of 8 MB: a constructor that held all of its deduplication
    # temporaries at once peaked at 23.7 MB; this one takes about 8 MB
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 2000, size=(500_000, 2), dtype=np.int64)
    pairs[:, 1] = np.where(pairs[:, 0] < 1000, pairs[:, 1] % 1000 + 1000, pairs[:, 1] % 1000)
    codes = [0] * 1000 + [1] * 1000
    peak = _traced_peak(lambda: IncidenceSystem(["a", "b"], codes, pairs))
    assert peak < 1.5 * pairs.nbytes
