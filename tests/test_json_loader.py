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


# the size up to which a text goes to one json.loads
SMALL_TEXT = geomrep.incidence._SMALL_TEXT


@pytest.fixture(autouse=True)
def byte_reader_at_every_size(monkeypatch):
    """Every text, however short, goes through the byte reader."""
    monkeypatch.setattr(geomrep.incidence, "_SMALL_TEXT", -1)


def reference_load(text):
    """What from_json must do with any text."""
    return IncidenceSystem.from_json_dict(json.loads(text))


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


def layout_text(members, pairs, ensure_ascii=True):
    """The members, duplicates kept, then an incidences list of pairs, in the
    layout of json_blocks: json.dumps(..., indent=2) plus a newline."""
    texts = [json.dumps({key: value}, indent=2, ensure_ascii=ensure_ascii)[2:-2]
             for key, value in [*members, ("incidences", pairs)]]
    return "{\n" + ",\n".join(texts) + "\n}\n"


def random_layout_document(rng):
    """A random text in the layout of json_blocks, valid or not: extra and
    duplicate members before the list, labels that hold quotes, backslashes
    or non-ASCII characters, and ids of mixed widths."""
    rank = rng.randint(1, 3)
    types = rng.sample(LABELS, rank)
    n = rng.choice([rng.randint(1, 6), rng.randint(1, 150)])
    codes = [rng.randrange(rank) for _ in range(n)]
    elements = [{"id": i, "type": types[codes[i]]} for i in rng.sample(range(n), n)]
    if rng.random() < 0.1:
        elements[0]["id"] = rng.choice([n, -1, True, "0"])
    ids = range(n + (rng.random() < 0.1))
    pairs = [[rng.choice(ids), rng.choice(ids)] for _ in range(rng.randint(1, 40))]
    pairs = [p for p in pairs if p[0] != p[1] or rng.random() < 0.05]
    members = [("types", types), ("elements", elements)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        extra = rng.choice([
            ("note", rng.choice(LABELS)),
            ("meta", {"incidences": [[0, 1]], "label": '"q" \\ 型'}),
            ("incidences", rng.choice([[[0, 1]], [], "x"])),
            ("types", rng.choice([["x"], types[::-1], types])),
            ("elements", []),
        ])
        members.insert(rng.randrange(len(members) + 1), extra)
    return layout_text(members, pairs, ensure_ascii=rng.random() < 0.5)


def _read_to_end(monkeypatch):
    """The array of every later _read_pairs call that reads its list to the end."""
    read = []
    read_pairs = geomrep.incidence._read_pairs
    monkeypatch.setattr(geomrep.incidence, "_read_pairs",
                        lambda src: read.append(read_pairs(src)) or read[-1])
    return read


def outcome(load, text):
    """The system that load reads from text, or None with the error it raises."""
    try:
        system = load(text)
    except ValueError as exc:
        return None, type(exc), str(exc)
    return system.types, system.type_codes.tolist(), system.pairs.tolist()


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
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
        loaded += want[0] is not None
    # both outcomes occur often enough for the comparison to mean something
    assert 600 < loaded < 3000


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
def test_layout_reader_matches_json_loads(monkeypatch, block):
    """Texts in the layout that build writes, whole and with byte edits: the
    reader reads many of them to the end, and every load equals json.loads."""
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", block)
    ends = _read_to_end(monkeypatch)
    rng = random.Random(3000 + block)
    loaded = 0
    # the texts that _read_pairs reads to the end, unedited and edited
    read = [0, 0]
    for i in range(1500):
        text = random_layout_document(rng)
        if i % 2:
            text = mutate(rng, text)
        before = len(ends)
        want = outcome(reference_load, text)
        assert outcome(IncidenceSystem.from_json, text) == want, text
        loaded += want[0] is not None
        read[i % 2] += len(ends) > before
    assert 400 < loaded < 1100
    # all but a few unedited texts (those whose pairs all were self-pairs, so
    # none is left) and some edited ones are read without json.loads
    assert read[0] > 650 and read[1] > 60


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
    got = geomrep.incidence._strict_pairs(block.encode("utf-8"))
    if pairs is None:
        assert got is None
    else:
        assert got.dtype == np.int64
        assert got.tolist() == pairs == json.loads("[" + block + "]")


def random_pair_document(rng):
    """A document that holds an incidence list, with ids of 1 to 5 digits, and
    at most one member before it; half of them in the layout of json_blocks."""
    pairs = []
    for _ in range(rng.randint(1, 12)):
        digits = [rng.randint(1, 5) for _ in range(2)]
        pairs.append([rng.randrange(10 ** (d - 1) if d > 1 else 0, 10**d) for d in digits])
    if rng.random() < 0.5:
        return layout_text([("n", 1)], pairs)
    ws = lambda: rng.choice(WHITESPACE)  # noqa: E731
    return "{" + ws() + '"incidences":' + ws() + _dumps(rng, pairs) + ws() + "}"


def parsed(load, text):
    """The members that load reads from text, or None with the error it raises."""
    try:
        data = load(text)
    except ValueError as exc:
        return None, type(exc), str(exc)
    if not isinstance(data, dict):
        return None  # from_json_dict rejects it
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
def test_pair_reader_matches_json_loads(monkeypatch, block):
    # ids too large for any element list, so the pairs are compared as read
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", block)
    monkeypatch.setattr(IncidenceSystem, "from_json_dict", classmethod(lambda cls, data: data))
    ends = _read_to_end(monkeypatch)
    rng = random.Random(2000 + block)
    loaded = 0
    # the texts that _read_pairs reads to the end, unedited and edited
    read = [0, 0]
    for i in range(2000):
        text = random_pair_document(rng)
        if i % 2:
            text = mutate(rng, text)
        before = len(ends)
        want = parsed(json.loads, text)
        assert parsed(IncidenceSystem.from_json, text) == want, text
        loaded += isinstance(want, dict)
        read[i % 2] += len(ends) > before
    assert 1050 < loaded < 1900
    assert read[0] > 400 and read[1] > 30


def _spanning_system(pairs):
    """The system of pairs over ids 0..max, typed by parity."""
    n = int(np.max(pairs)) + 1
    return IncidenceSystem(["even", "odd"], [i % 2 for i in range(n)], pairs)


def _loads_calls(monkeypatch):
    """The positional arguments of every later json.loads call, as it makes them."""
    calls = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: calls.append(a) or real_loads(*a, **kw))
    return calls


def test_to_json_blocks_skip_json_loads(monkeypatch):
    calls = _loads_calls(monkeypatch)
    k = 3 * geomrep.incidence._JSON_BLOCK + 1
    ids = np.arange(k, dtype=np.int64) % 2000
    system = _spanning_system(np.stack([2 * ids, 2 * ids + 1 + 2 * (np.arange(k) // 2000)], 1))
    assert system.pairs.shape[0] == k
    assert IncidenceSystem.from_json(system.to_json()) == system
    assert calls == []


def test_list_that_ends_with_a_whole_block_skips_json_loads(monkeypatch):
    # 8 pairs of one-digit ids in blocks of 4: the second block ends where the list does
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", 4)
    calls = _loads_calls(monkeypatch)
    system = _spanning_system([[a, b] for a in (0, 2) for b in (1, 3, 5, 7)])
    assert system.pairs.shape[0] == 8
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


HEAD = '{"types": ["a", "b"], "elements": [{"id": 0, "type": "a"}, {"id": 1, "type": "b"}], '


@pytest.mark.parametrize(
    "text",
    [
        '{"types": [], "elements": [], "incidences": []}',
        '{"types":["a","b"],"elements":[{"id":0,"type":"a"},{"id":1,"type":"b"}],'
        '"incidences":[ \r\n\t]}',
        '\r\n{\t"incidences" :\r\n[[0,1]\r\n,\t[1 , 0]\t]\r\n, "types":["a","b"],'
        '"elements":[{"type":"b","id":1},{"id":0,"type":"a"}]}\r\n',
        HEAD + '"incidences": [[0, 1]], "note": [[2]], "z": "]]"}',
        HEAD + '"incidences": [[0, true]], "incidences": [[0, 1]]}',
    ],
    ids=["empty", "empty-with-whitespace", "crlf-tab", "later-key-holds-end",
         "bool-before-duplicate"],
)
def test_block_reader_accepts(text):
    want = outcome(reference_load, text)
    assert outcome(IncidenceSystem.from_json, text) == want
    assert want[0] is not None


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
        '["types"]',
        HEAD + '"incidences": [[0, 1], "note": [[2]]}',
        " }",
    ],
    ids=["trailing-data", "extra-bracket", "trailing-comma", "missing-comma", "form-feed",
         "nbsp", "nested", "parentheses", "unterminated", "not-an-object",
         "end-only-in-later-key", "close-only"],
)
def test_block_reader_rejects(text):
    want = outcome(reference_load, text)
    assert outcome(IncidenceSystem.from_json, text) == want
    assert want[0] is None


@pytest.mark.parametrize("block", [1, 2, 1 << 16])
@pytest.mark.parametrize(
    "incidences",
    ['[[0, 1], [0, "x"], [1, 0]', "[[0, 1], [1, 0] [0, 1]", "[[0, 1], [1, 0], [0, 1]"],
    ids=["bad-pair", "missing-comma", "plain"],
)
def test_list_without_end_is_unterminated(monkeypatch, block, incidences):
    # a list without an end fails as json.loads fails on it, at its actual break
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", block)
    text = HEAD + '"incidences": ' + incidences + "}"
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        IncidenceSystem.from_json(text)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_failed_last_block_falls_back_to_one_json_loads(monkeypatch):
    # -0 is a JSON integer id that the array path declines, in the last of 7 blocks
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", 4)
    system = _spanning_system([[a, b] for a in range(0, 10, 2) for b in range(1, 11, 2)])
    data = system.to_json_dict()
    data["incidences"].reverse()
    text = json.dumps(data)
    assert text.endswith("[0, 1]]}")
    text = text[: -len("[0, 1]]}")] + "[-0, 1]]}"
    want = IncidenceSystem.from_json_dict(json.loads(text))
    assert want == system
    calls = _loads_calls(monkeypatch)
    assert IncidenceSystem.from_json(text) == want
    assert calls == [(text,)]


def _other_layouts(system):
    """Texts of system that are not in the layout of json_blocks, by name."""
    text = system.to_json()
    data = json.loads(text)
    first = {"incidences": data["incidences"], "types": data["types"], "elements": data["elements"]}
    # the list, as _JSON_OPEN opens it, inside a member before the last
    head = json.dumps({"types": data["types"], "elements": data["elements"]})[:-1]
    nested = head + ', "meta": {"x": 1,\n  "incidences": [\n    [0, 1]\n  ]}, "incidences": '
    return {
        "list-first": json.dumps(first, indent=2) + "\n",
        "member-after-list": json.dumps({**data, "note": 1}, indent=2) + "\n",
        "list-twice": text[: -len("\n}\n")] + ',\n  "incidences": ' + json.dumps(data["incidences"]) + "\n}\n",
        "list-in-member": nested + json.dumps(data["incidences"]) + "}",
        "empty-head": "{" + text[text.index(',\n  "incidences"') :],
        "trailing-space": text + " ",
        "trailing-data": text + "{}",
        "no-final-newline": text[:-1],
        "crlf": text.replace("\n", "\r\n"),
        "compact": json.dumps(data),
    }


@pytest.mark.parametrize("name", list(_other_layouts(_spanning_system([[0, 1]]))))
def test_other_layouts_go_to_one_json_loads(monkeypatch, name):
    """A text whose list is not last, or that differs from the layout in any
    byte around the list, is parsed by exactly one json.loads."""
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", 10)
    system = _spanning_system([[a, b] for a in range(0, 202, 2) for b in range(1, 23, 2)])
    text = _other_layouts(system)[name]
    want = outcome(reference_load, text)
    if name in ("empty-head", "trailing-data"):
        assert want[0] is None
    else:
        assert want == outcome(lambda _: system, text)
    calls = _loads_calls(monkeypatch)
    assert outcome(IncidenceSystem.from_json, text) == want
    assert calls == [(text,)]


def test_one_line_pairs_are_declined_within_two_chunks(monkeypatch):
    """A list of one-line pairs after the layout's head has no row end: the
    reader declines it once a row's length is buffered, not at the end of a
    text of some megabytes, and one json.loads reads it."""
    pairs = np.stack(np.divmod(np.arange(300_000), 600), axis=1)
    system = _spanning_system(2 * pairs + [0, 1])
    text = system.to_json()
    head = text[: text.index(',\n  "incidences": [') + len(',\n  "incidences": [')]
    rows = ",\n    ".join(f"[{a}, {b}]" for a, b in system.pairs.tolist())
    text = head + "\n    " + rows + "\n  ]\n}\n"
    assert len(text) > 3 * geomrep.incidence._READ_CHUNK
    more = []
    real_more = geomrep.incidence._ByteStream.more
    monkeypatch.setattr(geomrep.incidence._ByteStream, "more",
                        lambda src: more.append(1) or real_more(src))
    calls = _loads_calls(monkeypatch)
    assert IncidenceSystem.from_json(text) == system
    assert len(more) <= 2
    assert calls == [(text,)]


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


def _chunk_documents():
    """Interchange files as bytes: valid ones in several layouts, and broken ones."""
    rng = random.Random(4)
    types = ["é", "型"]
    # ids of one to three digits
    pairs = [[a, b] for a in range(0, 120, 2) for b in (1, 11, 111)][:40]
    system = IncidenceSystem(types, [i % 2 for i in range(120)], pairs)
    text = system.to_json()
    data = json.loads(text)
    first = {"incidences": data["incidences"], "types": types, "elements": data["elements"]}
    spaced = ("{ \"types\" :" + json.dumps(types) + " ,\r\n\"elements\":\t"
              + json.dumps(data["elements"]) + ', "incidences"\n:' + _dumps(rng, data["incidences"])
              + "\t}\n")
    empty = dict(data, incidences=[])
    documents = [
        text,
        json.dumps(first, ensure_ascii=False),
        json.dumps(data, indent="\t", ensure_ascii=False),
        json.dumps(data, separators=(",", ":")),
        spaced,
        json.dumps(empty),
        json.dumps(empty, indent=2)[:-1] + "\r\n \t}",
        "\ufeff" + text,
        text[: len(text) // 2],
        # -0 is an id that json.loads reads as 0; a string is not an id
        text.replace("11,\n      22\n", "-0,\n      22\n", 1),
        text.replace("11,\n      24\n", '"é",\n      24\n', 1),
        text + "x",
    ]
    out = [d.encode("utf-8") for d in documents]
    out.append(out[0][:700] + b"\xff" + out[0][701:])
    # a number in the head that json.loads declines to convert, then a byte
    # in the pairs that is not UTF-8, which one decode of the file reports first
    big = text.replace("{\n", '{\n  "n": ' + "1" * 5000 + ",\n", 1).encode("ascii")
    out.append(big[:-100] + b"\xff" + big[-99:])
    return out


CHUNK_DOCUMENTS = _chunk_documents()


def file_outcome(load, path):
    """The system that load reads from the file at path, or None with its error."""
    try:
        system = load(path)
    except ValueError as exc:
        return None, type(exc), str(exc)
    return system.types, system.type_codes.tolist(), system.pairs.tolist()


@pytest.mark.parametrize("short_text", [True, False], ids=["short-text", "byte-reader"])
def test_chunk_boundaries_match_json_loads(monkeypatch, tmp_path, short_text):
    """Every chunk size splits pairs at every byte; each load equals json.loads."""
    from geomrep.cli import _load_system

    if short_text:
        # files under SMALL_TEXT bytes go to one json.loads once read whole
        monkeypatch.setattr(geomrep.incidence, "_SMALL_TEXT", SMALL_TEXT)
    else:
        # the lists in blocks of 3 pairs
        monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", 3)
    read = {True: 0, False: 0}
    for i, data in enumerate(CHUNK_DOCUMENTS):
        path = tmp_path / f"{i}.json"
        path.write_bytes(data)
        want = file_outcome(lambda p: reference_load(p.read_bytes().decode("utf-8")), path)
        read[want[0] is not None] += 1
        for size in list(range(1, 65)) + [97, 211, 1023, 4099]:
            monkeypatch.setattr(geomrep.incidence, "_READ_CHUNK", size)
            got = file_outcome(lambda p: _load_system(str(p))[0], path)
            assert got == want, (i, size)
    assert read == {True: 8, False: 6}


@pytest.mark.parametrize("block", [3, 1 << 16])
def test_chunk_boundaries_in_wide_ids(monkeypatch, block):
    """Layout texts with ids of 1 to 10 digits, split at every byte, read to
    the end as json.loads reads them; one of 2**31 or more leaves the text to
    json.loads."""
    monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", block)
    rng = random.Random(9)
    pairs = [[rng.randrange(10 ** (d - 1) if d > 1 else 0, 10**d) for d in (a, b)]
             for a in range(1, 10) for b in (1, 9, a)] + [[2**31 - 1, 0]]
    # an earlier incidences member that the later list overrides
    for members in ([("n", 1.5)], [("note", '"型\\'), ("incidences", "x"), ("n", 2)]):
        data = layout_text(members, pairs, ensure_ascii=False).encode("utf-8")
        want = json.loads(data)
        wide = data.replace(b"2147483647", b"2147483648")
        for size in range(1, 65, 3):
            got = geomrep.incidence._json_object(
                data[i : i + size] for i in range(0, len(data), size)
            )
            assert got["incidences"].dtype == np.int32
            assert {**got, "incidences": got["incidences"].tolist()} == want
            assert geomrep.incidence._json_object(
                wide[i : i + size] for i in range(0, len(wide), size)
            ) is None


def test_load_system_peak_memory(tmp_path):
    # 250 000 pairs in a file of 8.7 MB: the file is read a megabyte at a
    # time, and the pairs held as int64 then int32 arrays, under the file's size
    from geomrep.cli import _load_system

    codes = [0] * 1000 + [1] * 1000
    pairs = np.stack(np.divmod(np.arange(250_000), 1000), axis=1)
    pairs[:, 1] += 1000
    system = IncidenceSystem(["a", "b"], codes, pairs)
    path = tmp_path / "big.json"
    with open(path, "wb") as fh:
        fh.writelines(system.json_blocks())
    size = path.stat().st_size
    assert size > 8e6
    loaded = []
    peak = _traced_peak(lambda: loaded.append(_load_system(str(path))[0]))
    assert loaded[0] == system
    assert peak < size


@pytest.mark.parametrize("short_text", [True, False], ids=["short-text", "byte-reader"])
@pytest.mark.parametrize("where", ["types", "elements", "incidences"])
def test_lone_surrogate_is_read_as_json_loads_reads_it(monkeypatch, short_text, where):
    # a str may hold a lone surrogate, which json.loads reads and UTF-8 cannot encode
    if short_text:
        monkeypatch.setattr(geomrep.incidence, "_SMALL_TEXT", SMALL_TEXT)
    system = _spanning_system([[a, b] for a in range(0, 40, 2) for b in range(1, 41, 2)])
    data = system.to_json_dict()
    if where == "types":
        data["types"][0] = "\ud800"
        data["elements"] = [dict(e, type=data["types"][e["id"] % 2]) for e in data["elements"]]
    elif where == "elements":
        data["elements"][3]["note"] = "\ud800"
    else:
        data["incidences"][5] = [0, "\ud800"]
    text = json.dumps(data, ensure_ascii=False)
    assert len(text.encode("utf-8", "surrogatepass")) <= SMALL_TEXT
    assert outcome(IncidenceSystem.from_json, text) == outcome(reference_load, text)


def _block(pairs):
    """The bytes that the reader hands to a decoder for pairs written by to_json."""
    text = geomrep.incidence._pairs_text(np.asarray(pairs, dtype=np.int64))
    return text[: -len(geomrep.incidence._JSON_SEP)]


def _decoders_agree(block):
    """The row decoder reads block as the strict one does, or declines it;
    True if it read it."""
    rows = geomrep.incidence._row_pairs(block)
    if rows is not None:
        strict = geomrep.incidence._strict_pairs(block)
        assert strict is not None, block
        assert rows.dtype == strict.dtype and rows.tolist() == strict.tolist(), block
    return rows is not None


def _canonical_pairs(rng, k, widths):
    """k distinct sorted pairs a < b; each column's ids of one of its widths."""
    def ids(width_choice):
        width = rng.choice(width_choice)
        return rng.randrange(10 ** (width - 1) if width > 1 else 0, 10**width)

    pairs = set()
    while len(pairs) < k:
        a, b = ids(widths[0]), ids(widths[1])
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def test_row_decoder_reads_canonical_blocks_as_the_strict_one():
    rng = random.Random(24)
    read = {True: 0, False: 0}
    for trial in range(400):
        mixed = trial % 2
        widths = [rng.sample(range(1, 11), 2) if mixed else [rng.randint(1, 10)] for _ in range(2)]
        k = 1 if trial % 5 == 0 else rng.randint(2, 30)
        pairs = _canonical_pairs(rng, k, widths)
        uniform = all(len({len(str(p[col])) for p in pairs}) == 1 for col in (0, 1))
        block = _block(pairs)
        assert geomrep.incidence._strict_pairs(block).tolist() == [list(p) for p in pairs]
        accepted = _decoders_agree(block)
        # every block whose columns each hold one width takes the row path
        assert accepted or not uniform
        read[accepted] += 1
    for pairs in ([[0, 9]], [[9, 10]], [[10, 99]], [[99, 100]], [[0, 9], [10, 99]],
                  [[0, 10], [9, 99], [0, 100]], [[100, 9999999999]]):
        read[_decoders_agree(_block(pairs))] += 1
    # ids of 18 digits are read; the strict shape has none of 19
    assert _decoders_agree(_block([[10**17, 10**18 - 1]]))
    assert not _decoders_agree(_block([[10**17, 10**18]]))
    assert read[True] > 200 and read[False] > 100


# the bytes of the layout and of ids, and others the strict shape allows or not
EDIT_BYTES = b"0123456789 \t\n\r[],-.x\xff"


def _edits(block):
    """Every one-byte substitution, deletion and insertion of block."""
    for at in range(len(block) + 1):
        for byte in EDIT_BYTES:
            yield block[:at] + bytes([byte]) + block[at:]
            if at < len(block) and byte != block[at]:
                yield block[:at] + bytes([byte]) + block[at + 1 :]
        if at < len(block):
            yield block[:at] + block[at + 1 :]


def test_decoders_agree_on_every_one_byte_edit():
    block = _block([[10, 42], [11, 57], [12, 90]])
    assert _decoders_agree(block)
    # a string member makes each text longer than the reader's small texts
    head = b'{\n  "note": "' + b"x" * SMALL_TEXT + b'"' + geomrep.incidence._JSON_OPEN
    rows = read = 0
    for edited in _edits(block):
        by_rows = _decoders_agree(edited)
        rows += by_rows
        text = head + edited + geomrep.incidence._JSON_CLOSE
        assert len(text) > SMALL_TEXT
        got = geomrep.incidence._json_object([text])
        try:
            want = json.loads(text)
        except ValueError:
            assert got is None, edited
            continue
        # every edit that the row path reads is read to the end
        assert got is not None or not by_rows, edited
        if got is not None:
            assert {**got, "incidences": got["incidences"].tolist()} == want, edited
            read += 1
    # the row path reads the edits that keep the layout: one digit for
    # another, in the 6 ids of two digits, but for a leading 0
    assert rows == 6 * 2 * 9 - 6
    # and the strict path some others, such as changed whitespace
    assert read > rows


@pytest.mark.parametrize(
    "pairs",
    [[[0, 1]], [[10, 20], [30, 40]], [[0, 9], [10, 99], [100, 1234]], [[5, 10**9], [6, 7]]],
    ids=["one-pair", "uniform", "mixed", "mixed-second"],
)
def test_pairs_text_is_json_dumps(pairs):
    want = json.dumps({"incidences": pairs}, indent=2)
    got = '{\n  "incidences": [\n    ' + _block(pairs).decode("ascii") + "\n  ]\n}"
    assert got == want


def test_q4_file_is_read_by_the_row_decoder(monkeypatch, tmp_path, pgl34):
    """Every pair of the q = 4 file comes from _read_pairs, with no json.loads,
    and all but a few blocks, those with ids of several widths in one column,
    take the row path: a silent fall back to the strict one fails."""
    from geomrep.cli import _load_system

    path = tmp_path / "pgl-q4.json"
    with open(path, "wb") as fh:
        fh.writelines(pgl34.system.json_blocks())
    taken = []
    row_pairs = geomrep.incidence._row_pairs
    monkeypatch.setattr(
        geomrep.incidence, "_row_pairs",
        lambda block: taken.append(row_pairs(block)) or taken[-1],
    )
    read = _read_to_end(monkeypatch)
    calls = _loads_calls(monkeypatch)
    system, _ = _load_system(str(path))
    assert calls == []
    assert [pairs.shape[0] for pairs in read] == [1_600_305]
    assert system == pgl34.system
    by_rows = sum(pairs.shape[0] for pairs in taken if pairs is not None)
    assert by_rows >= 0.95 * pgl34.system.pairs.shape[0]


@pytest.mark.parametrize("reader", ["from_json", "load_system"])
def test_decoder_error_is_not_a_fallback(monkeypatch, tmp_path, reader):
    """An error inside a decoder is raised, not taken for the reader declining
    a text and hidden by the json.loads that would then read it."""
    from geomrep.cli import _load_system

    monkeypatch.setattr(geomrep.incidence, "_SMALL_TEXT", SMALL_TEXT)
    system = _spanning_system([[a, b] for a in range(0, 40, 2) for b in range(1, 41, 2)])
    text = system.to_json()
    assert len(text) > SMALL_TEXT
    path = tmp_path / "system.json"
    path.write_text(text, encoding="utf-8")

    def broken(block):
        raise ValueError("broken decoder")

    monkeypatch.setattr(geomrep.incidence, "_row_pairs", broken)
    with pytest.raises(ValueError, match="broken decoder"):
        if reader == "from_json":
            IncidenceSystem.from_json(text)
        else:
            _load_system(str(path))

