"""Exit codes, report shape, and byte determinism of the command-line front end."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import geomrep
from geomrep import IncidenceSystem
from geomrep.cli import main

KLEIN_SPEC = {
    "degree": 4,
    "generators": [[1, 0, 3, 2], [2, 3, 0, 1]],
    "subgroups": [
        {"label": "a", "generators": [[1, 0, 3, 2]]},
        {"label": "b", "generators": [[2, 3, 0, 1]]},
        {"label": "c", "generators": [[3, 2, 1, 0]]},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_default_pentagon(self, capsys):
        code, out, err = run(capsys, "build", "dihedral")
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert data["types"] == ["0", "1", "2"]
        assert len(data["elements"]) == 15
        assert len(data["incidences"]) == 45

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "build", "gq22")
        _, second, _ = run(capsys, "build", "gq22")
        assert first == second

    def test_bad_parameter_exits_usage(self, capsys):
        code, out, err = run(capsys, "build", "dihedral", "--n", "2")
        assert code == 2
        assert out == ""
        assert "n must be >= 3" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "system.json"
        code, out, _ = run(capsys, "build", "cube", "--out", str(target))
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert len(data["elements"]) == 26

    def test_text_is_written_in_blocks(self, capsys, tmp_path, monkeypatch):
        # 45 incidences in blocks of 7: the text is written in several pieces
        monkeypatch.setattr(geomrep.incidence, "_JSON_BLOCK", 7)
        target = tmp_path / "system.json"
        assert run(capsys, "build", "gq22", "--out", str(target))[0] == 0
        _, out, _ = run(capsys, "build", "gq22")
        text = target.read_text()
        system = IncidenceSystem.from_json(text)
        assert system.pairs.shape[0] == 45
        assert out == text == json.dumps(system.to_json_dict(), indent=2) + "\n"

    def test_coset_default_tetrahedron(self, capsys):
        code, out, _ = run(capsys, "build", "coset")
        assert code == 0
        assert len(json.loads(out)["elements"]) == 14

    def test_coset_group_file(self, capsys, tmp_path):
        spec = tmp_path / "klein.json"
        spec.write_text(json.dumps(KLEIN_SPEC))
        code, out, _ = run(capsys, "build", "coset", "--group-file", str(spec))
        assert code == 0
        data = json.loads(out)
        assert data["types"] == ["a", "b", "c"]
        assert len(data["elements"]) == 6

    def test_coset_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "build", "coset", "--group-file", str(bad))
        assert code == 2
        assert "error:" in err

    def test_coset_non_integer_generator(self, capsys, tmp_path):
        spec = tmp_path / "floats.json"
        spec.write_text(json.dumps({
            "degree": 3,
            "generators": [[1.5, 0.2, 2.9]],
            "subgroups": [{"label": "a", "generators": []}],
        }))
        code, out, err = run(capsys, "build", "coset", "--group-file", str(spec))
        assert code == 2
        assert out == ""
        assert "images must be integers" in err

    def test_coset_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "build", "coset", "--group-file", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1, 2], "group file must be a JSON object"),
            ({**KLEIN_SPEC, "degree": None}, "group file: degree must be a JSON int"),
            ({**KLEIN_SPEC, "subgroups": 5}, "group file: subgroups must be a JSON list"),
            (
                {**KLEIN_SPEC, "subgroups": [KLEIN_SPEC["subgroups"][0], {"generators": []}]},
                "subgroup 1: label must be a JSON str",
            ),
            (
                {**KLEIN_SPEC, "subgroups": [{"label": 1, "generators": []}]},
                "subgroup 0: label must be a JSON str",
            ),
        ],
    )
    def test_coset_malformed_group_field(self, capsys, tmp_path, data, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        code, out, err = run(capsys, "build", "coset", "--group-file", str(spec))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("verb", [["build"], ["verify", "--inn", "4", "--aut", "8"]])
    def test_coset_missing_label_names_the_subgroup(self, capsys, tmp_path, verb):
        subgroups = [{"label": "a", "generators": [[1, 0, 3, 2]]}, {"generators": [[2, 3, 0, 1]]}]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**KLEIN_SPEC, "subgroups": subgroups}))
        code, out, err = run(capsys, *verb[:1], "coset", *verb[1:], "--group-file", str(spec))
        assert code == 2
        assert out == ""
        assert err == "error: subgroup 1: label must be a JSON str\n"

    def test_coset_deeply_nested_group_file(self, capsys, tmp_path):
        # json's recursion limit is a malformed file, not a failed check
        spec = tmp_path / "spec.json"
        spec.write_text("[" * 200_000)
        for verb in (["build", "coset"], ["verify", "coset", "--inn", "1", "--aut", "1"]):
            code, out, err = run(capsys, *verb, "--group-file", str(spec))
            assert code == 2
            assert out == ""
            assert err.startswith("error: maximum recursion depth exceeded")

    def test_out_directory_exits_usage(self, capsys, tmp_path):
        code, out, err = run(capsys, "build", "gq22", "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "directory" in err

    def test_degenerate_pgl(self, capsys):
        code, out, _ = run(capsys, "build", "pgl", "--q", "2", "--dimension", "3")
        assert code == 0
        assert len(json.loads(out)["elements"]) == 14


@pytest.fixture()
def triangle_file(capsys, tmp_path):
    path = tmp_path / "triangle.json"
    run(capsys, "build", "dihedral", "--n", "3", "--out", str(path))
    return path


def outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv), whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys, monkeypatch, triangle_file):
    argvs = [["aut", str(triangle_file)], ["aut"], ["check", str(triangle_file)], ["--version"]]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(geomrep.cli, "_parser", None)
        fresh.append(outcome(capsys, argv))
    built = []
    make_parser = geomrep.cli._make_parser
    monkeypatch.setattr(geomrep.cli, "_make_parser", lambda: built.append(1) or make_parser())
    monkeypatch.setattr(geomrep.cli, "_parser", None)
    assert [outcome(capsys, argv) for argv in argvs] == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert len(built) == 1


def option_argv(flag: str, keywords: dict) -> list[str]:
    """flag with a value it accepts."""
    if keywords.get("action") == "store_true":
        return [flag]
    return [flag, keywords["choices"][0] if "choices" in keywords else "5"]


class TestOptionsWhereRead:
    """Each construction takes only its own options, and only verbs that write
    a report take --seed and --timings."""

    VERBS = [["build"], ["verify", "--inn", "1", "--aut", "1"]]

    @pytest.mark.parametrize("construction", list(geomrep.cli._CONSTRUCTIONS))
    def test_foreign_option_exits_usage(self, capsys, construction):
        own = geomrep.cli._CONSTRUCTIONS[construction][2]
        foreign = {
            flag: keywords
            for _, _, options in geomrep.cli._CONSTRUCTIONS.values()
            for flag, keywords in options.items()
            if flag not in own
        }
        assert foreign
        parser = geomrep.cli._make_parser()
        for verb in self.VERBS:
            for flag, keywords in own.items():
                argv = [verb[0], construction, *verb[1:], *option_argv(flag, keywords)]
                assert parser.parse_args(argv).construction == construction
            for flag, keywords in foreign.items():
                argv = [verb[0], construction, *verb[1:], *option_argv(flag, keywords)]
                code, out, err = outcome(capsys, argv)
                assert code == 2
                assert out == ""
                # not abbreviated: cube would read --n as --no-vertex-adjacency
                # and reject only the value
                assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "gq22", "--seed", "1"],
            ["build", "pgl", "--timings"],
            ["export", "g.json", "--seed", "1"],
            ["export", "g.json", "--timings"],
        ],
    )
    def test_verbs_without_a_report_take_no_report_options(self, capsys, argv):
        code, out, err = outcome(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {argv[2]}" in err


@pytest.fixture()
def pentagon_file(capsys, tmp_path):
    path = tmp_path / "pentagon.json"
    run(capsys, "build", "dihedral", "--n", "5", "--out", str(path))
    return path


class TestCheck:
    def test_validate_builds_no_rows(self, capsys, pentagon_file, monkeypatch):
        def refuse(system):
            raise AssertionError("bit rows built")

        monkeypatch.setattr(IncidenceSystem, "_bit_rows", refuse)
        code, out, _ = run(capsys, "check", str(pentagon_file), "--properties", "validate")
        assert code == 0
        assert json.loads(out)["checks"] == [{"property": "validate", "value": True}]
        with pytest.raises(AssertionError, match="bit rows built"):
            main(["check", str(pentagon_file), "--properties", "validate,rc"])

    def test_report_shape(self, capsys, triangle_file):
        code, out, _ = run(capsys, "check", str(triangle_file))
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "tool",
            "version",
            "command",
            "seed",
            "input_digest",
            "checks",
            "timings",
        ]
        assert report["tool"] == "geomrep"
        assert report["command"] == "check"
        assert report["seed"] == 0
        assert report["input_digest"].startswith("sha256:")
        assert report["timings"] is None
        assert report["checks"] == [
            {"property": "geometry", "value": True},
            {"property": "firm", "value": True},
            {"property": "rc", "value": True},
        ]

    def test_digest_matches_file_bytes(self, capsys, triangle_file):
        import hashlib

        _, out, _ = run(capsys, "check", str(triangle_file))
        report = json.loads(out)
        digest = hashlib.sha256(triangle_file.read_bytes()).hexdigest()
        assert report["input_digest"] == f"sha256:{digest}"

    def test_multi_megabyte_file_reads_across_pieces(self, capsys, tmp_path):
        import hashlib

        # a two-byte character straddles the first 1 MB piece of the file
        head = '{"types": ["\u00e9", "b"], "note": "'
        pad = "x" * ((1 << 20) - 1 - len(head.encode("utf-8")))
        text = head + pad + '\u00e9", "elements": [{"id": 0, "type": "\u00e9"}, ' + (
            '{"id": 1, "type": "b"}], "incidences": [[0, 1]]}' + " " * (2 << 20)
        )
        data = text.encode("utf-8")
        assert data[(1 << 20) - 1 : (1 << 20) + 1] == "\u00e9".encode("utf-8")
        path = tmp_path / "big.json"
        path.write_bytes(data)
        code, out, _ = run(capsys, "check", str(path), "--properties", "validate")
        assert code == 0
        assert json.loads(out)["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("at", [5, (1 << 20) + 5, -1], ids=["first-piece", "later-piece", "end"])
    def test_undecodable_file_names_its_position(self, capsys, tmp_path, at):
        data = bytearray(b'{"types": [], "elements": [], "incidences": []}' + b" " * (3 << 20))
        if at == -1:
            data += "\u00e9".encode("utf-8")[:1]  # cut inside a character
        else:
            data[at] = 0xFF
        path = tmp_path / "bad.json"
        path.write_bytes(bytes(data))
        with pytest.raises(UnicodeDecodeError) as whole:
            bytes(data).decode("utf-8")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err == f"error: {whole.value}\n"

    def test_byte_identical_runs(self, capsys, pentagon_file):
        _, first, _ = run(capsys, "check", str(pentagon_file), "--properties", "rc")
        _, second, _ = run(capsys, "check", str(pentagon_file), "--properties", "rc")
        assert first == second

    def test_failing_property_exits_mismatch(self, capsys, pentagon_file):
        code, out, _ = run(capsys, "check", str(pentagon_file))
        assert code == 1
        values = {c["property"]: c["value"] for c in json.loads(out)["checks"]}
        assert values == {"geometry": False, "firm": False, "rc": False}

    def test_timings_requested(self, capsys, triangle_file):
        _, out, _ = run(capsys, "check", str(triangle_file), "--timings")
        report = json.loads(out)
        assert isinstance(report["timings"]["total_s"], float)

    def test_unknown_property(self, capsys, triangle_file):
        code, _, err = run(
            capsys, "check", str(triangle_file), "--properties", "geometry,shiny"
        )
        assert code == 2
        assert "unknown property" in err

    def test_unknown_property_is_rejected_before_loading(self, capsys, monkeypatch, triangle_file):
        def load(path):
            raise AssertionError("the file was loaded")

        monkeypatch.setattr(geomrep.cli, "_load_system", load)
        code, out, err = run(capsys, "check", str(triangle_file), "--properties", "shiny")
        assert code == 2
        assert out == ""
        assert err == "error: unknown property: shiny\n"

    @pytest.mark.parametrize("command", ["check", "aut"])
    def test_directory_out_is_rejected_before_loading(
        self, capsys, monkeypatch, triangle_file, tmp_path, command
    ):
        def load(path):
            raise AssertionError("the file was loaded")

        monkeypatch.setattr(geomrep.cli, "_load_system", load)
        code, out, err = run(capsys, command, str(triangle_file), "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        # the message open() gives for a directory
        with pytest.raises(IsADirectoryError) as opened:
            open(tmp_path, "w")
        assert err == f"error: {opened.value}\n"

    def test_directory_input_exits_usage(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "directory" in err

    def test_invalid_json_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("verb", ["check", "aut", "export"])
    def test_deeply_nested_file_exits_usage(self, capsys, tmp_path, verb):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, verb, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: maximum recursion depth exceeded")

    def test_validation_violations_reported(self, capsys, tmp_path):
        data = {
            "types": ["a", "b"],
            "elements": [{"id": 0, "type": "a"}, {"id": 1, "type": "a"}],
            "incidences": [[0, 1]],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "validation: same-type incidence" in err
        assert "validation: empty type fiber" in err


class TestEmitJson:
    OBJ = {
        "tool": "geomrep",
        "text": "café → \"q\"\n\t\\",
        "numbers": [0, -1, 2**70, 1.5, 1e-300, float("inf"), float("nan")],
        "empty": {"list": [], "dict": {}},
        "nested": [[1, [2, [3]]], {"a": None, "b": True, "c": False}],
    }

    def test_file_bytes_equal_json_dumps(self, tmp_path):
        target = tmp_path / "report.json"
        geomrep.cli._emit_json(self.OBJ, str(target))
        assert target.read_bytes() == (json.dumps(self.OBJ, indent=2) + "\n").encode()

    def test_stdout_is_written_in_pieces(self, capsys, monkeypatch):
        pieces = []
        writelines = sys.stdout.writelines

        def record(lines):
            lines = list(lines)
            pieces.extend(lines)
            writelines(lines)

        monkeypatch.setattr(sys.stdout, "writelines", record)
        geomrep.cli._emit_json(self.OBJ, None)
        assert capsys.readouterr().out == json.dumps(self.OBJ, indent=2) + "\n"
        assert len(pieces) > 10
        assert max(map(len, pieces)) < 40

    def test_aut_report_equals_json_dumps(self, capsys, tmp_path):
        path = tmp_path / "gq22.json"
        run(capsys, "build", "gq22", "--out", str(path))
        code, out, _ = run(capsys, "aut", str(path))
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestJsonPieces:
    """The report encoder against json.JSONEncoder(indent=2), byte for byte."""

    @staticmethod
    def reports(capsys, monkeypatch, *argv):
        """The report objects that one CLI run writes, checked against its output."""
        written = []
        emit = geomrep.cli._emit_json
        monkeypatch.setattr(
            geomrep.cli, "_emit_json", lambda obj, out: written.append(obj) or emit(obj, out)
        )
        _, out, _ = run(capsys, *argv)
        assert len(written) == 1
        assert out == json.JSONEncoder(indent=2).encode(written[0]) + "\n"
        return written[0]

    @pytest.mark.parametrize(
        "construction", [["gq22"], ["pgl", "--q", "3"], ["cube"], ["coset"]]
    )
    def test_aut_and_check_reports(self, capsys, monkeypatch, tmp_path, construction):
        path = tmp_path / "system.json"
        run(capsys, "build", *construction, "--out", str(path))
        aut = self.reports(capsys, monkeypatch, "aut", str(path), "--timings")
        assert aut["checks"][0]["correlation_gens"]
        self.reports(capsys, monkeypatch, "check", str(path), "--properties", "validate,rc")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "pgl", "--q", "2", "--inn", "168", "--aut", "336"],
            ["verify", "hemidodeca", "--inn", "60", "--aut", "120", "--seed", "7"],
            ["free", "rose", "--n", "2", "--check", "rank,rc,ft", "--length-bound", "3"],
        ],
        ids=["verify-pgl", "verify-hemidodeca", "free"],
    )
    def test_verify_and_free_reports(self, capsys, monkeypatch, argv):
        self.reports(capsys, monkeypatch, *argv)

    class Tagged(int):
        def __repr__(self):
            return "tagged"

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            7,
            "plain",
            None,
            [[]],
            [{}],
            {"ids": [0, 1, -2, 2**70], "one": [5], "none": []},
            {"bools": [1, True, 0, False], "flags": [True, False], "floats": [1, 2.0, 1e-300]},
            {"special": [float("inf"), float("-inf"), float("nan"), -0.0], "n": None},
            {"text": ["café", "型", "→ \"q\"\n\t\\", "\u0000\ud800"], "é": {"ü": ["ß"]}},
            {1: "int key", 2.5: "float key", True: "bool key", None: "none key", "s": 0},
            {"tuple": (1, 2, (3, [4, {"x": ()}])), "nested": [[1, [2, [3]]], [[], [[]]]]},
            {"subclass": [Tagged(3), 4], "alone": Tagged(5)},
        ],
    )
    def test_values(self, obj):
        want = json.JSONEncoder(indent=2).encode(obj)
        assert "".join(geomrep.cli._json_pieces(obj)) == want

    def test_random_values(self):
        import random

        rng = random.Random(11)
        leaves = [0, -3, 10**20, 1.5, True, False, None, "x", "é", float("nan")]

        def value(depth):
            kind = rng.randrange(5 if depth < 4 else 1)
            if kind == 0:
                return rng.choice(leaves)
            if kind == 1:
                return [rng.randrange(-5, 50) for _ in range(rng.randrange(4))]
            if kind == 2:
                return [value(depth + 1) for _ in range(rng.randrange(4))]
            if kind == 3:
                return tuple(value(depth + 1) for _ in range(rng.randrange(3)))
            return {rng.choice(["a", "b", "ç", 1, 2.5, None]): value(depth + 1)
                    for _ in range(rng.randrange(4))}

        for _ in range(500):
            obj = value(0)
            assert "".join(geomrep.cli._json_pieces(obj)) == json.JSONEncoder(indent=2).encode(obj)

    def test_bad_key_fails_as_json_does(self):
        with pytest.raises(TypeError) as want:
            json.JSONEncoder(indent=2).encode({(1,): 2})
        with pytest.raises(TypeError) as got:
            "".join(geomrep.cli._json_pieces({(1,): 2}))
        assert str(got.value) == str(want.value)


# every construction and option that `build` offers, at small sizes
BUNDLED = [
    ["dihedral", "--n", "3"],
    ["dihedral", "--n", "6"],
    ["complete", "--n", "4"],
    ["gq22"],
    ["cube"],
    ["cube", "--no-vertex-adjacency"],
    ["hemidodeca", "--rule", "shared-edge"],
    ["hemidodeca", "--rule", "shared-vertex"],
    ["hemidodeca", "--rule", "always"],
    ["pgl", "--q", "2"],
    ["pgl", "--q", "3"],
    ["pgl", "--q", "2", "--dimension", "4"],
    ["coset"],
]


@pytest.mark.parametrize("construction", BUNDLED, ids=lambda c: "-".join(c).replace("--", ""))
def test_bundled_construction_files_load(capsys, monkeypatch, tmp_path, construction):
    import hashlib

    path = tmp_path / "system.json"
    assert run(capsys, "build", *construction, "--out", str(path))[0] == 0
    data = path.read_bytes()
    want = IncidenceSystem.from_json_dict(json.loads(data.decode("utf-8")))
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
    system, digest = geomrep.cli._load_system(str(path))
    assert system == want
    assert digest == "sha256:" + hashlib.sha256(data).hexdigest()
    # a short file is parsed by one json.loads, a longer one by the byte reader
    assert calls == ([data.decode("utf-8")] if len(data) <= geomrep.incidence._SMALL_TEXT else [])
    assert IncidenceSystem.from_json(data.decode("utf-8")) == want


class TestAut:
    def test_square_system(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        run(capsys, "build", "dihedral", "--n", "4", "--out", str(path))
        code, out, _ = run(capsys, "aut", str(path))
        assert code == 0
        result = json.loads(out)["checks"][0]
        assert result["aut_order"] == "8"
        assert result["aut_i_order"] == "4"
        assert result["out_order"] == "2"

    def test_empty_type_fiber_is_a_usage_error(self, capsys, tmp_path):
        data = {
            "types": ["a", "b"],
            "elements": [{"id": 0, "type": "a"}, {"id": 1, "type": "a"}],
            "incidences": [],
        }
        path = tmp_path / "empty_fiber.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "aut", str(path))
        assert code == 2
        assert out == ""
        assert "empty type fiber: no element has type 'b'" in err


class TestVerify:
    def test_match(self, capsys):
        code, out, _ = run(
            capsys, "verify", "dihedral", "--n", "8", "--inn", "8", "--aut", "32"
        )
        assert code == 0
        check = json.loads(out)["checks"][0]
        assert check["verdict"] == "representation"
        assert check["description"] == "dihedral n=8"

    @pytest.mark.parametrize(
        "construction,orders",
        [(["gq22"], ["720", "1440"]), (["pgl", "--q", "3"], ["5616", "11232"])],
        ids=["gq22", "pgl-q3"],
    )
    def test_digest_matches_build_bytes(self, capsys, construction, orders):
        import hashlib

        _, built, _ = run(capsys, "build", *construction)
        _, out, _ = run(capsys, "verify", *construction, "--inn", orders[0], "--aut", orders[1])
        digest = hashlib.sha256(built.encode("utf-8")).hexdigest()
        assert json.loads(out)["input_digest"] == f"sha256:{digest}"

    def test_weak_match_exits_mismatch(self, capsys):
        code, out, _ = run(
            capsys, "verify", "complete", "--n", "3", "--inn", "6", "--aut", "6"
        )
        assert code == 1
        assert json.loads(out)["checks"][0]["verdict"] == "weak-or-mismatch"

    def test_hemidodecahedron(self, capsys):
        code, out, _ = run(
            capsys, "verify", "hemidodeca", "--inn", "60", "--aut", "120"
        )
        assert code == 0
        assert json.loads(out)["checks"][0]["verdict"] == "representation"

    def test_degenerate_pgl_reports_pipeline(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "pgl",
            "--q",
            "2",
            "--dimension",
            "3",
            "--inn",
            "168",
            "--aut",
            "336",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks[0]["verdict"] == "representation"
        extra = checks[1]
        assert extra["reported_group"] == "correlation group of the system"
        assert extra["duality_extends"] is None
        assert extra["frobenius_extends"] is False
        assert extra["frobenius_type_action"] is None
        assert extra["truncation_aut_order"] == "336"

    @pytest.mark.parametrize(
        "q,inn,aut", [("3", "5616", "11232"), ("4", "60480", "120960")]
    )
    def test_pgl_truncates_once(self, capsys, monkeypatch, q, inn, aut):
        calls = []
        truncation = IncidenceSystem.truncation

        def spy(self, typeset):
            calls.append(tuple(typeset))
            return truncation(self, typeset)

        monkeypatch.setattr(IncidenceSystem, "truncation", spy)
        code, _, _ = run(capsys, "verify", "pgl", "--q", q, "--inn", inn, "--aut", aut)
        assert code == 0
        assert len(calls) <= 1

    @pytest.mark.parametrize(
        "q,inn,aut,group",
        [
            ("3", "5616", "11232", "correlation group of the system"),
            ("4", "60480", "120960", "group generated by the extended truncation correlations"),
        ],
    )
    def test_pgl_names_the_reported_group(self, capsys, q, inn, aut, group):
        code, out, _ = run(capsys, "verify", "pgl", "--q", q, "--inn", inn, "--aut", aut)
        assert code == 0
        assert json.loads(out)["checks"][1]["reported_group"] == group

    def test_non_prime_power_q(self, capsys):
        code, _, err = run(
            capsys, "verify", "pgl", "--q", "6", "--inn", "1", "--aut", "1"
        )
        assert code == 2
        assert "not a prime power" in err


class TestFree:
    def test_selected_checks_pass(self, capsys):
        code, out, _ = run(
            capsys, "free", "rose", "--check", "rank,intersections,action"
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == ["rank", "intersections", "action"]
        assert all(c["ok"] for c in checks)
        assert checks[0]["rank"] == 4
        assert checks[1]["checked"] == 11
        assert checks[2]["order"] == "8"

    def test_ft_check_with_short_bound(self, capsys):
        code, out, _ = run(
            capsys, "free", "rose", "--check", "ft", "--length-bound", "4"
        )
        assert code == 0
        check = json.loads(out)["checks"][0]
        assert check["pairs_checked"] == 32
        assert check["counterexamples"] == []

    def test_all_checks_include_exact_rc_at_rank_three(self, capsys):
        code, out, _ = run(
            capsys, "free", "rose", "--n", "3", "--check", "all", "--length-bound", "2"
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [
            "rank",
            "intersections",
            "action",
            "ft",
            "rc",
        ]
        assert all(c["ok"] for c in checks)
        assert checks[4]["checked"] == 4083
        assert checks[4]["failures"] == []

    def test_negative_length_bound_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "free", "rose", "--check", "ft", "--length-bound", "-2"
        )
        assert code == 2
        assert out == ""
        assert "length bound must be >= 0 and <= 10, not -2" in err

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "free", "rose", "--check", "sparkle")
        assert code == 2
        assert "unknown free-group check" in err


class TestExport:
    def test_dot_output(self, capsys, triangle_file):
        code, out, _ = run(capsys, "export", str(triangle_file))
        assert code == 0
        assert out.startswith("graph incidence {")
        assert out.rstrip().endswith("}")

    def test_export_writes_dot_without_a_flag(self, capsys, tmp_path):
        path = tmp_path / "k3.json"
        run(capsys, "build", "complete", "--n", "3", "--out", str(path))
        code, out, err = run(capsys, "export", str(path))
        assert (code, err) == (0, "")
        assert out == (
            "graph incidence {\n"
            '  0 [label="0:0"];\n'
            '  1 [label="1:0"];\n'
            '  2 [label="2:0"];\n'
            '  3 [label="3:1"];\n'
            '  4 [label="4:1"];\n'
            '  5 [label="5:1"];\n'
            "  0 -- 3;\n"
            "  0 -- 4;\n"
            "  1 -- 3;\n"
            "  1 -- 5;\n"
            "  2 -- 4;\n"
            "  2 -- 5;\n"
            "}\n"
        )


class TestModuleExitCodes:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["verify", "dihedral", "--n", "8", "--inn", "8", "--aut", "32"], 0),
            (["verify", "complete", "--n", "3", "--inn", "6", "--aut", "6"], 1),
            (["verify", "dihedral", "--n", "2", "--inn", "1", "--aut", "1"], 2),
        ],
    )
    def test_python_m_returns_the_exit_code(self, argv, expected):
        src = str(pathlib.Path(geomrep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "geomrep.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            stdin=subprocess.DEVNULL,
        )
        assert done.returncode == expected
        assert ("error:" in done.stderr) == (expected == 2)


def _interchange(**changes):
    data = {
        "types": ["a", "b"],
        "elements": [{"id": 0, "type": "a"}, {"id": 1, "type": "b"}],
        "incidences": [[0, 1]],
    }
    data.update(changes)
    return data


# documents that were once read as the pair [0, 1], crashed with a TypeError,
# or failed with a KeyError that named no field
MALFORMED = [
    (_interchange(incidences=[[0, 1.5]]), "incidences"),
    (_interchange(incidences=[["0", "1"]]), "incidences"),
    (_interchange(elements=[{"id": 0.9, "type": "a"}, {"id": 1, "type": "b"}]), "ids"),
    (_interchange(elements=[{"id": "0", "type": "a"}, {"id": 1, "type": "b"}]), "ids"),
    ([_interchange()], "JSON object"),
    (_interchange(elements=[{"id": 0, "type": "a"}, 1]), "elements"),
    (_interchange(incidences=5), "incidences"),
    (_interchange(incidences=[[0, True]]), "incidences"),
    ({"elements": _interchange()["elements"], "incidences": []}, "missing field: types"),
    ({"types": ["a", "b"], "incidences": []}, "missing field: elements"),
    ({"types": ["a", "b"], "elements": _interchange()["elements"]}, "missing field: incidences"),
    (_interchange(elements=[{"id": 0, "type": "a"}, {"type": "b"}]),
     "element 1 is missing field: id"),
    (_interchange(elements=[{"id": 0}, {"id": 1, "type": "b"}]),
     "element 0 is missing field: type"),
]
MALFORMED_IDS = [
    "float-pair", "string-pair", "float-id", "string-id", "top-level-list",
    "element-not-object", "incidences-not-list", "bool-pair", "no-types",
    "no-elements", "no-incidences", "element-no-id", "element-no-type",
]


class TestMalformedInput:
    @pytest.mark.parametrize("data,field", MALFORMED, ids=MALFORMED_IDS)
    def test_from_json_rejects(self, data, field):
        with pytest.raises(ValueError, match=field):
            IncidenceSystem.from_json(json.dumps(data))

    @pytest.mark.parametrize("data,field", MALFORMED, ids=MALFORMED_IDS)
    def test_check_exits_usage(self, capsys, tmp_path, data, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and field in err

    def test_empty_incidence_list_is_valid(self):
        system = IncidenceSystem.from_json(json.dumps(_interchange(incidences=[])))
        assert system.pairs.shape == (0, 2)
        assert system.size == 2
