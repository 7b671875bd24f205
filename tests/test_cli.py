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


@pytest.fixture()
def pentagon_file(capsys, tmp_path):
    path = tmp_path / "pentagon.json"
    run(capsys, "build", "dihedral", "--n", "5", "--out", str(path))
    return path


class TestCheck:
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

    def test_invalid_json_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "error:" in err

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

    def test_digest_matches_build_bytes(self, capsys):
        import hashlib

        _, built, _ = run(capsys, "build", "gq22")
        _, out, _ = run(capsys, "verify", "gq22", "--inn", "720", "--aut", "1440")
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
