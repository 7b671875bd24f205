"""Write the report-bytes corpus: one sha256 per (verb, arguments) of the CLI.

Usage, from the root of a source checkout:

    python3 scripts/report_corpus.py [--src DIR] [--out FILE]

geomrep is imported from DIR (default: ./src).  In an empty working directory
the script runs ``geomrep.cli.main`` on each command of COMMANDS, in order, and
records the command, its exit code and the sha256 of the bytes it writes to
its ``--out`` file.  The commands are `build`, `aut`, `check` and `export` of
each small file of ``bench_verify.SMALL_FILES`` (the `build` writes the file
the other three read), `verify` of each construction but pgl and of
pgl at q = 2, 3 and 4, one `free rose`, the `build` of the q = 4 file
(56 MB) with its `check --properties validate`, default `check` and `aut`,
and the four commands of each file of MORE_FILES.  It writes the table as JSON
to FILE (default: tests/report_corpus.json), which ``tests/test_report_corpus.py``
replays.  Pointing --src at another checkout's src gives that version's table.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

from bench_verify import SMALL_FILES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT = "report.out"
# each construction with the Aut_I and Aut orders of its default parameters
VERIFY = (
    (["dihedral"], "10", "20"),
    (["complete"], "120", "120"),
    (["gq22"], "720", "1440"),
    (["cube"], "24", "48"),
    (["hemidodeca"], "60", "120"),
    (["coset"], "24", "48"),
    (["pgl", "--q", "2"], "168", "336"),
    (["pgl", "--q", "3"], "5616", "11232"),
    (["pgl", "--q", "4"], "60480", "120960"),
)
# files over 8 KiB, which `aut`, `check` and `export` read by the byte reader
# rather than one json.loads, and the two options of `build` no other file takes
MORE_FILES = (
    ("pgl-q7", ["pgl", "--q", "7"]),
    ("complete-20", ["complete", "--n", "20"]),
    ("dihedral-30", ["dihedral", "--n", "30"]),
    ("pgl-q3-dimension-4", ["pgl", "--q", "3", "--dimension", "4"]),
    ("cube-no-vertex-adjacency", ["cube", "--no-vertex-adjacency"]),
    ("hemidodeca-always", ["hemidodeca", "--rule", "always"]),
)


def file_commands(files):
    """`build` of each file, then the `aut`, `check` and `export` that read it."""
    for name, build in files:
        yield ["build", *build, "--out", name + ".json"]
        for verb in ("aut", "check", "export"):
            yield [verb, name + ".json", "--out", REPORT]


COMMANDS = (
    *file_commands(SMALL_FILES),
    *(
        ["verify", *construction, "--inn", inn, "--aut", aut, "--out", REPORT]
        for construction, inn, aut in VERIFY
    ),
    ["free", "rose", "--n", "2", "--check", "rank,intersections,action,rc", "--out", REPORT],
    ["build", "pgl", "--q", "4", "--out", "pgl-q4.json"],
    ["check", "pgl-q4.json", "--properties", "validate", "--out", REPORT],
    ["check", "pgl-q4.json", "--out", REPORT],
    ["aut", "pgl-q4.json", "--out", REPORT],
    *file_commands(MORE_FILES),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT, "tests", "report_corpus.json"))
    args = parser.parse_args()
    out = os.path.abspath(args.out)
    sys.path.insert(0, os.path.abspath(args.src))
    import geomrep.cli

    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for argv in COMMANDS:
            code = geomrep.cli.main(argv)
            with open(argv[-1], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            rows.append({"argv": argv, "exit": code, "sha256": digest})
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")


if __name__ == "__main__":
    main()
