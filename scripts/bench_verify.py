"""Time `geomrep verify pgl` and its full-system correlation checks.

Usage, from the root of a source checkout:

    python3 scripts/bench_verify.py [--src DIR] [--out FILE]

geomrep is imported from DIR (default: ./src).  For each case of `verify pgl`
the script records the system's elements and pairs, its complete type pairs
and the pairs of its other type pairs (``IncidenceSystem._complete_blocks``;
null for a version without that record), and how many
``correlation_type_action`` calls of one `verify` check the full system.  It
also records the best of REPEAT wall times of the one-time pass that fills the
record (null without it), of one full-system ``correlation_type_action`` call
on the identity once the record is filled, and of `verify` run in process by
``geomrep.cli.main`` with its report written to os.devnull.  It writes them as
JSON to FILE (default: BENCH_verify.json).  Pointing --src at another
checkout's src gives the same table for that version.
"""

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 5
CASES = (
    ("pgl-q2", ["--q", "2"]),
    ("pgl-q3", ["--q", "3"]),
    ("pgl-q4", ["--q", "4"]),
    ("pgl-q4-truncate", ["--q", "4", "--truncate"]),
)


def best(call) -> float:
    times = []
    for _ in range(REPEAT):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return round(min(times), 6)


def row(gr, name: str, params: list[str]) -> dict:
    argv = ["verify", "pgl", *params, "--inn", "1", "--aut", "1", "--out", os.devnull]
    system = gr.cli._pgl_geometry(gr.cli._make_parser().parse_args(argv)).system
    record = getattr(system, "_complete_blocks", None)
    complete = incomplete = pass_s = None
    if record is not None:

        def fill():
            object.__setattr__(system, "_blocks", None)
            record()

        pass_s = best(fill)
        flags, rest = record()
        complete, incomplete = int(flags.sum() + flags.trace()) // 2, rest.shape[0]
    identity = gr.Permutation.identity(system.size)
    check_s = best(lambda: gr.correlation_type_action(system, identity))

    # count the checks of the whole system that one verify makes
    checks = 0
    counted = gr.constructions.correlation_type_action

    def counting(sys_, g):
        nonlocal checks
        checks += sys_.size == system.size
        return counted(sys_, g)

    gr.constructions.correlation_type_action = counting
    try:
        gr.cli.main(argv)
    finally:
        gr.constructions.correlation_type_action = counted
    return {
        "case": name,
        "elements": system.size,
        "pairs": system.pairs.shape[0],
        "complete_type_pairs": complete,
        "incomplete_pairs": incomplete,
        "full_system_checks": checks,
        "record_pass_best_s": pass_s,
        "check_best_s": check_s,
        "run_verify_best_s": best(lambda: gr.cli.main(argv)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_verify.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import geomrep as gr
    import geomrep.cli

    rows = [row(gr, name, params) for name, params in CASES]
    bench = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    for r in rows:
        print(
            f"{r['case']:>16} {r['elements']:>5} elements {r['pairs']:>8} pairs "
            f"complete {r['complete_type_pairs']} incomplete {r['incomplete_pairs']} "
            f"checks {r['full_system_checks']} pass {r['record_pass_best_s']} "
            f"check {r['check_best_s'] * 1e3:.2f} ms verify {r['run_verify_best_s']:.3f} s"
        )


if __name__ == "__main__":
    main()
