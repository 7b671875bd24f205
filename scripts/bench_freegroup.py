"""Time the bounded flag-transitivity sweep of `geomrep free rose --check ft`.

Usage, from the root of a source checkout:

    python3 scripts/bench_freegroup.py [--src DIR] [--out FILE]

geomrep is imported from DIR (default: ./src).  For each case (rank n, length
bound L) the script runs the (J, i) pairs that `free rose --n n --check ft
--length-bound L` visits, each sweep starting from empty memo caches as one
CLI process does.  It records the ``bounded_ft_check`` calls of a sweep, the
product-set columns it computes (calls of ``_product_words_bulk``, which
computes one column per call in every version), the words per column, the
best of REPEAT in-process sweep times, and the best of REPEAT wall times of
the CLI command in a fresh interpreter, with the sha256 of its report.  It
writes them as JSON to FILE (default: BENCH_freegroup.json).  Pointing --src
at another checkout's src gives the same table for that version.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 3
CASES = ((2, 8), (3, 4))


def ft_pairs(n: int, r: int) -> list[tuple[tuple[int, ...], int]]:
    """The (J, i) pairs of `free rose --check ft`: every J of size below r at
    rank 2, the empty set and the singletons above that."""
    if n == 2:
        j_sets = [j for size in range(r) for j in itertools.combinations(range(r), size)]
    else:
        j_sets = [()] + [(j,) for j in range(r)]
    return [(j_set, i) for j_set in j_sets for i in range(r) if i not in j_set]


def clear_caches(fg) -> None:
    for value in vars(fg).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def sweep(fg, family, pairs, bound) -> None:
    clear_caches(fg)
    for j_set, i in pairs:
        fg.bounded_ft_check(family, j_set, i, bound)


def counted_sweep(fg, family, pairs, bound) -> tuple[int, int]:
    """(columns computed, words per column) of one sweep from empty caches."""
    bulk = fg._product_words_bulk
    sizes = []

    def counting(h, k, words):
        sizes.append(len(words))
        return bulk(h, k, words)

    fg._product_words_bulk = counting
    try:
        sweep(fg, family, pairs, bound)
    finally:
        fg._product_words_bulk = bulk
    if len(set(sizes)) != 1:
        raise RuntimeError(f"columns of unequal length in one sweep: {sorted(set(sizes))}")
    return len(sizes), sizes[0]


def cli_run(src: str, n: int, bound: int) -> tuple[float, str]:
    """(best wall time, sha256 of the report) of the CLI in a fresh interpreter."""
    argv = [sys.executable, "-m", "geomrep.cli", "free", "rose", "--n", str(n)]
    argv += ["--check", "ft", "--length-bound", str(bound)]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    times, digests = [], set()
    for _ in range(REPEAT):
        started = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, check=True)
        times.append(time.perf_counter() - started)
        digests.add(hashlib.sha256(done.stdout).hexdigest())
    if len(digests) != 1:
        raise RuntimeError(f"the report changed between runs: {sorted(digests)}")
    return round(min(times), 6), digests.pop()


def row(gr, src: str, n: int, bound: int) -> dict:
    fg = gr.freegroup
    family = gr.rose_cover_generators(n)[1]
    pairs = ft_pairs(n, len(family))
    columns, words = counted_sweep(fg, family, pairs, bound)
    times = []
    for _ in range(REPEAT):
        started = time.perf_counter()
        sweep(fg, family, pairs, bound)
        times.append(time.perf_counter() - started)
    cli_s, report_sha256 = cli_run(src, n, bound)
    return {
        "n": n,
        "length_bound": bound,
        "calls": len(pairs),
        "columns_computed": columns,
        "words_per_column": words,
        "sweep_best_s": round(min(times), 6),
        "cli_best_s": cli_s,
        "cli_report_sha256": report_sha256,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_freegroup.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import geomrep as gr
    import geomrep.freegroup  # noqa: F401

    rows = [row(gr, args.src, n, bound) for n, bound in CASES]
    bench = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "rows": rows,
        "total_sweep_best_s": round(sum(r["sweep_best_s"] for r in rows), 6),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    for r in rows:
        print(
            f"n={r['n']} L={r['length_bound']:>2} calls {r['calls']:>3} "
            f"columns {r['columns_computed']:>3} x {r['words_per_column']:>5} words "
            f"sweep {r['sweep_best_s']:7.3f} s  cli {r['cli_best_s']:7.3f} s"
        )


if __name__ == "__main__":
    main()
