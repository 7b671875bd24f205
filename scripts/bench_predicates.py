"""Time the geometry predicates and the coset FT and RC criteria.

Usage, from the root of a source checkout:

    python3 scripts/bench_predicates.py [--src DIR] [--out FILE]

geomrep is imported from DIR (default: ./src).  The rows are the bundled
families, the point-line planes PG(2, q) for q = 2..5 and the coset systems of
the specs in perfbench/coset_family.json, taken with the generators listed
there.  For each row the script records the values of ``is_geometry``,
``is_firm`` and ``is_residually_connected``, for the coset rows also the
``check_ft_condition`` and ``check_rc_condition`` reports, and the best of
REPEAT wall times of each, and of ``coset_geometry`` on the coset rows.  On
the coset rows it also times ``check``'s default properties as the CLI
computes them (one ``_predicates`` walk, or the three calls for a version
without it) on a copy of the system that holds no neighbour data yet.  Last,
it builds the q = 4 cross-ratio file and records REPEAT fresh-process runs of
``geomrep check`` on it with the default properties: the least wall time, the
largest maximum RSS, the exit code and the checks.  It writes all of this as
JSON to FILE (default: BENCH_predicates.json).  Pointing --src at another
checkout's src gives the same table for that version.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 5
COSET_FAMILY = os.path.join(ROOT, "perfbench", "coset_family.json")
# the groups the coset family is drawn from, by their generators
COSET_GROUPS = {
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "A5": [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]],
    "S5": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
    "S6": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]],
}
PREDICATES = ("is_geometry", "is_firm", "is_residually_connected")
# check's default properties, in the order of PREDICATES
CHECK = ("geometry", "firm", "rc")


def planes_and_families(gr) -> list[tuple[str, object]]:
    """(name, system): the point-line planes PG(2, q), q = 2..5, then the bundled families."""
    out = []
    for q, (p, k) in ((2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (5, (5, 1))):
        # base degree k makes the base field all of GF(q): the point-line system
        field = gr.make_field(p, k)
        out.append((f"pg2-q{q}", gr.pgl_cross_ratio_geometry(3, field, base_degree=k).system))
    out += [(f"dihedral-{n}", gr.dihedral_geometry(n)) for n in (3, 4, 5, 6, 7, 8, 10, 12)]
    out += [(f"complete-{n}", gr.complete_graph_geometry(n)) for n in (3, 4, 5)]
    out += [
        ("gq22", gr.gq22()),
        ("cube", gr.cube_geometry()),
        ("cube-faces", gr.cube_geometry(vertex_adjacency=False)),
        ("hemidodecahedron", gr.hemidodecahedron_petrie()),
    ]
    return out


def coset_specs(gr) -> list[tuple[str, object]]:
    """(name, spec) for each spec of the coset family, in file order."""
    def group(gens):
        return gr.PermGroup(len(gens[0]), [gr.Permutation(g) for g in gens])

    with open(COSET_FAMILY, encoding="utf-8") as fh:
        family = json.load(fh)
    return [
        (
            f"coset-{entry['group']}-{k}",
            gr.CosetGeometrySpec(
                group(COSET_GROUPS[entry["group"]]),
                tuple(group(gens) for gens in entry["subgroups"]),
            ),
        )
        for k, entry in enumerate(family)
    ]


def best(call) -> tuple[object, float]:
    """The value of call() and the least of REPEAT wall times."""
    times = []
    for _ in range(REPEAT):
        started = time.perf_counter()
        value = call()
        times.append(time.perf_counter() - started)
    return value, round(min(times), 6)


def check_walk(gr, system) -> dict:
    """The default properties of ``check`` on a copy of system, as the CLI gets them."""
    copy = gr.IncidenceSystem(system.types, system.type_codes, system.pairs)
    if hasattr(copy, "_predicates"):
        return copy._predicates(CHECK)
    return {name: getattr(copy, pred)() for name, pred in zip(CHECK, PREDICATES)}


def q4_check(src: str) -> dict:
    """REPEAT fresh-process default checks of the q = 4 file."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cli = [sys.executable, "-m", "geomrep.cli"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "q4.json"), os.path.join(tmp, "check.json")
        subprocess.run(cli + ["build", "pgl", "--q", "4", "--out", path], env=env, check=True)
        for _ in range(REPEAT):
            started = time.perf_counter()
            proc = subprocess.Popen(cli + ["check", path, "--out", out], env=env)
            # the child's own resource usage, not that of every child so far
            _, status, usage = os.wait4(proc.pid, 0)
            runs.append((time.perf_counter() - started, usage.ru_maxrss / 1024))
            code = os.waitstatus_to_exitcode(status)
        with open(out, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
    return {
        "best_s": round(min(t for t, _ in runs), 3),
        "max_rss_mb": round(max(m for _, m in runs), 1),
        "exit": code,
        "checks": checks,
    }


def report(rep) -> dict:
    return {"ok": rep.ok, "failures": [list(f) for f in rep.failures], "checked": rep.checked}


def row(gr, name: str, system=None, spec=None) -> dict:
    """The row of a system, or of the coset system of spec."""
    times = {}
    if spec is not None:
        geometry, times["coset_geometry"] = best(lambda: gr.coset_geometry(spec))
        system = geometry.system
    out = {"system": name, "elements": system.size}
    for pred in PREDICATES:
        out[pred], times[pred] = best(getattr(system, pred))
    if spec is not None:
        values, times["check"] = best(lambda: check_walk(gr, system))
        if [values[name] for name in CHECK] != [out[pred] for pred in PREDICATES]:
            raise AssertionError(f"{name}: check gives {values}")
        for check in ("check_ft_condition", "check_rc_condition"):
            rep, times[check] = best(lambda: getattr(gr, check)(spec))
            out[check] = report(rep)
    out["best_s"] = times
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_predicates.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import geomrep as gr

    rows = [row(gr, name, system) for name, system in planes_and_families(gr)]
    rows += [row(gr, name, spec=spec) for name, spec in coset_specs(gr)]
    totals = {}
    for r in rows:
        for key, t in r["best_s"].items():
            totals[key] = round(totals.get(key, 0.0) + t, 6)
    bench = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "rows": rows,
        "total_best_s": totals,
        "q4_check": q4_check(args.src),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    for r in rows:
        values = " ".join(str(int(r[p])) for p in PREDICATES)
        if "check_ft_condition" in r:
            values += f" ft {int(r['check_ft_condition']['ok'])} rc {int(r['check_rc_condition']['ok'])}"
        ms = " ".join(f"{t * 1e3:7.2f}" for t in r["best_s"].values())
        print(f"{r['system']:>18} {r['elements']:>4} geometry/firm/rc {values:<17} ms {ms}")
    print("total best s", totals)
    print("q = 4 check", bench["q4_check"])


if __name__ == "__main__":
    main()
