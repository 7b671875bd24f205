"""Time the correlation-group solver on PG(2, q), the bundled families and systems with twins.

Usage, from the root of a source checkout:

    python3 scripts/bench_solver.py [--src DIR] [--out FILE]

geomrep is imported from DIR (default: ./src).  For each system the script
records its size, the refinements of the search (``search_nodes``), the twin
classes merged before it (``twin_classes``, null for a version that does not
count them), the orders |Aut| and |Aut_I|, and the best of REPEAT wall times
of ``correlation_group``; it writes them as JSON to FILE (default:
BENCH_solver.json).  Pointing --src at another checkout's src gives the same
table for that version.
"""

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 5


def with_twins(gr, system, copies: dict[int, int]):
    """Copy of system where element x gains copies[x] twins: same type, same neighbours."""
    codes = system.type_codes.tolist()
    adj = [set(system.neighbors(x)) for x in range(system.size)]
    for x, k in sorted(copies.items()):
        for _ in range(k):
            z = len(codes)
            codes.append(codes[x])
            adj.append(set(adj[x]))
            for y in adj[x]:
                adj[y].add(z)
    pairs = [(a, b) for a, around in enumerate(adj) for b in around if a < b]
    return gr.IncidenceSystem(system.types, codes, pairs)


def s4_coset_system(gr):
    """Coset system of S4 with a Klein four-group, a 4-cycle and a transposition."""
    def group(*gens):
        return gr.PermGroup(4, [gr.Permutation(g) for g in gens])

    spec = gr.CosetGeometrySpec(
        group([1, 0, 2, 3], [1, 2, 3, 0]),
        (group([1, 0, 3, 2], [2, 3, 0, 1]), group([1, 2, 3, 0]), group([1, 0, 2, 3])),
    )
    return gr.coset_geometry(spec).system


def systems(gr) -> list[tuple[str, object]]:
    """(name, system): the point-line planes PG(2, q), q = 2..5, the bundled
    families, then planes and an S4 coset system with planted twins."""
    out = []
    planes = {}
    for q, (p, k) in ((2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (5, (5, 1))):
        # base degree k makes the base field all of GF(q), so the cross-ratio
        # geometry has no quadruple layers: it is the point-line system
        field = gr.make_field(p, k)
        planes[q] = gr.pgl_cross_ratio_geometry(3, field, base_degree=k).system
        out.append((f"pg2-q{q}", planes[q]))
    out += [(f"dihedral-{n}", gr.dihedral_geometry(n)) for n in (3, 4, 5, 6, 7, 8, 10, 12)]
    out += [(f"complete-{n}", gr.complete_graph_geometry(n)) for n in (3, 4, 5)]
    out += [
        ("gq22", gr.gq22()),
        ("cube", gr.cube_geometry()),
        ("cube-faces", gr.cube_geometry(vertex_adjacency=False)),
        ("hemidodecahedron", gr.hemidodecahedron_petrie()),
    ]
    # points come first, lines last: two points and a line gain twins
    out += [
        (f"pg2-q{q}-twins", with_twins(gr, planes[q], {0: 2, 1: 1, planes[q].size - 1: 3}))
        for q in (3, 5)
    ]
    out.append(("s4-coset-twins", with_twins(gr, s4_coset_system(gr), {0: 2, 9: 1, 20: 1})))
    return out


def row(gr, name: str, system) -> dict:
    times = []
    for _ in range(REPEAT):
        started = time.perf_counter()
        result = gr.correlation_group(system)
        times.append(time.perf_counter() - started)
    return {
        "system": name,
        "elements": system.size,
        "search_nodes": result.search_nodes,
        "twin_classes": getattr(result, "twin_classes", None),
        "aut_order": result.aut_order,
        "aut_i_order": result.aut_i_order,
        "correlation_group_best_s": round(min(times), 6),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_solver.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import geomrep as gr

    rows = [row(gr, name, system) for name, system in systems(gr)]
    bench = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "rows": rows,
        "total_search_nodes": sum(r["search_nodes"] for r in rows),
        "total_best_s": round(sum(r["correlation_group_best_s"] for r in rows), 6),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    for r in rows:
        print(
            f"{r['system']:>18} {r['elements']:>4} nodes {r['search_nodes']:>4} "
            f"twins {r['twin_classes']} "
            f"|Aut| {r['aut_order']:>8} |Aut_I| {r['aut_i_order']:>8} "
            f"{r['correlation_group_best_s'] * 1e3:8.2f} ms"
        )


if __name__ == "__main__":
    main()
