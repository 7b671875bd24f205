"""Time `geomrep verify pgl`, the q = 4 `check`, report encoding and small-file loads.

Usage, from the root of a source checkout:

    python3 scripts/bench_verify.py [--src DIR] [--out FILE]

geomrep is imported from DIR (default: ./src).  For each case of `verify pgl`
the script records the system's elements and pairs, its complete type pairs
and the pairs of its other type pairs (``IncidenceSystem._complete_blocks``;
null for a version without that record), and how many
``correlation_type_action`` calls of one `verify` check the full system.  It
also records the best of REPEAT wall times of the one-time pass that fills the
record (null without it), of one full-system ``correlation_type_action`` call
on the identity once the record is filled, of building the geometry
(``pgl_cross_ratio_geometry``), of the extension pipeline
(``pgl_aut_via_extension``), of the digest of the system's interchange bytes,
and of its two parts, encoding the bytes (``json_blocks``) and hashing them
(``geomrep.cli._digest`` of the encoded blocks), and of `verify` run in process
by ``geomrep.cli.main`` with its report written to os.devnull.

On the q = 4 system it records the best of REPEAT times of the constructor
(``IncidenceSystem``) on its pairs, canonical as ``pairs`` holds them and in a
fixed shuffled order, and of its subspace truncation made two ways: by
``system.truncation`` of the subspace types, and as the system of the
truncation's own pairs, as the builder makes it.

On the q = 4 file that `build pgl --q 4` writes (56 MB) it records the best
of REPEAT times of `check --properties validate` in process, and the best wall
time and the largest peak resident set (``ru_maxrss``) of REPEAT fresh
processes running it; the same two numbers for fresh processes running it on
the q = 4 system as ``json.dumps`` writes it with no indent, which a reader
of only the layout that `build` writes leaves to one ``json.loads`` (under
"fallback"); the best of REPEAT times of the byte reader
(``incidence._json_object``) on the file's bytes, held in memory and handed
over ``incidence._READ_CHUNK`` bytes at a time, so without reading or hashing
the file; and, for each decoder of the reader's pair blocks (``_row_pairs``
and ``_strict_pairs``; null for a version without it), the blocks and pairs
it read in one such pass; the best of REPEAT times to encode the `aut` report of
that system (``geomrep.cli._emit_json`` to a file); and, for each small file
that `build` writes, the best of REPEAT mean times of LOOPS loads by
``geomrep.cli._load_system``.  It writes everything as JSON to FILE (default:
BENCH_verify.json).  Pointing --src at another checkout's src gives the same
table for that version.
"""

import argparse
import collections
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 5
LOOPS = 100
CASES = (
    ("pgl-q2", ["--q", "2"]),
    ("pgl-q3", ["--q", "3"]),
    ("pgl-q4", ["--q", "4"]),
    ("pgl-q4-truncate", ["--q", "4", "--truncate"]),
)
# files that `build` writes at the sizes the benchmark's small workloads load
SMALL_FILES = (
    ("dihedral-5", ["dihedral", "--n", "5"]),
    ("complete-5", ["complete", "--n", "5"]),
    ("gq22", ["gq22"]),
    ("cube", ["cube"]),
    ("hemidodeca", ["hemidodeca"]),
    ("pgl-q3", ["pgl", "--q", "3"]),
    ("coset-tetrahedron", ["coset"]),
)
CLI = "import sys; from geomrep.cli import main; sys.exit(main())"
# runs its arguments as a child and prints the child's wall time and peak
# resident set in kB; a small process starts each fresh run because a child's
# ru_maxrss also counts the memory it shared with its parent before exec
PROBE = (
    "import resource, subprocess, sys, time; t = time.perf_counter(); "
    "subprocess.run(sys.argv[1:], check=True); "
    "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
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
    args = gr.cli._make_parser().parse_args(argv)
    geom = gr.cli._pgl_geometry(args)
    system = geom.system
    record = getattr(system, "_complete_blocks", None)
    complete = incomplete = pass_s = None
    if record is not None:

        def fill():
            object.__setattr__(system, "_blocks", None)
            record()

        pass_s = best(fill)
        flags, rest = record()[:2]
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
    blocks = list(system.json_blocks())
    hash_s = best(lambda: gr.cli._digest(blocks))
    del blocks
    return {
        "case": name,
        "elements": system.size,
        "pairs": system.pairs.shape[0],
        "complete_type_pairs": complete,
        "incomplete_pairs": incomplete,
        "full_system_checks": checks,
        "record_pass_best_s": pass_s,
        "check_best_s": check_s,
        "build_best_s": best(lambda: gr.cli._pgl_geometry(args)),
        "extension_best_s": best(lambda: gr.pgl_aut_via_extension(geom)),
        "digest_best_s": best(lambda: gr.cli._digest(system.json_blocks())),
        "encode_best_s": best(lambda: collections.deque(system.json_blocks(), maxlen=0)),
        "hash_best_s": hash_s,
        "run_verify_best_s": best(lambda: gr.cli.main(argv)),
    }


def q4_parts(gr) -> dict:
    args = gr.cli._make_parser().parse_args(["verify", "pgl", "--q", "4", "--inn", "1", "--aut", "1"])
    geom = gr.cli._pgl_geometry(args)
    system, labels = geom.system, geom.subspace_labels
    pairs = system.pairs
    shuffled = pairs[np.random.default_rng(0).permutation(pairs.shape[0])]
    nsub = geom.truncation.size
    sub_codes, sub_pairs = system.type_codes[:nsub], geom.truncation.pairs
    return {
        "pairs": pairs.shape[0],
        "init_canonical_best_s": best(lambda: gr.IncidenceSystem(system.types, system.type_codes, pairs)),
        "init_shuffled_best_s": best(lambda: gr.IncidenceSystem(system.types, system.type_codes, shuffled)),
        "truncation_by_mask_best_s": best(lambda: system.truncation(labels)),
        "truncation_own_pairs_best_s": best(
            lambda: gr.IncidenceSystem(labels, sub_codes, sub_pairs, source_ids=range(nsub))
        ),
    }


def fresh(src: str, argv: list[str]) -> dict:
    """The best wall time and the largest peak resident set of REPEAT fresh
    processes running the CLI on argv."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    runs = []
    for _ in range(REPEAT):
        probe = [sys.executable, "-c", PROBE, sys.executable, "-c", CLI, *argv]
        out = subprocess.run(probe, env=env, check=True, capture_output=True, text=True)
        seconds, maxrss_kb = out.stdout.split()
        runs.append((float(seconds), int(maxrss_kb)))
    return {
        "fresh_process_best_s": round(min(s for s, _ in runs), 6),
        "fresh_process_maxrss_mb": round(max(kb for _, kb in runs) / 1024, 1),
    }


def write_compact(system, path: str) -> None:
    """The bytes of json.dumps(system.to_json_dict()), written a block of
    pairs at a time, so the pairs never exist as Python lists all at once."""
    pairs = system.pairs
    step = 1 << 16
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(system._json_head())[:-1] + ', "incidences": [')
        for start in range(0, pairs.shape[0], step):
            fh.write((", " if start else "") + json.dumps(pairs[start : start + step].tolist())[1:-1])
        fh.write("]}")


def check_q4(gr, src: str, workdir: str) -> dict:
    path = os.path.join(workdir, "pgl-q4.json")
    gr.cli.main(["build", "pgl", "--q", "4", "--out", path])
    argv = ["check", path, "--properties", "validate", "--out", os.devnull]
    compact = os.path.join(workdir, "pgl-q4-compact.json")
    write_compact(gr.cli._load_system(path)[0], compact)
    fallback = {
        "file_bytes": os.path.getsize(compact),
        **fresh(src, ["check", compact, "--properties", "validate", "--out", os.devnull]),
    }
    os.remove(compact)
    return {
        "file_bytes": os.path.getsize(path),
        "in_process_best_s": best(lambda: gr.cli.main(argv)),
        **fresh(src, argv),
        "fallback": fallback,
        **decode(gr, path),
    }


def decode(gr, path: str) -> dict:
    reader = gr.incidence
    with open(path, "rb") as fh:
        data = fh.read()
    step = reader._READ_CHUNK

    def read():
        return reader._json_object(data[i : i + step] for i in range(0, len(data), step))

    decode_s = best(read)
    decoders = {name: getattr(reader, name, None) for name in ("_row_pairs", "_strict_pairs")}
    taken = {name: decoder and {"blocks": 0, "pairs": 0} for name, decoder in decoders.items()}

    def counting(decoder, count):
        def counted(block):
            pairs = decoder(block)
            if pairs is not None:
                count["blocks"] += 1
                count["pairs"] += pairs.shape[0]
            return pairs

        return counted

    try:
        for name, decoder in decoders.items():
            if decoder is not None:
                setattr(reader, name, counting(decoder, taken[name]))
        if read() is None:
            raise SystemExit("the byte reader declined the q = 4 file")
    finally:
        for name, decoder in decoders.items():
            if decoder is not None:
                setattr(reader, name, decoder)
    return {"decode_best_s": decode_s, "decoders": taken}


def aut_encode(gr, path: str) -> dict:
    system, digest = gr.cli._load_system(path)
    result = gr.correlation_group(system)
    args = gr.cli._make_parser().parse_args(["aut", path])
    report = gr.cli._report(args, "aut", digest, [result.to_json_dict()], 0.0)
    out = path + ".aut"
    encode_s = best(lambda: gr.cli._emit_json(report, out))
    size = os.path.getsize(out)
    os.remove(out)
    return {"report_bytes": size, "encode_best_s": encode_s}


def small_loads(gr, workdir: str) -> list[dict]:
    rows = []
    for name, argv in SMALL_FILES:
        path = os.path.join(workdir, name + ".json")
        gr.cli.main(["build", *argv, "--out", path])
        system, _ = gr.cli._load_system(path)

        def loads():
            for _ in range(LOOPS):
                gr.cli._load_system(path)

        rows.append({
            "file": name,
            "bytes": os.path.getsize(path),
            "pairs": system.pairs.shape[0],
            "load_best_s": round(best(loads) / LOOPS, 7),
        })
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_verify.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import geomrep as gr
    import geomrep.cli

    rows = [row(gr, name, params) for name, params in CASES]
    parts = q4_parts(gr)
    with tempfile.TemporaryDirectory() as workdir:
        check = check_q4(gr, args.src, workdir)
        aut = aut_encode(gr, os.path.join(workdir, "pgl-q4.json"))
        small = small_loads(gr, workdir)
    bench = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "rows": rows,
        "q4_parts": parts,
        "check_q4_validate": check,
        "aut_q4_encode": aut,
        "small_file_loads": small,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    for r in rows:
        print(
            f"{r['case']:>16} {r['elements']:>5} elements {r['pairs']:>8} pairs "
            f"checks {r['full_system_checks']} build {r['build_best_s'] * 1e3:.1f} ms "
            f"extension {r['extension_best_s'] * 1e3:.1f} ms "
            f"digest {r['digest_best_s'] * 1e3:.1f} ms (encode {r['encode_best_s'] * 1e3:.1f}, "
            f"hash {r['hash_best_s'] * 1e3:.1f}) verify {r['run_verify_best_s']:.3f} s"
        )
    print(
        f"q=4 constructor {parts['init_canonical_best_s'] * 1e3:.1f} ms canonical, "
        f"{parts['init_shuffled_best_s'] * 1e3:.1f} ms shuffled; truncation "
        f"{parts['truncation_by_mask_best_s'] * 1e3:.2f} ms by mask, "
        f"{parts['truncation_own_pairs_best_s'] * 1e3:.2f} ms from its own pairs"
    )
    print(
        f"check q=4: {check['in_process_best_s']:.3f} s in process, "
        f"{check['fresh_process_best_s']:.3f} s and {check['fresh_process_maxrss_mb']} MB fresh; "
        f"decode {check['decode_best_s']:.3f} s, blocks and pairs by decoder {check['decoders']}"
    )
    fallback = check["fallback"]
    print(
        f"check q=4 written with no indent: {fallback['fresh_process_best_s']:.3f} s and "
        f"{fallback['fresh_process_maxrss_mb']} MB fresh"
    )
    print(f"aut q=4 report: {aut['report_bytes']} bytes encoded in {aut['encode_best_s']:.3f} s")
    for r in small:
        print(f"{r['file']:>18} {r['bytes']:>7} bytes {r['pairs']:>5} pairs "
              f"load {r['load_best_s'] * 1e6:.0f} us")


if __name__ == "__main__":
    main()
