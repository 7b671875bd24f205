"""Command-line front end: build, check, and verify incidence systems reproducibly."""

from __future__ import annotations

import argparse
import errno
import hashlib
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, Iterable, Iterator

from . import __version__, incidence
from .autsearch import correlation_group, verify_representation
from .constructions import (
    CosetGeometrySpec,
    complete_graph_geometry,
    coset_geometry,
    cube_geometry,
    dihedral_geometry,
    gq22,
    hemidodecahedron_petrie,
    pgl_aut_via_extension,
    pgl_cross_ratio_geometry,
    tetrahedron_spec,
)
from .freegroup import (
    bounded_ft_check,
    intersection,
    k_group,
    rc_check_exact,
    rose_cover_generators,
    stallings_graph,
    subgroup_action,
)
from .galois import make_field
from .incidence import PREDICATES, IncidenceSystem, _json_object
from .perms import PermGroup, Permutation

_EXIT_OK, _EXIT_MISMATCH, _EXIT_USAGE = 0, 1, 2


def _digest(blocks: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block)
    return "sha256:" + digest.hexdigest()


def _emit(pieces: Iterable[str], out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# the text json.dumps gives a value that is neither a list nor a dict
_JSON_SCALAR = json.JSONEncoder().encode


def _json_pieces(obj: object, indent: str = "") -> Iterator[str]:
    """The text of ``json.JSONEncoder(indent=2).iterencode(obj)`` in pieces.

    A list of plain ints (``type(x) is int``) is one piece, one join of its
    ids; containers are walked here, every other value is encoded by json.
    """
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
        elif all(type(x) is int for x in obj):
            yield "[\n" + inner + (",\n" + inner).join(map(str, obj)) + "\n" + indent + "]"
        else:
            for i, value in enumerate(obj):
                yield ",\n" + inner if i else "[\n" + inner
                yield from _json_pieces(value, inner)
            yield "\n" + indent + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, (str, int, float)) and key is not None:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                )
            # a key that is not a str is written as the JSON text of its value
            key = _JSON_SCALAR(key if isinstance(key, str) else _JSON_SCALAR(key))
            yield (",\n" if i else "{\n") + inner + key + ": "
            yield from _json_pieces(value, inner)
        yield "\n" + indent + "}"
    else:
        yield _JSON_SCALAR(obj)


def _emit_json(obj: dict, out: str | None) -> None:
    # the text of json.dumps(obj, indent=2), never built whole
    _emit(itertools.chain(_json_pieces(obj), "\n"), out)


def _report(
    args: argparse.Namespace,
    command: str,
    input_digest: str,
    checks: list[dict],
    elapsed: float,
) -> dict:
    return {
        "tool": "geomrep",
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "input_digest": input_digest,
        "checks": checks,
        "timings": {"total_s": round(elapsed, 3)} if args.timings else None,
    }


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError("q must be >= 2")
    for p in range(2, q + 1):
        if q % p == 0:
            m, k = q, 0
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, k
    raise ValueError(f"q = {q} is not a prime power")


def _pgl_geometry(args: argparse.Namespace):
    p, k = _prime_power(args.q)
    field = make_field(p, k)
    return pgl_cross_ratio_geometry(
        args.dimension, field, base_degree=args.base_degree,
        truncate_to_min_poly=args.truncate,
    )


def _coset_spec(args: argparse.Namespace) -> CosetGeometrySpec:
    if args.group_file is None:
        return tetrahedron_spec()
    with open(args.group_file, "r", encoding="utf-8") as fh:
        data = json.load(fh)

    def field(obj: object, name: str, kind: type, where: str = "group file"):
        if not isinstance(obj, dict):
            raise ValueError(f"{where} must be a JSON object")
        # type, not isinstance: true is not a degree
        if type(obj.get(name)) is not kind:
            raise ValueError(f"{where}: {name} must be a JSON {kind.__name__}")
        return obj[name]

    def group(obj: object, where: str = "group file") -> PermGroup:
        gens = field(obj, "generators", list, where)
        return PermGroup(degree, [Permutation(images) for images in gens])

    degree = field(data, "degree", int)
    subs = field(data, "subgroups", list)
    return CosetGeometrySpec(
        group=group(data),
        subgroups=tuple(group(sub, f"subgroup {i}") for i, sub in enumerate(subs)),
        labels=tuple(field(sub, "label", str, f"subgroup {i}") for i, sub in enumerate(subs)),
    )


# each construction's builder and its description in reports, both of the
# parsed arguments
_CONSTRUCTIONS: dict[str, tuple[Callable[..., IncidenceSystem], Callable[..., str]]] = {
    "dihedral": (lambda a: dihedral_geometry(a.n), lambda a: f"dihedral n={a.n}"),
    "complete": (lambda a: complete_graph_geometry(a.n), lambda a: f"complete n={a.n}"),
    "gq22": (lambda a: gq22(), lambda a: "gq22"),
    "cube": (
        lambda a: cube_geometry(vertex_adjacency=not a.no_vertex_adjacency),
        lambda a: f"cube vertex_adjacency={not a.no_vertex_adjacency}",
    ),
    "hemidodeca": (
        lambda a: hemidodecahedron_petrie(a.rule), lambda a: f"hemidodeca rule={a.rule}"
    ),
    "pgl": (
        lambda a: _pgl_geometry(a).system,
        lambda a: f"pgl n={a.dimension} q={a.q} base_degree={a.base_degree}"
        f" truncated={a.truncate}",
    ),
    "coset": (
        lambda a: coset_geometry(_coset_spec(a)).system,
        lambda a: "coset " + (a.group_file or "tetrahedron"),
    ),
}


def _load_system(path: str) -> tuple[IncidenceSystem, str]:
    """The system of an interchange file and the digest of the file's bytes.

    The file is hashed and read as bytes, ``incidence._READ_CHUNK`` bytes at a
    time, by the byte reader of ``IncidenceSystem.from_json``, which reads a
    file over 8 KiB in the layout that `build` writes without building its
    text.  Any other file is decoded whole and parsed by one ``json.loads``,
    which decides every error; a file that is not UTF-8 fails with the
    position that one decode of the whole file reports.
    """
    digest = hashlib.sha256()

    def hashed(fh):
        for chunk in iter(lambda: fh.read(incidence._READ_CHUNK), b""):
            digest.update(chunk)
            yield chunk

    with open(path, "rb") as fh:
        data = _json_object(hashed(fh))
        if data is None:
            fh.seek(0)
            raw = fh.read()
            digest = hashlib.sha256(raw)
            text = raw.decode("utf-8")
            del raw
            data = json.loads(text)
            del text
    return IncidenceSystem.from_json_dict(data), "sha256:" + digest.hexdigest()


def run_build(args: argparse.Namespace) -> int:
    system = _CONSTRUCTIONS[args.construction][0](args)
    # block by block, so the whole text is never built
    _emit((block.decode("ascii") for block in system.json_blocks()), args.out)
    return _EXIT_OK


def run_check(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    names = [p.strip() for p in args.properties.split(",") if p.strip()]
    for name in names:
        if name != "validate" and name not in PREDICATES:
            raise ValueError(f"unknown property: {name}")
    system, digest = _load_system(args.file)
    validation = system.validate()
    if not validation.ok:
        for name, where in validation.violations:
            print(f"error: validation: {name} at {where}", file=sys.stderr)
        return _EXIT_USAGE
    # validate holds once the system passes the validation above
    values = system._predicates(name for name in names if name != "validate")
    checks = [{"property": name, "value": values.get(name, True)} for name in names]
    report = _report(
        args, "check", digest, checks, time.perf_counter() - started
    )
    _emit_json(report, args.out)
    return _EXIT_OK if all(c["value"] for c in checks) else _EXIT_MISMATCH


def run_aut(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    system, digest = _load_system(args.file)
    result = correlation_group(system)
    report = _report(
        args,
        "aut",
        digest,
        [result.to_json_dict()],
        time.perf_counter() - started,
    )
    _emit_json(report, args.out)
    return _EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    extra_checks: list[dict] = []
    result = None
    build, describe = _CONSTRUCTIONS[args.construction]
    if args.construction == "pgl":
        geom = _pgl_geometry(args)
        pipeline = pgl_aut_via_extension(geom)
        system, result = geom.system, pipeline.result
        extra_checks.append(pipeline.to_json_dict())
    else:
        system = build(args)
    report = verify_representation(
        system, args.inn, args.aut, description=describe(args), result=result
    )
    payload = _report(
        args,
        "verify",
        _digest(system.json_blocks()),
        [report.to_json_dict()] + extra_checks,
        time.perf_counter() - started,
    )
    _emit_json(payload, args.out)
    return _EXIT_OK if report.verdict == "representation" else _EXIT_MISMATCH


def _free_checks(args: argparse.Namespace) -> list[dict]:
    n = args.n
    gens, parabolics = rose_cover_generators(n)
    graphs = [stallings_graph(p, n) for p in parabolics]
    expected_rank = 2 * n * (n - 1)
    selected = [c.strip() for c in args.check.split(",") if c.strip()]
    if "all" in selected:
        selected = ["rank", "intersections", "action", "ft", "rc"]
    checks: list[dict] = []
    for name in selected:
        if name == "rank":
            rank = stallings_graph(gens, n).rank()
            checks.append(
                {
                    "name": "rank",
                    "ok": rank == expected_rank,
                    "rank": rank,
                    "expected": expected_rank,
                }
            )
        elif name == "intersections":
            ok = True
            done = 0
            for size in (2, 3) + ((len(gens),) if n == 2 else ()):
                for combo in itertools.combinations(range(len(gens)), size):
                    meet = graphs[combo[0]]
                    for j in combo[1:]:
                        meet = intersection(meet, graphs[j])
                    common = [
                        w for idx, w in enumerate(gens) if idx not in combo
                    ]
                    ok = ok and meet == stallings_graph(common, n)
                    done += 1
            checks.append({"name": "intersections", "ok": ok, "checked": done})
        elif name == "action":
            group = subgroup_action(k_group(n), parabolics)
            expected = (2**n) * math.factorial(n)
            checks.append(
                {
                    "name": "action",
                    "ok": group.order() == expected,
                    "order": str(group.order()),
                    "expected": str(expected),
                }
            )
        elif name == "ft":
            ok = True
            done = 0
            counterexamples: list[str] = []
            r = len(gens)
            if n == 2:
                j_sets = [
                    j
                    for size in range(r)
                    for j in itertools.combinations(range(r), size)
                ]
            else:
                j_sets = [()] + [(j,) for j in range(r)]
            for j_set in j_sets:
                for i in range(r):
                    if i in j_set:
                        continue
                    rep = bounded_ft_check(parabolics, j_set, i, args.length_bound)
                    ok = ok and rep.ok
                    done += 1
                    counterexamples.extend(rep.counterexamples[:3])
            checks.append(
                {
                    "name": "ft",
                    "ok": ok,
                    "pairs_checked": done,
                    "length_bound": args.length_bound,
                    "counterexamples": counterexamples[:10],
                }
            )
        elif name == "rc":
            rep = rc_check_exact(parabolics)
            checks.append(
                {
                    "name": "rc",
                    "ok": rep.ok,
                    "checked": rep.checked,
                    "failures": [list(f) for f in rep.failures],
                }
            )
        else:
            raise ValueError(f"unknown free-group check: {name}")
    return checks


def run_free(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    checks = _free_checks(args)
    digest = _digest([f"rose n={args.n}".encode("utf-8")])
    report = _report(args, "free", digest, checks, time.perf_counter() - started)
    _emit_json(report, args.out)
    return _EXIT_OK if all(c["ok"] for c in checks) else _EXIT_MISMATCH


def run_export(args: argparse.Namespace) -> int:
    system, _ = _load_system(args.file)
    _emit([system.to_dot()], args.out)
    return _EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="seed echoed into reports")
    sub.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in reports"
    )
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_build_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=5, help="size parameter")
    sub.add_argument(
        "--rule",
        default="shared-edge",
        choices=("shared-edge", "shared-vertex", "always"),
        help="face-Petrie incidence rule",
    )
    sub.add_argument(
        "--no-vertex-adjacency",
        action="store_true",
        help="drop the vertex-vertex adjacency condition on the cube",
    )
    sub.add_argument("--q", type=int, default=4, help="field size (prime power)")
    sub.add_argument("--dimension", type=int, default=3, help="projective dimension + 1")
    sub.add_argument("--base-degree", type=int, default=1, help="base subfield degree")
    sub.add_argument(
        "--truncate",
        action="store_true",
        help="restrict quadruple types to one Galois orbit",
    )
    sub.add_argument("--group-file", default=None, help="coset spec JSON file")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomrep",
        description="Build, analyze, and verify incidence-geometric representations.",
    )
    parser.add_argument("--version", action="version", version=f"geomrep {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    build = subs.add_parser("build", help="emit a construction as interchange JSON")
    build.add_argument("construction", choices=_CONSTRUCTIONS)
    _add_build_params(build)
    _add_common(build)
    build.set_defaults(func=run_build)

    check = subs.add_parser("check", help="evaluate predicates on a geometry file")
    check.add_argument("file")
    check.add_argument(
        "--properties",
        default="geometry,firm,rc",
        help="comma list from validate,geometry,firm,rc",
    )
    _add_common(check)
    check.set_defaults(func=run_check)

    aut = subs.add_parser("aut", help="correlation group of a geometry file")
    aut.add_argument("file")
    _add_common(aut)
    aut.set_defaults(func=run_aut)

    verify = subs.add_parser("verify", help="compare computed orders with expected")
    verify.add_argument("construction", choices=_CONSTRUCTIONS)
    verify.add_argument("--inn", type=int, required=True, help="expected Aut_I order")
    verify.add_argument("--aut", type=int, required=True, help="expected Aut order")
    _add_build_params(verify)
    _add_common(verify)
    verify.set_defaults(func=run_verify)

    free = subs.add_parser("free", help="free-group subgroup family checks")
    free.add_argument("family", choices=("rose",))
    free.add_argument("--n", type=int, default=2, help="free-group rank")
    free.add_argument(
        "--check", default="all", help="comma list from rank,intersections,action,ft,rc"
    )
    free.add_argument(
        "--length-bound", type=int, default=6, help="word length bound for ft checks"
    )
    _add_common(free)
    free.set_defaults(func=run_free)

    export = subs.add_parser("export", help="export a geometry file to DOT")
    export.add_argument("file")
    _add_common(export)
    export.set_defaults(func=run_export)
    return parser


# built by the first main call; parse_args leaves a parser as it was, so one
# parser serves every later call in the process
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _make_parser()
    args = _parser.parse_args(argv)
    try:
        # the error open() would raise at the end, before any work
        if args.out and os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
