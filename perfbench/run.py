"""Run one geomrep benchmark workload and print its metrics.

Usage, from the root of a source checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload plane-aut --seed 1 --seconds 10 --trace 0

The workload runs as a closed loop in this process: one operation at a time,
passes over the workload's fixed operation list until --seconds have been
measured (at least one whole pass).  Every answer is checked against the
benchmark's own oracle.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics, whose times are divided by the host
speed index of hostspeed.py (the times as measured are printed above it);
with --trace 1 the process runs the same passes untraced and then traced, and
reports the per-layer metrics.
Detailed results, and the spans of a traced run, go to .perfbench_out/.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# set-up repetitions at least; setup_s is the median import time plus the
# median input generation time
SETUP_REPS = 3
# fresh-interpreter imports per set-up: one import varies by up to 40 % within
# a run, far more than one input generation
IMPORTS_PER_SETUP = 3
# the import of a fresh interpreter, timed inside it
IMPORT_PROBE = "import time; t = time.perf_counter(); import geomrep.cli; print(time.perf_counter() - t)"


class OpTimeout(BaseException):
    """Raised by the per-operation timer; not an Exception, so no handler in geomrep catches it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def fresh_import_s(src: str) -> float:
    """Seconds a new interpreter takes to import geomrep.cli from src."""
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
    )
    return float(probe.stdout)


def run_op(op, bound_s: float, call) -> dict:
    """Time one operation under the bound and check its answer."""
    record = {"name": op.name}
    try:
        signal.setitimer(signal.ITIMER_REAL, bound_s)
        try:
            started = time.perf_counter()
            value = call(op.run)
            record["seconds"] = time.perf_counter() - started
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        record.update(seconds=bound_s, status="timeout", detail=f"over the {bound_s:g} s bound")
        return record
    except Exception as exc:  # a failed operation, not a failed benchmark
        record.update(seconds=time.perf_counter() - started, status="error", detail=repr(exc))
        return record
    try:
        why = op.check(value)
    except Exception as exc:
        why = f"check raised {exc!r}"
    record.update(status="ok" if why is None else "wrong", detail=why)
    return record


def set_up(workload, ctx, src: str) -> tuple[list, list[float], float]:
    """One set-up: (operations, fresh-interpreter import seconds, input generation seconds)."""
    # the objects of earlier set-ups and passes stay out of the collector's way
    gc.collect()
    gc.freeze()
    fresh_s = [fresh_import_s(src) for _ in range(IMPORTS_PER_SETUP)]
    started = time.perf_counter()
    ops = workload.prepare(ctx)
    return ops, fresh_s, time.perf_counter() - started


def run_passes(ops, bound_s: float, seconds: float, caches, call, after_pass=None, sampled=False):
    """Whole passes over ops until seconds have been measured.

    Returns (pass walls, records, speed index of each pass if sampled).
    """
    walls: list[float] = []
    records: list[dict] = []
    speeds: list[float] = []
    while not walls or sum(walls) < seconds:
        if walls and after_pass is not None:
            after_pass()
        # each pass starts from empty library memo caches, as one CLI process would,
        # and with the benchmark's own objects out of the collector's way
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        gc.freeze()
        with hostspeed.Sampler() if sampled else contextlib.nullcontext() as sampler:
            started = time.perf_counter()
            for op_id, op in enumerate(ops):
                records.append(run_op(op, bound_s, lambda fn, op_id=op_id: call(op_id, fn)))
            walls.append(time.perf_counter() - started)
        if sampled:
            speeds.append(hostspeed.index(sampler.samples))
    return walls, records, speeds


def library_caches() -> list:
    """Memo caches of the loaded geomrep modules (collected before tracing wraps them)."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "geomrep" or name.startswith("geomrep."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, time) of the highest percentile with at least ten samples beyond it."""
    n = len(times)
    for p in TAIL_PERCENTILES:
        index = math.ceil(p / 100 * n) - 1
        if n - 1 - index >= 10:
            return p, times[index]
    return None


def end_to_end(setup: list[tuple[list[float], float]], walls: list[float], speeds: list[float],
               records: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics and the report lines for those not in the JSON result.

    setup holds (import seconds, input generation seconds) of each set-up, and
    speeds the speed index of each pass.  A set-up is too short to sample; the
    host's phases last minutes, so the run's median index stands for it.
    """
    done = sorted(r["seconds"] for r in records if r["status"] == "ok")
    if not done:
        raise RuntimeError("no operation completed")
    failed = sum(r["status"] != "ok" for r in records)
    fresh = [f for imports, _ in setup for f in imports]
    setup_raw_s = statistics.median(fresh) + statistics.median(p for _, p in setup)
    speed = statistics.median(speeds)
    metrics = {
        "setup_s": (setup_raw_s / speed, "s"),
        "wall_s": (statistics.median(w / v for w, v in zip(walls, speeds)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = [
        f"setup_raw_s    {setup_raw_s:.6f} s  (as measured)",
        f"wall_raw_s     {statistics.median(walls):.6f} s  (as measured)",
        f"speed_index    {speed:.4f}  (host loop time over nominal; setup_s and wall_s are divided by it)",
        f"op_p50_s       {statistics.median(done):.6f} s  (of {len(done)} completed operations)"]
    found = tail(done)
    if found is None:
        extra.append(f"op_tail_s      omitted: {len(done)} completed operations are too few")
    else:
        extra.append(f"op_tail_s      {found[1]:.6f} s  (p{found[0]:g} of {len(done)} completed operations)")
    extra.append(f"failed_ratio   {failed / len(records):.6f}  ({failed} failed of {len(records)} attempted)")
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "geomrep", "__init__.py")):
        print("error: no geomrep sources in ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        importlib.import_module("geomrep.cli")
        import_s = time.perf_counter() - _STARTED
        ctx = workloads.Context(
            seed=args.seed,
            workdir=os.path.abspath(workdir),
            cache=os.path.abspath(os.path.join(OUT_DIR, "cache")),
            src=src,
        )
        # This process imports once; fresh interpreters give the repetitions.  The
        # host's speed drifts over seconds, so the set-ups after the first are
        # spread between the timed passes, and each starts from empty memo caches.
        ops, *first = set_up(workload, ctx, src)
        setup = [tuple(first)]
        caches = library_caches()

        def again() -> None:
            for cache in caches:
                cache.cache_clear()
            setup.append(tuple(set_up(workload, ctx, src)[1:]))

        # Operations of one kind that ran in one stretch would all read that
        # stretch's speed; a fixed shuffle spreads every kind over the whole pass.
        random.Random(0).shuffle(ops)
        walls, records, speeds = run_passes(
            ops, workload.bound_s, args.seconds, caches, lambda op_id, fn: fn(), again, sampled=True
        )
        while len(setup) < SETUP_REPS:
            again()
        metrics, lines = end_to_end(setup, walls, speeds, records)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            traced_walls, traced_records, _ = run_passes(
                ops, workload.bound_s, args.seconds, caches, tracer.operation
            )
            records += traced_records
            layer = tracer.summary(
                len(traced_walls), statistics.median(traced_walls), statistics.median(walls)
            )
            units = tracing.metric_units()
            spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
            tracer.dump(spans_path, layer)
            metrics = {name: (layer[name], units[name]) for name in units}
            lines = [f"spans and per-layer metrics: {spans_path}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in records if r["status"] != "ok"]
    wrong = any(r["status"] == "wrong" for r in records)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "bound_s": workload.bound_s,
        "ops_per_pass": len(ops),
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_speed_index": speeds,
        "setup": {
            "import_s": import_s,
            "fields": ["fresh_import_s", "prepare_s"],
            "samples": setup,
        },
        "metrics": reported,
        "failures": failures,
        "operations": records,
    }
    result_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(
        f"{args.workload}: seed {args.seed}, {len(walls)} pass(es) of {len(ops)} operations, "
        f"bound {workload.bound_s:g} s per operation; details in {result_path}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:.6f} {unit}" if isinstance(value, float) else f"{name:<14} {value} {unit}")
    for line in lines:
        print(line)
    for r in failures:
        print(f"failed: {r['name']}: {r['status']}: {r['detail']}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(records),
                "failed": len(failures),
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
