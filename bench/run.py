"""mintime benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload scalar_optimize --seed 1 --seconds 25 --trace 0

Workloads (see bench/workloads.py): ``scalar_optimize``, ``slide_1d`` and
``gradient_2d``. One run repeats passes until ``--seconds`` have elapsed.
A pass sets the workload up afresh (config parse and operator construction,
so lazy per-operator caches are filled inside the timed part as in a CLI
run) and then calls every operation once, in one thread of one process.
Answers are checked outside the timed interval; a raised exception or a
failed check counts as a failed operation and does not stop the run.

Output: one summary line (medians, quartiles and sample counts, failures,
determinism digests, environment), then the result line
``{"correct", "attempted", "failed", "metrics"}``. ``correct`` is false when
a completed operation fails its check or two passes of the run give
different output digests; operations that raise count in ``failed`` only.

With ``--trace 0`` the metrics are wall_ref, cpu_ref, setup_s and
peak_rss_mb. wall_ref and cpu_ref are the pass wall and CPU times divided by
the time of the speed probe's reference chunk sampled during the same pass
(bench/probe.py): raw seconds drift with the load on the shared host, the
ratios much less. The raw wall_s and cpu_s are in the summary line.
setup_s is the import of mintime plus the median of repeated set-ups.
With ``--trace 1`` untraced and traced passes alternate, the metrics are
the per-layer ones of bench/tracing.py (medians over traced passes), and the
spans are written to .bench_out/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("scalar_optimize", "slide_1d", "gradient_2d")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _quartiles(values: list[float], unit: str) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "unit": unit}


# ---------------------------------------------------------------------------
# environment record


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mintime").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it is one."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so")):
        try:
            return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# one pass


def _location(exc: BaseException) -> str:
    tb = traceback.extract_tb(exc.__traceback__)
    return f"{Path(tb[-1].filename).name}:{tb[-1].lineno}" if tb else "?"


def run_pass(workloads, name: str, seed: int, tracer=None, probe=None) -> dict:
    """Set the workload up, then time one call of each operation, either
    traced by ``tracer`` or sampled by the speed ``probe``."""
    if tracer is not None:
        tracer.run += 1
        tracer.install()
    try:
        t0 = time.perf_counter()
        bench_pass = workloads.build(name, seed)
        setup_s = time.perf_counter() - t0
        if tracer is not None:
            for spec in bench_pass.specs:
                tracer.instrument(spec)
        results = []
        with probe or contextlib.nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            for op in bench_pass.ops:
                scope = tracer.span(f"op.{op.name}") if tracer else contextlib.nullcontext()
                try:
                    with scope:
                        results.append((op.call(), None))
                except Exception as exc:  # a failed operation is recorded, not fatal
                    results.append((None, exc))
            wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.restore()
    rec = {"ops": bench_pass.ops, "results": results, "setup_s": setup_s,
           "traced": tracer is not None}
    if probe is None:
        rec.update(wall_s=wall_s, cpu_s=cpu_s)
    else:
        # the probe's samples ran inside the pass: take their time out
        rec.update(wall_s=wall_s - sum(probe.wall), cpu_s=cpu_s - sum(probe.cpu),
                   ref_wall_s=statistics.median(probe.wall),
                   ref_cpu_s=statistics.median(probe.cpu), probes=len(probe.wall))
        rec.update(wall_ref=rec["wall_s"] / rec["ref_wall_s"],
                   cpu_ref=rec["cpu_s"] / rec["ref_cpu_s"])
    return rec


def verify(workloads, record: dict, verdicts: dict) -> dict:
    """Digest and check one pass. A check is a function of the outputs, so a
    verdict is reused for a later pass whose outputs digest the same."""
    digests = [
        {"raised": type(exc).__name__, "message": str(exc)} if exc else op.digest(out)
        for op, (out, exc) in zip(record["ops"], record["results"])
    ]
    digest = workloads.pass_digest(digests)
    failures = []
    for op, (out, exc) in zip(record["ops"], record["results"]):
        if exc is not None:
            failures.append({"op": op.name, "kind": "raised", "type": type(exc).__name__,
                             "message": str(exc), "at": _location(exc)})
            continue
        key = (op.name, digest)
        if key not in verdicts:
            try:
                verdicts[key] = op.check(out)
            except Exception as exc:  # a check that cannot run is a failed check
                verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        if verdicts[key] is not None:
            failures.append({"op": op.name, "kind": "check", "message": verdicts[key]})
    return {"digest": digest, "failures": failures, "attempted": len(record["ops"])}


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:            # before numpy is imported
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "mintime" / "__init__.py").is_file():
        print(f"error: no mintime sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import mintime  # noqa: F401  (numpy, scipy and yaml come with it)
    import_s = time.perf_counter() - t0
    if Path(mintime.__file__).resolve().parent != src / "mintime":
        print(f"error: imported mintime from {mintime.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    import probe

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workloads.build(args.workload, args.seed)
        setups.append(time.perf_counter() - t)

    tracer = tracing.Tracer() if args.trace else None
    speed_probe = probe.SpeedProbe()
    verdicts: dict = {}
    records = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        rec = run_pass(workloads, args.workload, args.seed,
                       tracer=tracer if traced else None, probe=None if traced else speed_probe)
        rec.update(verify(workloads, rec, verdicts))
        del rec["ops"], rec["results"]     # keep no outputs alive across passes
        records.append(rec)
        setups.append(rec["setup_s"])
        if time.perf_counter() >= deadline and (tracer is None or len(records) >= 2):
            break

    untraced = [r for r in records if not r["traced"]]
    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    digests = sorted({r["digest"] for r in records})
    correct = all(f["kind"] != "check" for f in failures) and len(digests) == 1

    walls = [r["wall_s"] for r in untraced]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(records),
        "wall_s": _quartiles(walls, "s"),
        "pass_wall_s": [r["wall_s"] for r in records],
        "cpu_s": _quartiles([r["cpu_s"] for r in untraced], "s"),
        "wall_ref": _quartiles([r["wall_ref"] for r in untraced], "ratio"),
        "cpu_ref": _quartiles([r["cpu_ref"] for r in untraced], "ratio"),
        "probe": {"interval_s": probe.INTERVAL_S, "samples": sum(r["probes"] for r in untraced),
                  "ref_wall_s": _quartiles([r["ref_wall_s"] for r in untraced], "s"),
                  "ref_cpu_s": _quartiles([r["ref_cpu_s"] for r in untraced], "s")},
        "setup_s": {"value": import_s + statistics.median(setups), "unit": "s",
                    "import_s": import_s, "build_s": _quartiles(setups, "s")},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "fail_share": {"value": len(failures) / attempted, "unit": "ratio",
                       "failed": len(failures), "attempted": attempted},
        "failures": _distinct(failures),
        "digests": digests,
        "environment": environment(),
    }
    if tracer is None:
        metrics = {
            "wall_ref": (summary["wall_ref"]["median"], "ratio"),
            "cpu_ref": (summary["cpu_ref"]["median"], "ratio"),
            "setup_s": (summary["setup_s"]["value"], "s"),
            "peak_rss_mb": (summary["peak_rss_mb"]["value"], "MB"),
        }
    else:
        metrics = _layer_metrics(tracing, tracer, records, summary)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _distinct(failures: list[dict]) -> list[dict]:
    """Failures with identical fields folded into one entry with a count."""
    seen: dict = {}
    for f in failures:
        key = json.dumps(f, sort_keys=True)
        seen.setdefault(key, {**f, "count": 0})["count"] += 1
    return list(seen.values())


def _layer_metrics(tracing, tracer, records, summary) -> dict:
    traced_walls = [r["wall_s"] for r in records if r["traced"]]
    per_run = tracer.layer_values()
    metrics = {}
    for name, unit, _, _ in tracing.LAYER_METRICS:
        if name == "trace.wall_s":
            value = statistics.median(traced_walls)
        elif name == "trace.overhead_s":
            value = statistics.median(traced_walls) - summary["wall_s"]["median"]
        else:
            value = statistics.median(vals[name] for vals in per_run.values())
        metrics[name] = (value, unit)
    wall = metrics["trace.wall_s"][0]
    summary["layer_share_of_traced_wall"] = {  # load_config runs in set-up, outside wall
        name: value / wall for name, (value, unit) in metrics.items()
        if unit == "s" and not name.startswith(("trace.", "config."))
    }
    summary["layer_moves"] = {name: moves for name, _, _, moves in tracing.LAYER_METRICS}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{summary['workload']}.json", "w") as fh:
        json.dump({"summary": summary, "span_fields": ["name", "start", "end", "parent", "run"],
                   "spans": tracer.spans, "counts": tracer.counts}, fh)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
