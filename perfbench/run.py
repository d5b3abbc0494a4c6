"""scalegmn benchmark: one command, three workloads, an optional traced run.

    python3 perfbench/run.py --workload {train,certify,zoo} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from the ``src/`` directory next
to this one. ``--trace 0`` runs the named workload untraced for about S
seconds and prints its end-to-end metrics. ``--trace 1`` runs the traced
layer probe (see ``probe.py``) with the named workload's sections at full
probe size and prints every per-layer metric. Every run prints
``name value unit`` lines, an environment stamp, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Result and
trace files go to ``.perfbench/`` at the repository root. ``--smoke`` shrinks
every size for the self-test.

BLAS is pinned to one thread (``OPENBLAS_NUM_THREADS`` = ``OMP_NUM_THREADS``
= 1, whatever the caller set); zoo synthesis uses ``SCALEGMN_THREADS`` =
nproc, capped at 2, so no workload runs more threads than the 2-core
reference machine has.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MAX_THREADS = 2

# The gated end-to-end metrics; every workload reports all of them. The
# timings are fast-side quartiles: on a shared host, contention only ever
# slows a call, and a slow phase covering half a run moves the median but
# not the quartile of the fastest calls.
END_TO_END = (
    ("setup_s", "s"),
    ("call_ms_p25", "ms"),
    ("items_per_s_p75", "1/s"),
)


def _set_thread_env() -> None:
    """Must run before numpy is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["SCALEGMN_THREADS"] = str(min(os.cpu_count() or 1, MAX_THREADS))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    from scalegmn import tensor

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SCALEGMN_THREADS": os.environ.get("SCALEGMN_THREADS"),
        "CHECK_FINITE": tensor.CHECK_FINITE,
        "seed": seed,
        "commit": _git_commit(),
    }


def _print_metric(name, value, unit) -> None:
    text = str(value) if isinstance(value, int) else f"{value:.6g}"
    print(f"metric {name} {text} {unit}")


def end_to_end(res) -> dict:
    from workloads import percentile

    values = {
        "setup_s": statistics.median(res.setup_s),
        "call_ms_p25": percentile(res.call_ms, 25),
        "items_per_s_p75": percentile(res.rates, 75),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run(args) -> dict:
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.Sizes()
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    trace = None
    try:
        if args.trace:
            from probe import PER_LAYER, run_probe

            layer, res, tracer = run_probe(tmp, args.seed, sizes, args.workload)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit, _ in PER_LAYER}
            trace = tracer.dump()
        else:
            res = workloads.WORKLOADS[args.workload](tmp, args.seed, args.seconds, sizes)
            metrics = end_to_end(res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"res": res, "metrics": metrics, "trace": trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "certify", "zoo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "scalegmn" / "__init__.py").is_file():
        print(f"perfbench: no scalegmn package under {SRC}", file=sys.stderr)
        return 2
    _set_thread_env()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    out = run(args)
    wall = time.perf_counter() - t0
    res, metrics = out["res"], out["metrics"]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in res.notes.items():
        _print_metric(name, value, unit)
    _print_metric("fail_ratio", res.failed / res.attempted, "ratio")
    for name, m in metrics.items():
        _print_metric(name, m["value"], m["unit"])

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "wall_s": wall, "env": env,
              "metrics": metrics, "notes": res.notes, "extra": res.extra,
              "setup_s": res.setup_s, "call_ms": res.call_ms, "rates": res.rates,
              "attempted": res.attempted, "failed": res.failed}
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if out["trace"] is not None:
        with gzip.open(WORK / f"{stem}.spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(out["trace"], fh)
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
