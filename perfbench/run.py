"""Pipeline benchmark: times ``ontozsl.run_pipeline`` from outside the program.

Run from the repository root::

    python3 perfbench/run.py --workload el-taxonomy --seed 0 --seconds 40 --trace 0

The inputs are generated from ``--seed`` before any timing.  A fresh worker
interpreter (``worker.py``) then runs whole pipelines back to back, one at a
time, for ``--seconds`` and checks every run's outputs.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of the traced runs.
The lines before it list every metric with its unit, the run counts and the
machine.  Working files, including the traced spans, go to ``.perfbench/``
under the repository root.  See ``perfbench/README.md`` for the workloads and
for which metric each layer should move.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
# metric names, units and order come from BENCHMARK.json
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_REPEATS = 7
# a tail percentile needs at least this many runs beyond it
TAIL_BEYOND = 10


def blas_info() -> tuple[str, int | None]:
    """Name and version of numpy's BLAS, and the thread count it runs with."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def setup_seconds(env: dict[str, str], root: Path) -> list[float]:
    """Wall time of fresh interpreters that only ``import ontozsl``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ontozsl"], env=env, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return times


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ``TAIL_BEYOND`` runs beyond it, and its value."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def median_layers(layers: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(run[key] for run in layers) for key in layers[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ontozsl" / "__init__.py").is_file():
        print(f"error: no ontozsl sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import ontozsl

    if Path(ontozsl.__file__).resolve().parent != (src / "ontozsl").resolve():
        print(f"error: imported ontozsl from {ontozsl.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    write_inputs(workload, args.seed, work / "inputs")
    write_inputs(workload, args.seed, work / "warmup", tiny=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    setup = setup_seconds(env, root)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work), str(args.seconds), str(args.trace)],
            env=env, cwd=root, check=True, timeout=args.seconds + 120,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    runs = result["runs"]
    failed = sum(not r["ok"] for r in runs)
    untraced = [r["seconds"] for r in runs if not r["traced"]]
    traced = [r["seconds"] for r in runs if r["traced"]]
    quality = result.get("quality", {})
    blas, threads = blas_info()
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    print(f"workload {workload.name}: {why[workload.name]}")
    print(f"seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"runs {len(runs)} ({len(traced)} traced)  failed {failed}")
    print(f"machine nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"numpy {np.__version__}  blas {blas}  blas_threads {threads}  "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")

    nan = math.nan
    values = {
        "pipeline_s": statistics.median(untraced) if untraced else nan,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "el_total_loss": quality.get("el_total_loss", nan),
    }
    section = "end_to_end"
    print("end-to-end:")
    for m in SPEC["end_to_end"]:
        print(f"  {m['name']:<24} {values[m['name']]:.6g} {m['unit']}")
    # End-to-end metrics left out of the JSON line: each is 0 on some workload
    # or spreads across seeds beyond any bound, or needs more runs than fit.
    print(f"  {'macro_unseen_accuracy':<24} {quality.get('macro_unseen_accuracy', nan):.6g} ratio")
    print(f"  {'el_nest_fraction':<24} {quality.get('el_nest_fraction', nan):.6g} ratio "
          f"of {quality.get('nest_pairs', 0)} entailed pairs")
    print(f"  {'failure_rate':<24} {failed / len(runs):.6g} ratio of {len(runs)} runs")
    tail_value = tail(untraced)
    if tail_value is None:
        print(f"  {'pipeline_s_tail':<24} n/a: {len(untraced)} untraced runs, "
              f"a tail needs more than {TAIL_BEYOND}")
    else:
        print(f"  {'pipeline_s_tail':<24} {tail_value[1]:.6g} s "
              f"(p{tail_value[0]:.1f} of {len(untraced)} runs)")

    if args.trace:
        section = "per_layer"
        values = median_layers(result["layers"]) if result["layers"] else {}
        values["elembed.disjoint_fraction"] = quality.get("disjoint_fraction", nan)
        values["elembed.nest_fraction"] = quality.get("el_nest_fraction", nan)
        values["eval.macro_unseen_accuracy"] = quality.get("macro_unseen_accuracy", nan)
        if traced and untraced:
            values["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        print(f"per-layer, median of {len(result['layers'])} traced runs:")
        for m in SPEC["per_layer"]:
            print(f"  {m['name']:<32} {values.get(m['name'], nan):.6g} {m['unit']}")
    print(f"spans and results in {work.relative_to(root)}")

    def number(value: float) -> float | None:
        return value if math.isfinite(value) else None

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": number(values.get(m["name"], nan)), "unit": m["unit"]}
            for m in SPEC[section]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
