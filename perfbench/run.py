"""rantwin benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload loop-50x3-faults --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See perfbench/README.md.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Import rantwin from this checkout's src/, single-threaded."""
    src = ROOT / "src"
    if not (src / "rantwin" / "__init__.py").is_file():
        sys.exit(f"error: {src}/rantwin not found; run from a rantwin source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import rantwin

    if Path(rantwin.__file__).resolve().parent != (src / "rantwin").resolve():
        sys.exit(f"error: imported rantwin from {rantwin.__file__}, not from {src}")


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        out_root: Path = OUT_DIR) -> dict:
    """Run one workload in this process and return the result object."""
    import workloads

    w = workloads.WORKLOADS[workload]
    if smoke:
        w = workloads.smoke_variant(w)
    mode = f"{'smoke' if smoke else 'full'}-{'traced' if trace else 'untraced'}"
    out_dir = out_root / workload / f"seed{seed}-{mode}"
    out_dir.mkdir(parents=True, exist_ok=True)
    import_s = time.perf_counter() - T_PROCESS
    runner = workloads.run_loop if isinstance(w, workloads.Loop) else workloads.run_pipeline
    metrics, outcome, lines = runner(w, seed, seconds, trace, out_dir, import_s)
    store = workloads.FingerprintStore(
        out_root / "fingerprints.json", f"{workload}:{seed}:{'smoke' if smoke else 'full'}"
    )
    store.check_and_save(outcome)

    spec = load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"workload {workload} produced no value for {missing}")
    for line in lines:
        print(line)
    # Figures of the other list that this run also measured, such as the
    # per-layer tick p50 of an untraced run, come first and are marked.
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in metrics and m not in wanted:
            print(f"({m['name']} = {metrics[m['name']]:.6g} {m['unit']})")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    print(f"operations: {outcome.failed} failed of {outcome.attempted} attempted")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ticks and a short t-SNE, for the benchmark's own tests")
    parser.add_argument("--out-dir", type=Path, default=OUT_DIR,
                        help="where episodes, pipeline outputs, spans and fingerprints go")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    result = run(args.workload, args.seed, seconds, bool(args.trace), args.smoke, args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
