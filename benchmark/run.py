"""asymkit benchmark: one closed-loop workload per run, checked and optionally traced.

Usage, from the repository root:

    python3 benchmark/run.py --workload state-queries --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --self-check

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is a report with the environment, the input descriptors and per-kind
latencies.  Both, and with ``--trace 1`` the spans, are also written under
``.bench_out/``.  Timings are scaled to a reference speed measured between
ops (reference.py); the report keeps the wall-clock values too.  See
NOTES.md for the workloads, metrics and seeds.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, pinned before numpy is first imported: with two threads
# the mixed loads were slower and less steady on a two-core machine.
BLAS_THREADS = "1"
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import REFERENCE_MS, Reference  # noqa: E402  (imports numpy)
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
MIN_OPS = 100
MAX_REPORTED_FAILURES = 5


def _import_asymkit():
    """Import asymkit from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "asymkit" / "__init__.py").is_file():
        print(f"benchmark: no asymkit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import asymkit
    import asymkit.cli  # noqa: F401  (also imports asymkit.jsonio)

    if Path(asymkit.__file__).resolve().parent != (src / "asymkit").resolve():
        print(f"benchmark: imported asymkit from {asymkit.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return asymkit


def _import_time() -> float:
    """Time ``import asymkit`` (numpy with it) in a fresh interpreter.

    One import per process is all a process can time, and a single import
    varies a lot from run to run, so set-up counts the median of several.
    """
    probe = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {str(ROOT / 'src')!r}); import asymkit, asymkit.cli; "
        "print(time.perf_counter() - t0)"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    )
    return float(child.stdout)


def _environment(nproc: int, pinned_cpu: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models)
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu": cpu,
    }


class Phase:
    """Timed results of one measured stretch of the closed loop."""

    def __init__(self):
        self.latencies: list[float] = []  # wall seconds, one per attempted op
        self.scales: list[float] = []  # the reference's scale at each op, if timed with one
        self.kinds: list[str] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def scaled(self) -> list[float]:
        """Latencies at the reference speed (see reference.py)."""
        return [lat * s for lat, s in zip(self.latencies, self.scales)]

    @property
    def scaled_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.scaled)


def run_ops(
    workload,
    start: int,
    periods: int = 0,
    seconds: float = 0.0,
    min_ops: int = 0,
    tracer=None,
    reference=None,
) -> tuple[Phase, int]:
    """Run whole periods of the mix from op ``start``; return the phase and the next op.

    With ``periods`` the phase runs exactly that many periods, so its ops
    depend only on the seed and ``start``.  Otherwise it runs until
    ``seconds`` have passed and ``min_ops`` ops ran.  Only the call is timed:
    input generation and the check happen outside the timed interval.  A
    raised exception or a failed check counts the op as failed and the loop
    goes on.  With a ``reference``, the machine's speed is measured before
    each op, also outside the timed interval.
    """
    phase = Phase()
    clock = time.perf_counter
    stop = start + periods * workload.period if periods else None
    i = start
    began = clock()
    while True:
        kind, call, check = workload.op(i)
        if tracer is not None:
            tracer.op = i
        if reference is not None:
            phase.scales.append(reference.scale())
        t0 = clock()
        try:
            answer = call()
        except Exception:
            phase.latencies.append(clock() - t0)
            phase.failures.append(f"op {i} ({kind}) raised: {traceback.format_exc(limit=3)}")
        else:
            phase.latencies.append(clock() - t0)
            try:
                check(answer)
            except Exception as exc:  # a CheckError, or a check tripping on a malformed answer
                phase.failures.append(f"op {i} ({kind}) failed its check: {exc!r}")
        phase.kinds.append(kind)
        i += 1
        if (i - start) % workload.period:
            continue
        if i == stop or (
            stop is None and clock() - began >= seconds and phase.attempted >= min_ops
        ):
            return phase, i


def _quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(latencies, n=10)
    return q[4] * 1e3, q[8] * 1e3


def _per_kind(phase: Phase) -> dict:
    """Median latency of each op kind, at the reference speed."""
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(phase.kinds, phase.scaled):
        by_kind.setdefault(kind, []).append(lat)
    return {
        k: {"n": len(v), "median_ms": round(statistics.median(v) * 1e3, 4)}
        for k, v in sorted(by_kind.items())
    }


def run_workload(args) -> int:
    asymkit = _import_asymkit()
    import_s = time.perf_counter() - PROCESS_START
    # Run on one CPU, and so do the interpreters started for set-up: the two
    # CPUs of a shared host can run at different speeds, and the reference
    # must measure the CPU the work runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    from tracing import Tracer, metric_specs

    OUT_DIR.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    reference = Reference()
    workload = None

    def prepare():
        nonlocal workload
        workload = cls(asymkit, args.seed, OUT_DIR)
        workload.prepare()

    # Each set-up repetition is scaled by the machine's speed around it.
    preps = [reference.around(prepare) for _ in range(SETUP_REPEATS)]
    imports = [reference.around(_import_time) for _ in range(SETUP_REPEATS)]
    setup_wall_s = statistics.median(t for t, _ in imports) + statistics.median(
        t for t, _ in preps
    )
    setup_s = statistics.median(t * s for t, s in imports) + statistics.median(
        t * s for t, s in preps
    )

    t0 = time.perf_counter()
    warm, timed_start = run_ops(
        workload, 0, periods=workload.warmup_periods, reference=reference
    )
    warmup_s = time.perf_counter() - t0
    timed, _ = run_ops(
        workload, timed_start, seconds=args.seconds, min_ops=MIN_OPS, reference=reference
    )
    phases = [warm, timed]
    wall_p50, wall_p90 = _quantiles_ms(timed.latencies)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(len(cpus), min(cpus)),
        "inputs": list(workload.descriptors.values()),
        "setup": {
            "import_s": import_s,
            "child_import_s": [t for t, _ in imports],
            "child_import_scales": [s for _, s in imports],
            "prepare_s": [t for t, _ in preps],
            "prepare_scales": [s for _, s in preps],
            "warmup_s": warmup_s,
        },
        # The timings as the wall clock read them, before scaling to the
        # reference speed, and the reference's own times over the run.
        "wall": {
            "setup_s": setup_wall_s,
            "ops_per_s": timed.ops_per_s,
            "op_p50_ms": wall_p50,
            "op_p90_ms": wall_p90,
        },
        "reference_ms": {
            "nominal": REFERENCE_MS,
            "median": statistics.median(reference.times) * 1e3,
            "min": min(reference.times) * 1e3,
            "max": max(reference.times) * 1e3,
            "runs": len(reference.times),
        },
        "samples": timed.attempted,
        "error_rate": len(timed.failures) / timed.attempted,
        "per_kind": _per_kind(timed),
    }

    if args.trace:
        # The traced phase repeats the first ``traced_periods`` periods of the
        # timed phase: the same ops on the same inputs, so its counts depend
        # only on the seed.  The overhead compares the two rates at the
        # reference speed, against an untraced pass over the same ops just
        # before it.
        periods = workload.traced_periods
        untraced, _ = run_ops(workload, timed_start, periods=periods, reference=reference)
        bytes_before = workload.bytes_out
        tracer = Tracer()
        report["traced_callables"] = tracer.install(asymkit)
        traced, _ = run_ops(
            workload, timed_start, periods=periods, tracer=tracer, reference=reference
        )
        phases += [untraced, traced]
        slowdown = untraced.scaled_ops_per_s / traced.scaled_ops_per_s
        report["trace_overhead"] = {
            "ops": traced.attempted,
            "untraced_ops_per_s": untraced.scaled_ops_per_s,
            "traced_ops_per_s": traced.scaled_ops_per_s,
            "slowdown": slowdown,
        }
        values = tracer.metrics(workload.bytes_out - bytes_before, slowdown)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()
        }
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.dump(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        p50, p90 = _quantiles_ms(timed.scaled)
        values = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (timed.scaled_ops_per_s, "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_p90_ms": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    # Warm-up ops count as attempted too, so that ``correct`` agrees with
    # ``failed``; the metrics come from the timed and traced phases only.
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    for msg in failures[:MAX_REPORTED_FAILURES]:
        print(msg, file=sys.stderr)
    report["failed_by_phase"] = [len(p.failures) for p in phases]
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check", action="store_true", help="show that every check rejects a corrupted answer"
    )
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.self_check:
        asymkit = _import_asymkit()
        from selfcheck import self_check

        return self_check(asymkit)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
