"""Repository benchmark: sweep workloads timed through ``run_sweep``.

Run from the repository root::

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload fig12-paper --seed 1 --seconds 20 --trace 0

A single-workload run sets up (imports, warm-up op, store population;
the set-up after the imports is repeated and its median reported), then
runs timed ops for ``--seconds`` seconds and at least the workload's
``min_ops``, checks every op, and prints the end-to-end metrics
(``--trace 0``) or the per-layer table (``--trace 1``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every check passed, 1 when one failed and 2 when the benchmark could not
run (e.g. the program's sources are missing).

End-to-end metrics (untraced):

* ``setup_s`` -- import time plus the median set-up repetition, in s.
* ``cells_per_s`` -- cells delivered per second of op time.
* ``op_ms.p50`` / ``op_ms.tail`` -- median op time and the op time at
  the workload's fixed tail percentile (the one leaving 10 of
  ``min_ops`` samples beyond it).
* ``peak_rss_mb`` -- peak resident memory of the process, less the
  host probe's buffer.
* ``failed_ratio`` -- printed; it is the JSON's ``failed / attempted``.

Op times in the JSON are at a reference host speed ("ref-ms", see
:class:`HostProbe`), so runs made minutes apart on a shared machine stay
comparable; the table prints each value as measured beside it.

The per-layer table comes from :mod:`layers`, which wraps ``repro``
functions from outside; ``src/`` carries no tracing of its own.  Counts
cover the first ``min_ops`` timed ops, so they repeat exactly; self
times are means per op over every timed op.
"""

import time

_T0 = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

# One BLAS thread, set before numpy loads: the sweeps run at workers=1
# and a second BLAS thread would measure the shared host, not the code.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
#: The timed phase stops here even short of ``min_ops``, so a run on a
#: slow host still ends within three minutes.
MAX_TIMED_S = 150.0
WORKLOAD_NAMES = ("fig12-paper", "dense-500-bursty", "faulty-auto", "sweep-replay")

#: (name, unit) of the end-to-end metrics in the JSON result.
END_TO_END = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/ref-s"),
    ("op_ms.p50", "ref-ms"),
    ("op_ms.tail", "ref-ms"),
    ("peak_rss_mb", "MiB"),
]

#: About the host probe's time between ops, in ms, on a quiet 2.1 GHz
#: Xeon vCPU (Python 3.11, numpy 2.4).  Op times are reported at this
#: host speed: each is divided by the probe times measured around it and
#: multiplied by this constant, giving "ref-ms".  The constant only sets
#: the scale; a comparison between two runs on one host is independent
#: of it.
PROBE_REF_MS = 6.0
#: Probes around an op whose median is its host speed (odd).
PROBE_WINDOW = 5


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(counts, self_ms, cells_per_s, op_ms_mean):
    """``{name: (value, unit, base)}`` of every per-layer metric.

    ``counts`` are totals over the count window, ``self_ms`` means per
    op; ``base`` names the denominator of a ratio (or ``None``).
    """
    c = counts.get
    builds = c("sim.network.calls", 0)
    hits, misses = c("mac.plan.cache_hits", 0), c("mac.plan.cache_misses", 0)
    joins = c("mac.plan_join.calls", 0)
    rounds = c("mac.csma.calls", 0)
    evaluations = c("sim.fidelity.evaluations", 0)
    escalations = c("sim.fidelity.escalations", 0)

    def ms(layer):
        return self_ms.get(layer, 0.0), "ms", None

    def n(key):
        return c(key, 0), "count", None

    return {
        "mimo.decoder.calls": n("mimo.decoder.calls"),
        "mimo.decoder.self_ms": ms("mimo.decoder"),
        "utils.guarded.svd_matrices": n("utils.guarded.svd_matrices"),
        "utils.guarded.pinv_matrices": n("utils.guarded.pinv_matrices"),
        "utils.guarded.degradations": n("utils.guarded.degradations"),
        "phy.esnr.select_mcs_calls": n("phy.esnr.select_mcs.calls"),
        "phy.esnr.select_mcs_self_ms": ms("phy.esnr.select_mcs"),
        "phy.esnr.esnr_evals": n("phy.esnr.esnr_evals"),
        "phy.esnr.delivery_self_ms": ms("phy.esnr.delivery"),
        "sim.link_abstraction.calls": n("sim.link_abstraction.calls"),
        "sim.link_abstraction.self_ms": ms("sim.link_abstraction"),
        "mac.bitrate.calls": n("mac.bitrate.calls"),
        "mac.plan_initial.calls": n("mac.plan_initial.calls"),
        "mac.plan_initial.self_ms": ms("mac.plan_initial"),
        "mac.plan_join.calls": n("mac.plan_join.calls"),
        "mac.plan_join.self_ms": ms("mac.plan_join"),
        "mac.plan_join.success_ratio": (
            _ratio(c("mac.plan_join.ok", 0), joins), "ratio",
            f"{c('mac.plan_join.ok', 0):.0f} planned / {joins:.0f} calls",
        ),
        "mac.plan.cache_hit_ratio": (
            _ratio(hits, hits + misses), "ratio",
            f"{hits:.0f} hits / {hits + misses:.0f} lookups",
        ),
        "sim.network.builds": (builds, "count", None),
        "sim.network.self_ms": ms("sim.network"),
        "sim.network.pairs": (
            _ratio(c("sim.network.pairs", 0), builds), "count", "per build",
        ),
        "sim.network.bytes": (
            _ratio(c("sim.network.bytes", 0), builds), "B", "per build",
        ),
        "sim.runner.self_ms": ms("sim.runner"),
        "mac.csma.rounds": (rounds, "count", None),
        "mac.csma.self_ms": ms("mac.csma"),
        "mac.csma.collision_ratio": (
            _ratio(c("mac.csma.collisions", 0), rounds), "ratio",
            f"{c('mac.csma.collisions', 0):.0f} collisions / {rounds:.0f} rounds",
        ),
        "sim.fidelity.calls": n("sim.fidelity.calls"),
        "sim.fidelity.self_ms": ms("sim.fidelity"),
        "sim.fidelity.escalation_ratio": (
            _ratio(escalations, evaluations), "ratio",
            f"{escalations:.0f} escalated / {evaluations:.0f} evaluated",
        ),
        "sim.fidelity.memo_hit_ratio": (
            _ratio(c("sim.fidelity.memo_hits", 0), escalations), "ratio",
            f"{c('sim.fidelity.memo_hits', 0):.0f} memo hits / {escalations:.0f} escalated",
        ),
        "sim.fidelity.probe.calls": n("sim.fidelity.probe.calls"),
        "sim.fidelity.probe.self_ms": ms("sim.fidelity.probe"),
        "sim.faults.self_ms": ms("sim.faults"),
        "sim.faults.fades_applied": n("sim.faults.fades_applied"),
        "sim.faults.departures_applied": n("sim.faults.departures_applied"),
        "sim.sweep.self_ms": ms("sim.sweep"),
        "sim.store.open.self_ms": ms("sim.store.open"),
        "sim.store.read.calls": n("sim.store.read.calls"),
        "sim.store.read.self_ms": ms("sim.store.read"),
        "sim.store.read.rows": n("sim.store.read.rows"),
        "sim.store.write.calls": n("sim.store.write.calls"),
        "sim.store.write.self_ms": ms("sim.store.write"),
        "sim.store.manifest.self_ms": ms("sim.store.manifest"),
        "trace.cells_per_s": (cells_per_s, "cells/ref-s", "traced"),
        "trace.op_ms.mean": (op_ms_mean, "ms", "traced"),
    }


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):  # show_config's layout is not a stable API
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "pinned_threads": {var: os.environ[var] for var in PINNED_THREADS},
        "platform": platform.platform(),
    }


class HostProbe:
    """A fixed mix of interpreter, small-matrix and memory-streaming work, timed.

    On a shared 2-vCPU virtual machine the host's speed drifts by up to
    1.8x within seconds (other tenants on the same cores and memory), far
    more than the differences a benchmark must resolve.  The probe does
    work like the simulator's -- small-matrix numpy and interpreter loops
    like the link abstraction, streaming over a buffer larger than the
    caches like the dense-LAN network construction -- but runs none of
    ``repro``, so a change to the program cannot move it.  It is timed
    before every op and the op times are divided by it.

    The buffer stays resident from construction to exit, so subtracting
    ``buffer_mb`` from the process's peak resident memory leaves the
    program's own peak exactly.
    """

    buffer_mb = 24

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._stack = rng.standard_normal((16, 3, 3)) + 1j * rng.standard_normal((16, 3, 3))
        self._buffer = np.ones(self.buffer_mb * 2**20 // 8)

    def __call__(self) -> float:
        np, stack, buffer = self._np, self._stack, self._buffer
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.svd(stack)
            np.linalg.pinv(stack)
        total = 0
        for i in range(10_000):
            total += i * i % 7
        table = {}
        for i in range(2_000):
            table[(i, i % 3)] = float(i)
        np.negative(buffer, out=buffer)
        np.negative(buffer, out=buffer)
        return time.perf_counter() - start


def ref_ms(op_s, probe_s):
    """Each op's time at the reference host speed (see PROBE_REF_MS)."""
    half = PROBE_WINDOW // 2
    return [
        op / median(probe_s[max(0, i - half): i + half + 1]) * PROBE_REF_MS
        for i, op in enumerate(op_s)
    ]


def tail_percentile(min_ops: int) -> float:
    return 100.0 * (1.0 - 10.0 / min_ops)


def nearest_rank(sorted_values, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        from workloads import make_workload, result_bytes
        from layers import LAYERS, Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    workload = make_workload(args.workload, args.seed)
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds} s, "
          f"min {workload.min_ops} ops, trace {args.trace}")
    print("env: " + json.dumps(environment(), sort_keys=True))

    probe = HostProbe()
    problems = []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times, setup_outputs = [], set()
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            first_op, rep_problems, outputs = workload.setup(workdir / f"setup{rep}")
            setup_times.append(time.perf_counter() - start)
            problems += [f"set-up: {p}" for p in rep_problems]
            setup_outputs.add(outputs)
        if len(setup_outputs) != 1:
            problems.append("set-up: repetitions gave different outputs")
        setup_s = import_s + median(setup_times)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        op_s, probe_s, failed, cells = [], [], 0, 0
        digest = hashlib.sha256()
        window_counts = None
        k = first_op
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_TIMED_S or (elapsed >= args.seconds and len(op_s) >= workload.min_ops):
                break
            probe_s.append(probe())
            if tracer:
                tracer.begin_op()
            t = time.perf_counter()
            try:
                result = workload.run_op(k)
                op_problems = None
            except Exception as exc:
                result, op_problems = None, [f"raised {type(exc).__name__}: {exc}"]
            op_s.append(time.perf_counter() - t)
            if tracer:
                tracer.end_op()
            if result is not None:
                op_problems = workload.check(k, result)
                cells += workload.cells(result)
            if op_problems:
                failed += 1
                problems += [f"op {k}: {p}" for p in op_problems]
            if len(op_s) <= workload.min_ops:
                if result is not None:
                    workload.observe(result)
                    digest.update(f"{k}:".encode() + result_bytes(result))
                if tracer and len(op_s) == workload.min_ops:
                    window_counts = dict(tracer.counts)
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats, aggregate_problems = workload.summary()
    problems += aggregate_problems
    n_ops = len(op_s)
    host_s = sum(op_s)
    op_ref_ms = ref_ms(op_s, probe_s)
    cells_per_ref_s = cells / (sum(op_ref_ms) / 1000.0)
    pct = tail_percentile(workload.min_ops)
    beyond = n_ops - max(1, math.ceil(pct / 100.0 * n_ops))
    print(f"result_digest: {digest.hexdigest()} (first {min(n_ops, workload.min_ops)} ops)")
    print("outputs: " + ", ".join(f"{key}={value:.4f}" for key, value in stats.items()))
    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 10:
        print(f"... {len(problems) - 10} more check failures")
    correct = not problems

    if not args.trace:
        raw_ms, scaled_ms = sorted(s * 1000.0 for s in op_s), sorted(op_ref_ms)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe.buffer_mb
        # (reported value, host-measured value) of each metric.
        values = {
            "setup_s": (setup_s, setup_s),
            "cells_per_s": (cells_per_ref_s, cells / host_s),
            "op_ms.p50": (median(scaled_ms), median(raw_ms)),
            "op_ms.tail": (nearest_rank(scaled_ms, pct), nearest_rank(raw_ms, pct)),
            "peak_rss_mb": (rss_mb, rss_mb),
        }
        units = dict(END_TO_END)
        print(f"{'metric':<14}{'value':>14}  {'unit':<12}{'as measured':>14}")
        for name, (value, raw) in values.items():
            print(f"{name:<14}{value:>14.4f}  {units[name]:<12}{raw:>14.4f}")
        print(f"{'failed_ratio':<14}{failed / n_ops:>14.4f}  ratio ({failed} / {n_ops} ops)")
        print(f"op_ms.tail is p{pct:g} of {n_ops} ops ({beyond} beyond); host probe median "
              f"{median(probe_s) * 1000:.3f} ms (reference {PROBE_REF_MS} ms); set-up runs "
              f"{', '.join(f'{t:.3f}' for t in setup_times)} s + imports {import_s:.3f} s")
        metrics = {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()}
    else:
        counts = window_counts if window_counts is not None else dict(tracer.counts)
        self_ms = {layer: s * 1000.0 / n_ops for layer, s in tracer.self_s.items()}
        op_ms_mean = host_s * 1000.0 / n_ops
        print(f"per-layer trace: {n_ops} ops, {op_ms_mean:.2f} ms/op traced host time; "
              f"counts over the first {min(n_ops, workload.min_ops)} ops")
        print(f"{'layer':<24}{'calls':>12}{'self ms/op':>12}{'share':>8}")
        for layer in sorted(LAYERS, key=lambda name: -self_ms.get(name, 0.0)):
            share = self_ms.get(layer, 0.0) / op_ms_mean
            print(f"{layer:<24}{counts.get(layer + '.calls', 0):>12.0f}"
                  f"{self_ms.get(layer, 0.0):>12.3f}{share:>8.1%}")
        outside = op_ms_mean - sum(self_ms.values())
        print(f"{'(outside run_sweep)':<24}{'':>12}{outside:>12.3f}{outside / op_ms_mean:>8.1%}")
        layer_metrics = per_layer_metrics(counts, self_ms, cells_per_ref_s, op_ms_mean)
        print(f"{'metric':<32}{'value':>16}  unit")
        for name, (value, unit, base) in layer_metrics.items():
            print(f"{name:<32}{value:>16.4f}  {unit}" + (f"  ({base})" if base else ""))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in layer_metrics.items()}

    print(json.dumps({"correct": correct, "attempted": n_ops, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, one process per run."""
    summary, combined, all_correct, attempted, failed = [], {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 2 or not lines:
                return 2
            results[trace] = json.loads(lines[-1])
            all_correct &= results[trace]["correct"]
            attempted += results[trace]["attempted"]
            failed += results[trace]["failed"]
        untraced, traced = results[0]["metrics"], results[1]["metrics"]
        combined.update({f"{name}.{key}": value for key, value in untraced.items()})
        overhead = 1.0 - traced["trace.cells_per_s"]["value"] / untraced["cells_per_s"]["value"]
        summary.append((name, untraced, results[0], overhead))
    print("\nsummary (untraced; trace overhead = 1 - traced / untraced cells_per_s)")
    header = "".join(f"{name:>14}" for name, _ in END_TO_END)
    print(f"{'workload':<18}{header}{'failed_ratio':>14}{'trace_ovh':>11}")
    for name, metrics, result, overhead in summary:
        row = "".join(f"{metrics[key]['value']:>14.4f}" for key, _ in END_TO_END)
        ratio = result["failed"] / result["attempted"]
        print(f"{name:<18}{row}{ratio:>14.4f}{overhead:>11.1%}")
    print(f"{'unit':<18}" + "".join(f"{unit:>14}" for _, unit in END_TO_END) + f"{'ratio':>14}{'':>11}")
    print(json.dumps({"correct": all_correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
