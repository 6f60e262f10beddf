"""The benchmark's workloads and the correctness checks run on every op.

An *op* is one :func:`repro.sim.sweep.run_sweep` call and a *cell* one
(placement, protocol) result.  Every op's inputs derive from the
workload seed: op ``k`` sweeps from base seed ``seed * 10**7 + 1000 * k``,
so the same seed always gives the same placements, and
:func:`repro.sim.sweep.run_sweep` gives placement ``r`` of an op the seed
``base + 1000 * r``.  That makes the sliding window of ``sweep-replay``
possible: op ``k`` covers placements ``k .. k + W - 1``.

All workloads are closed loop with one caller (the next op starts when
the previous one returns), sweep both protocols, and run at
``workers=1`` so the process measures the program, not the scheduler.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from statistics import fmean
from typing import Dict, List, Optional, Tuple

import repro.sim.sweep as sweep
from repro.sim.runner import SimulationConfig

PROTOCOLS = ("802.11n", "n+")


def op_seed(seed: int, k: int) -> int:
    """Base seed of op ``k`` of a run seeded with ``seed``."""
    return seed * 10**7 + 1000 * k


def conservation_problems(result, n_runs: int, duration_us: float) -> List[str]:
    """Outside-in checks on one :class:`~repro.sim.sweep.SweepResult`."""
    problems = []
    if result.failures:
        problems.append(f"{len(result.failures)} failed cells, first: {result.failures[0].error}")
    for protocol in PROTOCOLS:
        column = result.results.get(protocol)
        if column is None or len(column) != n_runs:
            problems.append(f"{protocol}: expected {n_runs} cells")
            continue
        for run, metrics in enumerate(column):
            where = f"{protocol} run {run}"
            if metrics is None:
                problems.append(f"{where}: no metrics")
                continue
            if not metrics.elapsed_us >= duration_us:
                problems.append(f"{where}: elapsed {metrics.elapsed_us} us < {duration_us}")
            if not math.isfinite(metrics.total_throughput_mbps()):
                problems.append(f"{where}: non-finite total throughput")
            for name, link in metrics.links.items():
                if link.delivered_bits > link.attempted_bits:
                    problems.append(f"{where} {name}: delivered > attempted bits")
                if not math.isfinite(link.throughput_mbps(metrics.elapsed_us)):
                    problems.append(f"{where} {name}: non-finite throughput")
    return problems


def result_bytes(result) -> bytes:
    """Canonical bytes of an op's seeded metrics, for the result digest."""
    grid = {
        protocol: [None if m is None else m.to_dict() for m in column]
        for protocol, column in result.results.items()
    }
    return json.dumps(grid, sort_keys=True).encode("utf-8")


class Workload:
    """One placement per op, swept under both protocols without a store.

    ``min_ops`` timed ops always run, even past ``--seconds``: they are
    the window the result digest, the per-layer counts and any aggregate
    check cover, so those repeat exactly for a given seed, and they fix
    the tail percentile (the one with 10 of ``min_ops`` samples beyond).
    """

    n_runs = 1

    def __init__(self, name: str, scenario: str, config: SimulationConfig, min_ops: int, seed: int):
        self.name = name
        self.scenario = scenario
        self.config = config
        self.min_ops = min_ops
        self.seed = seed
        self._totals: Dict[str, List[float]] = {}

    def setup(self, workdir: Path) -> Tuple[int, List[str], bytes]:
        """Prepare one run; returns ``(first timed op, problems, outputs)``.

        Called several times into fresh directories, so set-up time can
        be reported as a median; every call must give the same outputs.
        """
        result = self.run_op(0)
        return 1, self.check(0, result), result_bytes(result)

    def run_op(self, k: int):
        return sweep.run_sweep(
            self.scenario,
            PROTOCOLS,
            n_runs=self.n_runs,
            seed=op_seed(self.seed, k),
            config=self.config,
            workers=1,
        )

    def check(self, k: int, result) -> List[str]:
        return conservation_problems(result, self.n_runs, self.config.duration_us)

    def observe(self, result) -> None:
        """Fold one op of the window into the simulated statistics.

        Only plain numbers are kept, so the benchmark's own bookkeeping
        does not grow the process's peak memory with the window.
        """
        for protocol in PROTOCOLS:
            self._totals.setdefault(protocol, []).extend(
                m.total_throughput_mbps() for m in result.results[protocol] if m is not None
            )

    def summary(self) -> Tuple[Dict[str, float], List[str]]:
        """Simulated statistics of the window, and aggregate problems."""
        stats = {
            f"mean_total_mbps[{protocol}]": fmean(totals) if totals else float("nan")
            for protocol, totals in self._totals.items()
        }
        return stats, []

    @staticmethod
    def cells(result) -> int:
        return sum(len(column) for column in result.results.values())


class Fig12(Workload):
    """Adds the Fig. 12 shape bounds, on the aggregate of the window.

    The bounds are the ones ``benchmarks/bench_fig12_throughput.py``
    asserts; gains are mean per-placement ratios, n+ over 802.11n.
    """

    pairs = ("tx1->rx1", "tx2->rx2", "tx3->rx3")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._gains: Dict[Optional[str], List[float]] = {key: [] for key in (None,) + self.pairs}

    def observe(self, result):
        super().observe(result)
        for base, plus in zip(result.results["802.11n"], result.results["n+"]):
            if base is None or plus is None:
                continue
            for pair, gains in self._gains.items():
                if pair is None:
                    num, den = plus.total_throughput_mbps(), base.total_throughput_mbps()
                else:
                    num, den = plus.throughput_mbps(pair), base.throughput_mbps(pair)
                if den > 1e-9:
                    gains.append(num / den)

    def summary(self):
        stats, problems = super().summary()
        mean = {pair: fmean(g) if g else float("nan") for pair, g in self._gains.items()}
        total = mean.pop(None)
        stats["total_gain"] = total
        stats.update({f"gain[{pair}]": gain for pair, gain in mean.items()})
        if not total > 1.3:
            problems.append(f"fig12 shape: total gain {total:.3f} <= 1.3")
        if not mean["tx3->rx3"] > 1.8:
            problems.append(f"fig12 shape: tx3 gain {mean['tx3->rx3']:.3f} <= 1.8")
        if not mean["tx3->rx3"] > mean["tx2->rx2"]:
            problems.append("fig12 shape: tx3 gain not above tx2 gain")
        if not mean["tx1->rx1"] > 0.6:
            problems.append(f"fig12 shape: tx1 gain {mean['tx1->rx1']:.3f} <= 0.6")
        return stats, problems


class SweepReplay(Workload):
    """A sliding window of placements against a warm SQLite store.

    Set-up populates the store with the window of op 0 and runs op 1 as
    the warm-up.  Op ``k`` then replays ``window - 1`` stored placements
    and simulates and stores one new one.  Every replayed cell must equal
    (``to_dict()``) the metrics returned when it was first computed.
    """

    def __init__(self, name, scenario, config, min_ops, seed, window: int):
        super().__init__(name, scenario, config, min_ops, seed)
        self.n_runs = window
        self.store_dir: Optional[Path] = None
        self._recorded: Dict[Tuple[str, int], dict] = {}

    def setup(self, workdir):
        self.store_dir = workdir / "store"
        self._recorded = {}
        digest = hashlib.sha256()
        problems = []
        for k in (0, 1):
            result = self.run_op(k)
            problems += self.check(k, result)
            digest.update(result_bytes(result))
        return 2, problems, digest.digest()

    def run_op(self, k):
        return sweep.run_sweep(
            self.scenario,
            PROTOCOLS,
            n_runs=self.n_runs,
            seed=op_seed(self.seed, k),
            config=self.config,
            workers=1,
            cache_dir=self.store_dir,
        )

    def check(self, k, result):
        problems = super().check(k, result)
        for placement in [p for p in self._recorded if p[1] < k]:
            del self._recorded[placement]
        expected_misses = len(PROTOCOLS) * (self.n_runs if k == 0 else 1)
        if result.cache_misses != expected_misses:
            problems.append(
                f"op {k}: {result.cache_misses} cells simulated, expected {expected_misses}"
            )
        for protocol, column in result.results.items():
            for run, metrics in enumerate(column):
                if metrics is None:
                    continue
                placement = (protocol, k + run)
                as_dict = metrics.to_dict()
                if self._recorded.setdefault(placement, as_dict) != as_dict:
                    problems.append(f"op {k}: replayed {placement} differs from the stored cell")
        return problems


def make_workload(name: str, seed: int) -> Workload:
    if name == "fig12-paper":
        config = SimulationConfig(duration_us=120_000.0, n_subcarriers=16)
        return Fig12(name, "three-pair", config, min_ops=80, seed=seed)
    if name == "dense-500-bursty":
        config = SimulationConfig(duration_us=50_000.0)
        return Workload(name, "dense-lan-500-bursty", config, min_ops=30, seed=seed)
    if name == "faulty-auto":
        config = SimulationConfig(duration_us=100_000.0, fidelity="auto")
        return Workload(name, "dense-lan-50-faulty", config, min_ops=30, seed=seed)
    if name == "sweep-replay":
        config = SimulationConfig(duration_us=2_000.0, n_subcarriers=8)
        return SweepReplay(name, "two-pair", config, min_ops=200, seed=seed, window=200)
    raise KeyError(name)

