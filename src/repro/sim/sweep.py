"""Parallel experiment orchestration: sweep grids of (placement, protocol).

The paper's headline figures are Monte-Carlo sweeps -- many random node
placements, each simulated under several MAC protocols.  The serial
:func:`~repro.sim.runner.run_many` loop computes the ``n_runs x
n_protocols`` grid one cell at a time; this module computes the same grid

* **in parallel**, fanning *run-level tasks* out over supervised worker
  processes -- one task per placement, covering every protocol that
  missed the cache, so each run's network is drawn exactly **once** and
  shared by all protocols simulated on it (just like the serial
  ``run_many`` loop).  Only when more workers than uncached runs are
  available does a run's protocol list split into chunks (each still
  sharing one draw), trading a few extra draws for full concurrency;
* **incrementally**, memoising every cell in a durable on-disk results
  store (:class:`~repro.sim.store.ResultsStore`, WAL-mode SQLite) keyed
  by ``(scenario, protocol, run seed, config hash)`` so repeated figure
  invocations only recompute what actually changed; and
* **durably**: with a cache directory, every sweep records a *manifest*
  (grid, digests, seeds, config) up front and tracks each cell through
  ``pending -> running -> done/failed``, so a sweep killed mid-run --
  SIGINT, SIGTERM, OOM, reboot -- checkpoints (or is trivially
  reconstructible from committed cell states) and a re-invocation with
  ``resume=True`` completes exactly the unfinished cells.  The worker
  pool is supervised (:mod:`repro.sim.supervisor`): heartbeats tell
  hung workers from slow cells, silently-killed workers (OOM) are
  detected and replaced with the affected cells re-queued, and repeated
  deaths shrink the pool instead of failing the sweep.

All of this is possible because every cell is a pure function of its
seeds: run ``r`` draws placements/channels from ``seed + 1000 * r`` and
each protocol simulation runs with its own seeded RNG streams (including
the channel-estimation stream, see
:meth:`~repro.sim.network.Network.reseed_estimation_noise`).  A parallel
sweep is therefore **byte-identical** to a serial one for a fixed seed,
a resumed sweep is byte-identical to an uninterrupted one -- the test
suite asserts both -- and cached cells are interchangeable with freshly
computed ones.  Caching stays **cell-level** (per protocol) even though
work ships run-level: a task recomputes only the protocols whose cells
actually missed.

Typical use::

    from repro.sim.sweep import run_sweep

    result = run_sweep(
        "three-pair", ["802.11n", "n+"], n_runs=50,
        seed=0, workers=4, cache_dir=".sweep-cache",
    )
    result.results["n+"][0].total_throughput_mbps()

    # After an interruption (Ctrl-C, kill, crash): same call + resume=True
    run_sweep("three-pair", ["802.11n", "n+"], n_runs=50,
              seed=0, workers=4, cache_dir=".sweep-cache", resume=True)

Scenarios are usually referred to by registry name
(:func:`repro.sim.scenarios.register_scenario`), which doubles as the
cache key; passing a bare callable still works but only caches when an
explicit ``scenario_key`` is supplied.  Legacy per-cell JSON caches
(the pre-store :class:`SweepCache` layout) migrate into the store
automatically the first time their directory is opened; pass
``cache_backend="json"`` to keep using the flat-file cache instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
import signal
import threading
import time
import traceback as _traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.channel.testbed import default_testbed
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.variants import ProtocolLike, ProtocolSpec, resolve_protocol
from repro.sim.capsule import CAPSULE_DIRNAME, build_capsule, write_capsule
from repro.sim.faults import fault_profile
from repro.sim.metrics import NetworkMetrics
from repro.sim.runner import (
    SimulationConfig,
    build_network,
    effective_channel_draws,
    effective_fault_profile,
    effective_fidelity,
    effective_validation,
    mac_seed,
    placement_seed,
    run_simulation,
)
from repro.sim.scenarios import Scenario, scenario_factory
from repro.sim.store import ResultsStore
from repro.sim.supervisor import (
    PoolShrunk,
    TaskAssigned,
    TaskDone,
    TaskFailed,
    TaskRequeued,
    TaskRetry,
    WorkerDeath,
    WorkerSupervisor,
)

__all__ = [
    "FailedCell",
    "SweepResult",
    "SweepCache",
    "ResultsStore",
    "run_sweep",
    "cell_key",
    "CellKeyer",
    "config_digest",
    "scenario_digest",
    "sweep_manifest_digest",
    "default_workers",
]

#: Bump when the simulation's numeric behaviour changes in a way that
#: should invalidate previously cached sweep results.  The version is
#: part of every cell key, so cells written under an older schema are
#: *missed* (and recomputed), never replayed.
#: 2: channel estimates are measured once per simulation (static-channel
#:    invariant) instead of re-drawn on every planning query, which
#:    changes every simulated metric for a given seed.
#: 3: the grouped (v3) channel-draw contract landed -- scalars-first
#:    construction draws, shape-grouped estimation-noise prefetch -- and
#:    ``channel_draws`` joined both the scenario and the config digests,
#:    so a v2 cell can never be replayed for a sweep that selects a
#:    different contract.
#: 4: the fault-injection layer landed (repro.sim.faults): retransmission
#:    accounting changed at the partial-delivery boundary (span-aging
#:    fail(), retry reset on forward progress, drop accounting), which
#:    shifts every seeded metric, and the fault parameters joined both
#:    digests -- ``fault_profile``/``fault_trace`` via the config, the
#:    scenario's resolved profile parameters via the scenario digest --
#:    so a static-network cell can never be replayed for a faulted sweep
#:    (or vice versa).
#: 5: the two-fidelity PHY layer landed (repro.sim.fidelity): the
#:    ``fidelity``/``fidelity_band_db`` knobs joined both digests (the
#:    config fields automatically, the scenario hints explicitly), so an
#:    abstraction-tier cell can never be replayed for an escalating
#:    sweep (or vice versa); abstraction-tier metrics themselves are
#:    unchanged, but v4 cells predate the knobs' digest coverage.
#: 6: the protocol-variant framework landed (repro.mac.variants): the
#:    protocol coordinate of a cell key is now the *spec-canonical* form
#:    ``name`` or ``name[param=value,...]`` with non-default parameters
#:    sorted, so parameterised sweeps (``retry_cap``, the ``recovery``
#:    family) get distinct cells.  Within v6 a default-parameter spec
#:    canonicalises to the bare name, i.e. hashes identically to the
#:    pre-framework key payload -- but v5 cells are still missed (and
#:    recomputed) because the schema version itself is part of the key:
#:    default-parameter metrics are bit-identical, yet metrics now carry
#:    the ``recovered_bits`` counter, and replaying a v5 cell into a
#:    parameterised grid would silently alias specs the v5 payload never
#:    distinguished.
#: (The SQLite results store did NOT bump the schema: cell keys and
#: metrics payloads are unchanged, which is exactly what lets a legacy
#: v6 JSON cache migrate into the store and keep hitting.)
#: 7: the numerical-hardening layer landed (repro.utils.guarded + link
#:    quarantine): decompositions that previously raised out of a
#:    degenerate cell now fall back deterministically and quarantine the
#:    link, so cells that *crashed* under v6 produce metrics under v7
#:    (and metrics payloads carry the new ``quarantined_rounds``
#:    counter); the ``validation`` knob also joined the config digest.
#:    Healthy cells are bit-identical to v6, but replaying a v6 cache
#:    into a grid whose degenerate cells now complete would mix
#:    crash-semantics generations.
CACHE_SCHEMA_VERSION = 7


def config_digest(config: SimulationConfig) -> str:
    """Stable hex digest of a :class:`SimulationConfig`.

    Any field change -- duration, subcarriers, packet rate, margins --
    produces a different digest, which is how the results cache
    invalidates on config change.
    """
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def scenario_digest(scenario: Scenario) -> str:
    """Stable hex digest of a scenario's *structure*.

    Covers everything that shapes the simulation: stations (ids, antenna
    counts, names), traffic pairs (endpoints, streams per receiver), the
    suggested packet rate, and the testbed (candidate locations, the
    full link budget and the hardware impairment profile).  Mixed into
    every cache key next to the registry name, so editing a scenario's
    definition -- a different antenna mix, a reshaped floor, a changed
    hardware profile -- invalidates its cached cells automatically
    instead of replaying stale results under the old name.

    Scenarios without a testbed factory are simulated on
    :func:`~repro.channel.testbed.default_testbed`, so that *effective*
    testbed is digested for them: an edit to the default floor or to the
    :class:`~repro.channel.hardware.HardwareProfile` defaults changes the
    digest and misses the cache, instead of silently replaying cells
    simulated under the old defaults.
    """
    testbed = scenario.make_testbed()
    if testbed is None:
        # The testbed the simulation will actually run on (see
        # repro.sim.network.Network), not the `None` placeholder.
        testbed = default_testbed()
    payload = json.dumps(
        {
            "stations": [
                (s.node_id, s.n_antennas, s.name) for s in scenario.stations
            ],
            "pairs": [
                (
                    p.transmitter.node_id,
                    [r.node_id for r in p.receivers],
                    list(p.streams_per_receiver),
                )
                for p in scenario.pairs
            ],
            "packet_rate_pps": scenario.packet_rate_pps,
            # The scenario's channel-draw contract hint changes every
            # seeded channel (see repro.sim.network.Network), so it is
            # part of the structure -- editing a scenario from "batched"
            # to "grouped" must miss the cache, not replay v2 cells.
            "channel_draws": scenario.channel_draws,
            # The *resolved* fault-profile parameters, not just the name:
            # retuning a registered profile (or editing a scenario's
            # profile hint) changes every seeded faulted metric, so it
            # must miss the cache like any other structural edit.
            "fault_profile": _scenario_fault_payload(scenario),
            # The fidelity hints change which deliveries are decided by
            # the full transceiver, i.e. seeded results -- same rule as
            # the channel-draw and fault hints above.
            "fidelity": getattr(scenario, "fidelity", None),
            "fidelity_band_db": getattr(scenario, "fidelity_band_db", None),
            "testbed": {
                "locations": [list(xy) for xy in testbed.locations],
                "tx_power_dbm": testbed.tx_power_dbm,
                "noise_floor_dbm": testbed.noise_floor_dbm,
                "path_loss_exponent": testbed.path_loss_exponent,
                "reference_loss_db": testbed.reference_loss_db,
                "shadowing_sigma_db": testbed.shadowing_sigma_db,
                "los_probability": testbed.los_probability,
                "n_taps": testbed.n_taps,
                "snr_range_db": [testbed.min_snr_db, testbed.max_snr_db],
                "hardware": dataclasses.asdict(testbed.hardware),
            },
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _scenario_fault_payload(scenario: Scenario) -> Optional[dict]:
    """The scenario's fault profile, resolved to its parameters.

    ``None`` for a static scenario (keeping pre-fault digests of such
    scenarios' *structure* dependent only on the other fields).
    """
    name = getattr(scenario, "fault_profile", None)
    if name is None:
        return None
    return {"name": name, "params": dataclasses.asdict(fault_profile(name))}


def cell_key(
    scenario_key: str,
    protocol: ProtocolLike,
    run_seed: int,
    config: SimulationConfig,
    scenario_fingerprint: Optional[str] = None,
) -> str:
    """The cache key of one sweep cell -- shared by every backend.

    ``scenario_fingerprint`` (see :func:`scenario_digest`) ties the key
    to the scenario's structure, not just its registry name.
    ``protocol`` is canonicalised through
    :func:`~repro.mac.variants.resolve_protocol` first, so a bare name
    and its default-parameter spec produce the *same* key (pre-framework
    call sites and spec-based ones share cells) while any non-default
    parameter lands in the key as part of the ``name[param=value,...]``
    coordinate.  The module-global :data:`CACHE_SCHEMA_VERSION` is part
    of the payload, so cells written under an older schema are missed,
    never replayed.  The payload is hashed by :class:`CellKeyer`, which
    a sweep builds once and calls per cell.
    """
    return CellKeyer(scenario_key, config, scenario_fingerprint)(protocol, run_seed)


class CellKeyer:
    """The :func:`cell_key` of every cell of one sweep.

    A key is the SHA-256 of ``json.dumps(payload, sort_keys=True)`` over
    ``config``, ``protocol``, ``run_seed``, ``scenario``,
    ``scenario_fingerprint`` and ``schema`` -- in that (sorted) order.
    Everything but the protocol and the run seed is fixed for a sweep,
    so the leading ``{"config": ..., "protocol": `` text is serialised
    and hashed once, each protocol's continuation once more, and a cell
    only hashes its seed and the constant tail.  The bytes hashed are
    exactly those of a one-shot ``json.dumps`` of the payload, so the
    keys of existing stores keep hitting.
    """

    def __init__(
        self,
        scenario_key: str,
        config: SimulationConfig,
        scenario_fingerprint: Optional[str] = None,
    ) -> None:
        config_json = json.dumps(dataclasses.asdict(config), sort_keys=True)
        self._head = hashlib.sha256(f'{{"config": {config_json}, "protocol": '.encode())
        self._tail = (
            f', "scenario": {json.dumps(scenario_key)}, '
            f'"scenario_fingerprint": {json.dumps(scenario_fingerprint)}, '
            f'"schema": {json.dumps(CACHE_SCHEMA_VERSION)}}}'
        ).encode()
        # spec key -> hash state through the protocol and the seed's label
        self._by_protocol = {}

    def __call__(self, protocol: ProtocolLike, run_seed: int) -> str:
        spec_key = resolve_protocol(protocol).key
        prefix = self._by_protocol.get(spec_key)
        if prefix is None:
            prefix = self._head.copy()
            prefix.update(f'{json.dumps(spec_key)}, "run_seed": '.encode())
            self._by_protocol[spec_key] = prefix
        digest = prefix.copy()
        digest.update(json.dumps(run_seed).encode())
        digest.update(self._tail)
        return digest.hexdigest()


def sweep_manifest_digest(manifest: dict) -> str:
    """Stable hex digest identifying one sweep's full grid.

    The manifest covers everything that defines the sweep -- scenario
    key and structural fingerprint, the ordered protocol specs, run
    count, base seed, config -- so two invocations with the same digest
    are by construction computing the same cells, which is what makes
    ``resume=True`` safe to assert against.
    """
    payload = json.dumps(manifest, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_workers() -> int:
    """Worker count used when ``workers`` is not given.

    Honors the ``REPRO_WORKERS`` environment variable first (the
    operator's explicit ceiling, e.g. for a shared box or a CI
    container), then the scheduler affinity mask
    (``os.sched_getaffinity`` -- the cores this process may actually
    use, which on a CPU-limited container is less than the machine's
    core count), then the raw CPU count as a last resort.
    """
    override = os.environ.get("REPRO_WORKERS")
    if override is not None and override.strip():
        try:
            return max(1, int(override))
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer, got {override!r}"
            ) from None
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


class SweepCache:
    """Legacy on-disk memo of simulated cells, one JSON file per cell.

    Superseded by the SQLite :class:`~repro.sim.store.ResultsStore`
    (the default ``run_sweep`` backend), which migrates a directory of
    these files automatically on first open; kept for the
    ``cache_backend="json"`` escape hatch and as the reference layout
    the migration reads.

    A cell is one ``(scenario, protocol, run seed, config)`` simulation;
    its key is a SHA-256 over those coordinates plus a schema version.
    Files are written atomically (temp file + rename) so a crashed or
    parallel writer can never leave a truncated entry, and unreadable
    entries are treated as misses rather than errors.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def cell_key(
        self,
        scenario_key: str,
        protocol: ProtocolLike,
        run_seed: int,
        config: SimulationConfig,
        scenario_fingerprint: Optional[str] = None,
    ) -> str:
        """The cache key of one sweep cell (see :func:`cell_key`)."""
        return cell_key(scenario_key, protocol, run_seed, config, scenario_fingerprint)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[NetworkMetrics]:
        """The cached metrics for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            return NetworkMetrics.from_dict(data["metrics"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, key: str, metrics: NetworkMetrics, describe: dict) -> None:
        """Persist one cell atomically; ``describe`` is stored for humans.

        The entry is written to a pid-suffixed temp file and moved into
        place with :func:`os.replace` -- atomic on POSIX -- so concurrent
        sweeps sharing a cache dir and crashed writers can never publish
        a truncated entry under the final name (a reader sees either the
        old complete entry or the new complete one).  A write that fails
        midway removes its temp file before re-raising.
        """
        path = self._path(key)
        payload = json.dumps({"cell": describe, "metrics": metrics.to_dict()}, indent=1)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


@dataclass(frozen=True)
class FailedCell:
    """One sweep cell that could not be computed (see :func:`run_sweep`).

    Records the cell coordinates and the final exception string after
    every retry was exhausted, so a long sweep reports *which* cells are
    missing and why instead of aborting on the first worker crash.
    ``capsule_path`` points at the replayable crash capsule written next
    to the results store (``python -m repro.cli replay <path>`` re-runs
    the exact cell); ``None`` when the sweep ran without a cache
    directory.  ``traceback`` carries the full Python traceback of the
    simulation crash (captured in-worker for parallel sweeps); it is
    ``None`` only for failures outside a simulation, e.g. a worker that
    kept dying or a task that timed out.
    """

    protocol: str
    run: int
    run_seed: int
    error: str
    capsule_path: Optional[str] = None
    traceback: Optional[str] = None


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` call.

    Attributes
    ----------
    results:
        ``{protocol: [metrics of run 0, run 1, ...]}`` -- the same shape
        :func:`repro.sim.runner.run_many` returns.  A cell whose
        computation failed (see ``failures``) is ``None``.
    cache_hits, cache_misses:
        How many cells came from the cache vs were simulated.  A repeated
        invocation with an unchanged grid reports all hits.
    workers:
        Worker processes used for the simulated cells (1 = in-process).
    failures:
        The cells that still failed after retries, as
        :class:`FailedCell` records (empty for a clean sweep; always
        empty under ``strict=True``, which raises instead).
    worker_deaths:
        Workers lost and replaced during the sweep (OOM kills, hangs;
        deliberate slow-cell timeout kills included).  ``0`` on a
        healthy machine.
    sweep_id:
        Manifest digest recorded in the results store (``None`` when
        run without a cache directory or on the JSON backend).
    """

    results: Dict[str, List[Optional[NetworkMetrics]]] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    failures: List[FailedCell] = field(default_factory=list)
    worker_deaths: int = 0
    sweep_id: Optional[str] = None

    @property
    def n_runs(self) -> int:
        """Number of placements per protocol (failed cells included)."""
        return len(next(iter(self.results.values()), []))

    def totals_mbps(self, protocol: ProtocolLike) -> List[float]:
        """Per-run total network throughput of one protocol.

        ``protocol`` may be the grid key (a spec-canonical string such as
        ``"n+"`` or ``"n+[recovery=erasure]"``) or any form
        :func:`~repro.mac.variants.resolve_protocol` accepts.  Failed
        cells (``None`` in the grid) are skipped, so aggregates stay
        computable on a partially-failed sweep.
        """
        if not (isinstance(protocol, str) and protocol in self.results):
            protocol = resolve_protocol(protocol).key
        return [
            m.total_throughput_mbps() for m in self.results[protocol] if m is not None
        ]

    def link_names(self) -> List[str]:
        """The traffic-pair names of the swept scenario, in metric order."""
        for runs in self.results.values():
            for metrics in runs:
                if metrics is not None:
                    return list(metrics.links)
        return []


def _resolve_scenario(
    scenario: Union[str, Callable[[], Scenario]],
    scenario_key: Optional[str],
) -> Tuple[Callable[[], Scenario], Optional[str]]:
    """Turn a registry name or factory into ``(factory, cache key)``.

    A registry name is its own cache key.  A bare callable is only
    cacheable with an explicit ``scenario_key`` -- its arguments are not
    visible here, so guessing a key from its name could silently alias
    differently-parameterised sweeps.
    """
    if isinstance(scenario, str):
        return scenario_factory(scenario), scenario_key or scenario
    if not callable(scenario):
        raise ConfigurationError(
            f"scenario must be a registered name or a factory, got {scenario!r}"
        )
    return scenario, scenario_key


def _simulate_run(args: Tuple) -> List[Tuple]:
    """Worker entry point: simulate one placement under several protocols.

    Tasks ship run-level so the placement's network is drawn exactly once
    (one :func:`~repro.sim.runner.build_network` call) and shared by all
    the protocols that missed the cache -- the same sharing the serial
    :func:`~repro.sim.runner.run_many` loop does.  Byte-identical to
    per-cell computation either way, because every simulation reseeds its
    own RNG streams from ``mac_seed(run_seed)``.

    Returns one outcome per spec: ``("ok", metrics)`` for a completed
    cell, ``("error", error, traceback, event_ring)`` for a crashed one
    -- a crash in one protocol's simulation never fails the run's other
    cells.  Failures *before* any simulation (the scenario factory or
    the network draw) still raise and fail the whole task, because every
    cell of the run genuinely shares that cause.
    """
    factory, specs, run_seed, config = args
    scenario = factory()
    network = build_network(scenario, run_seed, config)
    outcomes = []
    for spec in specs:
        try:
            metrics = run_simulation(
                scenario,
                spec,
                seed=mac_seed(run_seed),
                config=config,
                network=network,
            )
        except Exception as exc:
            # Isolate the crash to this protocol's cell: the run's other
            # protocols are independent simulations off the same network
            # draw, and failing them too would write capsules that do
            # not reproduce.  The traceback and event ring travel as
            # plain picklable data so parallel workers ship them too.
            outcomes.append(
                (
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    _traceback.format_exc(),
                    getattr(exc, "_repro_event_ring", None),
                )
            )
        else:
            outcomes.append(("ok", metrics))
    return outcomes


def _open_cache(
    cache_dir: Union[str, Path], backend: str
) -> Union[ResultsStore, SweepCache]:
    if backend == "sqlite":
        return ResultsStore(cache_dir)
    if backend == "json":
        return SweepCache(cache_dir)
    raise ConfigurationError(
        f"unknown cache_backend {backend!r} (expected 'sqlite' or 'json')"
    )


class _InterruptRequested(KeyboardInterrupt):
    """Raised by the sweep's signal handlers to unwind to the checkpoint."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def run_sweep(
    scenario: Union[str, Callable[[], Scenario]],
    protocols: Sequence[ProtocolLike],
    n_runs: int,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    workers: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    scenario_key: Optional[str] = None,
    strict: bool = False,
    cell_timeout_s: Optional[float] = None,
    max_retries: int = 1,
    retry_backoff_s: float = 0.5,
    resume: bool = False,
    cache_backend: str = "sqlite",
    hang_timeout_s: float = 30.0,
    max_worker_requeues: int = 3,
    shrink_after_deaths: int = 3,
) -> SweepResult:
    """Sweep ``n_runs`` placements x ``protocols`` -- parallel, cached, durable.

    Byte-identical to :func:`repro.sim.runner.run_many` with the same
    ``(scenario, protocols, n_runs, seed, config)`` -- regardless of
    worker count, cell execution order, whether cells were replayed
    from the cache, or whether the sweep was interrupted and resumed.
    Retried and re-queued tasks cannot perturb results either: every
    cell is a pure function of its seeds, so a replay recomputes the
    identical metrics.

    Parameters
    ----------
    scenario:
        A registered scenario name (preferred; also keys the cache) or a
        zero-argument factory returning a :class:`Scenario`.
    protocols:
        Protocols to compare on every placement: bare names, parameterised
        strings (``"n+[recovery=erasure]"``), ``(name, params)`` pairs or
        :class:`~repro.mac.variants.ProtocolSpec` objects, freely mixed --
        so a grid can range over protocol *parameters*, e.g.
        ``[("n+", {"retry_cap": c}) for c in (1, 3, 7)]``.  Every entry is
        resolved and validated *before* any worker is spawned; an unknown
        name or unknown/ill-typed parameter raises
        :class:`~repro.exceptions.ConfigurationError` listing the
        registered variants and their parameters.  The result grid is
        keyed by each spec's canonical string
        (:attr:`~repro.mac.variants.ProtocolSpec.key` -- the bare name
        for default parameters).
    n_runs:
        Number of random placements.
    seed:
        Base seed; run ``r`` uses placement seed ``seed + 1000 * r`` (see
        :func:`repro.sim.runner.placement_seed`).  Any integer type
        (NumPy integers included) is accepted; anything else raises
        :class:`~repro.exceptions.ConfigurationError`.
    config:
        Simulation parameters; part of every cell's cache key.
    workers:
        Worker processes for uncached work.  Tasks ship run-level -- one
        task per placement covering every protocol that missed the cache,
        so each run draws its network exactly once no matter how many
        protocols are swept (when more workers than uncached runs are
        available, a run's protocols chunk across workers, each chunk
        drawing once).  ``1`` (default) simulates in-process; ``None``
        uses :func:`default_workers` (the ``REPRO_WORKERS`` override,
        else the usable cores).  Worker processes must be able to import
        :mod:`repro`, and callables passed as ``scenario`` must be
        picklable (module-level functions and :func:`functools.partial`
        of them are).
    cache_dir:
        Directory of the durable on-disk results store; ``None`` disables
        caching (and checkpointing).  Entries are invalidated by any
        change to the scenario name/structure, protocol, seed or config.
        A directory holding a legacy JSON cell cache is migrated into
        the store automatically (one shot; the JSON files are left in
        place).
    scenario_key:
        Cache key override, required to cache a bare-callable
        ``scenario``.
    strict:
        ``False`` (default): a task that still fails after retries is
        recorded in :attr:`SweepResult.failures` (its grid cells stay
        ``None``) and the sweep completes -- one pathological placement
        cannot abort an hours-long sweep.  ``True`` restores
        raise-on-failure (:class:`~repro.exceptions.SimulationError`).
    cell_timeout_s:
        Per-task timeout in seconds for the parallel path (``None``
        disables).  A timed-out task's worker is killed (not abandoned)
        and replaced; the task counts a failed attempt and is retried.
        Heartbeats keep a merely *slow* cell distinguishable from a
        *hung* worker -- see ``hang_timeout_s``.  Ignored in-process
        (``workers=1``), where a timeout cannot be enforced without a
        second process.
    max_retries:
        How many times a failed/timed-out task is retried before its
        cells are declared failed.  Retries are deterministic replays
        (same payload, same seeds), so they only help against transient
        causes -- OOM kills, timeouts on a loaded machine.
    retry_backoff_s:
        Base of the exponential backoff before retry ``k``
        (``retry_backoff_s * 2**k`` seconds); ``0`` disables it.  Never
        slept after the final failed attempt (no retry follows), and on
        the parallel path it is non-blocking (a not-before time, so
        other tasks keep flowing).
    resume:
        ``True`` requires a ``cache_dir`` (SQLite backend) holding a
        checkpoint for this exact manifest -- same scenario structure,
        protocols, ``n_runs``, ``seed`` and config -- and completes the
        cells that are not ``done`` yet.  Raises
        :class:`~repro.exceptions.ConfigurationError` when no such
        manifest was ever recorded (a typo'd grid resumes nothing).
        The result is byte-identical to running the sweep uninterrupted.
    cache_backend:
        ``"sqlite"`` (default): the durable
        :class:`~repro.sim.store.ResultsStore` with manifests,
        checkpointing and cross-sweep queries.  ``"json"``: the legacy
        flat-directory :class:`SweepCache` (no manifests, no resume).
    hang_timeout_s:
        A busy worker whose heartbeat goes stale this long is declared
        hung (SIGSTOP, deadlock -- distinct from a slow cell, which
        keeps heartbeating), killed, and replaced; the cell is
        re-queued.
    max_worker_requeues:
        Worker deaths tolerated per task before its cells fail -- the
        bound that stops a cell which reproducibly OOMs its worker from
        re-queueing forever.
    shrink_after_deaths:
        Graceful degradation: every this-many unexpected worker deaths
        permanently shrinks the pool by one worker (never below one),
        so a memory-starved machine converges to sustainable
        parallelism instead of failing the sweep.

    Durability
    ----------
    With a cache directory, the sweep records its manifest up front and
    drives every cell through ``pending -> running -> done/failed`` in
    the store.  SIGINT/SIGTERM are caught (main thread only): in-flight
    completed results are flushed, running cells are checkpointed back
    to ``pending``, the manifest is marked ``interrupted``, and the
    signal's default behaviour then proceeds (KeyboardInterrupt /
    termination).  ``resume=True`` -- or ``repro sweep --resume`` --
    picks the sweep up exactly where it stopped.

    Returns
    -------
    SweepResult
        Metrics grid plus cache-hit, failed-cell and worker-death
        accounting.
    """
    # A NumPy integer seed is an integer too, but not to json.dumps (cell
    # keys, the manifest): normalise it before anything is keyed or opened.
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ConfigurationError(f"seed must be an integer, got {seed!r}") from None
    config = config or SimulationConfig()
    factory, key = _resolve_scenario(scenario, scenario_key)
    # Fail fast: resolve every protocol entry up front, so an unknown
    # name or ill-typed parameter raises here -- with the registry
    # listing -- instead of dying inside a worker as a FailedCell.
    specs: List[ProtocolSpec] = [resolve_protocol(p) for p in protocols]
    if not specs:
        raise ConfigurationError("need at least one protocol to sweep")
    seen_keys = set()
    for spec in specs:
        if spec.key in seen_keys:
            raise ConfigurationError(
                f"duplicate protocol {spec.key!r} in the sweep grid"
            )
        seen_keys.add(spec.key)
    if n_runs < 1:
        raise ConfigurationError("need at least one run to sweep")
    # Same for the config knobs: an unknown contract, fault profile,
    # fidelity or validation mode raises here, before the manifest or
    # any cell is planned.
    instance = factory()
    for resolve in (
        effective_channel_draws,
        effective_fault_profile,
        effective_fidelity,
        effective_validation,
    ):
        resolve(instance, config)

    cache: Optional[Union[ResultsStore, SweepCache]] = None
    store: Optional[ResultsStore] = None
    fingerprint = None
    if cache_dir is not None:
        if key is None:
            raise ConfigurationError(
                "caching a factory scenario needs an explicit scenario_key"
            )
        cache = _open_cache(cache_dir, cache_backend)
        if isinstance(cache, ResultsStore):
            store = cache
        # Tie keys to the scenario's structure, not just its name, so an
        # edited scenario definition cannot replay stale cells.
        fingerprint = scenario_digest(instance)
    if resume and store is None:
        raise ConfigurationError(
            "resume=True needs a cache_dir with the SQLite results store "
            "(cache_backend='sqlite'); the store holds the checkpoint to resume"
        )

    # -- plan: every cell and its key, computed once ------------------------
    # Against a cache each cell's key is read several times (grid
    # registration, the hit scan, running/done/failed bookkeeping), so
    # the sweep keys its cells once, in one pass: a single CellKeyer
    # carries the serialised config and scenario, and each cell hashes
    # only its protocol and run seed on top.  Cells are listed run-major
    # in sweep order; without a cache nothing is keyed or looked up.
    plan: List[Tuple[int, int, ProtocolSpec, str]] = []
    params: Dict[str, dict] = {}
    config_fingerprint = None
    if cache is not None:
        keyer = CellKeyer(key, config, fingerprint)
        for run in range(n_runs):
            run_seed = placement_seed(seed, run)
            plan.extend((run, run_seed, spec, keyer(spec, run_seed)) for spec in specs)
        params = {spec.key: spec.resolved_params() for spec in specs}
        config_fingerprint = config_digest(config)
    position = {spec.key: index for index, spec in enumerate(specs)}

    def _planned_key(run: int, spec: ProtocolSpec) -> str:
        return plan[run * len(specs) + position[spec.key]][3]

    def _describe(spec: ProtocolSpec, run: int, run_seed: int) -> dict:
        return {
            "scenario": key,
            "scenario_fingerprint": fingerprint,
            "protocol": spec.key,
            "protocol_params": dict(params[spec.key]),
            "run": run,
            "run_seed": run_seed,
            "config_digest": config_fingerprint,
        }

    # -- manifest / checkpoint bookkeeping ---------------------------------
    sweep_id = None
    if store is not None:
        manifest = {
            "schema": CACHE_SCHEMA_VERSION,
            "scenario": key,
            "scenario_fingerprint": fingerprint,
            "protocols": [spec.key for spec in specs],
            "n_runs": n_runs,
            "seed": seed,
            "config": dataclasses.asdict(config),
        }
        sweep_id = sweep_manifest_digest(manifest)
        if resume and store.get_sweep(sweep_id) is None:
            raise ConfigurationError(
                f"nothing to resume: no checkpoint for this sweep manifest "
                f"(sweep_id {sweep_id[:12]}...) in {cache_dir}; run without "
                "resume=True to start it, or check that scenario/protocols/"
                "n_runs/seed/config match the interrupted invocation exactly"
            )
        # Record the full grid up front: every cell exists as a row
        # before any work starts, so an interruption at *any* point
        # leaves a store that knows exactly what remains.
        store.begin_sweep(
            sweep_id,
            manifest,
            cells=[
                (cell, _describe(spec, run, run_seed))
                for run, run_seed, spec, cell in plan
            ],
        )

    grid: Dict[str, List[Optional[NetworkMetrics]]] = {
        spec.key: [None] * n_runs for spec in specs
    }
    # One pending task per run, listing the protocol specs whose cells
    # missed the cache: the unit of work shipped to a worker.  Specs keep
    # their sweep order inside each task so results are reproducible.
    # Against the store the whole grid is prefetched in one batched
    # SELECT rather than a query per cell.
    pending: List[Tuple[int, int, List[ProtocolSpec]]] = []  # (run, run_seed, specs)
    hits = 0
    if cache is None:
        pending = [(run, placement_seed(seed, run), list(specs)) for run in range(n_runs)]
    else:
        if store is not None:
            stored = store.load_many([cell for *_, cell in plan])
        else:
            stored = {cell: cache.load(cell) for *_, cell in plan}
        for run, run_seed, spec, cell in plan:
            metrics = stored.get(cell)
            if metrics is not None:
                grid[spec.key][run] = metrics
                hits += 1
                continue
            if not pending or pending[-1][0] != run:
                pending.append((run, run_seed, []))
            pending[-1][2].append(spec)
    misses = n_runs * len(specs) - hits

    def _record(
        run: int, run_seed: int, spec: ProtocolSpec, metrics: NetworkMetrics
    ) -> None:
        grid[spec.key][run] = metrics
        if cache is not None:
            # Stored as soon as each task completes, so an interrupted or
            # partially failed sweep keeps every finished cell.
            cache.store(
                _planned_key(run, spec), metrics, describe=_describe(spec, run, run_seed)
            )

    failures: List[FailedCell] = []

    def _fail(
        run: int,
        run_seed: int,
        missing: List[ProtocolSpec],
        error: str,
        traceback_text: Optional[str] = None,
        ring: Optional[List[dict]] = None,
    ) -> None:
        if strict:
            raise SimulationError(
                f"sweep cell failed after {max_retries} retries "
                f"(run {run}, run_seed {run_seed}, "
                f"protocols {[s.key for s in missing]}): {error}"
            )
        # Capsules are written parent-side (workers only ship error
        # strings), next to the results store; without a cache directory
        # there is nowhere durable to put them.
        capsule_dir = Path(cache_dir) / CAPSULE_DIRNAME if cache_dir is not None else None
        for spec in missing:
            capsule_path: Optional[str] = None
            if capsule_dir is not None:
                try:
                    capsule = build_capsule(
                        factory(), key, fingerprint, spec, run, run_seed,
                        config, error, traceback_text=traceback_text, events=ring,
                    )
                    capsule_path = str(write_capsule(capsule, capsule_dir))
                except Exception:
                    # A capsule is a debugging aid; failing to write one
                    # must never cost the sweep its failure record.
                    capsule_path = None
            failures.append(
                FailedCell(
                    protocol=spec.key, run=run, run_seed=run_seed, error=error,
                    capsule_path=capsule_path, traceback=traceback_text,
                )
            )
            if store is not None:
                store.mark_failed(
                    _planned_key(run, spec), error, _describe(spec, run, run_seed),
                    capsule_path=capsule_path, traceback=traceback_text,
                )

    def _backoff(attempt: int) -> None:
        """Sleep the exponential backoff before retry ``attempt + 1``.

        Only ever called when a retry will actually follow -- the final
        failed attempt fails the cell immediately, without paying the
        (by then pointless) delay.
        """
        if retry_backoff_s > 0:
            time.sleep(retry_backoff_s * (2**attempt))

    n_workers = 1
    worker_deaths = 0
    interrupted: Dict[str, Optional[int]] = {"signum": None}

    def _handler(signum, frame):
        interrupted["signum"] = signum
        raise _InterruptRequested(signum)

    # Checkpointable sweeps catch SIGINT/SIGTERM so an interruption
    # flushes finished cells and records a resumable state first; the
    # signal's default behaviour proceeds afterwards.  Signal handlers
    # only work in the main thread; elsewhere the sweep simply runs
    # without them.
    handle_signals = (
        store is not None
        and pending
        and threading.current_thread() is threading.main_thread()
    )
    previous_handlers = {}
    if handle_signals:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _handler)

    try:
        if pending:
            n_requested = default_workers() if workers is None else max(1, int(workers))
            # One task normally covers all of a run's uncached protocols, so
            # the run's network is drawn once.  When more workers than
            # uncached runs are available, each run's protocol list is
            # chunked so the extra workers stay busy -- every chunk still
            # shares one network draw across its protocols, so the build
            # count only grows as far as the concurrency actually used.
            per_task = max(1, -(-misses // n_requested))  # ceil division
            tasks: List[Tuple[int, int, List[ProtocolSpec]]] = []
            for run, run_seed, missing in pending:
                for start in range(0, len(missing), per_task):
                    tasks.append((run, run_seed, missing[start : start + per_task]))
            n_workers = min(n_requested, len(tasks))
            payloads = [
                (factory, list(missing), run_seed, config)
                for _, run_seed, missing in tasks
            ]
            if n_workers > 1:
                supervisor = WorkerSupervisor(
                    _simulate_run,
                    payloads,
                    workers=n_workers,
                    task_timeout_s=cell_timeout_s,
                    max_retries=max_retries,
                    retry_backoff_s=retry_backoff_s,
                    hang_timeout_s=hang_timeout_s,
                    max_requeues=max_worker_requeues,
                    shrink_after_deaths=shrink_after_deaths,
                )
                events = supervisor.events()
                try:
                    for event in events:
                        if isinstance(event, TaskAssigned):
                            run, run_seed, missing = tasks[event.task_id]
                            if store is not None:
                                store.mark_running(
                                    [_planned_key(run, spec) for spec in missing]
                                )
                        elif isinstance(event, TaskDone):
                            run, run_seed, missing = tasks[event.task_id]
                            for spec, outcome in zip(missing, event.result):
                                if outcome[0] == "ok":
                                    _record(run, run_seed, spec, outcome[1])
                                else:
                                    _, err, err_tb, err_ring = outcome
                                    _fail(run, run_seed, [spec], err,
                                          traceback_text=err_tb, ring=err_ring)
                        elif isinstance(event, TaskFailed):
                            run, run_seed, missing = tasks[event.task_id]
                            _fail(run, run_seed, missing, event.error)
                        elif isinstance(event, WorkerDeath):
                            worker_deaths += 1
                        # TaskRetry / TaskRequeued / PoolShrunk need no
                        # bookkeeping here: the cells stay `running` until
                        # they settle, and the supervisor owns pool size.
                finally:
                    events.close()  # tears the worker pool down
            else:
                for (run, run_seed, missing), payload in zip(tasks, payloads):
                    metrics_list = None
                    error = "unknown error"
                    error_tb: Optional[str] = None
                    error_ring: Optional[List[dict]] = None
                    if store is not None:
                        store.mark_running(
                            [_planned_key(run, spec) for spec in missing]
                        )
                    for attempt in range(max_retries + 1):
                        try:
                            metrics_list = _simulate_run(payload)
                            break
                        except _InterruptRequested:
                            raise
                        except Exception as exc:
                            error = f"{type(exc).__name__}: {exc}"
                            # In-process we hold the live exception:
                            # capture the traceback and the event ring
                            # the runner boundary attached, for the
                            # crash capsule.
                            error_tb = _traceback.format_exc()
                            error_ring = getattr(exc, "_repro_event_ring", None)
                            if attempt < max_retries:
                                _backoff(attempt)
                    if metrics_list is None:
                        _fail(run, run_seed, missing, error,
                              traceback_text=error_tb, ring=error_ring)
                        continue
                    for spec, outcome in zip(missing, metrics_list):
                        if outcome[0] == "ok":
                            _record(run, run_seed, spec, outcome[1])
                        else:
                            _, err, err_tb, err_ring = outcome
                            _fail(run, run_seed, [spec], err,
                                  traceback_text=err_tb, ring=err_ring)
        if store is not None and sweep_id is not None:
            store.finish_sweep(sweep_id)
    except KeyboardInterrupt:
        # Includes _InterruptRequested from our handlers and a plain
        # Ctrl-C KeyboardInterrupt raised while no handler was installed
        # mid-cell: flush what finished (already stored cell by cell),
        # checkpoint running cells back to pending, mark the manifest
        # interrupted -- then let the signal's behaviour proceed.
        if store is not None and sweep_id is not None:
            store.checkpoint_sweep(sweep_id, status="interrupted")
        if handle_signals:
            for signum, previous in previous_handlers.items():
                signal.signal(signum, previous)
            previous_handlers = {}
        if interrupted["signum"] == signal.SIGTERM:
            # Re-deliver so the process dies with the genuine SIGTERM
            # disposition (exit status included), not an exception.
            os.kill(os.getpid(), signal.SIGTERM)
        raise KeyboardInterrupt from None
    finally:
        for signum, previous in previous_handlers.items():
            signal.signal(signum, previous)

    return SweepResult(
        results={protocol: list(column) for protocol, column in grid.items()},
        cache_hits=hits,
        cache_misses=misses,
        workers=n_workers if pending else 1,
        failures=failures,
        worker_deaths=worker_deaths,
        sweep_id=sweep_id,
    )
