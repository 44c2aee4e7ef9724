"""Sweep execution engine: process fan-out, lockstep stacking, shared caches.

The paper's headline results (Figures 6–8, Tables 1/3) are hyper-parameter
sweeps: many ε rank-clipping points and λ group-deletion points, each a full
retrain from one shared baseline.  The points are mutually independent, so a
:class:`SweepEngine` executes them as self-contained *point tasks*:

* **Process fan-out** — with ``workers >= 2`` the tasks run on a
  ``ProcessPoolExecutor`` (``fork`` start method where available, tasks
  inherited rather than pickled, one BLAS thread per worker and in the
  waiting parent); with ``workers=1`` the same task functions run inline,
  so the serial path and the parallel path execute byte-for-byte identical
  code on identical payloads.  Every payload is a pure value (network copy,
  training setup, config): no shared mutable state crosses a task boundary,
  which is what makes parallel point results bit-identical to serial ones.
  A λ sweep's ``routing_cache_stats`` on a points-mode pool are the one
  exception: each worker's routing-analysis cache starts cold, so the pool
  records more misses.
* **Lockstep stacks** — ``mode="lockstep"`` trains a λ sweep's points as
  one stacked program; on two or more usable CPUs and mini-batches of 16
  or more samples the points are cut into two contiguous stacks, the
  parent training the first, larger one while a fork-fed worker trains the
  other, and the stacks' routing counters are merged into what one shared
  cache counts.
* **Deterministic per-point seeding** — by default every point trains on the
  same data stream as the shared baseline (the paper's "points differ only in
  the swept hyper-parameter" protocol).  ``per_point_seed=True`` instead
  derives each point's seed as a pure function of ``(setup.seed, index)``
  via :func:`repro.utils.rng.derive_point_seed`, so even independently-seeded
  sweeps are reproducible regardless of execution order or process placement.
* **One evaluation per point** — point trainers carry no held-out split
  (the sweeps never report intermediate accuracies), and each finished
  point network is evaluated once through :meth:`SweepEngine.
  evaluate_networks`.
* **Structured group Lasso and routing memoization** — λ points train under
  the vectorized :class:`~repro.core.groups.CrossbarGroupLasso` and analyze
  routing through a :class:`~repro.hardware.routing.RoutingAnalysisCache`.

Every execution is supervised (:mod:`repro.experiments.resilience`): the
graph executor (:mod:`repro.experiments.graph`) runs a serial sweep one
point task per node under serial supervision and a fanned-out or lockstep
sweep as one node via :meth:`SweepEngine.map_points` /
:meth:`SweepEngine.run_strength_points` — the same task functions either
way, which is why their results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.core.config import GroupDeletionConfig, RankClippingConfig
from repro.core.group_deletion import GroupConnectionDeleter, run_lockstep_deletion
from repro.core.rank_clipping import RankClipper
from repro.exceptions import ConfigurationError
from repro.experiments.resilience import (
    RetryPolicy,
    RunMonitor,
    supervised_map,
    supervised_strength_points,
)
from repro.experiments.training import TrainingSetup
from repro.hardware.routing import RoutingAnalysisCache
from repro.nn.network import Sequential
from repro.utils.rng import derive_point_seed

TaskT = TypeVar("TaskT")
OutcomeT = TypeVar("OutcomeT")

#: Retired engine fields that stored specs and queued jobs still carry.  These
#: two never changed a result, so :meth:`SweepEngine.from_dict` drops them at
#: any value.
_RETIRED_ANY_VALUE = ("batched_eval", "start_method")

#: Retired engine fields mapped to the value whose behaviour the engine kept:
#: :meth:`SweepEngine.from_dict` drops them at that value and rejects any
#: other, which the engine can no longer run.
_RETIRED_KEPT_VALUE = {
    "memoize_routing": True,
    "structured_lasso": True,
    "inline_training_eval": False,
}


@dataclass(frozen=True)
class SweepEngine:
    """Execution policy for hyper-parameter sweeps.

    Attributes
    ----------
    workers:
        Number of worker processes for sweep points.  ``1`` (default) runs
        the point tasks inline; ``>= 2`` fans them out over a process pool
        whose workers each run single-threaded BLAS.  The tasks reach the
        workers through ``fork``, unpickled; each submission carries only a
        slot number.  The parent runs one BLAS thread while the workers run
        and restores its count after.  Point results are bit-identical
        either way.  A points-mode λ sweep's ``routing_cache_stats`` are
        not: each worker's routing-analysis cache starts cold, so the pool
        records more misses (small-scale ``figure8``, seed 0: 260 hits / 34
        misses with ``--engine-mode points --workers 2`` against 272 / 22
        serial or lockstep).  ``figure7`` registers 3 workers, one per ε
        point: on 2 CPUs its three equal points finish in about 1.5
        point-times instead of 2.  A lockstep λ sweep ignores ``workers``:
        it sizes its split by the usable CPUs and the batch (see ``mode``).
    per_point_seed:
        Derive an independent, order-insensitive seed per point instead of
        sharing the baseline's data stream across points.
    mode:
        ``"points"`` (default) executes sweep points as independent tasks
        (inline or process-fanned).  ``"lockstep"`` trains a λ sweep's
        points as a stack via
        :func:`repro.core.group_deletion.run_lockstep_deletion` — stacked
        forward/backward/SGD with per-point λ, bit-identical per point to the
        serial path.  It is the faster policy for λ grids: on a 2-core
        x86_64 box (``OPENBLAS_NUM_THREADS=2``) small-scale ``figure8`` took
        a median 12.6 s in lockstep against 14.8 s on the points path, and
        lockstep won all 10 alternating fresh-store pairs (interquartile
        range of the points runs: 1.65 s), so ``figure8`` is registered
        lockstep.  Where the process may use two or more CPUs
        (:func:`repro.utils.usable_cpus`) and can ``fork``, and the points
        train on mini-batches of 16 or more samples, the points are cut
        into two contiguous stacks: the parent trains the first,
        larger one at one BLAS thread while a fork-fed worker trains the
        other, and the stacks' routing counters merge into one cache's
        count, so the payload does not depend on the split.  For
        ``figure8`` the parent trains λ = 0.01 and 0.03 and the worker
        0.06, so the parent's larger stack finishes last instead of
        waiting on the worker; three one-point stacks on two CPUs ran
        faster, but a parent that finished first and waited cut
        perfbench's traced span coverage to 86.5% in one of four runs.
        One usable CPU, no ``fork`` or a smaller batch leaves one stack:
        below 16 samples a step is mostly per-layer call overhead that one
        stack shares across its points, and the lockstep benchmark's
        6-point LeNet at batch 8 ran 9–33% slower split.  A stack is fixed
        for its lifetime; one that is refused (e.g. active dropout) or
        fails mid-run re-runs its points serially from pristine copies.  ε
        rank-clipping sweeps always use the points path because their
        points change shape at the first clip.
    retry:
        The :class:`~repro.experiments.resilience.RetryPolicy` the supervised
        execution paths apply (retries, per-point timeouts, pool-rebuild
        budget).  Pure execution policy: retries are bit-identical to clean
        runs, so this field is excluded from spec and point fingerprints.
    """

    workers: int = 1
    per_point_seed: bool = False
    mode: str = "points"
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if not isinstance(self.retry, RetryPolicy):
            if isinstance(self.retry, Mapping):
                object.__setattr__(self, "retry", RetryPolicy.from_dict(self.retry))
            else:
                raise ConfigurationError(
                    f"retry must be a RetryPolicy or mapping, got {type(self.retry).__name__}"
                )
        if self.mode not in ("points", "lockstep"):
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; expected 'points' or 'lockstep'"
            )

    # ------------------------------------------------------- serialization
    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view of the execution policy (JSON-serializable).

        This is the encoding the declarative experiment layer
        (:mod:`repro.experiments.spec`) embeds in specs and run artifacts.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["retry"] = self.retry.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Optional[Mapping[str, object]]) -> "SweepEngine":
        """Rebuild an engine from :meth:`as_dict` output.

        Unknown keys raise :class:`ConfigurationError` so stale or typo'd
        artifacts fail loudly instead of silently running a default policy.
        Retired keys that stored specs and queued jobs still carry load when
        they name the behaviour the engine kept, and raise otherwise.
        """
        payload = dict(payload or {})
        for key in _RETIRED_ANY_VALUE:
            payload.pop(key, None)
        for key, kept in _RETIRED_KEPT_VALUE.items():
            value = payload.pop(key, kept)
            if value is not kept:
                raise ConfigurationError(
                    f"SweepEngine field {key!r} is retired: only {key}={kept!r}, "
                    f"the behaviour the engine kept, still loads (got {value!r})"
                )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown SweepEngine field(s) {unknown}; valid fields: {sorted(known)}"
            )
        return cls(**payload)

    # ------------------------------------------------------------ setups
    def point_setup(self, setup: TrainingSetup, index: int) -> TrainingSetup:
        """The training setup one sweep point should run with.

        Point trainers carry no held-out split: the sweeps never report
        intermediate accuracies, and the training trajectory is unaffected.
        """
        prepared = setup
        if self.per_point_seed:
            prepared = replace(prepared, seed=derive_point_seed(setup.seed, index))
        if prepared.evaluate_during_training:
            prepared = replace(prepared, evaluate_during_training=False)
        return prepared

    # ----------------------------------------------------------- fan-out
    def map_points(
        self,
        point_fn: Callable[[TaskT], OutcomeT],
        tasks: Iterable[TaskT],
        monitor: RunMonitor,
    ) -> Dict[int, OutcomeT]:
        """Run ``point_fn`` over every task, serially or process-fanned.

        ``point_fn`` must be a module-level function and every task a pure
        picklable value (a platform without ``fork`` pickles the tasks into
        each worker).  The serial path consumes ``tasks`` lazily, so
        generators keep only one point's payload (e.g. its network deep
        copy) alive at a time; the parallel path materializes them for the
        workers to inherit.  The tasks run under ``monitor``'s supervision
        (retry/timeout/pool-rebuild per this engine's ``retry`` policy,
        failures isolated per point); returns ``{position: outcome}`` for
        the points that succeeded.
        """
        return supervised_map(self, point_fn, tasks, monitor)

    # -------------------------------------------------------- evaluation
    def evaluate_networks(
        self, networks: Sequence[Sequential], setup: TrainingSetup
    ) -> List[float]:
        """Held-out accuracy of every network (one ``setup.evaluate`` each)."""
        return [setup.evaluate(network) for network in networks]

    # --------------------------------------------------- strength execution
    def run_strength_points(
        self, tasks: Iterable["StrengthPointTask"], monitor: RunMonitor
    ) -> Dict[int, "StrengthPointOutcome"]:
        """Execute λ group-deletion points under this engine's policy.

        ``mode="lockstep"`` trains the points as stacks (one, or two side
        by side on two or more usable CPUs and batches of 16 or more; a
        single point runs serially);
        ``mode="points"`` runs the tasks independently.
        On the serial points path, routing-analysis cache entries are
        threaded between tasks — each point starts with every entry earlier
        points discovered.  On the parallel path every worker's entries come
        back in its outcome (``routing_cache_entries``).  Supervision and the
        return value are as for :meth:`map_points`.
        """
        return supervised_strength_points(self, tasks, monitor)


# --------------------------------------------------------------- point tasks
@dataclass
class TolerancePointTask:
    """Self-contained payload for one ε rank-clipping point."""

    index: int
    tolerance: float
    network: Sequential
    setup: TrainingSetup
    config: RankClippingConfig


@dataclass
class TolerancePointOutcome:
    """What one ε point sends back to the sweep."""

    index: int
    tolerance: float
    network: Sequential
    ranks: Dict[str, int]


def run_tolerance_point(task: TolerancePointTask) -> TolerancePointOutcome:
    """Execute one ε point (module-level so process pools can import it)."""
    clipping = RankClipper(task.config).run(task.network, task.setup.trainer_factory)
    return TolerancePointOutcome(
        index=task.index,
        tolerance=task.tolerance,
        network=task.network,
        ranks=dict(clipping.final_ranks),
    )


@dataclass
class StrengthPointTask:
    """Self-contained payload for one λ group-deletion point.

    ``routing_cache_entries`` optionally seeds the point's routing-analysis
    cache with entries earlier points already computed (see
    :meth:`SweepEngine.run_strength_points`).
    """

    index: int
    strength: float
    network: Sequential
    setup: TrainingSetup
    config: GroupDeletionConfig
    record_interval: int
    routing_cache_entries: Optional[List[Tuple[tuple, int]]] = None


@dataclass
class StrengthPointOutcome:
    """What one λ point sends back to the sweep.

    ``routing_cache_entries`` carries the point's memoized routing analyses
    back to the parent so the engine can warm later points and phases.
    """

    index: int
    strength: float
    network: Sequential
    wire_fractions: Dict[str, float]
    routing_area_fractions: Dict[str, float]
    routing_cache_stats: Optional[Dict[str, int]] = None
    routing_cache_entries: Optional[List[Tuple[tuple, int]]] = None


def run_strength_point(task: StrengthPointTask) -> StrengthPointOutcome:
    """Execute one λ point (module-level so process pools can import it)."""
    cache = RoutingAnalysisCache()
    cache.merge_entries(task.routing_cache_entries)
    deleter = GroupConnectionDeleter(
        task.config, record_interval=task.record_interval, routing_cache=cache
    )
    deletion = deleter.run(task.network, task.setup.trainer_factory)
    return StrengthPointOutcome(
        index=task.index,
        strength=task.strength,
        network=task.network,
        wire_fractions=deletion.wire_fractions(),
        routing_area_fractions=deletion.routing_area_fractions(),
        routing_cache_stats=cache.stats(),
        routing_cache_entries=cache.export_entries(),
    )


# ----------------------------------------------------------- lockstep driver
def _run_lockstep_strength_points(
    tasks: List[StrengthPointTask],
) -> List[StrengthPointOutcome]:
    """Train a sweep's λ points as one lockstep stack.

    A sweep's tasks deep-copy one base network under one config whose only
    varying field is the strength, so they always stack together.  Any
    error — a stack refused at construction included — propagates to
    :func:`~repro.experiments.resilience.supervised_strength_points`, which
    re-runs the points serially from pristine copies.  The stack's routing
    cache starts empty; its counters and exported entries ride the first
    outcome.
    """
    cache = RoutingAnalysisCache()
    setups = [task.setup for task in tasks]

    def factory(networks, callbacks_per_point):
        return setups[0].lockstep_trainer_factory(
            networks, callbacks_per_point, point_setups=setups
        )

    results = run_lockstep_deletion(
        [task.network for task in tasks],
        [task.config for task in tasks],
        factory,
        record_interval=tasks[0].record_interval,
        routing_cache=cache,
    )
    stats, entries = cache.stats(), cache.export_entries()
    return [
        StrengthPointOutcome(
            index=task.index,
            strength=task.strength,
            network=result.network,
            wire_fractions=result.wire_fractions(),
            routing_area_fractions=result.routing_area_fractions(),
            routing_cache_stats=stats if slot == 0 else None,
            routing_cache_entries=entries if slot == 0 else None,
        )
        for slot, (task, result) in enumerate(zip(tasks, results))
    ]


def _merge_stack_counters(
    stacks: Sequence[Sequence[StrengthPointOutcome]],
) -> RoutingAnalysisCache:
    """Count the routing analyses of separately trained stacks as one cache would.

    Each stack's cache started empty, and its first outcome carries its
    counters and entries (:func:`_run_lockstep_strength_points`).  Returns a
    cache holding every stack's entries whose ``misses`` are the distinct
    keys among them and whose ``hits`` are all the stacks' lookups less
    those misses, and moves its counters onto the first stack's first
    outcome (the other stacks' lose theirs).  That is what one cache shared
    by every point counts as long as no cache evicts (``maxsize`` 256;
    small ``figure8`` computes 22 analyses).  A stack whose cache evicted
    exports only the keys it kept, so the merge then counts fewer misses
    than were computed and as many more hits.
    """
    cache = RoutingAnalysisCache()
    keys = set()
    lookups = 0
    for outcomes in stacks:
        first = outcomes[0]
        cache.merge_entries(first.routing_cache_entries)
        keys.update(key for key, _ in first.routing_cache_entries)
        lookups += first.routing_cache_stats["hits"] + first.routing_cache_stats["misses"]
        first.routing_cache_stats = None
    cache.misses = len(keys)
    cache.hits = lookups - cache.misses
    stacks[0][0].routing_cache_stats = cache.stats()
    return cache
