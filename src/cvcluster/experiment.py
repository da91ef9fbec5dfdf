"""Batch experiment orchestration: program trials, the mini-cluster
post-selection protocol, squeezing sweeps, and tomography-style
summaries.

Every Gaussian trial, the mini-cluster arm's included, runs through one
planned program, :class:`_PlannedProgram`: the measured register's frame
is resolved and the output compared with the compiled program's intended map.

Computed once per call: the compiled program with every matrix of its
byproduct frame, the register plan (:class:`~cvcluster.cluster.RegisterPlan`:
the covariance walked once through the links, whose noise adds fixed
variance and moves only the mean, and the readouts, with every leading
noiseless link folded into the starting mean), the intended output, and
the covariance halves of frame resolution and fidelity (the inverse
frame matrix, the resolved covariance, the determinants, the
pure-or-mixed decision and the mixed formula's factor).  Computed once
per call on the stack of all its trials, one row each: the plan's mean
walk (each remaining link's map and noise kicks, each readout's rotation
and conditioning), the frame's shift chain, the resolved mean and the
fidelity's exponential, in the arithmetic of linking, measuring and
scoring each trial from scratch, bit for bit.

Program trials and both post-selection arms draw from a master seed
through per-trial substreams, each trial drawing its normals in one call,
so any trial can be replayed exactly from its index, and any recorded
outcome set in pinned mode.  The squeezing sweep instead draws every trial
of every width, in order, from the one generator its caller passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cluster import _register_plan
from .distortion import NoiseBudget, apply_input_noise
from .exceptions import ConfigError, InvalidOperationError
from .gaussian import (
    GaussianState,
    _fidelity_cov,
    _fidelity_mean,
    apply_affine,
    coherent,
    homodyne,  # noqa: F401 - unused; the benchmark tracer rebinds it here
    vacuum,
    wigner,
)
from .mbqc import (
    CompiledProgram,
    GateProgram,
    Instruction,
    _frame_shift,
    _resolution_cov,
    _resolution_mean,
    compile_program,
)

DEFAULT_WIGNER_RANGE = 5.0
DEFAULT_WIGNER_POINTS = 101
TOMOGRAPHY_STATE_CAP = 500


@dataclass
class ExperimentConfig:
    """Everything a batch run needs, with the seed always recorded."""

    program: GateProgram | None = None
    omega: float = 0.1
    omega_overrides: dict[int, float] | None = None
    budget: NoiseBudget = field(default_factory=NoiseBudget)
    trials: int = 1
    seed: int = 0
    window: float = 0.5
    chain_nodes: int = 5
    input_mean: tuple[float, float] | None = None
    pins: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.window >= 0:
            raise ConfigError("post-selection window must be >= 0")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ConfigError("omega must be positive and finite")
        if self.chain_nodes < 4:
            raise ConfigError("the chain experiment needs at least 4 nodes")
        if not np.all(np.isfinite([*(self.input_mean or ()), *self.pins.values()])):
            raise ConfigError("input_mean and pinned outcomes must be finite")
        if not all(w > 0 and np.isfinite(w) for w in (self.omega_overrides or {}).values()):
            raise ConfigError("omega_overrides must be positive and finite")


@dataclass
class TrialRecord:
    """One trial's outcomes and, when it produced output, its summary."""

    index: int
    outcomes: dict[int, float]
    accepted: bool
    mean: list[float] | None
    cov: list[list[float]] | None
    fidelity: float | None


def trial_rng(seed: int, trial: int, arm: int = 0) -> np.random.Generator:
    """Independent substream for one trial of one experiment arm."""
    return np.random.default_rng([seed, trial, arm])


def _input_state(config: ExperimentConfig, n_modes: int) -> GaussianState:
    if config.input_mean is None:
        source = vacuum(n_modes)
    else:
        if n_modes != 1:
            raise ConfigError("a coherent input mean needs a single-wire program")
        source = coherent(*config.input_mean)
    return apply_input_noise(source, config.budget)


class _PlannedProgram:
    """A compiled program on one input, planned once: ``events`` (the
    graph's links, then its schedule's readouts, by default) on the unlinked
    register (:class:`~cvcluster.cluster.RegisterPlan`), the intended output
    ``target`` and the covariance halves of frame resolution and fidelity.
    A call's trials walk and score only their means, as one stack."""

    def __init__(
        self, compiled: CompiledProgram, source: GaussianState, link_noise=(0.0, 0.0), events=None
    ):
        if events is None:
            events = compiled.graph.edges + list(compiled.schedule.entries)
        self.compiled = compiled
        self.plan = _register_plan(
            compiled.graph, events, compiled.tail_nodes, source, compiled.head_nodes, link_noise
        )
        self.target = apply_affine(source, compiled.intended)
        self.resolution = _resolution_cov(compiled.frame_matrix, self.plan.cov)
        self.fidelity = _fidelity_cov(self.resolution.cov, self.target.cov)

    def score(self, indices, outcomes: np.ndarray, means) -> list[TrialRecord]:
        """Records of trials ``indices`` from their rows of ``outcomes`` (a
        column per node of ``plan.nodes``) and of output ``means``, each with
        the bits of ``fidelity(resolve_frame(output, byproduct_frame(...)), target)``."""
        nodes = self.plan.nodes
        shift = _frame_shift(self.compiled, dict(zip(nodes, outcomes.T)))
        resolved = _resolution_mean(self.resolution, means, shift)
        fidelities = _fidelity_mean(self.fidelity, resolved - self.target.mean)
        rows = np.atleast_2d(outcomes).tolist(), np.atleast_2d(resolved).tolist()
        return [
            TrialRecord(index, dict(zip(nodes, row)), True, mean, self.resolution.cov.tolist(), value)
            for index, row, mean, value in zip(indices, *rows, np.atleast_1d(fidelities).tolist())
        ]

    def records(self, indices, normals, pins=None) -> list[TrialRecord]:
        """Trials ``indices`` as one stack, trial ``indices[t]`` drawing ``normals[t]``."""
        plan = self.plan
        start = np.broadcast_to(plan.mean, (len(indices), len(plan.mean)))
        if len(indices) == 1:  # one trial runs on plain vectors, the faster path
            start, normals = start[0], None if normals is None else normals[0]
        means, outcomes = plan.stack(start, normals, pins)
        return self.score(indices, outcomes, means)


def _trial_normals(seed: int, indices, count: int, arm: int = 0) -> np.ndarray:
    """Row t: the first ``count`` normals of trial ``indices[t]``'s substream."""
    return np.array([trial_rng(seed, trial, arm).standard_normal(count) for trial in indices])


def _program_trials(config: ExperimentConfig, indices) -> list[TrialRecord]:
    """The configured program's trials with the given indices; trial ``t``
    draws its link noise and outcomes from ``trial_rng(seed, t)``."""
    if config.program is None:
        raise ConfigError("running a program needs a program in the config")
    compiled = compile_program(config.program, config.omega, config.omega_overrides)
    stray = sorted(set(config.pins) - {entry.node for entry in compiled.schedule.entries})
    if stray:
        raise ConfigError(f"pins name no measured node: {stray}")
    source = _input_state(config, config.program.n_modes)
    planned = _PlannedProgram(compiled, source, config.budget.link_variances())
    normals = _trial_normals(config.seed, indices, planned.plan.draws(config.pins))
    return planned.records(list(indices), normals, config.pins)


def run_program(config: ExperimentConfig) -> list[TrialRecord]:
    """Compile and execute the configured program for every trial.

    Each record holds the sampled (or pinned) outcomes and the
    frame-resolved output compared against the program's intended
    action on the input.  The register is prepared, its schedule planned
    and its scoring's covariance halves built once per call; the trials
    run only the mean walk and the mean halves of scoring, as one stack.
    """
    return _program_trials(config, range(config.trials))


def replay_trial(config: ExperimentConfig, record: TrialRecord) -> TrialRecord:
    """Re-run one trial with every outcome pinned from its record, on the
    same substream, so its link-noise kicks are redrawn exactly."""
    pinned = replace(config, pins=dict(record.outcomes))
    return _program_trials(pinned, [record.index])[0]


@dataclass(frozen=True)
class StrategySummary:
    mean_fidelity: float
    stderr: float
    trials: int


@dataclass
class PostSelectionSummary:
    """Comparison of the straight-through and mini-cluster strategies."""

    baseline: StrategySummary
    selected: StrategySummary
    acceptance_rate: float
    accepted_trials: int
    no_accepts: bool
    window: float
    omega: float
    trials: int
    seed: int
    acceptance_curve: list[tuple[float, float]]
    baseline_records: list[TrialRecord]
    mini_records: list[TrialRecord]


def _summarize(values: list[float]) -> StrategySummary:
    if not values:
        return StrategySummary(math.nan, math.nan, 0)
    array = np.asarray(values)
    stderr = float(array.std(ddof=1) / np.sqrt(array.size)) if array.size > 1 else 0.0
    return StrategySummary(float(array.mean()), stderr, array.size)


def _shifted(record: TrialRecord) -> TrialRecord:
    """Shift a chain record to 1-based node ids, in measurement order."""
    record.outcomes = {node + 1: s for node, s in record.outcomes.items()}
    return record


def run_postselection_experiment(config: ExperimentConfig) -> PostSelectionSummary:
    """The five-node comparison: measure straight down the full chain,
    versus pre-measuring the detached mini-cluster, keeping only small
    outcomes, and attaching the input afterwards.

    Both strategies teleport the node-1 input to the final node through
    the same number of steps; post-selection changes only which trials
    survive.  Rejected trials are counted, not retried.  Both are planned
    programs on the compiled chain of Fourier steps, whose node ``k`` is
    chain node ``k + 1``; the mini arm's events are the chain's with the
    input's link and nodes 1 and 2 read after the inner readouts, and only
    its accepted trials are scored.  Records use the 1-based chain ids.
    The chain reads no ``pins`` or ``omega_overrides``; a config that sets
    them raises :class:`ConfigError`.
    """
    if config.pins or config.omega_overrides:
        raise ConfigError("the chain experiment reads no pins or omega_overrides")
    chain = compile_program(
        GateProgram(1, (Instruction("f", (0,)),) * (config.chain_nodes - 1)),
        config.omega,
    )
    edges, entries = chain.graph.edges, list(chain.schedule.entries)
    source = _input_state(config, 1)
    link_noise = config.budget.link_variances()

    # strategy A: full chain, measure every node before the output
    baseline = _PlannedProgram(chain, source, link_noise)
    # strategy B: the chain with the input's link held back: link and read
    # the inner nodes, select, then link the input and read nodes 1 and 2
    mini = _PlannedProgram(
        chain, source, link_noise, edges[1:] + entries[2:] + edges[:1] + entries[:2]
    )

    trials = range(config.trials)
    normals = _trial_normals(config.seed, trials, baseline.plan.draws())
    baseline_records = [_shifted(record) for record in baseline.records(trials, normals)]

    # every trial walks the whole plan as one stack; only the accepted are scored
    normals = _trial_normals(config.seed, trials, mini.plan.draws(), arm=1)
    start = np.broadcast_to(mini.plan.mean, (config.trials, len(mini.plan.mean)))
    means, outcomes = mini.plan.stack(start, normals)
    inner = config.chain_nodes - 3
    inner_magnitudes = np.abs(outcomes[:, :inner]).max(axis=1)
    rows = np.flatnonzero(inner_magnitudes <= config.window)
    mini_records = [
        TrialRecord(trial, dict(zip(mini.plan.nodes, row)), False, None, None, None)
        for trial, row in enumerate(outcomes[:, :inner].tolist())
    ]
    for record in mini.score(rows.tolist(), outcomes[rows], means[rows]):
        mini_records[record.index] = record
    mini_records = [_shifted(record) for record in mini_records]

    curve_grid = np.linspace(0.05, 5.0, 25)
    curve = [
        (float(w), float(np.mean(inner_magnitudes <= w))) for w in curve_grid
    ]
    if math.isfinite(config.window):
        curve.append((config.window, float(np.mean(inner_magnitudes <= config.window))))
        curve.sort()
    selected = [record.fidelity for record in mini_records if record.accepted]
    accepted = len(selected)
    return PostSelectionSummary(
        baseline=_summarize([record.fidelity for record in baseline_records]),
        selected=_summarize(selected),
        acceptance_rate=accepted / config.trials,
        accepted_trials=accepted,
        no_accepts=accepted == 0,
        window=config.window,
        omega=config.omega,
        trials=config.trials,
        seed=config.seed,
        acceptance_curve=curve,
        baseline_records=baseline_records,
        mini_records=mini_records,
    )


class SweepPoint(NamedTuple):
    omega: float
    mean_fidelity: float
    stderr: float
    trials: int


def fidelity_vs_squeezing(
    program: GateProgram,
    omegas,
    *,
    trials: int = 1,
    rng: np.random.Generator | None = None,
) -> list[SweepPoint]:
    """Frame-resolved fidelity of ``program`` on a vacuum input against
    its intended gate, per ancilla width.

    Without ``rng`` every outcome is pinned to zero, giving a deterministic
    distortion-only figure.  With one, every trial of every width draws its
    outcomes in order from that one shared ``rng``, not from per-trial
    substreams, so a trial cannot be replayed from its index alone.
    """
    omegas = [float(w) for w in omegas]
    if not omegas:
        raise InvalidOperationError("empty squeezing sweep")
    if trials < 1:
        raise InvalidOperationError("trials must be >= 1")
    source = vacuum(program.n_modes)
    points = []
    for width in omegas:
        compiled = compile_program(program, width)
        planned = _PlannedProgram(compiled, source)
        pins = {entry.node: 0.0 for entry in compiled.schedule.entries} if rng is None else None
        normals = None if rng is None else rng.standard_normal((trials, planned.plan.draws()))
        records = planned.records(range(trials), normals, pins)
        summary = _summarize([record.fidelity for record in records])
        points.append(SweepPoint(width, summary.mean_fidelity, summary.stderr, summary.trials))
    return points


@dataclass
class TomographySummary:
    """Sample statistics of an ensemble of single-mode outputs."""

    mean: np.ndarray
    cov_of_means: np.ndarray
    q_values: np.ndarray
    p_values: np.ndarray
    wigner: np.ndarray


def tomography_summary(
    states: list[GaussianState],
    grid_range: float = DEFAULT_WIGNER_RANGE,
    grid_points: int = DEFAULT_WIGNER_POINTS,
) -> TomographySummary:
    """Empirical moments of trial outputs plus their averaged
    phase-space density."""
    if len(states) < 2:
        raise InvalidOperationError("tomography needs at least two states")
    if any(state.n_modes != 1 for state in states):
        raise InvalidOperationError("tomography expects single-mode states")
    means = np.stack([state.mean for state in states])
    q_values = np.linspace(-grid_range, grid_range, grid_points)
    p_values = np.linspace(-grid_range, grid_range, grid_points)
    subset = states[:TOMOGRAPHY_STATE_CAP]
    grid = np.zeros((grid_points, grid_points))
    for state in subset:
        grid += wigner(state, q_values, p_values)
    grid /= len(subset)
    return TomographySummary(
        mean=means.mean(axis=0),
        cov_of_means=np.cov(means.T, ddof=1),
        q_values=q_values,
        p_values=p_values,
        wigner=grid,
    )
