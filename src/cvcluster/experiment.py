"""Batch experiment orchestration: program trials, the mini-cluster
post-selection protocol, squeezing sweeps, and tomography-style
summaries.

Every Gaussian trial is scored by one body, :class:`_Scoring`: the
measured register's frame is resolved and the output is compared with
the compiled program's intended map.

Computed once per call: the compiled program with every matrix of its
byproduct frame, the prepared register's covariance (link noise adds
fixed variance and moves only the mean), the schedule plan
(:class:`~cvcluster.mbqc.SchedulePlan`), the intended output, and the
covariance halves of frame resolution and fidelity (the inverse frame
matrix, the resolved covariance, the determinants, the pure-or-mixed
decision and the mixed formula's factor).  Computed per trial: the
links' mean halves and kicks (with link noise), the plan's mean walk,
the frame's shift chain, the resolved mean and the fidelity's
exponential, in the arithmetic of measuring and scoring each trial from
scratch, bit for bit.

All sampling flows from a master seed through per-trial substreams, so
any trial can be replayed exactly from its index, and any recorded
outcome set can be replayed in pinned mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .cluster import ClusterGraph, _linked_register, _links, _relink_mean, _unlinked, attach
from .distortion import NoiseBudget, apply_input_noise
from .exceptions import ConfigError, InvalidOperationError
from .gaussian import (
    GaussianState,
    _add_link_noise,
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
    SchedulePlan,
    _frame_shift,
    _resolution_cov,
    _resolution_mean,
    compile_program,
    plan_schedule,
    prepare_cluster_state,
)
from .symplectic import _embed_index, controlled_phase

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


class _Scoring:
    """Scores trials of ``compiled`` whose outputs have covariance ``cov``
    against ``target``, the intended map applied to the input.

    The covariance halves of frame resolution and fidelity, which read no
    outcome, are built here once; :meth:`record` replays the mean halves
    (:func:`~cvcluster.mbqc.byproduct_frame`'s shift chain, the resolved
    mean and the fidelity's exponential) with the bits of
    ``fidelity(resolve_frame(output, byproduct_frame(...)), target)``.
    """

    def __init__(self, compiled: CompiledProgram, cov: np.ndarray, target: GaussianState):
        self.compiled, self.target_mean = compiled, target.mean
        self.resolution = _resolution_cov(compiled.frame_matrix, cov)
        self.fidelity = _fidelity_cov(self.resolution.cov, target.cov)

    def record(self, outcomes: dict[int, float], mean: np.ndarray, index: int) -> TrialRecord:
        """Resolve the frame of one trial's outcomes on its output ``mean``."""
        shift = _frame_shift(self.compiled, outcomes)
        resolved = _resolution_mean(self.resolution, mean, shift)
        return TrialRecord(
            index=index,
            outcomes=dict(outcomes),
            accepted=True,
            mean=resolved.tolist(),
            cov=self.resolution.cov.tolist(),
            fidelity=_fidelity_mean(self.fidelity, resolved - self.target_mean),
        )


class _PlannedProgram:
    """A compiled program on one input, prepared and planned once.

    ``prepare_cluster_state`` runs once, without an rng: its covariance
    is every trial's and, without link noise, so is its mean.  With it,
    each trial replays the links and kicks from the unlinked mean.  The
    plan's output covariance is scored once (:class:`_Scoring`).
    """

    def __init__(self, compiled: CompiledProgram, source: GaussianState, link_noise=(0.0, 0.0)):
        prepared = prepare_cluster_state(compiled, source, link_noise)
        self.link_noise = link_noise
        self.plan = plan_schedule(prepared.cov, compiled)
        self.target = apply_affine(source, compiled.intended)
        self.scoring = _Scoring(compiled, self.plan.cov, self.target)
        self.mean, self.links = prepared.mean, []
        if any(link_noise):
            self.mean, _ = _unlinked(compiled.graph, source, compiled.head_nodes)
            self.links = _links(compiled.graph)

    def trial(self, rng, pins: dict[int, float] | None = None, index: int = 0) -> TrialRecord:
        mean, outcomes = _relink_mean(self.mean, self.links, self.link_noise, rng), {}
        mean = self.plan.walk(mean, outcomes, rng, pins)
        return self.scoring.record(outcomes, mean, index)


def _program_trials(config: ExperimentConfig, indices) -> list[TrialRecord]:
    """The configured program's trials with the given indices; trial ``t``
    draws its link noise and outcomes from ``trial_rng(seed, t)``."""
    if config.program is None:
        raise ConfigError("running a program needs a program in the config")
    overrides = config.omega_overrides or {}
    stray = sorted(set(overrides) - set(range(len(config.program.ops))))
    if stray:
        raise ConfigError(f"omega_overrides name no instruction: {stray}")
    compiled = compile_program(config.program, config.omega, overrides)
    stray = sorted(set(config.pins) - {entry.node for entry in compiled.schedule.entries})
    if stray:
        raise ConfigError(f"pins name no measured node: {stray}")
    source = _input_state(config, config.program.n_modes)
    planned = _PlannedProgram(compiled, source, config.budget.link_variances())
    pins = config.pins or None
    return [
        planned.trial(trial_rng(config.seed, trial), pins, trial) for trial in indices
    ]


def run_program(config: ExperimentConfig) -> list[TrialRecord]:
    """Compile and execute the configured program for every trial.

    Each record holds the sampled (or pinned) outcomes and the
    frame-resolved output compared against the program's intended
    action on the input.  The register is prepared, its schedule planned
    and its scoring's covariance halves built once per call; each trial
    runs only the mean walk and the mean halves of scoring.
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
    survive.  Rejected trials are counted, not retried.  Both run on the
    compiled chain of Fourier steps, whose node ``k`` is chain node
    ``k + 1``: the straight-through arm is a program trial on it, and
    the mini-cluster is the chain without its head node, measured with
    the chain's schedule entries.  Records use the 1-based chain ids.
    """
    chain = compile_program(
        GateProgram(1, (Instruction("f", (0,)),) * (config.chain_nodes - 1)),
        config.omega,
    )
    head, first = chain.graph.node_ids[:2]
    entries = chain.schedule.entries
    attach_entries, inner_entries = entries[:2], entries[2:]
    mini_graph = ClusterGraph(chain.graph.nodes[1:], chain.graph.edges[1:])
    source = _input_state(config, 1)
    link_noise = config.budget.link_variances()

    # strategy A: full chain, measure every node before the output
    baseline = _PlannedProgram(chain, source, link_noise)
    # strategy B: detached mini-cluster, pre-measure, select, attach.  The
    # inner readouts are planned now, the attached ones and their scoring
    # at the first accepted trial; each trial replays means from the
    # unlinked zeros.
    mini = _linked_register(mini_graph, link_noise=link_noise)
    mini_links, unlinked = _links(mini_graph), np.zeros_like(mini.mean)
    inner = SchedulePlan(
        mini.cov, inner_entries, {node: i for i, node in enumerate(mini_graph.node_ids)}
    )
    k = len(inner.mode_of)
    ends = (0, inner.mode_of[first] + 1)  # the attach link, source mode first
    attach_link = [(controlled_phase(1.0), _embed_index(k + 1, 2, ends))]
    attached: SchedulePlan | None = None
    scoring: _Scoring | None = None

    baseline_records: list[TrialRecord] = []
    mini_records: list[TrialRecord] = []
    inner_magnitudes = np.zeros(config.trials)

    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial, arm=0)
        baseline_records.append(_shifted(baseline.trial(rng, index=trial)))

        rng = trial_rng(config.seed, trial, arm=1)
        outcomes: dict[int, float] = {}
        mean = inner.walk(_relink_mean(unlinked, mini_links, link_noise, rng), outcomes, rng)
        magnitude = max(abs(s) for s in outcomes.values())
        inner_magnitudes[trial] = magnitude
        if magnitude > config.window:
            mini_records.append(
                _shifted(TrialRecord(trial, outcomes, False, None, None, None))
            )
            continue
        if attached is None:
            register = GaussianState(mean, inner.cov, validate=False)  # inner's survivors
            joined = attach(source, register, [(0, ends[1] - 1)])
            _add_link_noise(joined.mean, joined.cov, ends, link_noise)
            mode_of = {node: m + 1 for node, m in inner.mode_of.items()}
            attached = SchedulePlan(joined.cov, attach_entries, {head: 0, **mode_of})
            scoring = _Scoring(chain, attached.cov, baseline.target)
        # the mean of ``attach(source, register, ...)``, then the link's kicks
        mean = np.concatenate([source.mean[:1], mean[:k], source.mean[1:], mean[k:]])
        mean = attached.walk(_relink_mean(mean, attach_link, link_noise, rng), outcomes, rng)
        mini_records.append(_shifted(scoring.record(outcomes, mean, trial)))

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
    label: str
    mean_fidelity: float
    stderr: float
    trials: int


def fidelity_vs_squeezing(
    program: GateProgram,
    omegas,
    input_states: GaussianState | Callable | None = None,
    trials: int = 1,
    sample: bool = False,
    rng: np.random.Generator | None = None,
    label: str = "program",
) -> list[SweepPoint]:
    """Frame-resolved fidelity against the intended gate, per ancilla
    width.

    Inputs may be a fixed state, a callable drawing one per trial from
    an rng, or None for vacuum.  With ``sample`` false all outcomes are
    pinned to zero, giving a deterministic distortion-only figure.  One
    ``rng`` is shared by every width and trial.
    """
    omegas = [float(w) for w in omegas]
    if not omegas:
        raise InvalidOperationError("empty squeezing sweep")
    if trials < 1:
        raise InvalidOperationError("trials must be >= 1")
    if sample and rng is None:
        raise InvalidOperationError("sampled sweeps need an rng")
    points = []
    for width in omegas:
        compiled = compile_program(program, width)
        entries = compiled.schedule.entries
        pins = None if sample else {entry.node: 0.0 for entry in entries}
        # a fixed input is prepared and planned once, a drawn one per trial
        planned = None
        if not callable(input_states):
            source = vacuum(program.n_modes) if input_states is None else input_states
            planned = _PlannedProgram(compiled, source)
        values = []
        for _ in range(trials):
            trial = planned or _PlannedProgram(compiled, input_states(rng))
            values.append(trial.trial(rng, pins).fidelity)
        summary = _summarize(values)
        points.append(
            SweepPoint(
                width, label, summary.mean_fidelity, summary.stderr, summary.trials
            )
        )
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
