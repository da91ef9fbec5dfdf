"""Batch experiment orchestration: program trials, the mini-cluster
post-selection protocol, squeezing sweeps, and tomography-style
summaries.

Every Gaussian trial is scored by one body, :func:`_score`: the
measured register's frame is resolved and the output is compared with
the compiled program's intended map.

All sampling flows from a master seed through per-trial substreams, so
any trial can be replayed exactly from its index, and any recorded
outcome set can be replayed in pinned mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .cluster import ClusterGraph, _linked_register, attach
from .distortion import NoiseBudget, apply_input_noise
from .exceptions import ConfigError, InvalidOperationError
from .gaussian import (
    GaussianState,
    _add_link_noise,
    apply_affine,
    coherent,
    fidelity,
    homodyne,  # noqa: F401 - unused; the benchmark tracer rebinds it here
    vacuum,
    wigner,
)
from .mbqc import (
    CompiledProgram,
    GateProgram,
    Instruction,
    RunResult,
    byproduct_frame,
    compile_program,
    measure_entries,
    prepare_cluster_state,
    resolve_frame,
    run_schedule,
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
        if not self.window >= 0:
            raise ConfigError("post-selection window must be >= 0")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ConfigError("omega must be positive and finite")
        if self.chain_nodes < 4:
            raise ConfigError("the chain experiment needs at least 4 nodes")


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


def _score(
    compiled: CompiledProgram, run: RunResult, source: GaussianState, index: int
) -> TrialRecord:
    """Resolve a run's frame and compare its output with the intended
    map applied to the input ``source``."""
    resolved = resolve_frame(run.state, run.frame)
    value = fidelity(resolved, apply_affine(source, compiled.intended))
    return TrialRecord(
        index=index,
        outcomes=dict(run.outcomes),
        accepted=True,
        mean=resolved.mean.tolist(),
        cov=resolved.cov.tolist(),
        fidelity=float(value),
    )


def _run_trial(
    compiled: CompiledProgram,
    prepared: GaussianState,
    source: GaussianState,
    rng: np.random.Generator | None = None,
    pins: dict[int, float] | None = None,
    index: int = 0,
) -> TrialRecord:
    """Measure a prepared register through its whole schedule and score it."""
    run = run_schedule(prepared, compiled, rng=rng, pins=pins)
    return _score(compiled, run, source, index)


def _program_trials(config: ExperimentConfig, indices) -> list[TrialRecord]:
    """The configured program's trials with the given indices; trial ``t``
    draws its link noise and outcomes from ``trial_rng(seed, t)``."""
    if config.program is None:
        raise ConfigError("running a program needs a program in the config")
    compiled = compile_program(config.program, config.omega, config.omega_overrides)
    source = _input_state(config, config.program.n_modes)
    link_noise = config.budget.link_variances()
    records = []
    for trial in indices:
        rng = trial_rng(config.seed, trial)
        prepared = prepare_cluster_state(compiled, source, link_noise, rng)
        records.append(
            _run_trial(compiled, prepared, source, rng, config.pins or None, trial)
        )
    return records


def run_program(config: ExperimentConfig) -> list[TrialRecord]:
    """Compile and execute the configured program for every trial.

    Each record holds the sampled (or pinned) outcomes and the
    frame-resolved output compared against the program's intended
    action on the input.
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

    baseline_records: list[TrialRecord] = []
    mini_records: list[TrialRecord] = []
    inner_magnitudes = np.zeros(config.trials)

    for trial in range(config.trials):
        # strategy A: full chain, measure every node before the output
        rng = trial_rng(config.seed, trial, arm=0)
        prepared = prepare_cluster_state(chain, source, link_noise, rng)
        record = _run_trial(chain, prepared, source, rng, index=trial)
        baseline_records.append(_shifted(record))

        # strategy B: detached mini-cluster, pre-measure, select, attach
        rng = trial_rng(config.seed, trial, arm=1)
        state = _linked_register(mini_graph, link_noise=link_noise, rng=rng)
        mode_of = {node: i for i, node in enumerate(mini_graph.node_ids)}
        outcomes: dict[int, float] = {}
        state, mode_of = measure_entries(state, mode_of, inner_entries, outcomes, rng)
        magnitude = max(abs(s) for s in outcomes.values())
        inner_magnitudes[trial] = magnitude
        if magnitude > config.window:
            mini_records.append(
                _shifted(TrialRecord(trial, outcomes, False, None, None, None))
            )
            continue
        state = attach(source, state, [(0, mode_of[first])])
        mode_of = {node: idx + 1 for node, idx in mode_of.items()}
        mode_of[head] = 0
        _add_link_noise(state.mean, state.cov, (0, mode_of[first]), link_noise, rng)
        state, _ = measure_entries(state, mode_of, attach_entries, outcomes, rng)
        run = RunResult(outcomes, state, byproduct_frame(chain, outcomes), ())
        mini_records.append(_shifted(_score(chain, run, source, trial)))

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
        values = []
        for _ in range(trials):
            if input_states is None:
                source = vacuum(program.n_modes)
            elif callable(input_states):
                source = input_states(rng)
            else:
                source = input_states
            prepared = prepare_cluster_state(compiled, source)
            values.append(_run_trial(compiled, prepared, source, rng, pins).fidelity)
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
