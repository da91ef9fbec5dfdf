"""Batch experiment orchestration: program trials, the mini-cluster
post-selection protocol, squeezing sweeps, and tomography-style
summaries.

Every Gaussian trial runs through one body, :func:`_run_trial`: a
prepared register goes through ``run_schedule`` and ``resolve_frame``
and is compared with the compiled program's intended map.

All sampling flows from a master seed through per-trial substreams, so
any trial can be replayed exactly from its index, and any recorded
outcome set can be replayed in pinned mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .distortion import NoiseBudget, apply_input_noise, apply_qnd_noise
from .exceptions import ConfigError, InvalidOperationError
from .gaussian import (
    GaussianState,
    apply_affine,
    coherent,
    fidelity,
    homodyne,
    squeezed_vacuum_p,
    vacuum,
    wigner,
)
from .mbqc import (
    CompiledProgram,
    GateProgram,
    Instruction,
    byproduct_frame,
    compile_program,
    prepare_cluster_state,
    resolve_frame,
    run_schedule,
)
from .symplectic import controlled_phase

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
    accept: Callable[[dict[int, float]], bool] | None = None

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


def _run_trial(
    compiled: CompiledProgram,
    prepared: GaussianState,
    source: GaussianState,
    rng: np.random.Generator | None = None,
    pins: dict[int, float] | None = None,
    index: int = 0,
) -> TrialRecord:
    """Measure a prepared register, resolve its frame, and compare the
    output with the intended map applied to the input ``source``."""
    result = run_schedule(prepared, compiled, rng=rng, pins=pins)
    resolved = resolve_frame(result.state, result.frame)
    value = fidelity(resolved, apply_affine(source, compiled.intended))
    return TrialRecord(
        index=index,
        outcomes=dict(result.outcomes),
        accepted=True,
        mean=resolved.mean.tolist(),
        cov=resolved.cov.tolist(),
        fidelity=float(value),
    )


def run_program(config: ExperimentConfig) -> list[TrialRecord]:
    """Compile and execute the configured program for every trial.

    Each record holds the sampled (or pinned) outcomes and the
    frame-resolved output compared against the program's intended
    action on the input.
    """
    if config.program is None:
        raise ConfigError("run_program needs a program in the config")
    compiled = compile_program(config.program, config.omega, config.omega_overrides)
    records = []
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        source = _input_state(config, config.program.n_modes)
        prepared = prepare_cluster_state(compiled, source)
        if not config.budget.is_zero:
            for a, b, _ in compiled.graph.edges:
                prepared = apply_qnd_noise(
                    prepared,
                    1,
                    config.budget,
                    rng,
                    [compiled.graph.mode_index(a), compiled.graph.mode_index(b)],
                )
        records.append(
            _run_trial(compiled, prepared, source, rng, config.pins or None, trial)
        )
    return records


def replay_trial(config: ExperimentConfig, record: TrialRecord) -> TrialRecord:
    """Re-run one trial with every outcome pinned from its record."""
    if config.program is None:
        raise ConfigError("replay needs a program in the config")
    single = replace(config, trials=1, pins=dict(record.outcomes))
    return replace(run_program(single)[0], index=record.index)


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


def _measure_momentum(state, mode_of, node, rng):
    result = homodyne(state, mode_of[node], math.pi / 2.0, rng=rng)
    mode_of.pop(node)
    updated = {n: result.relabel[i] for n, i in mode_of.items()}
    return result.outcome, result.state, updated


def _linked(state, mode_a, mode_b, budget, rng):
    state = apply_affine(state, controlled_phase(1.0), [mode_a, mode_b])
    if not budget.is_zero:
        state = apply_qnd_noise(state, 1, budget, rng, [mode_a, mode_b])
    return state


def _linked_line(first, extra, omega, budget, rng):
    """``first`` followed by ``extra`` squeezed nodes, linked in a line
    with each link's noise added right after that link."""
    state = first
    for _ in range(extra):
        state = state.tensor(squeezed_vacuum_p(omega))
    for mode in range(extra):
        state = _linked(state, mode, mode + 1, budget, rng)
    return state


def run_postselection_experiment(config: ExperimentConfig) -> PostSelectionSummary:
    """The five-node comparison: measure straight down the full chain,
    versus pre-measuring the detached mini-cluster, keeping only small
    outcomes, and attaching the input afterwards.

    Both strategies teleport the node-1 input to the final node through
    the same number of steps; post-selection changes only which trials
    survive.  Rejected trials are counted, not retried.  Both share the
    compiled chain of Fourier steps, whose node ``k`` is chain node
    ``k + 1``; the straight-through arm runs on it as a program trial.
    """
    n = config.chain_nodes
    node_ids = list(range(1, n + 1))
    inner = node_ids[2:-1]  # pre-measured mini-cluster nodes
    chain = compile_program(
        GateProgram(1, (Instruction("f", (0,)),) * (n - 1)), config.omega
    )

    def default_accept(outcomes: dict[int, float]) -> bool:
        return all(abs(outcomes[node]) <= config.window for node in inner)

    accept = config.accept or default_accept

    baseline_records: list[TrialRecord] = []
    mini_records: list[TrialRecord] = []
    baseline_fidelities: list[float] = []
    selected_fidelities: list[float] = []
    inner_magnitudes = np.zeros(config.trials)

    for trial in range(config.trials):
        # strategy A: full chain, measure every node before the output
        rng = trial_rng(config.seed, trial, arm=0)
        source = _input_state(config, 1)
        state = _linked_line(source, n - 1, config.omega, config.budget, rng)
        record = _run_trial(chain, state, source, rng, index=trial)
        record.outcomes = {node + 1: s for node, s in record.outcomes.items()}
        baseline_fidelities.append(record.fidelity)
        baseline_records.append(record)

        # strategy B: detached mini-cluster, pre-measure, select, attach
        rng = trial_rng(config.seed, trial, arm=1)
        source = _input_state(config, 1)
        mini_nodes = node_ids[1:]
        state = _linked_line(
            squeezed_vacuum_p(config.omega), n - 2, config.omega, config.budget, rng
        )
        mode_of = {node: i for i, node in enumerate(mini_nodes)}
        outcomes: dict[int, float] = {}
        for node in inner:
            outcomes[node], state, mode_of = _measure_momentum(
                state, mode_of, node, rng
            )
        inner_magnitudes[trial] = max(abs(outcomes[node]) for node in inner)
        if not accept(outcomes):
            mini_records.append(TrialRecord(trial, outcomes, False, None, None, None))
            continue
        state = source.tensor(state)
        mode_of = {node: idx + 1 for node, idx in mode_of.items()}
        mode_of[node_ids[0]] = 0
        state = _linked(
            state, mode_of[node_ids[0]], mode_of[node_ids[1]], config.budget, rng
        )
        for node in node_ids[:2]:
            outcomes[node], state, mode_of = _measure_momentum(
                state, mode_of, node, rng
            )
        chain_outcomes = {node - 1: outcomes[node] for node in node_ids[:-1]}
        frame = byproduct_frame(chain, chain_outcomes)
        resolved = resolve_frame(state, frame)
        value = float(fidelity(resolved, apply_affine(source, chain.intended)))
        selected_fidelities.append(value)
        mini_records.append(
            TrialRecord(
                trial, outcomes, True, resolved.mean.tolist(), resolved.cov.tolist(), value
            )
        )

    curve_grid = np.linspace(0.05, 5.0, 25)
    curve = [
        (float(w), float(np.mean(inner_magnitudes <= w))) for w in curve_grid
    ]
    if math.isfinite(config.window):
        curve.append((config.window, float(np.mean(inner_magnitudes <= config.window))))
        curve.sort()
    accepted = len(selected_fidelities)
    return PostSelectionSummary(
        baseline=_summarize(baseline_fidelities),
        selected=_summarize(selected_fidelities),
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
