"""Batch trials, the mini-cluster post-selection protocol, replay, and
tomography summaries."""

import math

import numpy as np
import pytest

from cvcluster.distortion import NoiseBudget, apply_input_noise, apply_qnd_noise
from cvcluster.exceptions import ConfigError, InvalidOperationError
from cvcluster.experiment import (
    ExperimentConfig,
    _run_trial,
    fidelity_vs_squeezing,
    run_postselection_experiment,
    run_program,
    replay_trial,
    tomography_summary,
    trial_rng,
)
from cvcluster.gaussian import apply_affine, coherent, squeezed_vacuum_p, vacuum
from cvcluster.mbqc import (
    GateProgram,
    Instruction,
    compile_program,
    prepare_cluster_state,
)
from cvcluster.symplectic import controlled_phase

from conftest import fourier_wire


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(window=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(window=float("nan"))
    with pytest.raises(ConfigError):
        ExperimentConfig(omega=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(omega=float("inf"))
    with pytest.raises(ConfigError):
        ExperimentConfig(chain_nodes=3)
    assert ExperimentConfig(window=0.0).window == 0.0


def test_trial_rng_substreams_are_independent_and_stable():
    first = trial_rng(5, 0).normal()
    assert trial_rng(5, 0).normal() == first
    assert trial_rng(5, 1).normal() != first
    assert trial_rng(5, 0, arm=1).normal() != first


def test_empty_program_trial_is_perfect():
    config = ExperimentConfig(program=GateProgram(1, ()), trials=1)
    record = run_program(config)[0]
    assert record.outcomes == {}
    assert record.accepted
    assert record.fidelity == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(record.mean, [0.0, 0.0], atol=1e-12)


def test_pinned_wire_trial_reaches_target_fidelity():
    config = ExperimentConfig(
        program=fourier_wire(1),
        omega=0.01,
        pins={0: 0.0},
        input_mean=(0.5, -0.3),
    )
    record = run_program(config)[0]
    assert record.fidelity > 0.999


def test_run_program_requires_a_program():
    with pytest.raises(ConfigError):
        run_program(ExperimentConfig())


def test_coherent_input_needs_a_single_wire():
    program = GateProgram(2, (Instruction("cz", (0, 1)),))
    with pytest.raises(ConfigError):
        run_program(ExperimentConfig(program=program, input_mean=(0.1, 0.2)))


def test_same_config_runs_are_bit_identical():
    config = ExperimentConfig(
        program=fourier_wire(2), omega=0.3, trials=4, seed=17
    )
    first = run_program(config)
    second = run_program(config)
    for a, b in zip(first, second):
        assert a.outcomes == b.outcomes
        assert a.fidelity == b.fidelity
        assert a.mean == b.mean
        assert a.cov == b.cov


def test_replay_reproduces_a_recorded_trial():
    config = ExperimentConfig(
        program=fourier_wire(2), omega=0.3, trials=3, seed=23
    )
    records = run_program(config)
    replayed = replay_trial(config, records[1])
    assert replayed.outcomes == records[1].outcomes
    assert replayed.mean == records[1].mean
    assert replayed.cov == records[1].cov
    assert replayed.fidelity == records[1].fidelity


def test_noise_budgets_degrade_the_run():
    config = ExperimentConfig(
        program=fourier_wire(2),
        omega=0.1,
        trials=2,
        seed=3,
        budget=NoiseBudget(per_link_variance=0.05, input_excess_variance=0.02),
    )
    for record in run_program(config):
        assert 0.0 < record.fidelity < 0.999
        assert np.isfinite(record.fidelity)


def test_postselection_summary_accounting():
    config = ExperimentConfig(omega=0.3, window=2.0, trials=100, seed=7)
    summary = run_postselection_experiment(config)
    assert summary.trials == 100
    assert summary.baseline.trials == 100
    assert len(summary.baseline_records) == 100
    assert len(summary.mini_records) == 100
    accepted = [r for r in summary.mini_records if r.accepted]
    assert summary.accepted_trials == len(accepted)
    assert summary.selected.trials == len(accepted)
    assert summary.acceptance_rate == pytest.approx(len(accepted) / 100)
    assert not summary.no_accepts
    for record in summary.mini_records:
        if not record.accepted:
            assert record.fidelity is None
            assert record.mean is None
    rates = [rate for _, rate in summary.acceptance_curve]
    widths = [w for w, _ in summary.acceptance_curve]
    assert widths == sorted(widths)
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    assert any(w == pytest.approx(2.0) for w in widths)


def test_zero_window_rejects_every_trial():
    config = ExperimentConfig(omega=0.3, window=0.0, trials=10, seed=9)
    summary = run_postselection_experiment(config)
    assert summary.no_accepts
    assert summary.accepted_trials == 0
    assert summary.acceptance_rate == 0.0
    assert math.isnan(summary.selected.mean_fidelity)


def test_always_accepting_matches_an_infinite_window():
    wide = run_postselection_experiment(
        ExperimentConfig(omega=0.3, window=math.inf, trials=60, seed=13)
    )
    custom = run_postselection_experiment(
        ExperimentConfig(omega=0.3, trials=60, seed=13, accept=lambda o: True)
    )
    assert wide.acceptance_rate == 1.0
    assert custom.acceptance_rate == 1.0
    assert custom.selected.mean_fidelity == wide.selected.mean_fidelity


def test_accept_all_strategies_agree_in_distribution():
    summary = run_postselection_experiment(
        ExperimentConfig(omega=0.3, window=math.inf, trials=400, seed=11)
    )
    gap = abs(summary.selected.mean_fidelity - summary.baseline.mean_fidelity)
    spread = math.hypot(summary.selected.stderr, summary.baseline.stderr)
    assert gap < 5.0 * spread


@pytest.mark.parametrize(
    "budget",
    [NoiseBudget(), NoiseBudget(per_link_variance=0.01, input_excess_variance=0.02)],
)
def test_baseline_arm_is_a_compiled_fourier_chain_trial(budget):
    omega = 0.3
    chain = compile_program(fourier_wire(4), omega)
    for seed in (0, 5, 21):
        config = ExperimentConfig(omega=omega, trials=3, seed=seed, budget=budget)
        baseline = run_postselection_experiment(config).baseline_records
        for trial, record in enumerate(baseline):
            rng = trial_rng(seed, trial, 0)
            source = apply_input_noise(vacuum(1), budget)
            if budget.is_zero:
                register = prepare_cluster_state(chain, source)
            else:
                # each link's noise lands right after that link
                register = source
                for _ in range(4):
                    register = register.tensor(squeezed_vacuum_p(omega))
                for a, b, weight in chain.graph.edges:
                    register = apply_affine(register, controlled_phase(weight), [a, b])
                    register = apply_qnd_noise(register, 1, budget, rng, [a, b])
            expected = _run_trial(chain, register, source, rng, index=trial)
            expected.outcomes = {node + 1: s for node, s in expected.outcomes.items()}
            assert record == expected


def test_run_program_adds_each_links_noise_in_edge_order():
    program = GateProgram(
        2,
        (
            Instruction("cz", (0, 1)),
            Instruction("p", (0,), (0.5,)),
            Instruction("f", (1,)),
        ),
    )
    budget = NoiseBudget(per_link_variance=0.01)
    config = ExperimentConfig(program=program, omega=0.3, trials=3, seed=9, budget=budget)
    compiled = compile_program(program, 0.3)
    graph = compiled.graph
    for trial, record in enumerate(run_program(config)):
        rng = trial_rng(9, trial)
        register = prepare_cluster_state(compiled, vacuum(2))
        for a, b, _ in graph.edges:
            modes = [graph.mode_index(a), graph.mode_index(b)]
            register = apply_qnd_noise(register, 1, budget, rng, modes)
        assert record == _run_trial(compiled, register, vacuum(2), rng, index=trial)


def test_shorter_wires_carry_less_distortion():
    two, four = fidelity_vs_squeezing(fourier_wire(2), [0.3]), fidelity_vs_squeezing(
        fourier_wire(4), [0.3]
    )
    assert two[0].mean_fidelity > four[0].mean_fidelity + 1e-5


def test_tomography_requires_a_workable_ensemble():
    with pytest.raises(InvalidOperationError):
        tomography_summary([vacuum(1)])
    with pytest.raises(InvalidOperationError):
        tomography_summary([vacuum(2), vacuum(2)])


def test_tomography_of_identical_states():
    states = [coherent(0.4, -0.2) for _ in range(5)]
    summary = tomography_summary(states, grid_range=6.0, grid_points=121)
    np.testing.assert_allclose(summary.mean, [0.4, -0.2], atol=1e-12)
    np.testing.assert_allclose(summary.cov_of_means, np.zeros((2, 2)), atol=1e-12)
    step = summary.q_values[1] - summary.q_values[0]
    assert summary.wigner.sum() * step * step == pytest.approx(1.0, abs=1e-3)
    assert summary.wigner.max() == pytest.approx(1.0 / np.pi, abs=1e-6)
