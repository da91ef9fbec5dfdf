"""Batch trials, the mini-cluster post-selection protocol, replay, and
tomography summaries."""

import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcluster.distortion import NoiseBudget, apply_input_noise, apply_qnd_noise
from cvcluster.exceptions import ConfigError, InvalidOperationError
from cvcluster.experiment import (
    ExperimentConfig,
    TrialRecord,
    _input_state,
    _summarize,
    fidelity_vs_squeezing,
    run_postselection_experiment,
    run_program,
    replay_trial,
    tomography_summary,
    trial_rng,
)
from cvcluster.gaussian import (
    apply_affine,
    coherent,
    fidelity,
    homodyne,
    squeezed_vacuum_p,
    vacuum,
)
from cvcluster.mbqc import (
    ByproductFrame,
    GateProgram,
    Instruction,
    _byproduct,
    byproduct_frame,
    compile_program,
    instruction_affine,
    intended_affine,
    prepare_cluster_state,
    resolve_frame,
    run_schedule,
)
from cvcluster.symplectic import SymplecticAffine, controlled_phase, symplectic_form

from conftest import fourier_wire


def _scored_trial(compiled, register, source, rng=None, pins=None, index=0):
    """One trial measured and scored through the public chain: the whole
    schedule on the prepared register, its frame resolved, and the output
    compared with the intended map applied to ``source``."""
    run = run_schedule(register, compiled, rng=rng, pins=pins)
    resolved = resolve_frame(run.state, run.frame)
    value = fidelity(resolved, apply_affine(source, compiled.intended))
    return TrialRecord(
        index, run.outcomes, True, resolved.mean.tolist(), resolved.cov.tolist(), value
    )


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
    for changes in (
        {"pins": {0: math.nan}},
        {"pins": {0: math.inf}},
        {"input_mean": (math.nan, 0.0)},
        {"omega_overrides": {0: 0.0}},
        {"omega_overrides": {0: math.inf}},
    ):
        with pytest.raises(ConfigError, match="must be"):
            ExperimentConfig(**changes)
    assert ExperimentConfig(window=0.0).window == 0.0


def test_run_and_replay_reject_what_the_program_never_reads():
    config = ExperimentConfig(program=fourier_wire(2))
    record = run_program(config)[0]
    with pytest.raises(ConfigError, match="pins name no measured node"):
        run_program(replace(config, pins={7: 0.5}))
    with pytest.raises(ConfigError, match="omega_overrides name no instruction"):
        run_program(replace(config, omega_overrides={-1: 0.5}))
    with pytest.raises(ConfigError, match="omega_overrides name no instruction"):
        replay_trial(replace(config, omega_overrides={2: 0.5}), record)


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


NOISY = NoiseBudget(per_link_variance=0.01, input_excess_variance=0.02)


def test_replay_reproduces_every_trial_of_a_noisy_run():
    # each trial's link-noise kicks come from its own substream
    config = ExperimentConfig(
        program=fourier_wire(2),
        omega=0.3,
        trials=3,
        seed=2026,
        budget=NoiseBudget(per_link_variance=0.01),
    )
    for record in run_program(config):
        assert replay_trial(config, record) == record


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


def test_accept_all_strategies_agree_in_distribution():
    summary = run_postselection_experiment(
        ExperimentConfig(omega=0.3, window=math.inf, trials=400, seed=11)
    )
    gap = abs(summary.selected.mean_fidelity - summary.baseline.mean_fidelity)
    spread = math.hypot(summary.selected.stderr, summary.baseline.stderr)
    assert gap < 5.0 * spread


@pytest.mark.parametrize("budget", [NoiseBudget(), NOISY])
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
            expected = _scored_trial(chain, register, source, rng, index=trial)
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
        register = vacuum(2)
        for _, width in graph.nodes[2:]:
            register = register.tensor(squeezed_vacuum_p(width))
        for a, b, weight in graph.edges:
            modes = [graph.mode_index(a), graph.mode_index(b)]
            register = apply_affine(register, controlled_phase(weight), modes)
            register = apply_qnd_noise(register, 1, budget, rng, modes)
        assert record == _scored_trial(compiled, register, vacuum(2), rng, index=trial)


@pytest.mark.parametrize("budget", [NoiseBudget(), NOISY])
def test_run_program_on_the_chain_equals_the_baseline_arm(budget):
    for seed in (0, 5, 21):
        config = ExperimentConfig(
            program=fourier_wire(4), omega=0.3, trials=3, seed=seed, budget=budget
        )
        baseline = run_postselection_experiment(config).baseline_records
        for record, chain_record in zip(baseline, run_program(config), strict=True):
            shifted = {node + 1: s for node, s in chain_record.outcomes.items()}
            assert list(record.outcomes.items()) == list(shifted.items())
            assert (record.mean, record.cov, record.fidelity) == (
                chain_record.mean,
                chain_record.cov,
                chain_record.fidelity,
            )


def _reference_mini_records(config: ExperimentConfig) -> list[TrialRecord]:
    """The mini-cluster arm step by step: a hand-linked line with each
    link's noise right after it, momentum readouts of the inner nodes,
    the window, then the input linked to node 2 and nodes 1 and 2 read."""
    n, budget = config.chain_nodes, config.budget
    chain = compile_program(fourier_wire(n - 1), config.omega)
    node_ids = list(range(1, n + 1))
    inner = node_ids[2:-1]

    def linked(state, a, b, rng):
        state = apply_affine(state, controlled_phase(1.0), [a, b])
        return apply_qnd_noise(state, 1, budget, rng, [a, b])

    def measure(state, mode_of, node, rng):
        result = homodyne(state, mode_of.pop(node), math.pi / 2.0, rng=rng)
        relabel = {m: result.relabel[i] for m, i in mode_of.items()}
        return result.outcome, result.state, relabel

    records = []
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial, arm=1)
        source = apply_input_noise(vacuum(1), budget)
        state = squeezed_vacuum_p(config.omega)
        for _ in range(n - 2):
            state = state.tensor(squeezed_vacuum_p(config.omega))
        for mode in range(n - 2):
            state = linked(state, mode, mode + 1, rng)
        mode_of = {node: i for i, node in enumerate(node_ids[1:])}
        outcomes = {}
        for node in inner:
            outcomes[node], state, mode_of = measure(state, mode_of, node, rng)
        if not all(abs(outcomes[node]) <= config.window for node in inner):
            records.append(TrialRecord(trial, outcomes, False, None, None, None))
            continue
        state = source.tensor(state)
        mode_of = {node: i + 1 for node, i in mode_of.items()}
        mode_of[node_ids[0]] = 0
        state = linked(state, 0, mode_of[node_ids[1]], rng)
        for node in node_ids[:2]:
            outcomes[node], state, mode_of = measure(state, mode_of, node, rng)
        chain_outcomes = {node - 1: outcomes[node] for node in node_ids[:-1]}
        resolved = resolve_frame(state, byproduct_frame(chain, chain_outcomes))
        value = fidelity(resolved, apply_affine(source, chain.intended))
        records.append(
            TrialRecord(
                trial,
                outcomes,
                True,
                resolved.mean.tolist(),
                resolved.cov.tolist(),
                float(value),
            )
        )
    return records


@pytest.mark.parametrize("budget", [NoiseBudget(), NOISY])
@pytest.mark.parametrize("window", [0.5, math.inf])
def test_mini_arm_matches_the_step_by_step_procedure(budget, window):
    config = ExperimentConfig(omega=0.3, window=window, trials=160, seed=4, budget=budget)
    mini = run_postselection_experiment(config).mini_records
    expected = _reference_mini_records(config)
    if window == 0.5:
        assert {record.accepted for record in expected} == {True, False}
    for record, reference in zip(mini, expected, strict=True):
        assert record == reference
        assert list(record.outcomes) == list(reference.outcomes)


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


def _per_trial_records(config: ExperimentConfig) -> list[TrialRecord]:
    """Each trial prepared and measured from scratch on its own substream,
    with nothing shared between trials."""
    compiled = compile_program(config.program, config.omega, config.omega_overrides)
    source = _input_state(config, config.program.n_modes)
    records = []
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        register = prepare_cluster_state(
            compiled, source, config.budget.link_variances(), rng
        )
        records.append(
            _scored_trial(compiled, register, source, rng, config.pins or None, trial)
        )
    return records


_TWO_WIRES = GateProgram(
    2,
    (
        Instruction("f", (0,)),
        Instruction("p", (1,), (0.5,)),
        Instruction("cz", (0, 1)),
        Instruction("x", (1,), (0.3,)),
        Instruction("z", (0,), (0.2,)),
    ),
)


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"pins": {1: 0.4, 4: -0.25}},
        {"omega_overrides": {0: 0.5, 2: 0.05}},
        {
            "program": GateProgram(1, (Instruction("p", (0,), (0.7,)),) * 3),
            "input_mean": (0.6, -1.2),
        },
        {"budget": NoiseBudget(input_excess_variance=0.2)},
        {"budget": NoiseBudget(per_link_variance=0.01)},
    ],
    ids=["noiseless", "pins", "omega_overrides", "input_mean", "input_excess", "link_noise"],
)
def test_run_program_equals_preparing_every_trial_from_scratch(changes):
    config = replace(
        ExperimentConfig(program=_TWO_WIRES, omega=0.2, trials=4, seed=41), **changes
    )
    assert run_program(config) == _per_trial_records(config)


@pytest.mark.parametrize("sample", [True, False])
@pytest.mark.parametrize("drawn", [True, False], ids=["callable_input", "fixed_input"])
def test_sweep_equals_preparing_every_trial_from_scratch(sample, drawn):
    def draw(rng):
        return coherent(*(rng.normal(size=2) if rng is not None else (0.3, -0.1)))

    inputs = draw if drawn else coherent(0.3, -0.1)
    program = GateProgram(1, (Instruction("p", (0,), (0.4,)), Instruction("f", (0,))))
    omegas = [0.5, 0.2]
    points = fidelity_vs_squeezing(
        program, omegas, inputs, trials=5, sample=sample, rng=np.random.default_rng(8)
    )
    rng = np.random.default_rng(8)
    for width, point in zip(omegas, points):
        compiled = compile_program(program, width)
        pins = None if sample else {entry.node: 0.0 for entry in compiled.schedule.entries}
        values = []
        for _ in range(5):
            source = inputs(rng) if drawn else inputs
            register = prepare_cluster_state(compiled, source)
            values.append(_scored_trial(compiled, register, source, rng, pins).fidelity)
        expected = _summarize(values)
        assert (point.mean_fidelity, point.stderr, point.trials) == (
            expected.mean_fidelity,
            expected.stderr,
            expected.trials,
        )


# Scoring as every trial ran it before its covariance halves were planned:
# a frame of composed byproduct maps, resolved by applying its inverse, and
# the fidelity formulas evaluated whole.  Kept here as the reference that
# the planned scoring must match bit for bit.


def _old_byproduct_frame(compiled, outcomes):
    n = compiled.program.n_modes
    physical = SymplecticAffine.identity(n)
    for step in compiled.schedule.steps:
        total = SymplecticAffine.identity(n)
        if step.kind != "classical":
            byproducts = [
                _byproduct(outcomes[node], n, wire)
                for wire, node in zip(step.wires, step.measured_nodes)
            ]
            if step.instruction.kind == "f":
                total = byproducts[0]
            else:
                total = instruction_affine(step.instruction, n)
                for byproduct in byproducts:
                    total = byproduct.compose(total)
        physical = total.compose(physical)
    return ByproductFrame(physical.compose(intended_affine(compiled.program).inverse()))


def _old_resolve_frame(state, frame):
    return apply_affine(state, frame.affine.inverse())


def _old_fidelity(a, b):
    total, delta = a.cov + b.cov, a.mean - b.mean
    expo = -0.5 * float(delta @ np.linalg.solve(total, delta))
    if a.n_modes == 1:
        big = float(np.linalg.det(total))
        lam = max(
            0.0,
            (4.0 * float(np.linalg.det(a.cov)) - 1.0)
            * (4.0 * float(np.linalg.det(b.cov)) - 1.0)
            / 4.0,
        )
        value = np.exp(expo) / (np.sqrt(big + lam) - np.sqrt(lam))
    elif a.is_pure(1e-6) or b.is_pure(1e-6):
        value = float(np.exp(expo) / np.sqrt(np.linalg.det(total)))
    else:
        form = symplectic_form(a.n_modes)
        eye = np.eye(form.shape[0])
        aux = form.T @ np.linalg.solve(total, form / 4.0 + b.cov @ form @ a.cov)
        inv = np.linalg.inv(aux @ form)
        root = scipy.linalg.sqrtm(eye + inv @ inv / 4.0)
        f_tot4 = np.linalg.det(2.0 * (root + eye) @ aux).real
        value = float(np.sqrt(f_tot4 / np.linalg.det(total)) * np.exp(expo))
    return float(min(max(value, 0.0), 1.0))


def _old_program_records(config: ExperimentConfig) -> list[TrialRecord]:
    """Each trial prepared from scratch, run through its plan, and scored
    by the reference chain."""
    compiled = compile_program(config.program, config.omega, config.omega_overrides)
    source = _input_state(config, config.program.n_modes)
    target = apply_affine(source, compiled.intended)
    records = []
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        register = prepare_cluster_state(
            compiled, source, config.budget.link_variances(), rng
        )
        run = run_schedule(register, compiled, rng=rng, pins=config.pins or None)
        frame = _old_byproduct_frame(compiled, run.outcomes)
        resolved = _old_resolve_frame(run.state, frame)
        value = _old_fidelity(resolved, target)
        records.append(
            TrialRecord(
                trial,
                dict(run.outcomes),
                True,
                resolved.mean.tolist(),
                resolved.cov.tolist(),
                float(value),
            )
        )
    return records


@st.composite
def _scored_configs(draw, case):
    n = {"one_wire": 1, "two_wires_vacuum": 2, "two_wires_input_excess": 2}.get(case)
    n = n or draw(st.integers(1, 2), label="wires")
    kinds = ["x", "z", "f", "p"] + (["cz"] if n == 2 else [])
    ops = []
    for _ in range(draw(st.integers(1, 5), label="ops")):
        kind = draw(st.sampled_from(kinds))
        if kind == "cz":
            params = draw(st.sampled_from([(), (0.7,), (-1.1,)]))
            ops.append(Instruction("cz", (0, 1), params))
        else:
            params = () if kind == "f" else (draw(st.floats(-1.5, 1.5)),)
            ops.append(Instruction(kind, (draw(st.integers(0, n - 1)),), params))
    program = GateProgram(n, tuple(ops))
    budget = NoiseBudget(
        per_link_variance=draw(st.floats(0.001, 0.05)) if case == "link_noise" else 0.0,
        input_excess_variance=(
            draw(st.floats(0.01, 0.5)) if case == "two_wires_input_excess" else 0.0
        ),
    )
    pins = {}
    if case == "pins":
        nodes = [entry.node for entry in compile_program(program).schedule.entries]
        pinned = draw(st.sets(st.sampled_from(nodes)) if nodes else st.just(set()))
        pins = {node: draw(st.floats(-2.0, 2.0)) for node in sorted(pinned)}
    input_mean = None
    if n == 1:
        input_mean = draw(st.none() | st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    return ExperimentConfig(
        program=program,
        omega=draw(st.floats(0.05, 1.0), label="omega"),
        budget=budget,
        trials=draw(st.integers(1, 3), label="trials"),
        seed=draw(st.integers(0, 2**32 - 1), label="seed"),
        input_mean=input_mean,
        pins=pins,
    )


@pytest.mark.parametrize(
    "case",
    [
        "one_wire",
        "two_wires_vacuum",
        "two_wires_input_excess",
        "link_noise",
        "pins",
        "mini_arm_window_inf",
    ],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_planned_scoring_matches_todays_chain_bit_for_bit(case, data):
    if case == "mini_arm_window_inf":
        config = ExperimentConfig(
            omega=data.draw(st.floats(0.1, 1.0), label="omega"),
            window=math.inf,
            trials=3,
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
            budget=data.draw(st.sampled_from([NoiseBudget(), NOISY]), label="budget"),
        )
        records = run_postselection_experiment(config).mini_records
        # the step-by-step mini arm, scored by the reference chain
        with mock.patch.multiple(
            sys.modules[__name__],
            byproduct_frame=_old_byproduct_frame,
            resolve_frame=_old_resolve_frame,
            fidelity=_old_fidelity,
        ):
            expected = _reference_mini_records(config)
        assert all(record.accepted for record in records)
    else:
        config = data.draw(_scored_configs(case), label="config")
        records, expected = run_program(config), _old_program_records(config)
    assert records == expected
    # repr tells every bit of a float apart, the sign of a zero included
    assert [repr(record) for record in records] == [repr(record) for record in expected]
