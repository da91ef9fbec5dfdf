"""Finite-squeezing envelopes, gathered distortion, and noise budgets."""

import numpy as np
import pytest

from cvcluster.distortion import (
    AccumulatedDistortion,
    DistortionEnvelope,
    LinearFormEnvelope,
    NoiseBudget,
    apply_envelope,
    apply_input_noise,
    apply_position_envelope,
    apply_qnd_noise,
    decompose_distortion,
    state_from_wavefunction,
    wavefunction_parameters,
)
from cvcluster.experiment import SweepPoint, fidelity_vs_squeezing
from cvcluster.exceptions import InvalidOperationError, InvalidStateError
from cvcluster.gaussian import GaussianState, apply_affine, coherent, vacuum
from cvcluster.mbqc import (
    GateProgram,
    Instruction,
    compile_program,
    prepare_cluster_state,
    run_schedule,
)
from cvcluster.symplectic import fourier

from conftest import fourier_wire, random_gaussian_program


def test_envelope_validation_and_widths():
    env = DistortionEnvelope(0.5)
    assert env.position_variance == pytest.approx(4.0)
    assert env.momentum_variance == pytest.approx(0.25)
    with pytest.raises(InvalidOperationError):
        DistortionEnvelope(0.0)
    with pytest.raises(InvalidOperationError):
        DistortionEnvelope(0.5, center=float("inf"))


def test_unit_envelope_narrows_vacuum():
    out = apply_envelope(vacuum(1), DistortionEnvelope(1.0))
    np.testing.assert_allclose(out.cov, np.diag([0.25, 1.0]), atol=1e-12)
    np.testing.assert_allclose(out.mean, [0.0, 0.0], atol=1e-12)


def test_envelope_pulls_mean_toward_its_center():
    out = apply_envelope(coherent(1.5, 0.3), DistortionEnvelope(1.0))
    np.testing.assert_allclose(out.mean, [0.75, 0.3], atol=1e-12)
    centered = apply_envelope(vacuum(1), DistortionEnvelope(1.0, center=2.0))
    np.testing.assert_allclose(centered.mean, [1.0, 0.0], atol=1e-12)


def test_envelope_needs_a_single_mode():
    with pytest.raises(InvalidOperationError):
        apply_envelope(vacuum(2), DistortionEnvelope(1.0))
    with pytest.raises(InvalidOperationError):
        apply_position_envelope(vacuum(1), 3, 1.0)


def test_wavefunction_round_trip_on_random_pure_states():
    rng = np.random.default_rng(53)
    for _ in range(20):
        program = random_gaussian_program(
            rng, n_modes=int(rng.integers(1, 4)), n_ops=int(rng.integers(1, 6))
        )
        from cvcluster.mbqc import intended_affine

        state = apply_affine(vacuum(program.n_modes), intended_affine(program))
        rebuilt = state_from_wavefunction(*wavefunction_parameters(state))
        np.testing.assert_allclose(rebuilt.mean, state.mean, atol=1e-9)
        np.testing.assert_allclose(rebuilt.cov, state.cov, atol=1e-9)


def test_wavefunction_parameters_reject_mixed_states():
    mixed = GaussianState(np.zeros(2), 1.5 * np.eye(2) / 2.0)
    with pytest.raises(InvalidStateError):
        wavefunction_parameters(mixed)


def test_negligible_linear_form_is_a_no_op():
    state = coherent(0.4, -0.2)
    term = LinearFormEnvelope((1.0,), (0.0,), offset=0.5, omega=1e-12)
    assert term.apply(state) is state


def test_linear_form_on_position_matches_direct_envelope():
    state = coherent(0.4, -0.2)
    term = LinearFormEnvelope((1.0,), (0.0,), offset=-0.4, omega=0.8)
    direct = apply_position_envelope(state, 0, 0.8, center=0.4)
    out = term.apply(state)
    np.testing.assert_allclose(out.mean, direct.mean, atol=1e-10)
    np.testing.assert_allclose(out.cov, direct.cov, atol=1e-10)


def test_linear_form_on_momentum_matches_rotated_envelope():
    state = coherent(0.4, -0.2)
    term = LinearFormEnvelope((0.0,), (1.0,), offset=0.0, omega=0.9)
    rotated = apply_affine(state, fourier())
    rotated = apply_position_envelope(rotated, 0, 0.9)
    reference = apply_affine(rotated, fourier().inverse())
    out = term.apply(state)
    np.testing.assert_allclose(out.mean, reference.mean, atol=1e-10)
    np.testing.assert_allclose(out.cov, reference.cov, atol=1e-10)


def test_linear_form_squeezes_only_the_named_combination():
    term = LinearFormEnvelope((1.0, 1.0), (0.0, 0.0), offset=0.0, omega=1.0)
    out = term.apply(vacuum(2))
    plus = np.array([1.0, 1.0, 0.0, 0.0])
    minus = np.array([1.0, -1.0, 0.0, 0.0])
    assert plus @ out.cov @ plus == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert minus @ out.cov @ minus == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidOperationError):
        term.apply(vacuum(3))


def test_single_step_decomposition_structure():
    program = GateProgram(1, (Instruction("f", (0,)),))
    prefix, dist = decompose_distortion(program, [0.7], omega=0.25)
    np.testing.assert_allclose(prefix.matrix, fourier().matrix, atol=1e-12)
    np.testing.assert_allclose(prefix.shift, [0.7, 0.0], atol=1e-12)
    assert len(dist.terms) == 1
    term = dist.terms[0]
    assert term.coeff_q == (0.0,)
    assert term.coeff_p == (-1.0,)
    assert term.offset == pytest.approx(0.7)
    assert term.omega == pytest.approx(0.25)


def test_cross_wire_steps_contribute_one_term_per_wire():
    program = GateProgram(
        2,
        (
            Instruction("p", (0,), (0.5,)),
            Instruction("cz", (0, 1)),
            Instruction("f", (1,)),
            Instruction("z", (0,), (-0.3,)),
        ),
    )
    _, dist = decompose_distortion(program, np.zeros(5), omega=0.3)
    assert len(dist.terms) == 5
    assert dist.n_modes == 2


def test_active_terms_filters_negligible_widths():
    program = GateProgram(1, (Instruction("f", (0,)), Instruction("f", (0,))))
    _, dist = decompose_distortion(
        program, [0.0, 0.0], omega=0.2, omega_overrides={0: 1e-4}
    )
    assert len(dist.terms) == 2
    assert len(dist.active_terms()) == 1
    assert dist.active_terms()[0].omega == pytest.approx(0.2)


def test_decomposition_reproduces_the_simulated_run():
    program = GateProgram(
        2,
        (
            Instruction("p", (0,), (0.5,)),
            Instruction("cz", (0, 1)),
            Instruction("f", (1,)),
            Instruction("z", (0,), (-0.3,)),
        ),
    )
    width = 0.3
    compiled = compile_program(program, omega=width)
    source = coherent(0.4, -0.1).tensor(coherent(-0.2, 0.3))
    register = prepare_cluster_state(compiled, source)
    rng = np.random.default_rng(59)
    for _ in range(8):
        pins = {
            entry.node: float(rng.normal(0.0, 0.8))
            for entry in compiled.schedule.entries
        }
        run = run_schedule(register, compiled, pins=pins)
        prefix, dist = decompose_distortion(program, pins, omega=width)
        rebuilt = apply_affine(dist.apply(source), prefix)
        np.testing.assert_allclose(rebuilt.mean, run.state.mean, atol=1e-10)
        np.testing.assert_allclose(rebuilt.cov, run.state.cov, atol=1e-10)


def test_two_step_wire_decomposition_is_exact():
    program = fourier_wire(2)
    source = coherent(0.6, -0.4)
    compiled = compile_program(program, omega=0.4)
    register = prepare_cluster_state(compiled, source)
    pins = {0: 0.9, 1: -1.1}
    run = run_schedule(register, compiled, pins=pins)
    prefix, dist = decompose_distortion(program, pins, omega=0.4)
    rebuilt = apply_affine(dist.apply(source), prefix)
    np.testing.assert_allclose(rebuilt.mean, run.state.mean, atol=1e-10)
    np.testing.assert_allclose(rebuilt.cov, run.state.cov, atol=1e-10)


def test_decomposition_outcome_plumbing():
    program = fourier_wire(2)
    by_sequence = decompose_distortion(program, [0.3, -0.2], omega=0.3)
    by_node = decompose_distortion(program, {0: 0.3, 1: -0.2}, omega=0.3)
    np.testing.assert_allclose(
        by_sequence[0].shift, by_node[0].shift, atol=1e-12
    )
    with pytest.raises(InvalidOperationError):
        decompose_distortion(program, [0.3], omega=0.3)
    with pytest.raises(InvalidOperationError):
        decompose_distortion(program, {0: 0.3}, omega=0.3)


def test_noise_budget_validation_and_overrides():
    budget = NoiseBudget(per_link_variance=0.02)
    assert budget.link_variances() == (0.02, 0.02)
    assert not budget.is_zero
    assert NoiseBudget().is_zero
    aniso = NoiseBudget(per_link_variance=0.02, per_link_variance_p=0.05)
    assert aniso.link_variances() == (0.02, 0.05)
    with pytest.raises(InvalidOperationError):
        NoiseBudget(per_link_variance=-0.1)
    with pytest.raises(InvalidOperationError):
        NoiseBudget(input_excess_variance=float("nan"))


def test_link_noise_grows_linearly_with_link_count():
    budget = NoiseBudget(per_link_variance=0.02)
    state = vacuum(1)
    for links in range(1, 11):
        out = apply_qnd_noise(state, links, budget)
        assert out.cov[0, 0] == pytest.approx(0.5 + 0.02 * links, abs=1e-12)
        assert out.cov[1, 1] == pytest.approx(0.5 + 0.02 * links, abs=1e-12)
    untouched = apply_qnd_noise(state, 0, budget)
    np.testing.assert_allclose(untouched.cov, state.cov, atol=1e-15)
    with pytest.raises(InvalidOperationError):
        apply_qnd_noise(state, -1, budget)


def test_link_noise_targets_selected_modes():
    budget = NoiseBudget(per_link_variance=0.03)
    out = apply_qnd_noise(vacuum(2), 3, budget, modes=[1])
    assert out.cov[0, 0] == pytest.approx(0.5)
    assert out.cov[1, 1] == pytest.approx(0.59)
    assert out.cov[3, 3] == pytest.approx(0.59)


def test_link_noise_mean_kicks_follow_the_budget():
    budget = NoiseBudget(per_link_variance=0.05)
    rng = np.random.default_rng(61)
    draws = np.array(
        [apply_qnd_noise(vacuum(1), 2, budget, rng=rng).mean[0] for _ in range(4000)]
    )
    target = 2 * 0.05
    assert abs(draws.mean()) < 5 * np.sqrt(target / draws.size)
    assert abs(draws.var(ddof=1) - target) < 5 * target * np.sqrt(2.0 / draws.size)


def test_input_noise_thermalizes_the_state():
    budget = NoiseBudget(input_excess_variance=0.1)
    out = apply_input_noise(coherent(0.3, -0.2), budget)
    np.testing.assert_allclose(out.mean, [0.3, -0.2], atol=1e-15)
    np.testing.assert_allclose(out.cov, 0.6 * np.eye(2), atol=1e-15)
    same = apply_input_noise(vacuum(1), NoiseBudget())
    np.testing.assert_allclose(same.cov, 0.5 * np.eye(2), atol=1e-15)


def test_empty_program_sweep_is_distortion_free():
    points = fidelity_vs_squeezing(GateProgram(1, ()), [0.3, 1.0])
    for point in points:
        assert isinstance(point, SweepPoint)
        assert point.mean_fidelity == pytest.approx(1.0, abs=1e-12)
        assert point.trials == 1


def test_wire_fidelity_drops_monotonically_with_width():
    points = fidelity_vs_squeezing(fourier_wire(4), [0.03, 0.1, 0.3, 1.0])
    values = [p.mean_fidelity for p in points]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[1] - values[3] > 0.02


def test_sampled_sweep_reports_spread():
    rng = np.random.default_rng(67)
    points = fidelity_vs_squeezing(
        fourier_wire(2),
        [0.3],
        input_states=lambda r: coherent(0.3, -0.1),
        trials=4,
        sample=True,
        rng=rng,
        label="wire",
    )
    point = points[0]
    assert point.label == "wire"
    assert point.trials == 4
    assert 0.0 < point.mean_fidelity < 1.0
    assert np.isfinite(point.stderr)


def test_sweep_argument_validation():
    with pytest.raises(InvalidOperationError):
        fidelity_vs_squeezing(fourier_wire(1), [])
    with pytest.raises(InvalidOperationError):
        fidelity_vs_squeezing(fourier_wire(1), [0.1], trials=0)
    with pytest.raises(InvalidOperationError):
        fidelity_vs_squeezing(fourier_wire(1), [0.1], sample=True)
