"""Finite-squeezing envelopes, gathered distortion, and noise budgets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cvcluster.distortion import (
    AccumulatedDistortion,
    LinearFormEnvelope,
    NoiseBudget,
    apply_input_noise,
    apply_position_envelope,
    apply_qnd_noise,
    decompose_distortion,
)
from cvcluster.experiment import SweepPoint, fidelity_vs_squeezing
from cvcluster.exceptions import InvalidOperationError
from cvcluster.gaussian import GaussianState, apply_affine, coherent, vacuum
from cvcluster.mbqc import (
    GateProgram,
    Instruction,
    compile_program,
    prepare_cluster_state,
    run_schedule,
)
from cvcluster.symplectic import fourier

from conftest import fourier_wire, mixed_states


def test_envelope_validation_and_widths():
    state = coherent(0.4, -0.2)
    width_error = "width must be positive and finite"
    for bad in (0.0, -0.8, float("inf"), float("nan")):
        with pytest.raises(InvalidOperationError, match=width_error):
            apply_position_envelope(state, 0, bad, 0.4)
        with pytest.raises(InvalidOperationError, match=width_error):
            LinearFormEnvelope((1.0,), (0.0,), -0.4, bad).apply(state)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InvalidOperationError, match="center must be finite"):
            apply_position_envelope(state, 0, 0.5, bad)
        with pytest.raises(InvalidOperationError, match="center must be finite"):
            LinearFormEnvelope((1.0,), (0.0,), bad, 0.5).apply(state)
    apply_position_envelope(state, 0, 0.5)


def test_unit_envelope_narrows_vacuum():
    out = apply_position_envelope(vacuum(1), 0, 1.0)
    np.testing.assert_allclose(out.cov, np.diag([0.25, 1.0]), atol=1e-12)
    np.testing.assert_allclose(out.mean, [0.0, 0.0], atol=1e-12)


def test_envelope_pulls_mean_toward_its_center():
    out = apply_position_envelope(coherent(1.5, 0.3), 0, 1.0)
    np.testing.assert_allclose(out.mean, [0.75, 0.3], atol=1e-12)
    centered = apply_position_envelope(vacuum(1), 0, 1.0, center=2.0)
    np.testing.assert_allclose(centered.mean, [1.0, 0.0], atol=1e-12)


def test_envelope_needs_a_single_mode():
    for mode in (3, -1):
        with pytest.raises(InvalidOperationError, match="out of range"):
            apply_position_envelope(vacuum(1), mode, 1.0)


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


def test_decomposition_rebuilds_a_run_on_a_mixed_input():
    program = GateProgram(
        2,
        (
            Instruction("p", (0,), (0.5,)),
            Instruction("cz", (0, 1)),
            Instruction("f", (1,)),
        ),
    )
    width = 0.3
    compiled = compile_program(program, omega=width)
    source = apply_input_noise(
        coherent(0.4, -0.1).tensor(coherent(-0.2, 0.3)),
        NoiseBudget(input_excess_variance=0.2),
    )
    assert not source.is_pure()
    register = prepare_cluster_state(compiled, source)
    rng = np.random.default_rng(71)
    for _ in range(4):
        pins = {
            entry.node: float(rng.normal(0.0, 0.8))
            for entry in compiled.schedule.entries
        }
        run = run_schedule(register, compiled, pins=pins)
        prefix, dist = decompose_distortion(program, pins, omega=width)
        rebuilt = apply_affine(dist.apply(source), prefix)
        np.testing.assert_allclose(rebuilt.mean, run.state.mean, atol=1e-10)
        np.testing.assert_allclose(rebuilt.cov, run.state.cov, atol=1e-10)


def _forms_on(state):
    n = state.n_modes
    coefficients = arrays(np.float64, 2 * n, elements=st.floats(-2.0, 2.0))
    return st.tuples(
        st.just(state), coefficients, st.floats(-3.0, 3.0), st.floats(0.05, 5.0)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(mixed_states).flatmap(_forms_on))
def test_linear_form_keeps_a_mixed_state_physical(case):
    state, coefficients, offset, width = case
    n = state.n_modes
    term = LinearFormEnvelope(
        tuple(coefficients[:n]), tuple(coefficients[n:]), offset, width
    )
    out = term.apply(state)
    # a validated state raises on any uncertainty violation
    GaussianState(out.mean, out.cov)


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
    with pytest.raises(InvalidOperationError, match="no measured node"):
        decompose_distortion(program, {0: 0.3, 1: -0.2, 99: 5.0}, omega=0.3)
    for pins in ([0.3, float("nan")], {0: float("inf"), 1: -0.2}):
        with pytest.raises(InvalidOperationError, match="finite"):
            decompose_distortion(program, pins, omega=0.3)


def test_decomposition_rejects_an_override_that_names_no_instruction():
    with pytest.raises(InvalidOperationError, match=r"name no instruction: \[99\]"):
        decompose_distortion(
            fourier_wire(2), [0.1, 0.2], omega=0.3, omega_overrides={99: 0.5}
        )


def test_linear_form_needs_one_coefficient_pair_per_mode():
    with pytest.raises(InvalidOperationError, match="one q and one p coefficient"):
        LinearFormEnvelope((1.0,), (0.0, 0.0), 0.0, 1.0).apply(coherent(0, 0))


def test_noise_budget_validation_and_overrides():
    budget = NoiseBudget(per_link_variance=0.02)
    assert budget.link_variances() == (0.02, 0.02)
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
    point = fidelity_vs_squeezing(fourier_wire(2), [0.3], trials=4, rng=rng)[0]
    assert point.trials == 4
    assert 0.0 < point.mean_fidelity < 1.0
    assert np.isfinite(point.stderr)


def test_sweep_argument_validation():
    with pytest.raises(InvalidOperationError):
        fidelity_vs_squeezing(fourier_wire(1), [])
    with pytest.raises(InvalidOperationError):
        fidelity_vs_squeezing(fourier_wire(1), [0.1], trials=0)
