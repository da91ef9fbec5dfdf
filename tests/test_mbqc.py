"""Compilation and measurement-driven execution of Gaussian programs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcluster.exceptions import (
    FrameError,
    InvalidOperationError,
    MeasurementError,
    ScheduleError,
)
from cvcluster.cluster import nullifier_variances
from cvcluster.gaussian import (
    CONDITIONING_FLOOR,
    GaussianState,
    apply_affine,
    coherent,
    fidelity,
    homodyne,
    squeezed_vacuum_p,
    vacuum,
)
from cvcluster.mbqc import (
    Basis,
    ByproductFrame,
    GateProgram,
    Instruction,
    _byproduct,
    basis_for_diagonal,
    compile_program,
    instruction_affine,
    intended_affine,
    plan_schedule,
    prepare_cluster_state,
    resolve_frame,
    run_schedule,
    teleport_step,
)
from cvcluster.symplectic import (
    SymplecticAffine,
    controlled_phase,
    fourier,
    quadratic_phase,
    rotation,
    shift_p,
    shift_q,
)

from conftest import assert_state_allclose, fourier_wire, mixed_states


def test_instruction_validation():
    with pytest.raises(InvalidOperationError):
        Instruction("hadamard", (0,))
    with pytest.raises(InvalidOperationError):
        Instruction("f", (0, 1))
    with pytest.raises(InvalidOperationError):
        Instruction("cz", (1, 1))
    with pytest.raises(InvalidOperationError):
        Instruction("z", (0,), ())
    with pytest.raises(InvalidOperationError):
        Instruction("p", (0,), (float("nan"),))


def test_program_validation():
    with pytest.raises(InvalidOperationError):
        GateProgram(0, ())
    with pytest.raises(InvalidOperationError):
        GateProgram(1, (Instruction("cz", (0, 1)),))


def test_intended_affine_composes_in_program_order():
    program = GateProgram(
        1, (Instruction("f", (0,)), Instruction("z", (0,), (0.5,)))
    )
    expected = shift_p(0.5).compose(fourier())
    total = intended_affine(program)
    np.testing.assert_allclose(total.matrix, expected.matrix, atol=1e-12)
    np.testing.assert_allclose(total.shift, expected.shift, atol=1e-12)


def test_bases_for_diagonal_gates():
    plain = basis_for_diagonal("identity")
    assert (plain.theta, plain.rescale, plain.offset) == (0.0, 1.0, 0.0)
    assert plain.engine_angle == pytest.approx(math.pi / 2.0)
    assert basis_for_diagonal("f") == plain

    shifted = basis_for_diagonal("z", 1.5)
    assert shifted.theta == 0.0
    assert shifted.offset == 1.5

    sheared = basis_for_diagonal("p", 1.0)
    assert sheared.theta == pytest.approx(-math.pi / 4.0)
    assert sheared.rescale == pytest.approx(1.0 / math.sqrt(2.0))

    with pytest.raises(InvalidOperationError):
        basis_for_diagonal("x", 1.0)


def test_basis_record_and_raw_are_inverse():
    basis = basis_for_diagonal("p", -2.0)
    for value in (-1.3, 0.0, 2.4):
        assert basis.record(basis.raw(value)) == pytest.approx(value, abs=1e-12)


def test_basis_validation():
    with pytest.raises(InvalidOperationError):
        Basis(rescale=0.0)
    with pytest.raises(InvalidOperationError):
        Basis(rescale=1.5)


def test_compile_single_gate_wire():
    compiled = compile_program(GateProgram(1, (Instruction("f", (0,)),)), omega=0.2)
    assert compiled.head_nodes == (0,)
    assert compiled.tail_nodes == (1,)
    assert list(compiled.graph.nodes) == [(0, 1.0), (1, 0.2)]
    assert list(compiled.graph.edges) == [(0, 1, 1.0)]
    assert len(compiled.schedule) == 1
    entry = compiled.schedule.entries[0]
    assert entry.node == 0
    assert entry.basis == Basis()
    assert entry.basis.engine_angle == pytest.approx(math.pi / 2.0)


def test_compile_diagonal_sequence_bases():
    program = GateProgram(
        1,
        (
            Instruction("p", (0,), (0.7,)),
            Instruction("f", (0,)),
            Instruction("z", (0,), (-0.4,)),
        ),
    )
    compiled = compile_program(program, omega=0.1)
    bases = [entry.basis for entry in compiled.schedule.entries]
    assert bases[0].theta == pytest.approx(math.atan(-0.7))
    assert bases[0].rescale == pytest.approx(1.0 / math.sqrt(1.49))
    assert bases[1] == Basis()
    assert bases[2].offset == pytest.approx(-0.4)
    # one fresh node per step, chained along the wire
    assert compiled.tail_nodes == (3,)
    assert list(compiled.graph.edges) == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]


def test_compile_cross_wire_interaction():
    program = GateProgram(2, (Instruction("cz", (0, 1), (0.8,)),))
    compiled = compile_program(program, omega=0.15)
    assert compiled.head_nodes == (0, 1)
    assert compiled.tail_nodes == (2, 3)
    assert list(compiled.graph.edges) == [(0, 2, 1.0), (1, 3, 1.0), (0, 1, 0.8)]
    wires = [entry.wire for entry in compiled.schedule.entries]
    assert wires == [0, 1]


def test_compile_folds_position_shifts_into_bookkeeping():
    program = GateProgram(1, (Instruction("x", (0,), (1.2,)),))
    compiled = compile_program(program)
    assert len(compiled.schedule) == 0
    assert compiled.tail_nodes == (0,)


def test_omega_overrides_set_per_step_widths():
    program = GateProgram(1, (Instruction("f", (0,)), Instruction("f", (0,))))
    compiled = compile_program(program, omega=0.1, omega_overrides={1: 0.05})
    widths = dict(compiled.graph.nodes)
    assert widths[1] == 0.1
    assert widths[2] == 0.05


def test_reordering_within_a_barrier_group_is_allowed():
    program = GateProgram(2, (Instruction("f", (0,)), Instruction("f", (1,))))
    schedule = compile_program(program).schedule
    assert schedule.validate_order((1, 0)) == (1, 0)


@pytest.mark.parametrize("outcome", [0.0, -1.25, 0.3, 7e-9])
def test_byproduct_is_a_shift_after_the_quarter_rotation(outcome):
    expected = shift_q(outcome).compose(fourier())
    assert np.array_equal(_byproduct(outcome).matrix, expected.matrix)
    assert np.array_equal(_byproduct(outcome).shift, expected.shift)


def test_single_teleport_step_identity_gate():
    source = coherent(0.4, -0.2)
    result = teleport_step(source, 0, 0.01, outcome=0.3)
    assert result.outcome == pytest.approx(0.3)
    resolved = apply_affine(result.state, result.frame_update.inverse())
    assert fidelity(resolved, source) > 0.999
    np.testing.assert_allclose(
        result.frame_update.matrix, fourier().matrix, atol=1e-12
    )
    np.testing.assert_allclose(result.frame_update.shift, [0.3, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "gate,param,local",
    [
        ("z", 0.7, shift_p(0.7)),
        ("p", -1.3, quadratic_phase(-1.3)),
    ],
)
def test_single_teleport_step_diagonal_gates(gate, param, local):
    source = coherent(0.4, -0.2)
    result = teleport_step(source, 0, 0.01, gate=gate, param=param, outcome=-0.2)
    resolved = apply_affine(result.state, result.frame_update.inverse())
    target = apply_affine(source, local)
    assert fidelity(resolved, target) > 0.999


def test_teleport_step_advances_wire_in_place():
    pair = coherent(0.5, 0.1).tensor(coherent(-0.3, 0.2))
    result = teleport_step(pair, 0, 0.01, outcome=0.0)
    assert result.state.n_modes == 2
    # the untouched second wire keeps its moments
    np.testing.assert_allclose(result.state.mean[1], -0.3, atol=1e-12)
    np.testing.assert_allclose(result.state.mean[3], 0.2, atol=1e-12)


def _cross_wire_step_fidelity(weight, pins):
    """Fidelity of a one-op ``cz`` program's resolved output with the
    weighted link applied directly to the input."""
    source = coherent(0.3, -0.2).tensor(coherent(-0.5, 0.1))
    program = GateProgram(2, (Instruction("cz", (0, 1), (weight,)),))
    compiled = compile_program(program, 0.01)
    run = run_schedule(prepare_cluster_state(compiled, source), compiled, pins=pins)
    assert run.outcomes == pins
    resolved = resolve_frame(run.state, run.frame)
    return fidelity(resolved, apply_affine(source, controlled_phase(weight), [0, 1]))


def test_cross_wire_step_realizes_the_link():
    assert _cross_wire_step_fidelity(1.0, {0: 0.1, 1: -0.2}) > 0.999


def test_cross_wire_step_honors_the_weight():
    assert _cross_wire_step_fidelity(0.7, {0: 0.0, 1: 0.0}) > 0.999
    with pytest.raises(InvalidOperationError):
        Instruction("cz", (0, 0))


def test_pinned_run_resolves_to_the_intended_program():
    program = GateProgram(
        1,
        (
            Instruction("p", (0,), (0.7,)),
            Instruction("z", (0,), (-0.4,)),
            Instruction("f", (0,)),
        ),
    )
    compiled = compile_program(program, omega=0.01)
    source = coherent(0.5, -0.3)
    register = prepare_cluster_state(compiled, source)
    run = run_schedule(register, compiled, pins={0: 0.0, 1: 0.0, 2: 0.0})
    resolved = resolve_frame(run.state, run.frame)
    target = apply_affine(source, intended_affine(program))
    assert fidelity(resolved, target) > 0.999


def test_classical_shift_appears_only_after_resolution():
    program = GateProgram(1, (Instruction("x", (0,), (1.2,)),))
    compiled = compile_program(program)
    source = coherent(0.0, 0.0)
    register = prepare_cluster_state(compiled, source)
    run = run_schedule(register, compiled)
    assert run.outcomes == {}
    np.testing.assert_allclose(run.state.mean, source.mean, atol=1e-12)
    resolved = resolve_frame(run.state, run.frame)
    np.testing.assert_allclose(resolved.mean, [1.2, 0.0], atol=1e-12)


def _order_free_setup():
    program = GateProgram(
        2,
        (
            Instruction("p", (0,), (0.5,)),
            Instruction("cz", (0, 1)),
            Instruction("f", (1,)),
        ),
    )
    compiled = compile_program(program, omega=0.2)
    source = coherent(0.4, -0.1).tensor(coherent(-0.2, 0.3))
    register = prepare_cluster_state(compiled, source)
    return compiled, register


def test_every_measurement_order_gives_the_same_pinned_run():
    compiled, register = _order_free_setup()
    pins = {0: 0.3, 2: -0.4, 1: 0.25, 4: -0.15}
    assert {entry.node for entry in compiled.schedule.entries} == set(pins)
    baseline = None
    for order in itertools.permutations(range(4)):
        run = run_schedule(register, compiled, order=order, pins=pins)
        resolved = resolve_frame(run.state, run.frame)
        if baseline is None:
            baseline = (run.outcomes, resolved)
            continue
        assert run.outcomes == baseline[0]
        assert_state_allclose(resolved, baseline[1], atol=1e-10)


def test_sampled_runs_match_across_orders():
    compiled, register = _order_free_setup()
    trials = 2000
    means = []
    for arm, order in enumerate(((0, 1, 2, 3), (3, 1, 2, 0))):
        rng = np.random.default_rng([97, arm])
        rows = np.empty((trials, 4))
        for t in range(trials):
            run = run_schedule(register, compiled, order=order, rng=rng)
            resolved = resolve_frame(run.state, run.frame)
            rows[t] = resolved.mean
        means.append(rows)
    for column in range(4):
        a, b = means[0][:, column], means[1][:, column]
        gap = abs(a.mean() - b.mean())
        stderr = np.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert gap < 5.0 * stderr + 1e-12


def test_run_rejects_mismatched_register():
    compiled, _ = _order_free_setup()
    with pytest.raises(ScheduleError):
        run_schedule(vacuum(3), compiled, pins={0: 0.0})


def test_prepare_rejects_wrong_input_width():
    compiled = compile_program(GateProgram(2, (Instruction("f", (0,)),)))
    with pytest.raises(InvalidOperationError):
        prepare_cluster_state(compiled, vacuum(1))


def test_frame_resolves_exactly_once():
    frame = ByproductFrame(shift_q(0.5))
    resolved = resolve_frame(vacuum(1), frame)
    np.testing.assert_allclose(resolved.mean, [-0.5, 0.0], atol=1e-12)
    with pytest.raises(FrameError):
        resolve_frame(vacuum(1), frame)


def test_frame_mode_count_must_match():
    frame = ByproductFrame(SymplecticAffine.identity(2))
    with pytest.raises(FrameError):
        resolve_frame(vacuum(1), frame)


def test_frame_per_mode_view():
    single = shift_q(0.5).embed(2, [0]).compose(fourier().embed(2, [1]))
    parts = ByproductFrame(single).per_mode()
    assert len(parts) == 2
    np.testing.assert_allclose(parts[0].shift, [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(parts[1].matrix, fourier().matrix, atol=1e-12)
    with pytest.raises(FrameError):
        ByproductFrame(controlled_phase(0.7)).per_mode()


def test_long_wire_keeps_the_nullifier_law_and_matches_stepwise_teleportation():
    # long enough that every link and readout acts on a wide register
    program = fourier_wire(319)
    omega = 0.3
    compiled = compile_program(program, omega=omega)
    assert len(compiled.graph.nodes) == 320
    register = prepare_cluster_state(compiled, vacuum(1))
    # the head node has width 1, matching the vacuum input it holds
    assert nullifier_variances(register, compiled.graph).max_excess(compiled.graph) <= 1e-10
    pins = {entry.node: 0.0 for entry in compiled.schedule.entries}
    run = run_schedule(register, compiled, pins=pins)
    assert run.outcomes == pins
    stepwise = vacuum(1)
    for _ in program.ops:
        stepwise = teleport_step(stepwise, 0, omega, outcome=0.0).state
    scale = float(np.max(np.abs(stepwise.cov)))
    np.testing.assert_allclose(run.state.mean, stepwise.mean, atol=1e-10 * scale)
    np.testing.assert_allclose(run.state.cov, stepwise.cov, atol=1e-10 * scale)
    resolved = resolve_frame(run.state, run.frame)
    GaussianState(resolved.mean, resolved.cov)  # obeys the uncertainty bound


# The step-by-step loop that ran every schedule before readouts were planned
# on the covariance: one dense conditioning per readout on the shrinking
# register, and a frame of embedded byproducts.  Kept here as the reference
# that the planned path must match bit for bit.


def _stepwise_homodyne(state, mode, theta, outcome, rng):
    n = state.n_modes
    work = state
    if theta != 0.0:
        work = apply_affine(state, rotation(-theta), modes=(mode,))
    qi, pi = mode, n + mode
    mu = work.mean[qi]
    var = work.cov[qi, qi]
    if var < CONDITIONING_FLOOR:
        raise MeasurementError("below the conditioning floor")
    if outcome is None:
        outcome = float(rng.normal(mu, np.sqrt(var)))
    else:
        outcome = float(outcome)
    keep = [i for i in range(2 * n) if i not in (qi, pi)]
    cross = work.cov[keep, qi]
    mean_out = work.mean[keep] + cross * ((outcome - mu) / var)
    cov_out = work.cov[np.ix_(keep, keep)] - np.outer(cross, cross) / var
    relabel = {old: new for new, old in enumerate(m for m in range(n) if m != mode)}
    return outcome, GaussianState(mean_out, cov_out, validate=False), relabel


def _stepwise_run(state, compiled, order, rng, pins):
    mode_of = {node: i for i, node in enumerate(compiled.graph.node_ids)}
    outcomes = {}
    for entry in (compiled.schedule.entries[i] for i in order):
        pinned = pins.get(entry.node)
        raw = None if pinned is None else entry.basis.raw(pinned)
        outcome, state, relabel = _stepwise_homodyne(
            state, mode_of.pop(entry.node), entry.basis.engine_angle, raw, rng
        )
        outcomes[entry.node] = pinned if pinned is not None else entry.basis.record(outcome)
        mode_of = {node: relabel[idx] for node, idx in mode_of.items()}
    state = state.permute_modes([mode_of[tail] for tail in compiled.tail_nodes])
    n = compiled.program.n_modes
    physical = SymplecticAffine.identity(n)
    for step in compiled.schedule.steps:
        if step.kind == "classical":
            total = SymplecticAffine.identity(n)
        else:
            byproducts = [
                SymplecticAffine._derived(fourier().matrix, np.array([outcomes[node], 0.0]))
                .embed(n, [wire])
                for wire, node in zip(step.wires, step.measured_nodes)
            ]
            if step.instruction.kind == "f":
                total = byproducts[0]
            else:
                total = instruction_affine(step.instruction, n)
                for byproduct in byproducts:
                    total = byproduct.compose(total)
        physical = total.compose(physical)
    return outcomes, state, physical.compose(intended_affine(compiled.program).inverse())


@st.composite
def _planned_runs(draw):
    n = draw(st.integers(1, 2), label="wires")
    kinds = ["x", "z", "f", "p"] + (["cz"] if n == 2 else [])
    ops = []
    for _ in range(draw(st.integers(1, 5), label="ops")):
        kind = draw(st.sampled_from(kinds))
        if kind == "cz":
            params = draw(st.sampled_from([(), (0.7,), (-1.1,)]))
            ops.append(Instruction("cz", (0, 1), params))
        else:
            target = draw(st.integers(0, n - 1))
            params = () if kind == "f" else (draw(st.floats(-1.5, 1.5)),)
            ops.append(Instruction(kind, (target,), params))
    compiled = compile_program(
        GateProgram(n, tuple(ops)), draw(st.floats(0.05, 1.0), label="omega")
    )
    source = draw(st.one_of(st.just(vacuum(n)), mixed_states(n)), label="input")
    entries = compiled.schedule.entries
    order = draw(st.permutations(range(len(entries))), label="order")
    nodes = [entry.node for entry in entries]
    pinned = draw(st.sets(st.sampled_from(nodes)) if nodes else st.just(set()))
    pins = {node: draw(st.floats(-2.0, 2.0)) for node in sorted(pinned)}
    return compiled, prepare_cluster_state(compiled, source), order, pins


@settings(max_examples=150, deadline=None)
@given(_planned_runs(), st.integers(0, 2**32 - 1))
def test_planned_schedule_matches_the_stepwise_loop_bit_for_bit(run_input, seed):
    compiled, register, order, pins = run_input
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    run = run_schedule(register, compiled, order=order, rng=rng, pins=pins)
    outcomes, state, frame = _stepwise_run(register, compiled, order, reference_rng, pins)
    assert run.outcomes == outcomes
    assert np.array_equal(run.state.mean, state.mean)
    assert np.array_equal(run.state.cov, state.cov)
    assert np.array_equal(run.frame.affine.matrix, frame.matrix)
    assert np.array_equal(run.frame.affine.shift, frame.shift)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_planning_a_readout_below_the_conditioning_floor_raises():
    compiled = compile_program(fourier_wire(1))
    # node 0's momentum, which the plain readout measures, is almost sharp
    cov = np.diag([1.0, 50.0, 1e-14, 0.005])
    register = GaussianState(np.zeros(4), cov, validate=False)
    with pytest.raises(MeasurementError, match="conditioning floor"):
        run_schedule(register, compiled, pins={0: 0.0})
    with pytest.raises(MeasurementError, match="conditioning floor"):
        plan_schedule(cov, compiled)


# The hand-built steps that teleported one gate before every step ran
# through the compiled schedule: a fresh squeezed node per wire appended to
# the register, the links applied one by one, ``homodyne`` on each old
# tail, and each fresh node moved back to its wire's position.  Kept here
# as the reference that the compiled one-op programs must match bit for bit.


def _handbuilt_teleport(state, mode, omega, gate, param, outcome, rng):
    basis = basis_for_diagonal(gate, param)
    n = state.n_modes
    worked = state.tensor(squeezed_vacuum_p(omega))
    worked = apply_affine(worked, controlled_phase(1.0), [mode, n])
    raw = None if outcome is None else basis.raw(outcome)
    result = homodyne(worked, mode, basis.engine_angle, outcome=raw, rng=rng)
    recorded = outcome if outcome is not None else basis.record(result.outcome)
    order = list(range(n - 1))
    order.insert(mode, n - 1)
    return (recorded,), result.state.permute_modes(order)


def _handbuilt_cz(state, wires, omega, weight, outcomes, rng):
    mode_a, mode_b = wires
    n = state.n_modes
    worked = state.tensor(squeezed_vacuum_p(omega)).tensor(squeezed_vacuum_p(omega))
    worked = apply_affine(worked, controlled_phase(1.0), [mode_a, n])
    worked = apply_affine(worked, controlled_phase(1.0), [mode_b, n + 1])
    worked = apply_affine(worked, controlled_phase(weight), [mode_a, mode_b])
    first = homodyne(worked, mode_a, math.pi / 2.0, outcome=outcomes[0], rng=rng)
    second = homodyne(
        first.state, first.relabel[mode_b], math.pi / 2.0, outcome=outcomes[1], rng=rng
    )
    recorded = tuple(
        s if s is not None else result.outcome
        for s, result in zip(outcomes, (first, second))
    )
    order = list(range(n - 2))
    low, high = sorted(wires)
    order.insert(low, n - 2 if low == mode_a else n - 1)
    order.insert(high, n - 1 if high == mode_b else n - 2)
    return recorded, second.state.permute_modes(order)


@st.composite
def _one_op_steps(draw):
    n = draw(st.integers(1, 3), label="wires")
    omega = draw(st.floats(0.05, 1.0), label="omega")
    source = draw(st.one_of(st.just(vacuum(n)), mixed_states(n)), label="input")
    maybe_pin = st.one_of(st.none(), st.floats(-2.0, 2.0))
    gates = ["identity", "f", "z", "p"] + (["cz"] if n > 1 else [])
    gate = draw(st.sampled_from(gates), label="gate")
    if gate == "cz":
        wires = tuple(draw(st.permutations(range(n)))[:2])
        weight = draw(st.sampled_from([1.0, 0.7, -1.1]), label="weight")
        outcomes = (draw(maybe_pin), draw(maybe_pin))
        return "cz", source, omega, wires, weight, outcomes
    param = 0.0 if gate in ("identity", "f") else draw(st.floats(-1.5, 1.5))
    return gate, source, omega, draw(st.integers(0, n - 1)), param, (draw(maybe_pin),)


@settings(max_examples=150, deadline=None)
@given(_one_op_steps(), st.integers(0, 2**32 - 1))
def test_one_op_programs_match_the_handbuilt_steps_bit_for_bit(step, seed):
    gate, source, omega, where, param, outcomes = step
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if gate == "cz":
        compiled = compile_program(
            GateProgram(source.n_modes, (Instruction("cz", where, (param,)),)), omega
        )
        pins = {wire: s for wire, s in zip(where, outcomes) if s is not None}
        run = run_schedule(
            prepare_cluster_state(compiled, source), compiled, rng=rng, pins=pins
        )
        recorded, state = tuple(run.outcomes[wire] for wire in where), run.state
        expected = _handbuilt_cz(source, where, omega, param, outcomes, reference_rng)
    else:
        result = teleport_step(
            source, where, omega, gate, param, outcome=outcomes[0], rng=rng
        )
        recorded, state = (result.outcome,), result.state
        expected = _handbuilt_teleport(
            source, where, omega, gate, param, outcomes[0], reference_rng
        )
        assert np.array_equal(result.frame_update.shift, [recorded[0], 0.0])
    assert recorded == expected[0]
    assert np.array_equal(state.mean, expected[1].mean)
    assert np.array_equal(state.cov, expected[1].cov)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
