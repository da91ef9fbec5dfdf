"""Measurement-based execution of Gaussian programs on cluster wires.

A gate program over logical modes is compiled onto a cluster graph:
each logical mode becomes a linear wire of squeezed nodes, and every
instruction is realized by homodyne measurements that teleport the
state one node down the wire.  Measurement outcomes leave affine
byproducts which are tracked in a frame and resolved at the end
instead of being corrected mid-run.

Angle conventions, fixed package-wide:

* ``Basis.theta`` is measured from the momentum axis, so the plain
  momentum readout used for identity and position-shift steps has
  ``theta = 0`` and a shear ``t`` maps to ``theta = arctan(-t)``.
* ``Basis.engine_angle`` is the same direction measured from the
  position axis (``theta + pi/2``), which is what the homodyne
  routine in :mod:`cvcluster.gaussian` expects.

Recorded outcomes are ``raw / rescale + offset`` where ``raw`` is the
homodyne reading of the rotated quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterGraph, _linked_register
from .exceptions import (
    FrameError,
    InvalidOperationError,
    MeasurementError,
    ScheduleError,
)
from .gaussian import GaussianState, apply_affine, homodyne, squeezed_vacuum_p, vacuum
from .gaussian import _apply_local_cov, _apply_local_mean, _condition_cov, _condition_mean
from .symplectic import (
    SymplecticAffine,
    controlled_phase,
    fourier,
    quadratic_phase,
    rotation,
    shift_p,
    shift_q,
)

DEFAULT_ANCILLA_OMEGA = 0.1

# kind -> (target count, allowed parameter counts)
_ARITY = {
    "x": (1, (1,)),
    "z": (1, (1,)),
    "f": (1, (0,)),
    "p": (1, (1,)),
    "cz": (2, (0, 1)),
}


@dataclass(frozen=True)
class Instruction:
    """One program step: a Gaussian gate."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise InvalidOperationError(f"unknown instruction kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        n_targets, param_counts = _ARITY[self.kind]
        if len(self.targets) != n_targets:
            raise InvalidOperationError(
                f"{self.kind} takes {n_targets} target(s), got {len(self.targets)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise InvalidOperationError("instruction targets must be distinct")
        if len(self.params) not in param_counts:
            raise InvalidOperationError(
                f"{self.kind} takes {param_counts} parameter(s), got {len(self.params)}"
            )
        if not all(np.isfinite(p) for p in self.params):
            raise InvalidOperationError("instruction parameters must be finite")


@dataclass(frozen=True)
class GateProgram:
    """Ordered instructions over a register of logical modes."""

    n_modes: int
    ops: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise InvalidOperationError("a program needs at least one logical mode")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if any(t < 0 or t >= self.n_modes for t in op.targets):
                raise InvalidOperationError(
                    f"instruction target out of range for {self.n_modes} modes"
                )


def instruction_affine(op: Instruction, n_modes: int) -> SymplecticAffine:
    """Intended phase-space action of an instruction, embedded."""
    if op.kind == "x":
        local = shift_q(op.params[0])
    elif op.kind == "z":
        local = shift_p(op.params[0])
    elif op.kind == "f":
        local = fourier()
    elif op.kind == "p":
        local = quadratic_phase(op.params[0])
    else:  # cz
        g = op.params[0] if op.params else 1.0
        local = controlled_phase(g)
    return local.embed(n_modes, list(op.targets))


def intended_affine(program: GateProgram) -> SymplecticAffine:
    """Composition of all intended gates, later instructions applied last."""
    total = SymplecticAffine.identity(program.n_modes)
    for op in program.ops:
        total = instruction_affine(op, program.n_modes).compose(total)
    return total


@dataclass(frozen=True)
class Basis:
    """Homodyne basis attached to one physical node.

    The physically measured quadrature is rotated by ``engine_angle``
    from the position axis; the recorded outcome is
    ``raw / rescale + offset``, aligning the record with the eigenvalue
    of the conjugated momentum observable the step implements.
    """

    theta: float = 0.0
    rescale: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.rescale <= 1.0 + 1e-12:
            raise InvalidOperationError("homodyne rescale must lie in (0, 1]")

    @property
    def engine_angle(self) -> float:
        """Quadrature angle from the position axis."""
        return self.theta + math.pi / 2.0

    def record(self, raw: float) -> float:
        return raw / self.rescale + self.offset

    def raw(self, recorded: float) -> float:
        return (recorded - self.offset) * self.rescale


def basis_for_diagonal(kind: str, param: float = 0.0) -> Basis:
    """Homodyne basis implementing a diagonal gate in one teleport step.

    identity    -> plain momentum readout
    z(s)        -> momentum readout, outcome offset by +s
    p(t)        -> rotated readout at theta = arctan(-t), rescale
                   (1 + t^2)^(-1/2)
    """
    if kind in ("identity", "f"):
        return Basis()
    if kind == "z":
        return Basis(offset=param)
    if kind == "p":
        t = param
        return Basis(theta=math.atan(-t), rescale=1.0 / math.sqrt(1.0 + t * t))
    raise InvalidOperationError(f"gate {kind!r} is not diagonal in position")


@dataclass(frozen=True)
class StepPlan:
    """One compiled step: what is measured, where the state moves, and
    which instruction the step realizes."""

    index: int
    kind: str
    instruction: Instruction
    wires: tuple[int, ...]
    measured_nodes: tuple[int, ...]
    output_nodes: tuple[int, ...]
    bases: tuple[Basis, ...]
    omegas: tuple[float, ...]


@dataclass(frozen=True)
class ScheduleEntry:
    """A single physical measurement within a step.

    ``barrier`` is always 0: every entry is a Gaussian homodyne, so all
    entries share one group and may run in any order.
    """

    node: int
    basis: Basis
    wire: int
    step_index: int
    slot: int
    barrier: int


class MeasurementSchedule:
    """Ordered homodyne plan; entries may execute in any order."""

    def __init__(self, steps: list[StepPlan], n_wires: int):
        self.steps = tuple(steps)
        self.n_wires = n_wires
        entries: list[ScheduleEntry] = []
        for step in self.steps:
            for slot, node in enumerate(step.measured_nodes):
                entries.append(
                    ScheduleEntry(
                        node=node,
                        basis=step.bases[slot],
                        wire=step.wires[slot] if step.kind == "cz" else step.wires[0],
                        step_index=step.index,
                        slot=slot,
                        barrier=0,
                    )
                )
        self.entries = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def canonical_order(self) -> tuple[int, ...]:
        return tuple(range(len(self.entries)))

    def validate_order(self, order) -> tuple[int, ...]:
        """Check that an order is a permutation of the entry indices."""
        order = tuple(int(i) for i in order)
        if sorted(order) != list(range(len(self.entries))):
            raise ScheduleError("order must be a permutation of all entries")
        return order


@dataclass(frozen=True)
class CompiledProgram:
    """Cluster graph plus measurement schedule realizing a program, with
    the program's intended map, its inverse, and each instruction's
    intended map embedded in the wires (``instruction_maps[i]``)."""

    program: GateProgram
    graph: ClusterGraph
    head_nodes: tuple[int, ...]
    tail_nodes: tuple[int, ...]
    schedule: MeasurementSchedule
    intended: SymplecticAffine
    intended_inverse: SymplecticAffine
    instruction_maps: tuple[SymplecticAffine, ...]


def compile_program(
    program: GateProgram,
    omega: float = DEFAULT_ANCILLA_OMEGA,
    omega_overrides: dict[int, float] | None = None,
) -> CompiledProgram:
    """Lower a program to a cluster graph and homodyne schedule.

    Each logical mode starts at a head node carrying the input; every
    Gaussian gate consumes the wire tail with one measurement (two for
    a cross-wire interaction) and extends the wire by fresh squeezed
    nodes whose width is ``omega`` unless overridden per instruction
    index via ``omega_overrides``.  Position displacements produce no
    measurement; they are folded into frame bookkeeping.  The program's
    intended map, its inverse and the embedded instruction maps are
    computed once here and read by every trial's frame.
    """
    overrides = omega_overrides or {}
    nodes: list[tuple[int, float]] = []
    edges: list[tuple[int, int, float]] = []
    heads = tuple(range(program.n_modes))
    for head in heads:
        nodes.append((head, 1.0))
    tails = list(heads)
    next_id = program.n_modes
    steps: list[StepPlan] = []

    def fresh(width: float) -> int:
        nonlocal next_id
        nodes.append((next_id, width))
        next_id += 1
        return next_id - 1

    for index, op in enumerate(program.ops):
        width = float(overrides.get(index, omega))
        if op.kind == "x":
            steps.append(
                StepPlan(index, "classical", op, op.targets, (), (), (), ())
            )
            continue
        if op.kind == "cz":
            wire_a, wire_b = op.targets
            old_a, old_b = tails[wire_a], tails[wire_b]
            new_a, new_b = fresh(width), fresh(width)
            g = op.params[0] if op.params else 1.0
            edges.extend([(old_a, new_a, 1.0), (old_b, new_b, 1.0), (old_a, old_b, g)])
            steps.append(
                StepPlan(
                    index,
                    "cz",
                    op,
                    (wire_a, wire_b),
                    (old_a, old_b),
                    (new_a, new_b),
                    (Basis(), Basis()),
                    (width, width),
                )
            )
            tails[wire_a], tails[wire_b] = new_a, new_b
            continue
        wire = op.targets[0]
        old = tails[wire]
        # single-mode Gaussian gate lowered to one teleport step
        new = fresh(width)
        edges.append((old, new, 1.0))
        param = op.params[0] if op.params else 0.0
        steps.append(
            StepPlan(
                index,
                "teleport",
                op,
                (wire,),
                (old,),
                (new,),
                (basis_for_diagonal("identity" if op.kind == "f" else op.kind, param),),
                (width,),
            )
        )
        tails[wire] = new

    graph = ClusterGraph(nodes=nodes, edges=edges)
    schedule = MeasurementSchedule(steps, program.n_modes)
    intended = intended_affine(program)
    maps = tuple(instruction_affine(op, program.n_modes) for op in program.ops)
    return CompiledProgram(
        program, graph, heads, tuple(tails), schedule, intended, intended.inverse(), maps
    )


def prepare_cluster_state(
    compiled: CompiledProgram,
    input_state: GaussianState | None = None,
    link_noise: tuple[float, float] = (0.0, 0.0),
    rng: np.random.Generator | None = None,
) -> GaussianState:
    """Build the physical register: inputs on head nodes, squeezed
    vacua elsewhere, all graph links applied in edge order.  The link
    noise ``(vq, vp)`` of ``NoiseBudget.link_variances()`` lands on both
    ends of each link right after it, before later links spread it, with
    mean kicks drawn from ``rng``."""
    n_wires = compiled.program.n_modes
    if input_state is None:
        input_state = vacuum(n_wires)
    if input_state.n_modes != n_wires:
        raise InvalidOperationError(
            f"input has {input_state.n_modes} modes, program has {n_wires}"
        )
    return _linked_register(
        compiled.graph, input_state, compiled.head_nodes, link_noise, rng
    )


@dataclass
class ByproductFrame:
    """Outstanding measurement byproducts as one affine over the wires.

    The frame satisfies ``physical = frame ∘ intended`` on the logical
    register, so applying its inverse once aligns the run output with
    the program's intended action.  It is consumed on resolution.
    """

    affine: SymplecticAffine
    consumed: bool = field(default=False)

    @property
    def n_modes(self) -> int:
        return self.affine.n_modes

    def is_identity(self, tol: float = 1e-12) -> bool:
        return self.affine.is_identity(tol)

    def per_mode(self) -> list[SymplecticAffine]:
        """Single-mode view; fails if byproducts couple wires."""
        try:
            return self.affine.single_mode_parts()
        except InvalidOperationError as exc:
            raise FrameError(str(exc)) from exc


def resolve_frame(state: GaussianState, frame: ByproductFrame) -> GaussianState:
    """Undo the accumulated byproduct; a frame resolves exactly once."""
    if frame.consumed:
        raise FrameError("byproduct frame was already resolved")
    if state.n_modes != frame.n_modes:
        raise FrameError(
            f"frame covers {frame.n_modes} modes, state has {state.n_modes}"
        )
    frame.consumed = True
    return apply_affine(state, frame.affine.inverse())


@dataclass(frozen=True)
class TeleportResult:
    outcome: float
    state: GaussianState
    frame_update: SymplecticAffine


def _byproduct(outcome: float, n_wires: int = 1, wire: int = 0) -> SymplecticAffine:
    """Teleport byproduct of one recorded outcome on ``wire``: the quarter
    rotation followed by a position shift, ``shift_q(outcome) ∘ F``,
    written entry by entry into the identity on ``n_wires`` wires."""
    q, p = wire, n_wires + wire
    matrix = np.eye(2 * n_wires)
    matrix[q, q], matrix[q, p], matrix[p, q], matrix[p, p] = 0.0, -1.0, 1.0, 0.0
    shift = np.zeros(2 * n_wires)
    shift[q] = outcome
    return SymplecticAffine._derived(matrix, shift)


def _insert_last_at(state: GaussianState, position: int) -> GaussianState:
    """Move the last mode to ``position``, shifting the rest up."""
    n = state.n_modes
    order = list(range(n - 1))
    order.insert(position, n - 1)
    return state.permute_modes(order)


def teleport_step(
    state: GaussianState,
    mode: int,
    omega: float,
    gate: str = "identity",
    param: float = 0.0,
    outcome: float | None = None,
    rng: np.random.Generator | None = None,
) -> TeleportResult:
    """One elementary teleportation: link a fresh squeezed node to
    ``mode``, measure the old mode in the gate's conjugated-momentum
    basis, and return the register with the wire advanced in place.

    ``outcome`` pins the recorded value; otherwise it is sampled.  The
    returned frame update is the displacement-plus-quarter-rotation
    byproduct on the advanced wire.
    """
    basis = basis_for_diagonal(gate, param)
    n = state.n_modes
    worked = state.tensor(squeezed_vacuum_p(omega))
    worked = apply_affine(worked, controlled_phase(1.0), [mode, n])
    raw = None if outcome is None else basis.raw(outcome)
    result = homodyne(worked, mode, basis.engine_angle, outcome=raw, rng=rng)
    recorded = outcome if outcome is not None else basis.record(result.outcome)
    out_state = _insert_last_at(result.state, mode)
    return TeleportResult(recorded, out_state, _byproduct(recorded))


@dataclass(frozen=True)
class CzStepResult:
    outcomes: tuple[float, float]
    state: GaussianState
    frame_update: SymplecticAffine


def cz_step(
    state: GaussianState,
    wires: tuple[int, int],
    omegas: tuple[float, float] = (DEFAULT_ANCILLA_OMEGA, DEFAULT_ANCILLA_OMEGA),
    outcomes: tuple[float | None, float | None] = (None, None),
    rng: np.random.Generator | None = None,
    weight: float = 1.0,
) -> CzStepResult:
    """Cross-wire interaction: link fresh nodes to both wires, link the
    two old tails, measure both old tails in momentum.

    Leaves the interacted-and-advanced register with byproduct
    displacement-plus-rotation on each wire; the frame update excludes
    the intended two-mode link itself.
    """
    mode_a, mode_b = wires
    if mode_a == mode_b:
        raise InvalidOperationError("cross-wire step needs two distinct wires")
    n = state.n_modes
    worked = state.tensor(squeezed_vacuum_p(omegas[0]))
    worked = worked.tensor(squeezed_vacuum_p(omegas[1]))
    worked = apply_affine(worked, controlled_phase(1.0), [mode_a, n])
    worked = apply_affine(worked, controlled_phase(1.0), [mode_b, n + 1])
    worked = apply_affine(worked, controlled_phase(weight), [mode_a, mode_b])
    first = homodyne(worked, mode_a, math.pi / 2.0, outcome=outcomes[0], rng=rng)
    s1 = outcomes[0] if outcomes[0] is not None else first.outcome
    shifted_b = first.relabel[mode_b]
    second = homodyne(first.state, shifted_b, math.pi / 2.0, outcome=outcomes[1], rng=rng)
    s2 = outcomes[1] if outcomes[1] is not None else second.outcome
    # the two fresh nodes are now the last two modes; return them to
    # the wire positions
    worked = second.state
    remaining = worked.n_modes
    order = list(range(remaining - 2))
    low, high = sorted((mode_a, mode_b))
    order.insert(low, remaining - 2 if low == mode_a else remaining - 1)
    order.insert(high, remaining - 1 if high == mode_b else remaining - 2)
    out_state = worked.permute_modes(order)
    return CzStepResult(
        (s1, s2), out_state, _byproduct(s2, 2, 1).compose(_byproduct(s1, 2, 0))
    )


@dataclass
class RunResult:
    """Everything a schedule execution produced."""

    outcomes: dict[int, float]
    state: GaussianState
    frame: ByproductFrame


def step_physical_affine(
    compiled: CompiledProgram, step: StepPlan, outcomes: dict[int, float]
) -> SymplecticAffine:
    """Phase-space map this step applied to the logical register."""
    n_wires = compiled.program.n_modes
    if step.kind == "classical":
        return SymplecticAffine.identity(n_wires)
    byproducts = [
        _byproduct(outcomes[node], n_wires, wire)
        for wire, node in zip(step.wires, step.measured_nodes)
    ]
    if step.instruction.kind == "f":
        # the quarter rotation is the teleport byproduct itself
        return byproducts[0]
    total = compiled.instruction_maps[step.index]
    for byproduct in byproducts:
        total = byproduct.compose(total)
    return total


def byproduct_frame(
    compiled: CompiledProgram, outcomes: dict[int, float]
) -> ByproductFrame:
    """Frame of a run, assembled in wire order from its recorded outcomes,
    so it does not depend on the order the measurements ran in."""
    physical = SymplecticAffine.identity(compiled.program.n_modes)
    for step in compiled.schedule.steps:
        physical = step_physical_affine(compiled, step, outcomes).compose(physical)
    return ByproductFrame(physical.compose(compiled.intended_inverse))


class SchedulePlan:
    """Homodyne readouts planned once on a register's covariance.

    On a Gaussian register the covariance after each readout does not
    depend on the outcomes; only the mean moves, affinely.  Building a
    plan walks ``cov`` once through ``entries`` (the node of each entry
    sits at mode ``mode_of[node]``), checking ``CONDITIONING_FLOOR`` and
    keeping each readout's rotation, kept quadratures, cross column and
    conditional variance.  :meth:`walk` replays only the mean half of
    each readout, with the arithmetic and the normal draws of
    :func:`~cvcluster.gaussian.homodyne`, so a trial costs O(n) per
    readout and gives the bits of measuring step by step.

    The survivors are then ``outputs`` in that order (all of them, in
    register order, by default), with covariance ``cov`` and node-to-mode
    map ``mode_of``.
    """

    def __init__(self, cov: np.ndarray, entries, mode_of: dict[int, int], outputs=None):
        cov, mode_of, self.readouts = np.array(cov, dtype=float), dict(mode_of), []
        for entry in entries:
            mode = mode_of.pop(entry.node)
            turn, index = None, [mode, cov.shape[0] // 2 + mode]
            if entry.basis.engine_angle != 0.0:
                turn = rotation(-entry.basis.engine_angle)
                _apply_local_cov(cov, turn, index)
            keep, cross, var, cov = _condition_cov(cov, mode)
            self.readouts.append((entry, turn, index, keep, cross, var, np.sqrt(var)))
            mode_of = {node: m - (m > mode) for node, m in mode_of.items()}
        self.output = None
        if outputs is not None:
            if len(mode_of) != len(outputs):
                raise ScheduleError("schedule left a dangling unmeasured node")
            wires = [mode_of[node] for node in outputs]
            self.output = wires + [len(wires) + m for m in wires]
            cov = cov[np.ix_(self.output, self.output)]
            mode_of = {node: i for i, node in enumerate(outputs)}
        self.cov, self.mode_of = cov, mode_of

    def walk(self, mean: np.ndarray, outcomes: dict[int, float], rng=None, pins=None):
        """Mean after every readout, from ``mean`` (left unmodified),
        recording each outcome into ``outcomes``; pinned nodes condition
        on ``pins`` and draw nothing, the rest sample from ``rng``."""
        pins = pins or {}
        mean = np.array(mean, dtype=float)
        for entry, turn, index, keep, cross, var, scale in self.readouts:
            if turn is not None:
                _apply_local_mean(mean, turn, index)
            mu = mean[index[0]]
            pinned = pins.get(entry.node)
            if pinned is not None:
                raw = float(entry.basis.raw(pinned))
            elif rng is None:
                raise MeasurementError("sampling a homodyne outcome requires rng")
            else:
                raw = float(rng.normal(mu, scale))
            mean = _condition_mean(mean, keep, cross, mu, var, raw)
            outcomes[entry.node] = entry.basis.record(raw) if pinned is None else pinned
        return mean if self.output is None else mean[self.output]


def plan_schedule(cov: np.ndarray, compiled: CompiledProgram, order=None) -> SchedulePlan:
    """Plan a compiled program's readouts in ``order`` (canonical by
    default) on a prepared register's covariance; the outputs are the
    wire tails in wire order."""
    schedule = compiled.schedule
    order = (
        schedule.canonical_order() if order is None else schedule.validate_order(order)
    )
    nodes = compiled.graph.node_ids
    if cov.shape[0] != 2 * len(nodes):
        raise ScheduleError(
            f"register has {cov.shape[0] // 2} modes, graph has {len(nodes)} nodes"
        )
    mode_of = {node: i for i, node in enumerate(nodes)}
    entries = [schedule.entries[i] for i in order]
    return SchedulePlan(cov, entries, mode_of, compiled.tail_nodes)


def run_plan(plan: SchedulePlan, compiled: CompiledProgram, mean, rng=None, pins=None):
    """One trial of a planned program from a prepared register's mean."""
    outcomes: dict[int, float] = {}
    state = GaussianState(plan.walk(mean, outcomes, rng, pins), plan.cov, validate=False)
    return RunResult(outcomes, state, byproduct_frame(compiled, outcomes))


def run_schedule(
    state: GaussianState,
    compiled: CompiledProgram,
    order=None,
    rng: np.random.Generator | None = None,
    pins: dict[int, float] | None = None,
) -> RunResult:
    """Execute every scheduled measurement on a prepared register.

    Plans the readouts on the register's covariance (:func:`plan_schedule`)
    and runs the plan once on its mean (:func:`run_plan`); trial loops
    keep one plan for every trial instead.  ``order`` permutes
    measurement execution; the byproduct frame comes from
    :func:`byproduct_frame`, so it does not depend on the order.
    """
    plan = plan_schedule(state.cov, compiled, order)
    return run_plan(plan, compiled, state.mean, rng, pins)
