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
    ScheduleError,
)
from .gaussian import GaussianState, apply_affine, homodyne, squeezed_vacuum_p, vacuum
from .symplectic import (
    SymplecticAffine,
    controlled_phase,
    fourier,
    quadratic_phase,
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
    the program's intended map."""

    program: GateProgram
    graph: ClusterGraph
    head_nodes: tuple[int, ...]
    tail_nodes: tuple[int, ...]
    schedule: MeasurementSchedule
    intended: SymplecticAffine


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
    intended map is computed once here and read by every trial.
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
    return CompiledProgram(
        program, graph, heads, tuple(tails), schedule, intended_affine(program)
    )


def prepare_cluster_state(
    compiled: CompiledProgram, input_state: GaussianState | None = None
) -> GaussianState:
    """Build the physical register: inputs on head nodes, squeezed
    vacua elsewhere, all graph links applied."""
    n_wires = compiled.program.n_modes
    if input_state is None:
        input_state = vacuum(n_wires)
    if input_state.n_modes != n_wires:
        raise InvalidOperationError(
            f"input has {input_state.n_modes} modes, program has {n_wires}"
        )
    return _linked_register(compiled.graph, input_state, compiled.head_nodes)


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
    update = SymplecticAffine(fourier().matrix, np.array([recorded, 0.0]))
    return TeleportResult(recorded, out_state, update)


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
    update_a = SymplecticAffine(fourier().matrix, np.array([s1, 0.0])).embed(2, [0])
    update_b = SymplecticAffine(fourier().matrix, np.array([s2, 0.0])).embed(2, [1])
    return CzStepResult((s1, s2), out_state, update_b.compose(update_a))


@dataclass
class RunResult:
    """Everything a schedule execution produced."""

    outcomes: dict[int, float]
    state: GaussianState
    frame: ByproductFrame
    order: tuple[int, ...]


def step_physical_affine(
    step: StepPlan, outcomes: dict[int, float], n_wires: int
) -> SymplecticAffine:
    """Phase-space map this step applied to the logical register."""
    if step.kind == "classical":
        return SymplecticAffine.identity(n_wires)
    byproducts = [
        SymplecticAffine(fourier().matrix, np.array([outcomes[node], 0.0])).embed(
            n_wires, [wire]
        )
        for wire, node in zip(step.wires, step.measured_nodes)
    ]
    if step.instruction.kind == "f":
        # the quarter rotation is the teleport byproduct itself
        return byproducts[0]
    total = instruction_affine(step.instruction, n_wires)
    for byproduct in byproducts:
        total = byproduct.compose(total)
    return total


def byproduct_frame(
    compiled: CompiledProgram, outcomes: dict[int, float]
) -> ByproductFrame:
    """Frame of a run, assembled in wire order from its recorded outcomes,
    so it does not depend on the order the measurements ran in."""
    n_wires = compiled.program.n_modes
    physical = SymplecticAffine.identity(n_wires)
    for step in compiled.schedule.steps:
        physical = step_physical_affine(step, outcomes, n_wires).compose(physical)
    return ByproductFrame(physical.compose(compiled.intended.inverse()))


def run_schedule(
    state: GaussianState,
    compiled: CompiledProgram,
    order=None,
    rng: np.random.Generator | None = None,
    pins: dict[int, float] | None = None,
) -> RunResult:
    """Execute every scheduled measurement on a prepared register.

    ``order`` permutes measurement execution; the byproduct frame comes
    from :func:`byproduct_frame`, so it does not depend on the order.
    ``pins`` maps node ids to recorded outcomes; unpinned nodes sample
    from ``rng``.
    """
    schedule = compiled.schedule
    order = (
        schedule.canonical_order() if order is None else schedule.validate_order(order)
    )
    pins = pins or {}
    n_wires = compiled.program.n_modes
    mode_of = {node_id: i for i, (node_id, _) in enumerate(compiled.graph.nodes)}
    if state.n_modes != len(mode_of):
        raise ScheduleError(
            f"register has {state.n_modes} modes, graph has {len(mode_of)} nodes"
        )
    outcomes: dict[int, float] = {}
    working = state
    for entry_index in order:
        entry = schedule.entries[entry_index]
        pinned = pins.get(entry.node)
        raw = None if pinned is None else entry.basis.raw(pinned)
        result = homodyne(
            working, mode_of[entry.node], entry.basis.engine_angle, outcome=raw, rng=rng
        )
        outcomes[entry.node] = (
            pinned if pinned is not None else entry.basis.record(result.outcome)
        )
        working = result.state
        mode_of.pop(entry.node)
        mode_of = {node: result.relabel[idx] for node, idx in mode_of.items()}
    if len(mode_of) != n_wires:
        raise ScheduleError("schedule left a dangling unmeasured node")
    wire_order = [mode_of[tail] for tail in compiled.tail_nodes]
    working = working.permute_modes(wire_order)
    return RunResult(outcomes, working, byproduct_frame(compiled, outcomes), order)
