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
from typing import NamedTuple

import numpy as np

from .cluster import ClusterGraph, _linked_register
from .exceptions import (
    FrameError,
    InvalidOperationError,
    MeasurementError,
    ScheduleError,
)
from .gaussian import GaussianState, vacuum
from .gaussian import homodyne  # noqa: F401 - unused; the benchmark tracer rebinds it here
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


def _composed(maps, n_modes: int) -> SymplecticAffine:
    """Composition of ``maps``, later maps applied last."""
    total = SymplecticAffine.identity(n_modes)
    for op_map in maps:
        total = op_map.compose(total)
    return total


def intended_affine(program: GateProgram) -> SymplecticAffine:
    """Composition of all intended gates, later instructions applied last."""
    n = program.n_modes
    return _composed([instruction_affine(op, n) for op in program.ops], n)


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
    barrier: int


class MeasurementSchedule:
    """Ordered homodyne plan; entries may execute in any order."""

    def __init__(self, steps: list[StepPlan]):
        self.steps = tuple(steps)
        self.entries = tuple(
            ScheduleEntry(node, basis, wire, step.index, barrier=0)
            for step in self.steps
            for node, basis, wire in zip(step.measured_nodes, step.bases, step.wires)
        )

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
class StepFrame:
    """The parts of one step's physical map ``x -> matrix x + shift`` that
    read no outcome, fixed at compile time.

    ``prefix`` is the running product of the step matrices up to and
    including this step.  The shift starts at ``fixed``, the first
    byproduct applied to the instruction's shift (None for zero), and each
    ``(node, wire, carry)`` of ``reads`` then adds its outcome on the
    wire's position, after ``carry`` (a later byproduct's matrix, None for
    the first) acts on what came before.
    """

    matrix: np.ndarray
    prefix: np.ndarray
    fixed: np.ndarray | None
    reads: tuple[tuple[int, int, np.ndarray | None], ...]

    def shift(self, outcomes: dict[int, float]) -> np.ndarray:
        """The step's shift for recorded ``outcomes``, in the arithmetic of
        composing its byproducts one by one."""
        shift = self.fixed
        for node, wire, carry in self.reads:
            if carry is not None:
                shift = carry @ shift
            kick = np.zeros(len(self.matrix))
            kick[wire] = outcomes[node]
            shift = kick if shift is None else shift + kick
        return np.zeros(len(self.matrix)) if shift is None else shift


def _step_frame(step: StepPlan, op_map: SymplecticAffine, quarters, prefix) -> StepFrame:
    """A step's physical map: the instruction's map followed by each
    measured node's byproduct, or the byproduct alone for a Fourier step,
    whose quarter rotation is the byproduct itself; the identity for a
    classical step.  ``quarters[w]`` is the byproduct matrix on wire w."""
    if step.kind == "classical":
        matrix, fixed, reads = np.eye(len(prefix)), None, ()
    else:
        byproducts = [quarters[wire] for wire in step.wires]
        carries = [None] + byproducts[1:]
        reads = tuple(zip(step.measured_nodes, step.wires, carries))
        if step.instruction.kind == "f":
            matrix, fixed = byproducts[0], None
        else:
            matrix, fixed = byproducts[0] @ op_map.matrix, byproducts[0] @ op_map.shift
            for byproduct in byproducts[1:]:
                matrix = byproduct @ matrix
    return StepFrame(matrix, matrix @ prefix, fixed, reads)


@dataclass(frozen=True)
class CompiledProgram:
    """Cluster graph plus measurement schedule realizing a program, with
    the program's intended map and its byproduct frame's fixed parts:
    one :class:`StepFrame` per step, the frame's matrix and the part of
    its shift that reads no outcome (``frame_offset``)."""

    program: GateProgram
    graph: ClusterGraph
    head_nodes: tuple[int, ...]
    tail_nodes: tuple[int, ...]
    schedule: MeasurementSchedule
    intended: SymplecticAffine
    frames: tuple[StepFrame, ...]
    frame_matrix: np.ndarray
    frame_offset: np.ndarray


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
    measurement; they are folded into frame bookkeeping.  Each
    instruction's map is built once here, and from those the intended
    map and every matrix of the byproduct frame, which no outcome moves;
    a trial's frame replays only the shifts.
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
    schedule = MeasurementSchedule(steps)
    maps = [instruction_affine(op, program.n_modes) for op in program.ops]
    intended = _composed(maps, program.n_modes)
    quarters = [_byproduct(0.0, program.n_modes, wire).matrix for wire in heads]
    frames, prefix = [], np.eye(2 * program.n_modes)
    for step in steps:
        frames.append(_step_frame(step, maps[step.index], quarters, prefix))
        prefix = frames[-1].prefix
    inverse = intended.inverse()
    return CompiledProgram(
        program,
        graph,
        heads,
        tuple(tails),
        schedule,
        intended,
        tuple(frames),
        prefix @ inverse.matrix,
        prefix @ inverse.shift,
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


class _Resolution(NamedTuple):
    """Covariance half of :func:`resolve_frame`: the inverse of the
    frame's matrix, its negative, and the resolved covariance."""

    inverse: np.ndarray
    negative: np.ndarray
    cov: np.ndarray


def _resolution_cov(matrix: np.ndarray, cov: np.ndarray) -> _Resolution:
    """Covariance half of resolving a frame whose matrix is ``matrix`` on
    an output with covariance ``cov``."""
    inverse = np.linalg.inv(matrix)
    return _Resolution(inverse, -inverse, inverse @ cov @ inverse.T)


def _resolution_mean(half: _Resolution, mean: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Mean half: the resolved mean of an output with mean ``mean`` under
    a frame whose shift is ``shift``, as applying the inverse map does."""
    return half.inverse @ mean + half.negative @ shift


def resolve_frame(state: GaussianState, frame: ByproductFrame) -> GaussianState:
    """Undo the accumulated byproduct; a frame resolves exactly once."""
    if frame.consumed:
        raise FrameError("byproduct frame was already resolved")
    if state.n_modes != frame.n_modes:
        raise FrameError(
            f"frame covers {frame.n_modes} modes, state has {state.n_modes}"
        )
    frame.consumed = True
    half = _resolution_cov(frame.affine.matrix, state.cov)
    mean = _resolution_mean(half, state.mean, frame.affine.shift)
    return GaussianState(mean, half.cov, validate=False)


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


@dataclass
class RunResult:
    """Everything a schedule execution produced."""

    outcomes: dict[int, float]
    state: GaussianState
    frame: ByproductFrame


def _frame_shift(compiled: CompiledProgram, outcomes: dict[int, float]) -> np.ndarray:
    """Shift of a run's frame, the only part of it that reads outcomes:
    the steps' shifts chained in the arithmetic of composing their maps,
    then the program's inverse."""
    shift = np.zeros(len(compiled.frame_matrix))
    for part in compiled.frames:
        shift = part.matrix @ shift + part.shift(outcomes)
    return compiled.frame_offset + shift


def byproduct_frame(
    compiled: CompiledProgram, outcomes: dict[int, float]
) -> ByproductFrame:
    """Frame of a run, assembled in wire order from its recorded outcomes,
    so it does not depend on the order the measurements ran in."""
    matrix = compiled.frame_matrix.copy()
    return ByproductFrame(SymplecticAffine._derived(matrix, _frame_shift(compiled, outcomes)))


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


def run_schedule(
    state: GaussianState,
    compiled: CompiledProgram,
    order=None,
    rng: np.random.Generator | None = None,
    pins: dict[int, float] | None = None,
) -> RunResult:
    """Execute every scheduled measurement on a prepared register.

    Plans the readouts on the register's covariance (:func:`plan_schedule`)
    and walks the plan once on its mean; trial loops keep one plan for
    every trial instead.  ``order`` permutes measurement execution; the
    byproduct frame comes from :func:`byproduct_frame`, so it does not
    depend on the order.
    """
    plan, outcomes = plan_schedule(state.cov, compiled, order), {}
    mean = plan.walk(state.mean, outcomes, rng, pins)
    output = GaussianState(mean, plan.cov, validate=False)
    return RunResult(outcomes, output, byproduct_frame(compiled, outcomes))


@dataclass(frozen=True)
class TeleportResult:
    outcome: float
    state: GaussianState
    frame_update: SymplecticAffine


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

    Runs the one-instruction program on ``state`` through the path every
    program takes (:func:`compile_program`, :func:`prepare_cluster_state`,
    :func:`run_schedule`); the identity gate is the bare Fourier step.
    ``outcome`` pins the recorded value; otherwise it is sampled.  The
    returned frame update is the displacement-plus-quarter-rotation
    byproduct on the advanced wire.
    """
    basis_for_diagonal(gate, param)  # rejects gates that are not diagonal
    kind = "f" if gate == "identity" else gate
    op = Instruction(kind, (mode,), () if kind == "f" else (param,))
    compiled = compile_program(GateProgram(state.n_modes, (op,)), omega)
    pins = None if outcome is None else {mode: outcome}
    run = run_schedule(prepare_cluster_state(compiled, state), compiled, rng=rng, pins=pins)
    recorded = run.outcomes[mode]
    return TeleportResult(recorded, run.state, _byproduct(recorded))
