"""Finite-squeezing distortion and interaction-noise models.

Every teleportation off a finitely squeezed node multiplies the
position wavefunction of the advanced wire by a Gaussian envelope.
This module applies such envelopes in closed form to Gaussian states,
gathers the envelopes of a whole run into a single distortion acting
on the program input (with the ideal outcome-resolved map applied
afterwards), and models interaction-link noise budgets.

An envelope exp(-omega^2 (l.x + c)^2 / 2) is a readout of the
quadrature form l.x through a pointer of position variance
1/(2 omega^2), conditioned on the value -c: one covariance update that
holds for pure and mixed states alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidOperationError
from .gaussian import GaussianState, _add_link_kicks, _add_link_variance
from .mbqc import (
    DEFAULT_ANCILLA_OMEGA,
    CompiledProgram,
    GateProgram,
    compile_program,
)
from .symplectic import SymplecticAffine, symplectic_form

NEGLIGIBLE_STRENGTH = 1e-9


@dataclass(frozen=True)
class NoiseBudget:
    """Additive Gaussian noise knobs for imperfect hardware.

    ``per_link_variance`` is added to both quadratures of both modes
    for every interaction link; the per-quadrature overrides allow an
    anisotropic budget.  Each link's noise is added right after that
    link, before later links spread it.  ``input_excess_variance``
    thermalizes the program input, modeling mixed input states.
    """

    per_link_variance: float = 0.0
    per_link_variance_q: float | None = None
    per_link_variance_p: float | None = None
    input_excess_variance: float = 0.0

    def __post_init__(self) -> None:
        for value in (
            self.per_link_variance,
            self.per_link_variance_q,
            self.per_link_variance_p,
            self.input_excess_variance,
        ):
            if value is not None and (not np.isfinite(value) or value < 0):
                raise InvalidOperationError("noise variances must be finite and >= 0")

    def link_variances(self) -> tuple[float, float]:
        vq = (
            self.per_link_variance
            if self.per_link_variance_q is None
            else self.per_link_variance_q
        )
        vp = (
            self.per_link_variance
            if self.per_link_variance_p is None
            else self.per_link_variance_p
        )
        return vq, vp


def _apply_envelope(
    state: GaussianState, form: np.ndarray, offset: float, omega: float
) -> GaussianState:
    """Multiply a state by exp(-omega^2 (form . x + offset)^2 / 2) and renormalize.

    A readout of ``form . x`` through a pointer of position variance
    1/(2 omega^2) that returns -offset: the pointer kicks the conjugate
    direction Sigma form, then the state is conditioned on the readout
    with the rank-one update of a homodyne measurement.
    """
    if not (np.isfinite(omega) and omega > 0):
        raise InvalidOperationError("envelope width must be positive and finite")
    if not np.isfinite(offset):
        raise InvalidOperationError("envelope center must be finite")
    if omega * np.linalg.norm(form) < NEGLIGIBLE_STRENGTH:
        # a constant attenuation factor, removed by renormalization
        return state
    kick = symplectic_form(state.n_modes) @ form
    cov = state.cov + (0.5 * omega * omega) * np.outer(kick, kick)
    cross = cov @ form
    var = form @ cross + 0.5 / (omega * omega)
    mean = state.mean + cross * ((-offset - form @ state.mean) / var)
    return GaussianState(mean, cov - np.outer(cross, cross) / var, validate=False)


def apply_position_envelope(
    state: GaussianState, mode: int, omega: float, center: float = 0.0
) -> GaussianState:
    """Multiply one mode's position wavefunction by
    exp(-omega^2 (q - center)^2 / 2) and renormalize."""
    if mode < 0 or mode >= state.n_modes:
        raise InvalidOperationError("envelope mode out of range")
    form = np.zeros(2 * state.n_modes)
    form[mode] = 1.0
    return _apply_envelope(state, form, -center, omega)


@dataclass(frozen=True)
class LinearFormEnvelope:
    """Attenuation exp(-omega^2 L^2 / 2) for a quadrature linear form
    L = sum_j (cq_j q_j + cp_j p_j) + offset, applied as one covariance
    update (see :func:`_apply_envelope`)."""

    coeff_q: tuple[float, ...]
    coeff_p: tuple[float, ...]
    offset: float
    omega: float

    @property
    def n_modes(self) -> int:
        return len(self.coeff_q)

    def apply(self, state: GaussianState) -> GaussianState:
        if not state.n_modes == self.n_modes == len(self.coeff_p):
            raise InvalidOperationError("linear form needs one q and one p coefficient per mode")
        form = np.concatenate([self.coeff_q, self.coeff_p])
        return _apply_envelope(state, form, self.offset, self.omega)


@dataclass(frozen=True)
class AccumulatedDistortion:
    """All envelopes of a run gathered onto the program input.

    Terms are applied first to last; term ``i`` is the step-``i``
    envelope conjugated back through the run prefix up to that step.
    """

    terms: tuple[LinearFormEnvelope, ...]
    n_modes: int

    def apply(self, state: GaussianState) -> GaussianState:
        for term in self.terms:
            state = term.apply(state)
        return state


def _outcome_map(compiled: CompiledProgram, outcomes) -> dict[int, float]:
    entries = compiled.schedule.entries
    if isinstance(outcomes, dict):
        missing = [e.node for e in entries if e.node not in outcomes]
        if missing:
            raise InvalidOperationError(f"missing outcomes for nodes {missing}")
        stray = sorted(set(outcomes) - {e.node for e in entries})
        if stray:
            raise InvalidOperationError(f"outcomes name no measured node: {stray}")
        values = [float(outcomes[e.node]) for e in entries]
    else:
        values = [float(s) for s in outcomes]
    if len(values) != len(entries):
        raise InvalidOperationError(
            f"expected {len(entries)} outcomes, got {len(values)}"
        )
    if not np.all(np.isfinite(values)):
        raise InvalidOperationError("outcomes must be finite")
    return {entry.node: value for entry, value in zip(entries, values)}


def decompose_distortion(
    program: GateProgram,
    outcomes,
    omega: float = DEFAULT_ANCILLA_OMEGA,
    omega_overrides: dict[int, float] | None = None,
) -> tuple[SymplecticAffine, AccumulatedDistortion]:
    """Split a finite-squeezing run into ideal map and gathered distortion.

    Returns the outcome-resolved affine the run applies in the ideal
    limit, and the accumulated distortion such that applying the
    distortion to the input and then the affine reproduces the
    simulated output exactly.  ``outcomes`` is a node-to-value mapping
    or a sequence in schedule order, in recorded units.
    """
    compiled = compile_program(program, omega, omega_overrides)
    recorded = _outcome_map(compiled, outcomes)
    n = program.n_modes
    # the run prefix after each step: its matrix is stored at compile
    # time, its shift chains the steps' shifts as composing their maps does
    matrix, shift = np.eye(2 * n), np.zeros(2 * n)
    terms: list[LinearFormEnvelope] = []
    for step, part in zip(compiled.schedule.steps, compiled.frames):
        matrix, shift = part.prefix, part.matrix @ shift + part.shift(recorded)
        for wire, width in zip(step.wires, step.omegas):
            row = matrix[wire]
            terms.append(
                LinearFormEnvelope(
                    coeff_q=tuple(row[:n]),
                    coeff_p=tuple(row[n:]),
                    offset=float(shift[wire]),
                    omega=width,
                )
            )
    return SymplecticAffine._derived(matrix, shift), AccumulatedDistortion(tuple(terms), n)


def apply_qnd_noise(
    state: GaussianState,
    links: int,
    budget: NoiseBudget,
    rng: np.random.Generator | None = None,
    modes: list[int] | None = None,
) -> GaussianState:
    """Additive Gaussian noise from imperfect interaction links.

    The covariance of the affected modes grows by links times the
    per-link budget on each quadrature; with an rng the mean picks up
    a corresponding random kick, without one (pinned mode) the mean is
    untouched.  A mode listed several times in ``modes`` takes the noise
    once per listing, in list order.  Cluster preparation adds this
    noise with ``links=1`` to both ends of each link right after it.
    """
    if links < 0:
        raise InvalidOperationError("link count must be nonnegative")
    vq, vp = budget.link_variances()
    out = GaussianState(state.mean.copy(), state.cov.copy(), validate=False)
    modes = range(state.n_modes) if modes is None else modes
    noise = (links * vq, links * vp)
    _add_link_variance(out.cov, modes, noise)
    if rng is not None:
        _add_link_kicks(out.mean, modes, noise, rng.normal)
    return out


def apply_input_noise(state: GaussianState, budget: NoiseBudget) -> GaussianState:
    """Thermalize an input: equal excess variance on every quadrature."""
    excess = budget.input_excess_variance
    if excess == 0.0:
        return GaussianState(state.mean.copy(), state.cov.copy(), validate=False)
    cov = state.cov + excess * np.eye(2 * state.n_modes)
    return GaussianState(state.mean.copy(), cov, validate=False)
