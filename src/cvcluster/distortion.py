"""Finite-squeezing distortion and interaction-noise models.

Every teleportation off a finitely squeezed node multiplies the
position wavefunction of the advanced wire by a Gaussian envelope.
This module applies such envelopes in closed form to pure Gaussian
states, gathers the envelopes of a whole run into a single distortion
acting on the program input (with the ideal outcome-resolved map
applied afterwards), and models interaction-link noise budgets.

Pure Gaussian states are handled through their position wavefunction
``psi(x) ~ exp(-x^T G x / 2 + b^T x)`` with complex ``G`` and ``b``;
multiplying by an envelope is a rank-one update of ``(G, b)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidOperationError, InvalidStateError
from .gaussian import GaussianState, _add_link_kicks, _add_link_variance, apply_affine
from .mbqc import (
    DEFAULT_ANCILLA_OMEGA,
    CompiledProgram,
    GateProgram,
    compile_program,
)
from .symplectic import SymplecticAffine

NEGLIGIBLE_STRENGTH = 1e-9


@dataclass(frozen=True)
class DistortionEnvelope:
    """Position-space Gaussian attenuation exp(-omega^2 (q - c)^2 / 2).

    The position-space variance of the envelope profile is omega^-2;
    equivalently the momentum wavefunction is convolved with a Gaussian
    of variance omega^2.
    """

    omega: float
    center: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise InvalidOperationError("envelope width must be positive and finite")
        if not np.isfinite(self.center):
            raise InvalidOperationError("envelope center must be finite")


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


def wavefunction_parameters(state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
    """Complex quadratic form and linear term of a pure state's
    position wavefunction."""
    if not state.is_pure():
        raise InvalidStateError("wavefunction parameters exist only for pure states")
    n = state.n_modes
    v_qq = state.cov[:n, :n]
    v_qp = state.cov[:n, n:]
    g_real = 0.5 * np.linalg.inv(v_qq)
    g_imag = -np.linalg.solve(v_qq, v_qp)
    g_real = 0.5 * (g_real + g_real.T)
    g_imag = 0.5 * (g_imag + g_imag.T)
    m_q, m_p = state.mean[:n], state.mean[n:]
    beta_real = g_real @ m_q
    beta_imag = m_p + g_imag @ m_q
    return g_real + 1j * g_imag, beta_real + 1j * beta_imag


def state_from_wavefunction(gamma: np.ndarray, beta: np.ndarray) -> GaussianState:
    """Rebuild (mean, cov) from position-wavefunction parameters."""
    gamma = np.asarray(gamma, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    g_real, g_imag = gamma.real, gamma.imag
    eigenvalues = np.linalg.eigvalsh(0.5 * (g_real + g_real.T))
    if eigenvalues.min() <= 0:
        raise InvalidStateError("wavefunction quadratic form must be positive definite")
    g_real_inv = np.linalg.inv(g_real)
    v_qq = 0.5 * g_real_inv
    v_qp = -v_qq @ g_imag
    v_pp = 0.5 * (g_real + g_imag @ g_real_inv @ g_imag)
    m_q = g_real_inv @ beta.real
    m_p = beta.imag - g_imag @ m_q
    n = gamma.shape[0]
    cov = np.zeros((2 * n, 2 * n))
    cov[:n, :n] = v_qq
    cov[:n, n:] = v_qp
    cov[n:, :n] = v_qp.T
    cov[n:, n:] = v_pp
    return GaussianState(np.concatenate([m_q, m_p]), cov)


def apply_position_envelope(
    state: GaussianState, mode: int, omega: float, center: float = 0.0
) -> GaussianState:
    """Multiply one mode's position wavefunction by
    exp(-omega^2 (q - center)^2 / 2) and renormalize."""
    if mode < 0 or mode >= state.n_modes:
        raise InvalidOperationError("envelope mode out of range")
    gamma, beta = wavefunction_parameters(state)
    strength = omega * omega
    gamma[mode, mode] += strength
    beta[mode] += strength * center
    return state_from_wavefunction(gamma, beta)


def apply_envelope(state: GaussianState, env: DistortionEnvelope) -> GaussianState:
    """Single-mode distortion envelope, closed form."""
    if state.n_modes != 1:
        raise InvalidOperationError(
            "apply_envelope takes a single mode; marginalize first"
        )
    return apply_position_envelope(state, 0, env.omega, env.center)


def _complete_unitary(first_row: np.ndarray) -> np.ndarray:
    """Unitary matrix whose first row is the given unit vector."""
    n = first_row.size
    seed = np.eye(n, dtype=complex)
    seed[:, 0] = np.conj(first_row)
    q, _ = np.linalg.qr(seed)
    phase = np.vdot(q[:, 0], np.conj(first_row))
    q[:, 0] = q[:, 0] * phase
    return q.conj().T


@dataclass(frozen=True)
class LinearFormEnvelope:
    """Attenuation exp(-omega^2 L^2 / 2) for a quadrature linear form
    L = sum_j (cq_j q_j + cp_j p_j) + offset.

    Applied by rotating the form onto a single position axis with a
    passive transformation, using the closed-form single-mode envelope
    there, and rotating back.
    """

    coeff_q: tuple[float, ...]
    coeff_p: tuple[float, ...]
    offset: float
    omega: float

    @property
    def n_modes(self) -> int:
        return len(self.coeff_q)

    def apply(self, state: GaussianState) -> GaussianState:
        if state.n_modes != self.n_modes:
            raise InvalidOperationError("linear form and state mode counts differ")
        u = np.asarray(self.coeff_q, dtype=float)
        v = np.asarray(self.coeff_p, dtype=float)
        zeta = u + 1j * v
        radius = float(np.linalg.norm(zeta))
        if self.omega * radius < NEGLIGIBLE_STRENGTH:
            # a constant attenuation factor, removed by renormalization
            return state
        unitary = _complete_unitary(np.conj(zeta) / radius)
        n = self.n_modes
        rot = np.zeros((2 * n, 2 * n))
        rot[:n, :n] = unitary.real
        rot[:n, n:] = -unitary.imag
        rot[n:, :n] = unitary.imag
        rot[n:, n:] = unitary.real
        rotation = SymplecticAffine(rot, np.zeros(2 * n))
        rotated = apply_affine(state, rotation)
        attenuated = apply_position_envelope(
            rotated, 0, self.omega * radius, -self.offset / radius
        )
        return apply_affine(attenuated, rotation.inverse())


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
        return {e.node: float(outcomes[e.node]) for e in entries}
    values = [float(s) for s in outcomes]
    if len(values) != len(entries):
        raise InvalidOperationError(
            f"expected {len(entries)} outcomes, got {len(values)}"
        )
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
