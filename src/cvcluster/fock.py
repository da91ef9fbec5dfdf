"""Truncated number-basis oracle for small mode counts.

This module provides an independent route to the same physics as the
covariance-matrix engine: states are amplitude tensors over photon
number levels, gates are matrix exponentials of quadrature polynomials,
and measurements are carried out by explicit projection.  It exists to
cross-check the Gaussian engine and to host the genuinely non-Gaussian
measurements (photon counting, sheared-quadrature detection).

Quadratures follow the package convention q = (a + a^dag)/sqrt(2),
p = -i (a - a^dag)/sqrt(2), hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .exceptions import (
    InvalidOperationError,
    InvalidStateError,
    MeasurementError,
    TruncationError,
)

MODE_CAP = 3
DEFAULT_CUTOFFS = {1: 40, 2: 18, 3: 10}
LEAKAGE_CEILING = 1e-6
DEFAULT_WINDOW = 0.05
EDGE_WEIGHT_LIMIT = 0.5


def default_cutoff(n_modes: int) -> int:
    if n_modes not in DEFAULT_CUTOFFS:
        raise InvalidOperationError(
            f"number-basis oracle supports 1..{MODE_CAP} modes, got {n_modes}"
        )
    return DEFAULT_CUTOFFS[n_modes]


def destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def position_operator(dim: int) -> np.ndarray:
    a = destroy(dim)
    return (a + a.conj().T) / np.sqrt(2.0)


def momentum_operator(dim: int) -> np.ndarray:
    a = destroy(dim)
    return -1j * (a - a.conj().T) / np.sqrt(2.0)


@dataclass
class FockState:
    """Amplitude tensor over photon-number levels, one axis per mode."""

    amplitudes: np.ndarray
    truncation_safe: bool = field(default=True)

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim == 0 or self.amplitudes.ndim > MODE_CAP:
            raise InvalidOperationError(
                f"number-basis states support 1..{MODE_CAP} modes"
            )
        if not np.all(np.isfinite(self.amplitudes)):
            raise InvalidStateError("state contains non-finite amplitudes")
        norm = np.linalg.norm(self.amplitudes)
        if norm < 1e-12:
            raise InvalidStateError("state has vanishing norm")

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.amplitudes.shape

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def leakage(self) -> float:
        """Largest per-mode population in the top two levels."""
        worst = 0.0
        probs = np.abs(self.amplitudes) ** 2
        probs = probs / probs.sum()
        for axis in range(self.n_modes):
            marginal = probs.sum(axis=tuple(i for i in range(self.n_modes) if i != axis))
            worst = max(worst, float(marginal[-2:].sum()))
        return worst


def _checked(amplitudes: np.ndarray, enforce: bool, context: str) -> FockState:
    state = FockState(amplitudes)
    leak = state.leakage()
    if leak > LEAKAGE_CEILING:
        if enforce:
            raise TruncationError(
                f"{context}: top-level population {leak:.3e} exceeds "
                f"the ceiling {LEAKAGE_CEILING:.1e}"
            )
        state.truncation_safe = False
    return state


def fock_vacuum(n_modes: int = 1, cutoff: int | None = None) -> FockState:
    cutoff = cutoff or default_cutoff(n_modes)
    amps = np.zeros((cutoff,) * n_modes, dtype=complex)
    amps[(0,) * n_modes] = 1.0
    return FockState(amps)


def fock_coherent(
    mean_q: float, mean_p: float, cutoff: int | None = None, enforce: bool = True
) -> FockState:
    """Coherent state from its quadrature means, amplitudes via the
    displacement series."""
    cutoff = cutoff or default_cutoff(1)
    alpha = (mean_q + 1j * mean_p) / np.sqrt(2.0)
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(cutoff - 1):
        amps[n + 1] = amps[n] * alpha / np.sqrt(n + 1)
    return _checked(amps, enforce, "coherent state")


def fock_squeezed_vacuum_p(
    omega: float, cutoff: int | None = None, enforce: bool = True
) -> FockState:
    """Momentum-squeezed vacuum, Var(p) = omega^2 / 2.

    Amplitudes follow the two-step recursion obtained from the
    annihilation condition ((omega^2 + 1) a + (omega^2 - 1) a^dag) |s> = 0.
    Widths far outside [0.2, 5] overflow the default cutoff.
    """
    if omega <= 0 or not np.isfinite(omega):
        raise InvalidOperationError("squeezing width must be positive and finite")
    cutoff = cutoff or default_cutoff(1)
    ratio = (1.0 - omega**2) / (1.0 + omega**2)
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = 1.0
    for n in range(0, cutoff - 2, 2):
        amps[n + 2] = ratio * np.sqrt((n + 1) / (n + 2)) * amps[n]
    amps /= np.linalg.norm(amps)
    return _checked(amps, enforce, "squeezed vacuum")


def fock_tensor(a: FockState, b: FockState) -> FockState:
    if a.n_modes + b.n_modes > MODE_CAP:
        raise InvalidOperationError(
            f"number-basis oracle supports at most {MODE_CAP} modes"
        )
    amps = np.tensordot(a.amplitudes, b.amplitudes, axes=0)
    state = FockState(amps)
    state.truncation_safe = a.truncation_safe and b.truncation_safe
    return state


def _apply_matrix(
    amplitudes: np.ndarray, matrix: np.ndarray, modes: tuple[int, ...]
) -> np.ndarray:
    """Apply a matrix acting on the combined axes ``modes``."""
    n = amplitudes.ndim
    rest = [ax for ax in range(n) if ax not in modes]
    perm = list(modes) + rest
    moved = np.transpose(amplitudes, perm)
    front = int(np.prod([amplitudes.shape[ax] for ax in modes]))
    flat = moved.reshape(front, -1)
    out = matrix @ flat
    out = out.reshape([amplitudes.shape[ax] for ax in perm])
    return np.transpose(out, np.argsort(perm))


def fock_apply(
    state: FockState,
    hermitian: np.ndarray,
    scale: float = 1.0,
    modes: tuple[int, ...] | int = 0,
    enforce: bool = True,
) -> FockState:
    """Apply exp(i * scale * H) for a Hermitian quadrature polynomial H.

    ``hermitian`` must match the combined dimension of ``modes``
    (row-major over the listed modes).  The exponential is computed
    with a dense Pade approximation; accuracy against direct series
    summation is covered by the test suite.
    """
    if isinstance(modes, int):
        modes = (modes,)
    dims = state.dims
    if any(m < 0 or m >= state.n_modes for m in modes):
        raise InvalidOperationError("gate mode out of range")
    dim = int(np.prod([dims[m] for m in modes]))
    hermitian = np.asarray(hermitian, dtype=complex)
    if hermitian.shape != (dim, dim):
        raise InvalidOperationError(
            f"generator shape {hermitian.shape} does not match modes {modes}"
        )
    scale_ref = max(1.0, float(np.max(np.abs(hermitian))))
    if np.max(np.abs(hermitian - hermitian.conj().T)) > 1e-10 * scale_ref:
        raise InvalidOperationError("generator must be Hermitian")
    unitary = expm(1j * float(scale) * hermitian)
    amps = _apply_matrix(state.amplitudes, unitary, modes)
    return _checked(amps, enforce, "gate application")


def fock_fourier(state: FockState, mode: int = 0, enforce: bool = True) -> FockState:
    """Quarter rotation; diagonal phase exp(i pi (2n + 1) / 4) in this basis."""
    dim = state.dims[mode]
    phases = np.exp(1j * np.pi * (2 * np.arange(dim) + 1) / 4.0)
    amps = _apply_matrix(state.amplitudes, np.diag(phases), (mode,))
    return _checked(amps, enforce, "fourier gate")


def fock_shear(state: FockState, mode: int, t: float, enforce: bool = True) -> FockState:
    """Momentum shear exp(i t q^2 / 2)."""
    q = position_operator(state.dims[mode])
    return fock_apply(state, q @ q, scale=t / 2.0, modes=(mode,), enforce=enforce)


def fock_controlled_phase(
    state: FockState, mode_a: int, mode_b: int, g: float = 1.0, enforce: bool = True
) -> FockState:
    """Two-mode interaction exp(i g q ⊗ q)."""
    if mode_a == mode_b:
        raise InvalidOperationError("controlled phase needs two distinct modes")
    qa = position_operator(state.dims[mode_a])
    qb = position_operator(state.dims[mode_b])
    return fock_apply(
        state, np.kron(qa, qb), scale=g, modes=(mode_a, mode_b), enforce=enforce
    )


def fock_cubic_phase(
    state: FockState, mode: int, u: float, enforce: bool = True
) -> FockState:
    """Cubic gate exp(i u q^3 / 3)."""
    q = position_operator(state.dims[mode])
    return fock_apply(state, q @ q @ q, scale=u / 3.0, modes=(mode,), enforce=enforce)


def fock_shift_q(state: FockState, mode: int, s: float, enforce: bool = True) -> FockState:
    """Position displacement exp(-i s p)."""
    p = momentum_operator(state.dims[mode])
    return fock_apply(state, p, scale=-s, modes=(mode,), enforce=enforce)


def fock_position_envelope(
    state: FockState, mode: int, omega: float, center: float = 0.0
) -> FockState:
    """Multiply the position wavefunction by exp(-omega^2 (q - c)^2 / 2).

    Non-unitary; the result is renormalized.
    """
    dim = state.dims[mode]
    q = position_operator(state.dims[mode])
    shifted = q - center * np.eye(dim)
    filt = expm(-0.5 * omega**2 * (shifted @ shifted))
    amps = _apply_matrix(state.amplitudes, filt, (mode,))
    return FockState(amps / np.linalg.norm(amps))


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions, rows 0..n_max-1 over x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max, x.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(
            n / (n + 1)
        ) * out[n - 1]
    return out


def _window_kernel(n_max: int, center: float, width: float) -> np.ndarray:
    """Overlaps of each number level with the normalized boxcar window."""
    # 5-point Gauss-Legendre on the window
    nodes, weights = np.polynomial.legendre.leggauss(5)
    x = center + 0.5 * width * nodes
    phi = hermite_functions(n_max, x)
    integral = 0.5 * width * phi @ weights
    return integral / np.sqrt(width)


def _rotate_for_quadrature(state: FockState, mode: int, theta: float) -> FockState:
    """Map measurement of q cos(theta) + p sin(theta) onto a q measurement."""
    if theta == 0.0:
        return state
    dim = state.dims[mode]
    phases = np.exp(-1j * theta * np.arange(dim))
    amps = _apply_matrix(state.amplitudes, np.diag(phases), (mode,))
    return FockState(amps, state.truncation_safe)


def quadrature_grid(dim: int, width: float = DEFAULT_WINDOW) -> np.ndarray:
    """Bin centers covering the classically allowed range at this cutoff."""
    reach = np.sqrt(2.0 * dim) + 3.0
    half = int(np.ceil(reach / width))
    return width * np.arange(-half, half + 1)


def quadrature_density(
    state: FockState, mode: int, theta: float, grid: np.ndarray
) -> np.ndarray:
    """Marginal density of the rotated quadrature on the given points."""
    work = _rotate_for_quadrature(state, mode, theta)
    phi = hermite_functions(state.dims[mode], grid)
    # contract the measured axis against the eigenfunction table
    proj = np.tensordot(phi.T, work.amplitudes, axes=([1], [mode]))
    flat = proj.reshape(grid.size, -1)
    return np.sum(np.abs(flat) ** 2, axis=1)


def fock_homodyne(
    state: FockState,
    mode: int,
    theta: float,
    outcome: float | None = None,
    rng: np.random.Generator | None = None,
    window: float = DEFAULT_WINDOW,
) -> tuple[float, FockState]:
    """Window-resolved homodyne measurement of q cos(theta) + p sin(theta).

    The quadrature axis is discretized into bins of the given width;
    conditioning projects onto the normalized window state of the
    selected bin, so pinned and sampled outcomes share one code path.
    The measured mode is removed from the returned state.

    Args:
        state: one to three mode number-basis state.
        mode: measured mode.
        theta: quadrature angle from the position axis.
        outcome: pinned value, or None to sample via ``rng``.
        rng: random generator for sampling.
        window: bin width; narrower windows converge to exact
            quadrature conditioning.

    Returns:
        ``(outcome, conditioned_state)``.
    """
    if state.n_modes < 1:
        raise MeasurementError("empty state")
    work = _rotate_for_quadrature(state, mode, theta)
    dim = state.dims[mode]
    grid = quadrature_grid(dim, window)
    if outcome is None:
        if rng is None:
            raise MeasurementError("sampling a homodyne outcome requires rng")
        density = quadrature_density(work, mode, 0.0, grid)
        probs = density * window
        total = probs.sum()
        if total <= 0:
            raise MeasurementError("quadrature distribution vanished")
        idx = int(rng.choice(grid.size, p=probs / total))
        outcome = float(grid[idx])
        center = outcome
    else:
        outcome = float(outcome)
        center = float(grid[int(np.argmin(np.abs(grid - outcome)))])
    kernel = _window_kernel(dim, center, window)
    projected = np.tensordot(kernel, work.amplitudes, axes=([0], [mode]))
    weight = float(np.linalg.norm(projected) ** 2) * window
    if weight < 1e-12:
        raise MeasurementError(
            f"window at {center:.3f} has probability below 1e-12"
        )
    if state.n_modes == 1:
        return outcome, FockState(np.array([1.0 + 0.0j]))
    conditioned = FockState(projected / np.linalg.norm(projected))
    conditioned.truncation_safe = state.truncation_safe
    return outcome, conditioned


def photon_count(
    state: FockState,
    mode: int,
    outcome: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, FockState]:
    """Number measurement on one mode; the mode is removed afterwards."""
    probs = np.abs(state.amplitudes) ** 2
    axes = tuple(ax for ax in range(state.n_modes) if ax != mode)
    marginal = probs.sum(axis=axes) if axes else probs
    marginal = marginal / marginal.sum()
    if outcome is None:
        if rng is None:
            raise MeasurementError("sampling a photon count requires rng")
        outcome = int(rng.choice(marginal.size, p=marginal))
    else:
        outcome = int(outcome)
        if outcome < 0 or outcome >= marginal.size:
            raise MeasurementError("pinned photon number outside the cutoff")
        if marginal[outcome] < 1e-12:
            raise MeasurementError("pinned photon number has vanishing probability")
    sliced = np.take(state.amplitudes, outcome, axis=mode)
    if state.n_modes == 1:
        return outcome, FockState(np.array([1.0 + 0.0j]))
    conditioned = FockState(sliced / np.linalg.norm(sliced))
    conditioned.truncation_safe = state.truncation_safe
    return outcome, conditioned


def nonlinear_quadrature_operator(dim: int, u: float) -> np.ndarray:
    """The observable p + u q^2 at the given cutoff."""
    q = position_operator(dim)
    return momentum_operator(dim) + u * (q @ q)


def nonlinear_spectral_measure(
    state: FockState, mode: int, u: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, state weights, and edge weights of p + u q^2.

    The third array holds each eigenvector's population in the top two
    number levels, used to flag truncation-unsafe outcomes.
    """
    dim = state.dims[mode]
    values, vectors = np.linalg.eigh(nonlinear_quadrature_operator(dim, u))
    proj = np.tensordot(vectors.conj().T, state.amplitudes, axes=([1], [mode]))
    weights = np.sum(np.abs(proj.reshape(dim, -1)) ** 2, axis=1)
    edge = np.sum(np.abs(vectors[-2:, :]) ** 2, axis=0)
    return values, weights, edge


def measure_nonlinear_quadrature(
    state: FockState,
    mode: int,
    u: float,
    outcome: float | None = None,
    rng: np.random.Generator | None = None,
    bin_width: float = DEFAULT_WINDOW,
) -> tuple[float, FockState]:
    """Measure the sheared quadrature p + u q^2 on one mode.

    Outcomes are eigenvalues of the truncated observable, binned to
    ``bin_width``; conditioning projects onto the selected bin's
    eigenspace and keeps the mode.  Bins dominated by eigenvectors that
    live in the top number levels are rejected as truncation-unsafe.
    """
    values, weights, edge = nonlinear_spectral_measure(state, mode, u)
    bins = np.round(values / bin_width).astype(int)
    if outcome is None:
        if rng is None:
            raise MeasurementError("sampling requires rng")
        unique, inverse = np.unique(bins, return_inverse=True)
        probs = np.bincount(inverse, weights=weights)
        probs = probs / probs.sum()
        chosen = unique[int(rng.choice(unique.size, p=probs))]
    else:
        chosen = int(np.round(float(outcome) / bin_width))
    mask = bins == chosen
    bin_weight = float(weights[mask].sum())
    if bin_weight < 1e-12:
        raise MeasurementError("selected outcome bin has probability below 1e-12")
    unsafe = float(weights[mask & (edge > EDGE_WEIGHT_LIMIT)].sum())
    if unsafe > 0.5 * bin_weight:
        raise TruncationError(
            "outcome bin dominated by eigenvectors at the cutoff edge"
        )
    dim = state.dims[mode]
    _, vectors = np.linalg.eigh(nonlinear_quadrature_operator(dim, u))
    basis = vectors[:, mask]
    projector = basis @ basis.conj().T
    amps = _apply_matrix(state.amplitudes, projector, (mode,))
    conditioned = FockState(amps / np.linalg.norm(amps))
    conditioned.truncation_safe = state.truncation_safe
    return float(chosen * bin_width), conditioned


def overlap(a: FockState, b: FockState) -> complex:
    """Inner product <a|b>; its squared modulus is the pure-state fidelity."""
    if a.dims != b.dims:
        raise InvalidOperationError("overlap needs matching cutoffs and modes")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def moments(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean vector and symmetrized covariance, block ordering."""
    m = state.n_modes
    amps = state.amplitudes / np.linalg.norm(state.amplitudes)
    mats = []
    for mode in range(m):
        mats.append(position_operator(state.dims[mode]))
    for mode in range(m):
        mats.append(momentum_operator(state.dims[mode]))
    axis_of = list(range(m)) + list(range(m))

    def expect(ops: list[tuple[int, np.ndarray]]) -> float:
        work = amps
        for axis, mat in ops:
            work = _apply_matrix(work, mat, (axis,))
        return float(np.real(np.vdot(amps, work)))

    mean = np.array([expect([(axis_of[i], mats[i])]) for i in range(2 * m)])
    cov = np.zeros((2 * m, 2 * m))
    for i in range(2 * m):
        for j in range(i, 2 * m):
            ai, aj = axis_of[i], axis_of[j]
            if ai == aj:
                sym = 0.5 * (mats[i] @ mats[j] + mats[j] @ mats[i])
                raw = expect([(ai, sym)])
            else:
                raw = expect([(ai, mats[i]), (aj, mats[j])])
            cov[i, j] = cov[j, i] = raw - mean[i] * mean[j]
    return mean, cov
