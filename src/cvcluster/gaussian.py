"""Gaussian states over n bosonic modes and the operations that keep them Gaussian.

Conventions, fixed package-wide:

* hbar = 1 and [q, p] = i, so the vacuum has Var(q) = Var(p) = 1/2.
* Quadratures are ordered block-wise: (q_1 .. q_n, p_1 .. p_n).
* ``cov`` is the symmetrized covariance matrix, ``mean`` the expectation
  vector of the quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .exceptions import InvalidOperationError, InvalidStateError, MeasurementError
from .symplectic import SymplecticAffine, _embed_index, rotation, symplectic_form

VACUUM_VARIANCE = 0.5
OMEGA_FLOOR = 1e-6
CONDITIONING_FLOOR = 1e-12
UNCERTAINTY_SLACK = 1e-9
PURITY_TOL = 1e-9


@dataclass
class GaussianState:
    """Mean vector and covariance matrix of a Gaussian state.

    Instances are plain values: every operation returns a new state and
    never mutates its input.
    """

    mean: np.ndarray
    cov: np.ndarray
    validate: bool = True

    def __post_init__(self) -> None:
        self.mean = np.array(self.mean, dtype=float).reshape(-1)
        self.cov = np.array(self.cov, dtype=float)
        dim = self.mean.shape[0]
        if dim % 2 != 0:
            raise InvalidStateError("quadrature vector length must be even")
        if self.cov.shape != (dim, dim):
            raise InvalidStateError(
                f"covariance shape {self.cov.shape} does not match mean length {dim}"
            )
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.cov)):
            raise InvalidStateError("state contains non-finite entries")
        if self.validate and dim > 0:
            scale = max(1.0, float(np.max(np.abs(self.cov))))
            if np.max(np.abs(self.cov - self.cov.T)) > 1e-10 * scale:
                raise InvalidStateError("covariance matrix is not symmetric")
            self.cov = 0.5 * (self.cov + self.cov.T)
            nus = self.symplectic_eigenvalues()
            if nus.size and np.min(nus) < VACUUM_VARIANCE - UNCERTAINTY_SLACK:
                raise InvalidStateError(
                    "covariance violates the uncertainty bound "
                    f"(min symplectic eigenvalue {np.min(nus):.6g})"
                )

    @property
    def n_modes(self) -> int:
        return self.mean.shape[0] // 2

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Moduli of the symplectic spectrum; all 1/2 for pure states."""
        n = self.n_modes
        if n == 0:
            return np.zeros(0)
        eigs = np.abs(np.linalg.eigvals(symplectic_form(n) @ self.cov))
        return np.sort(eigs)[::2]

    def is_pure(self, tol: float = PURITY_TOL) -> bool:
        nus = self.symplectic_eigenvalues()
        return bool(np.all(np.abs(nus - VACUUM_VARIANCE) <= tol)) if nus.size else True

    def tensor(self, other: "GaussianState") -> "GaussianState":
        """Product state with this state's modes first."""
        n, m = self.n_modes, other.n_modes
        mean = np.concatenate(
            [self.mean[:n], other.mean[:m], self.mean[n:], other.mean[m:]]
        )
        cov = np.zeros((2 * (n + m), 2 * (n + m)))
        idx_a = list(range(n)) + list(range(n + m, 2 * n + m))
        idx_b = list(range(n, n + m)) + list(range(2 * n + m, 2 * (n + m)))
        cov[np.ix_(idx_a, idx_a)] = self.cov
        cov[np.ix_(idx_b, idx_b)] = other.cov
        return GaussianState(mean, cov, validate=False)

    def permute_modes(self, order: list[int] | tuple[int, ...]) -> "GaussianState":
        """Reorder modes so that new mode i is old mode order[i]."""
        n = self.n_modes
        if sorted(order) != list(range(n)):
            raise InvalidOperationError("order must be a permutation of all modes")
        idx = list(order) + [n + m for m in order]
        return GaussianState(self.mean[idx], self.cov[np.ix_(idx, idx)], validate=False)

    def reduced(self, modes: list[int] | tuple[int, ...]) -> "GaussianState":
        """Marginal state of the given modes, in the given order."""
        n = self.n_modes
        if any(m < 0 or m >= n for m in modes):
            raise InvalidOperationError("mode index out of range")
        idx = list(modes) + [n + m for m in modes]
        return GaussianState(self.mean[idx], self.cov[np.ix_(idx, idx)], validate=False)


def vacuum(n_modes: int = 1) -> GaussianState:
    """Vacuum on n modes: zero mean, covariance diag(1/2)."""
    if n_modes < 0:
        raise InvalidOperationError("mode count must be nonnegative")
    return GaussianState(
        np.zeros(2 * n_modes), VACUUM_VARIANCE * np.eye(2 * n_modes), validate=False
    )


def squeezed_vacuum_p(omega: float) -> GaussianState:
    """Momentum-squeezed vacuum with Var(p) = omega^2 / 2, Var(q) = 1 / (2 omega^2).

    ``omega = 1`` is the vacuum; smaller values approach a momentum
    eigenstate.  Values below ``OMEGA_FLOOR`` are rejected rather than
    clamped.
    """
    if not np.isfinite(omega) or omega < OMEGA_FLOOR:
        raise InvalidOperationError(
            f"squeezing width must be finite and >= {OMEGA_FLOOR}"
        )
    return GaussianState(
        np.zeros(2), np.diag([1.0 / (2.0 * omega**2), omega**2 / 2.0]), validate=False
    )


def coherent(mean_q: float, mean_p: float) -> GaussianState:
    """Displaced vacuum on one mode."""
    return GaussianState([mean_q, mean_p], VACUUM_VARIANCE * np.eye(2), validate=False)


def _apply_local_mean(mean: np.ndarray, op: SymplecticAffine, index: list[int]) -> None:
    """Mean half of :func:`_apply_local`: ``mean[index] <- S mean[index] + d``."""
    mean[index] = op.matrix @ mean[index] + op.shift


def _apply_local_cov(cov: np.ndarray, op: SymplecticAffine, index: list[int]) -> None:
    """Covariance half of :func:`_apply_local`: rows, then columns."""
    cov[index, :] = op.matrix @ cov[index, :]
    cov[:, index] = cov[:, index] @ op.matrix.T


def _apply_local(
    mean: np.ndarray, cov: np.ndarray, op: SymplecticAffine, index: list[int]
) -> None:
    """Apply a local map in place to the quadratures in ``index``.

    ``index`` is where the map sits in the register (see
    :func:`~cvcluster.symplectic._embed_index`); every other row and
    column is left untouched, so a k-mode map costs O(k n) on n modes.
    """
    _apply_local_mean(mean, op, index)
    _apply_local_cov(cov, op, index)


def _add_link_variance(cov: np.ndarray, modes, link_noise: tuple[float, float]) -> None:
    """Covariance half of :func:`_add_link_noise`."""
    vq, vp = link_noise
    n = cov.shape[0] // 2
    for mode in modes:
        cov[mode, mode] += vq
        cov[n + mode, n + mode] += vp


def _add_link_kicks(mean: np.ndarray, modes, link_noise: tuple[float, float], rng) -> None:
    """Mean half of :func:`_add_link_noise` (nothing for zero noise)."""
    vq, vp = link_noise
    if vq == 0.0 and vp == 0.0:
        return
    n = mean.shape[0] // 2
    for mode in modes:
        mean[mode] += rng.normal(0.0, np.sqrt(vq)) if vq else 0.0
        mean[n + mode] += rng.normal(0.0, np.sqrt(vp)) if vp else 0.0


def _add_link_noise(
    mean: np.ndarray,
    cov: np.ndarray,
    modes,
    link_noise: tuple[float, float],
    rng: np.random.Generator | None = None,
) -> None:
    """Add one link's noise ``(vq, vp)`` in place to each listed mode's
    position and momentum variances, with matching mean kicks drawn from
    ``rng`` mode by mode (none without one; none at all for zero noise)."""
    _add_link_variance(cov, modes, link_noise)
    if rng is not None:
        _add_link_kicks(mean, modes, link_noise, rng)


def apply_affine(
    state: GaussianState,
    op: SymplecticAffine,
    modes: tuple[int, ...] | list[int] | None = None,
) -> GaussianState:
    """Apply a symplectic-affine map; mean -> S mean + d, cov -> S cov S^T.

    When ``modes`` is given the map acts there and as the identity
    elsewhere: only those modes' rows and columns are updated, so a
    one- or two-mode map costs O(n) on an n-mode state (plus one copy of
    the state).  Without ``modes`` the map covers the whole register
    and costs O(n^3).
    """
    n = state.n_modes
    if modes is None:
        if op.n_modes != n:
            raise InvalidOperationError(f"map acts on {op.n_modes} modes, state has {n}")
        return GaussianState(
            op.matrix @ state.mean + op.shift,
            op.matrix @ state.cov @ op.matrix.T,
            validate=False,
        )
    index = _embed_index(n, op.n_modes, modes)
    out = GaussianState(state.mean, state.cov, validate=False)
    _apply_local(out.mean, out.cov, op, index)
    return out


class HomodyneResult(NamedTuple):
    outcome: float
    state: GaussianState
    relabel: dict[int, int]


def homodyne_marginal(
    state: GaussianState, mode: int, theta: float
) -> tuple[float, float]:
    """Mean and variance of the quadrature q cos(theta) + p sin(theta)."""
    n = state.n_modes
    if mode < 0 or mode >= n:
        raise InvalidOperationError("mode index out of range")
    c, s = np.cos(theta), np.sin(theta)
    qi, pi = mode, n + mode
    mu = c * state.mean[qi] + s * state.mean[pi]
    var = (
        c * c * state.cov[qi, qi]
        + 2.0 * c * s * state.cov[qi, pi]
        + s * s * state.cov[pi, pi]
    )
    return float(mu), float(var)


def homodyne(
    state: GaussianState,
    mode: int,
    theta: float,
    outcome: float | None = None,
    rng: np.random.Generator | None = None,
) -> HomodyneResult:
    """Measure the quadrature q cos(theta) + p sin(theta) on one mode.

    Costs O(n^2) on an n-mode state: the basis rotation touches only
    the measured mode's rows and columns, and conditioning updates the
    remaining covariance once.

    The measured mode is removed from the returned state; surviving
    modes keep their relative order and the relabeling map old -> new
    is returned alongside.  A pinned ``outcome`` conditions on that
    value; otherwise the outcome is sampled from the marginal using
    ``rng``.  Both paths run through the same conditioning arithmetic.

    Args:
        state: state with at least one mode.
        mode: index of the mode to measure.
        theta: quadrature angle measured from the position axis.
        outcome: pinned measurement value, or None to sample.
        rng: random generator, required when sampling.

    Returns:
        ``HomodyneResult(outcome, state, relabel)``.
    """
    n = state.n_modes
    if n < 1:
        raise MeasurementError("cannot measure an empty state")
    if mode < 0 or mode >= n:
        raise InvalidOperationError("mode index out of range")
    work = state
    if theta != 0.0:
        work = apply_affine(state, rotation(-theta), modes=(mode,))
    keep, cross, var, cov_out = _condition_cov(work.cov, mode)
    mu = work.mean[mode]
    if outcome is None:
        if rng is None:
            raise MeasurementError("sampling a homodyne outcome requires rng")
        outcome = float(rng.normal(mu, np.sqrt(var)))
    else:
        outcome = float(outcome)
    mean_out = _condition_mean(work.mean, keep, cross, mu, var, outcome)
    survivors = [m for m in range(n) if m != mode]
    relabel = {old: new for new, old in enumerate(survivors)}
    return HomodyneResult(
        outcome, GaussianState(mean_out, cov_out, validate=False), relabel
    )


def _condition_cov(cov: np.ndarray, mode: int):
    """Covariance half of a position readout of ``mode``, which does not
    depend on the outcome: the kept quadratures, their cross column with
    the measured one, its variance (checked against
    ``CONDITIONING_FLOOR``), and the conditioned covariance."""
    n = cov.shape[0] // 2
    var = cov[mode, mode]
    if var < CONDITIONING_FLOOR:
        raise MeasurementError(
            f"marginal variance {var:.3e} is below the conditioning floor"
        )
    keep = np.array([i for i in range(2 * n) if i not in (mode, n + mode)], dtype=np.intp)
    cross = cov[keep, mode]
    return keep, cross, var, cov[np.ix_(keep, keep)] - np.outer(cross, cross) / var


def _condition_mean(mean: np.ndarray, keep, cross, mu: float, var: float, outcome: float):
    """Mean half of a position readout whose marginal mean is ``mu``."""
    return mean[keep] + cross * ((outcome - mu) / var)


def _overlap(a: GaussianState, b: GaussianState) -> float:
    total = a.cov + b.cov
    delta = a.mean - b.mean
    det = np.linalg.det(total)
    if det <= 0:
        raise InvalidStateError("degenerate covariance sum in overlap")
    expo = -0.5 * float(delta @ np.linalg.solve(total, delta))
    return float(np.exp(expo) / np.sqrt(det))


def _mixed_fidelity(a: GaussianState, b: GaussianState) -> float:
    """General Gaussian fidelity of Banchi, Braunstein & Pirandola
    (PRL 115, 260501, 2015), written for vacuum variance 1/2."""
    form = symplectic_form(a.n_modes)
    eye = np.eye(form.shape[0])
    total = a.cov + b.cov
    delta = a.mean - b.mean
    aux = form.T @ np.linalg.solve(total, form / 4.0 + b.cov @ form @ a.cov)
    inv = np.linalg.inv(aux @ form)
    root = scipy.linalg.sqrtm(eye + inv @ inv / 4.0)
    f_tot4 = np.linalg.det(2.0 * (root + eye) @ aux).real
    expo = -0.5 * float(delta @ np.linalg.solve(total, delta))
    return float(np.sqrt(f_tot4 / np.linalg.det(total)) * np.exp(expo))


def fidelity(a: GaussianState, b: GaussianState) -> float:
    """Fidelity between Gaussian states, |<psi|phi>|^2 on pure inputs.

    One mode uses the exact closed form valid for arbitrary (also
    mixed) Gaussian pairs.  For several modes the fidelity is the state
    overlap when either argument is pure, and the general mixed-state
    formula (:func:`_mixed_fidelity`) otherwise.
    """
    if a.n_modes != b.n_modes:
        raise InvalidOperationError("fidelity needs states on equal mode counts")
    if a.n_modes == 1:
        total = a.cov + b.cov
        delta = a.mean - b.mean
        big = float(np.linalg.det(total))
        lam = max(
            0.0,
            (4.0 * float(np.linalg.det(a.cov)) - 1.0)
            * (4.0 * float(np.linalg.det(b.cov)) - 1.0)
            / 4.0,
        )
        expo = np.exp(-0.5 * float(delta @ np.linalg.solve(total, delta)))
        value = expo / (np.sqrt(big + lam) - np.sqrt(lam))
    else:
        if a.is_pure(1e-6) or b.is_pure(1e-6):
            value = _overlap(a, b)
        else:
            value = _mixed_fidelity(a, b)
    return float(min(max(value, 0.0), 1.0))


def wigner(
    state: GaussianState, q_values: np.ndarray, p_values: np.ndarray
) -> np.ndarray:
    """Wigner function of a single-mode state on a rectangular grid.

    Returns W with shape (len(q_values), len(p_values)) normalized so
    that the full phase-space integral is 1; the vacuum peaks at 1/pi.
    """
    if state.n_modes != 1:
        raise InvalidOperationError("wigner grid evaluation supports one mode")
    q_values = np.asarray(q_values, dtype=float)
    p_values = np.asarray(p_values, dtype=float)
    inv = np.linalg.inv(state.cov)
    det = np.linalg.det(state.cov)
    dq = q_values[:, None] - state.mean[0]
    dp = p_values[None, :] - state.mean[1]
    quad = inv[0, 0] * dq**2 + 2.0 * inv[0, 1] * dq * dp + inv[1, 1] * dp**2
    return np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))
