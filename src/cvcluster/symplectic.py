"""Symplectic-affine maps on quadrature phase space.

Quadratures are ordered block-wise as (q_1 .. q_n, p_1 .. p_n) with
hbar = 1, so the commutation matrix is Sigma = [[0, I], [-I, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidOperationError

SYMPLECTIC_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    """Commutation matrix Sigma with [x_i, x_j] = i * Sigma_ij."""
    form = np.zeros((2 * n_modes, 2 * n_modes))
    modes = np.arange(n_modes)
    form[modes, n_modes + modes] = 1.0
    form[n_modes + modes, modes] = -1.0
    return form


def _embed_index(n_modes: int, k: int, modes: tuple[int, ...] | list[int]) -> list[int]:
    """Where a k-mode map on ``modes`` sits in an n-mode register.

    Local index i maps to q of ``modes[i]``, local k + i to p of
    ``modes[i]``.
    """
    if len(modes) != k:
        raise InvalidOperationError("embed needs one target mode per local mode")
    if len(set(modes)) != k:
        raise InvalidOperationError("embed target modes must be distinct")
    if any(m < 0 or m >= n_modes for m in modes):
        raise InvalidOperationError("embed target mode out of range")
    return [*modes] + [n_modes + m for m in modes]


@dataclass
class SymplecticAffine:
    """An affine phase-space map x -> S x + d with S symplectic.

    The matrix acts on means directly; covariances transform as
    S V S^T.  Direct construction and the gate constructors below check
    their input and reject matrices that fail S^T Sigma S = Sigma beyond
    ``SYMPLECTIC_TOL``.  ``identity``, ``compose``, ``inverse`` and
    ``embed`` derive their result from maps that were already checked,
    so they build it without checking again.
    """

    matrix: np.ndarray
    shift: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.matrix = np.array(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InvalidOperationError("symplectic matrix must be square")
        dim = self.matrix.shape[0]
        if dim % 2 != 0:
            raise InvalidOperationError("symplectic matrix must have even dimension")
        if self.shift is None:
            self.shift = np.zeros(dim)
        self.shift = np.array(self.shift, dtype=float).reshape(-1)
        if self.shift.shape != (dim,):
            raise InvalidOperationError(
                f"shift has shape {self.shift.shape}, expected ({dim},)"
            )
        form = symplectic_form(dim // 2)
        defect = self.matrix.T @ form @ self.matrix - form
        if np.max(np.abs(defect)) > SYMPLECTIC_TOL:
            raise InvalidOperationError(
                "matrix is not symplectic within tolerance "
                f"(defect {np.max(np.abs(defect)):.3e})"
            )

    @classmethod
    def _derived(cls, matrix: np.ndarray, shift: np.ndarray) -> "SymplecticAffine":
        """A map that is symplectic by construction, built unchecked."""
        op = object.__new__(cls)
        op.matrix = matrix
        op.shift = shift
        return op

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    @classmethod
    def identity(cls, n_modes: int) -> "SymplecticAffine":
        return cls._derived(np.eye(2 * n_modes), np.zeros(2 * n_modes))

    def compose(self, other: "SymplecticAffine") -> "SymplecticAffine":
        """The map 'self after other': x -> S1 (S2 x + d2) + d1."""
        if self.n_modes != other.n_modes:
            raise InvalidOperationError("mode count mismatch in composition")
        return SymplecticAffine._derived(
            self.matrix @ other.matrix,
            self.matrix @ other.shift + self.shift,
        )

    def inverse(self) -> "SymplecticAffine":
        inv = np.linalg.inv(self.matrix)
        return SymplecticAffine._derived(inv, -inv @ self.shift)

    def embed(self, n_modes: int, modes: tuple[int, ...] | list[int]) -> "SymplecticAffine":
        """Embed this k-mode map into an n-mode identity on the given modes."""
        index = _embed_index(n_modes, self.n_modes, modes)
        matrix = np.eye(2 * n_modes)
        shift = np.zeros(2 * n_modes)
        matrix[np.ix_(index, index)] = self.matrix
        shift[index] = self.shift
        return SymplecticAffine._derived(matrix, shift)

    def is_identity(self, tol: float = 1e-12) -> bool:
        return (
            np.max(np.abs(self.matrix - np.eye(self.matrix.shape[0]))) <= tol
            and np.max(np.abs(self.shift)) <= tol
        )


def shift_q(s: float) -> SymplecticAffine:
    """Displacement adding s to the position quadrature."""
    return SymplecticAffine(np.eye(2), [s, 0.0])


def shift_p(t: float) -> SymplecticAffine:
    """Displacement adding t to the momentum quadrature."""
    return SymplecticAffine(np.eye(2), [0.0, t])


def fourier() -> SymplecticAffine:
    """Quarter rotation mapping (q, p) -> (-p, q).

    Sends position eigenstates to momentum eigenstates with the same
    eigenvalue.
    """
    return SymplecticAffine([[0.0, -1.0], [1.0, 0.0]])


def fourier_inverse() -> SymplecticAffine:
    return SymplecticAffine([[0.0, 1.0], [-1.0, 0.0]])


def rotation(phi: float) -> SymplecticAffine:
    """Phase-space rotation by phi: q -> q cos(phi) - p sin(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    return SymplecticAffine([[c, -s], [s, c]])


def quadratic_phase(t: float) -> SymplecticAffine:
    """Momentum shear p -> p + t q (position unchanged)."""
    return SymplecticAffine([[1.0, 0.0], [t, 1.0]])


def controlled_phase(g: float = 1.0) -> SymplecticAffine:
    """Two-mode interaction p_i -> p_i + g q_j on both modes."""
    return SymplecticAffine(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, g, 1.0, 0.0],
            [g, 0.0, 0.0, 1.0],
        ]
    )


def controlled_addition() -> SymplecticAffine:
    """Two-mode map adding the control position onto the target position.

    Heisenberg action: q_t -> q_t + q_c, p_c -> p_c - p_t.
    """
    return SymplecticAffine(
        [
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def gate_matrices() -> dict:
    """Catalog of the supported phase-space gate constructors."""
    return {
        "shift_q": shift_q,
        "shift_p": shift_p,
        "fourier": fourier,
        "fourier_inverse": fourier_inverse,
        "rotation": rotation,
        "quadratic_phase": quadratic_phase,
        "controlled_phase": controlled_phase,
        "controlled_addition": controlled_addition,
    }
