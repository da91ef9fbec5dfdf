"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from cvcluster.cluster import ClusterGraph
from cvcluster.gaussian import GaussianState
from cvcluster.mbqc import GateProgram, Instruction
from cvcluster.symplectic import SymplecticAffine, symplectic_form


def assert_state_allclose(a: GaussianState, b: GaussianState, atol: float = 1e-10):
    np.testing.assert_allclose(a.mean, b.mean, atol=atol)
    np.testing.assert_allclose(a.cov, b.cov, atol=atol)


def random_graph(rng: np.random.Generator, max_nodes: int = 8) -> ClusterGraph:
    """Connected-ish random graph with per-node widths in [0.05, 1]."""
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [(i, float(rng.uniform(0.05, 1.0))) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    count = int(rng.integers(1, len(pairs) + 1))
    picks = rng.choice(len(pairs), size=count, replace=False)
    edges = [
        (pairs[i][0], pairs[i][1], float(rng.uniform(0.3, 1.5))) for i in picks
    ]
    return ClusterGraph(nodes=nodes, edges=edges)


def random_gaussian_program(
    rng: np.random.Generator, n_modes: int, n_ops: int
) -> GateProgram:
    """Random mix of the Gaussian gate set over the register."""
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(["f", "z", "p", "x", "cz"] if n_modes > 1 else ["f", "z", "p", "x"])
        if kind == "cz":
            a, b = rng.choice(n_modes, size=2, replace=False)
            ops.append(Instruction("cz", (int(a), int(b)), (float(rng.uniform(0.5, 1.2)),)))
        elif kind == "f":
            ops.append(Instruction("f", (int(rng.integers(n_modes)),)))
        else:
            param = float(rng.uniform(-1.5, 1.5))
            ops.append(Instruction(kind, (int(rng.integers(n_modes)),), (param,)))
    return GateProgram(n_modes, tuple(ops))


def fourier_wire(steps: int) -> GateProgram:
    """Single-wire program of bare teleport steps."""
    return GateProgram(1, tuple(Instruction("f", (0,)) for _ in range(steps)))


def _entries(shape):
    return arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))


def symplectic_maps(n_modes: int):
    """Strategy: exp(Sigma H) for a random symmetric H, with a random shift.

    H has entries in [-1/2, 1/2], so no map stretches by more than e^2
    and rounding stays far inside ``SYMPLECTIC_TOL`` even after a few
    compositions.
    """
    dim = 2 * n_modes

    def build(parts):
        generator, shift = parts
        hamiltonian = 0.25 * (generator + generator.T)
        return SymplecticAffine(expm(symplectic_form(n_modes) @ hamiltonian), 2.0 * shift)

    return st.tuples(_entries((dim, dim)), _entries(dim)).map(build)


def mixed_states(n_modes: int):
    """Strategy: covariance I/2 + A A^T, which always obeys the
    uncertainty bound, with a random mean."""
    dim = 2 * n_modes

    def build(parts):
        factor, mean = parts
        return GaussianState(3.0 * mean, 0.5 * np.eye(dim) + factor @ factor.T)

    return st.tuples(_entries((dim, dim)), _entries(dim)).map(build)
