"""Cluster graphs and their Gaussian realization.

A cluster is built by preparing one momentum-squeezed vacuum per node
and applying the two-mode controlled-phase interaction along every
edge.  The diagnostic for build quality is the set of nullifier
combinations p_i - sum_j w_ij q_j, whose variances equal
omega_i^2 / 2 exactly on a noiseless build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidOperationError
from .gaussian import (
    GaussianState,
    _add_link_kicks,
    _add_link_noise,
    _apply_local,
    _apply_local_mean,
    squeezed_vacuum_p,
)
from .symplectic import SymplecticAffine, controlled_phase

__all__ = [
    "ClusterGraph",
    "NullifierReport",
    "build_cluster",
    "nullifier_variances",
    "attach",
]


@dataclass
class ClusterGraph:
    """Nodes carry a squeezing width; edges carry a finite nonzero weight.

    ``nodes`` is a list of ``(node_id, omega)`` pairs and fixes the mode
    order of any state built from the graph.  ``edges`` entries are
    ``(id_a, id_b, weight)``.
    """

    nodes: list[tuple[int, float]]
    edges: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.nodes = [(int(i), float(w)) for i, w in self.nodes]
        ids = [i for i, _ in self.nodes]
        if len(set(ids)) != len(ids):
            raise InvalidOperationError("duplicate node ids in cluster graph")
        for _, omega in self.nodes:
            if not np.isfinite(omega) or omega <= 0:
                raise InvalidOperationError("node squeezing width must be positive")
        self._modes = {node_id: k for k, node_id in enumerate(ids)}
        normalized = []
        for edge in self.edges:
            if len(edge) == 2:
                a, b = edge  # type: ignore[misc]
                weight = 1.0
            else:
                a, b, weight = edge
            a, b, weight = int(a), int(b), float(weight)
            if a == b:
                raise InvalidOperationError("self-loop edges are not allowed")
            if a not in self._modes or b not in self._modes:
                raise InvalidOperationError(f"edge ({a}, {b}) references unknown node")
            if not np.isfinite(weight) or weight == 0.0:
                raise InvalidOperationError("edge weight must be finite and nonzero")
            normalized.append((a, b, weight))
        self.edges = normalized

    @property
    def node_ids(self) -> list[int]:
        return [i for i, _ in self.nodes]

    def omega(self, node_id: int) -> float:
        return self.nodes[self.mode_index(node_id)][1]

    def mode_index(self, node_id: int) -> int:
        try:
            return self._modes[node_id]
        except KeyError:
            raise InvalidOperationError(f"unknown node id {node_id}") from None


@dataclass
class NullifierReport:
    """Per-node variance of p_i - sum_j w_ij q_j."""

    variances: dict[int, float]

    def __post_init__(self) -> None:
        for node, var in self.variances.items():
            if var < 0:
                raise InvalidOperationError(
                    f"negative nullifier variance at node {node}"
                )

    def max_excess(self, graph: ClusterGraph) -> float:
        """Largest deviation from the ideal omega_i^2 / 2."""
        return max(
            abs(self.variances[i] - w**2 / 2.0) for i, w in graph.nodes
        )


def build_cluster(graph: ClusterGraph) -> GaussianState:
    """Squeezed vacua on every node, controlled-phase along every edge.

    Mode k of the returned state is the k-th entry of ``graph.nodes``.
    """
    return _linked_register(graph)


def _unlinked(graph: ClusterGraph, source: GaussianState | None = None, source_nodes=()):
    """Mean and covariance before any link: mode i of ``source`` on node
    ``source_nodes[i]``, squeezed vacua elsewhere."""
    n = len(graph.nodes)
    if n == 0:
        raise InvalidOperationError("cluster graph has no nodes")
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    placed = [] if source is None else [graph.mode_index(i) for i in source_nodes]
    for k, (_, omega) in enumerate(graph.nodes):
        if k not in placed:
            cov[k, k], cov[n + k, n + k] = np.diag(squeezed_vacuum_p(omega).cov)
    if placed:
        index = placed + [n + k for k in placed]
        mean[index] = source.mean
        cov[np.ix_(index, index)] = source.cov
    return mean, cov


def _links(graph: ClusterGraph) -> list[tuple[SymplecticAffine, list[int]]]:
    """Each edge's controlled-phase map and the quadratures it acts on."""
    n, modes = len(graph.nodes), graph._modes
    maps = {weight: controlled_phase(weight) for _, _, weight in graph.edges}
    return [
        (maps[weight], [modes[a], modes[b], n + modes[a], n + modes[b]])
        for a, b, weight in graph.edges
    ]


def _linked_register(
    graph: ClusterGraph,
    source: GaussianState | None = None,
    source_nodes: tuple[int, ...] = (),
    link_noise: tuple[float, float] = (0.0, 0.0),
    rng: np.random.Generator | None = None,
) -> GaussianState:
    """The linked register of ``graph``, built in one allocation.

    Mode k is the k-th entry of ``graph.nodes``; the register starts as
    :func:`_unlinked`.  Each edge's controlled-phase link then updates
    its two modes' rows and columns in place, so the build costs O(n^2)
    for the allocation plus O(n) per edge.  Each link's ``link_noise``
    is added to both its ends right after it
    (:func:`~cvcluster.gaussian._add_link_noise`).
    """
    mean, cov = _unlinked(graph, source, source_nodes)
    for link, index in _links(graph):
        _apply_local(mean, cov, link, index)
        _add_link_noise(mean, cov, index[:2], link_noise, rng)
    return GaussianState(mean, cov, validate=False)


def _relink_mean(mean: np.ndarray, links, link_noise: tuple[float, float], rng) -> np.ndarray:
    """Mean half of linking, on a copy of the unlinked ``mean``: each of
    ``links`` in turn, then its noise kicks from ``rng``.  The covariance
    is the same in every trial, so this is all a trial has to replay."""
    mean = mean.copy()
    for link, index in links:
        _apply_local_mean(mean, link, index)
        _add_link_kicks(mean, index[:2], link_noise, rng)
    return mean


def nullifier_variances(state: GaussianState, graph: ClusterGraph) -> NullifierReport:
    """Measure the nullifier variances of ``state`` against ``graph``.

    The state's modes must follow the graph's node order.
    """
    n = state.n_modes
    if n != len(graph.nodes):
        raise InvalidOperationError("state and graph disagree on mode count")
    weights = np.zeros((n, n))
    for a, b, w in graph.edges:
        ia, ib = graph.mode_index(a), graph.mode_index(b)
        weights[ia, ib] += w
        weights[ib, ia] += w
    variances: dict[int, float] = {}
    for node_id, _ in graph.nodes:
        k = graph.mode_index(node_id)
        coeff = np.zeros(2 * n)
        coeff[n + k] = 1.0
        coeff[:n] = -weights[k]
        variances[node_id] = float(coeff @ state.cov @ coeff)
    return NullifierReport(variances)


def attach(
    a: GaussianState,
    b: GaussianState,
    edges: list[tuple[int, int]] | list[tuple[int, int, float]],
) -> GaussianState:
    """Join two registers with controlled-phase links.

    Each edge is ``(mode_in_a, mode_in_b)`` or ``(mode_in_a, mode_in_b,
    weight)``; the combined state keeps ``a``'s modes first.
    """
    state = a.tensor(b)
    n = state.n_modes
    for edge in edges:
        if len(edge) == 2:
            ma, mb = edge  # type: ignore[misc]
            weight = 1.0
        else:
            ma, mb, weight = edge
        if ma < 0 or ma >= a.n_modes or mb < 0 or mb >= b.n_modes:
            raise InvalidOperationError("attach edge mode out of range")
        mb += a.n_modes
        _apply_local(
            state.mean, state.cov, controlled_phase(float(weight)), [ma, mb, n + ma, n + mb]
        )
    return state
