"""Cluster graphs and their Gaussian realization.

A cluster is built by preparing one momentum-squeezed vacuum per node
and applying the two-mode controlled-phase interaction along every
edge.  The diagnostic for build quality is the set of nullifier
combinations p_i - sum_j w_ij q_j, whose variances equal
omega_i^2 / 2 exactly on a noiseless build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .exceptions import InvalidOperationError, MeasurementError, ScheduleError
from .gaussian import (
    GaussianState,
    _add_link_kicks,
    _add_link_variance,
    _apply_local,
    _apply_local_cov,
    _apply_local_mean,
    _matvec,
    _readout_variance,
    _squeezed_variances,
)
from .symplectic import controlled_phase, rotation

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


class RegisterPlan:
    """Links and homodyne readouts planned once on a register's covariance.

    The covariance after each event reads no outcome and no noise draw;
    only the mean moves, affinely.  Building a plan walks ``cov`` once
    through ``events`` in list order (node ``i`` at mode ``mode_of[i]``):
    an edge ``(a, b, weight)`` applies its controlled-phase link and then
    adds ``link_noise`` ``(vq, vp)`` to both ends; any other event is a
    schedule entry, read out in its basis once its variance passes
    ``CONDITIONING_FLOOR``.  Modes keep their register index throughout:
    a readout zeroes its mode's rows and columns and conditions only the
    quadratures correlated with it (its ``support``, in a graph state the
    mode's neighbourhood), so it costs O(n + support^2).  :meth:`stack`
    replays only the mean half of each event on a stack of trials at once,
    with the arithmetic and normal draws of linking and measuring each trial
    step by step (:func:`~cvcluster.gaussian.homodyne`), O(support) per
    readout.  Every leading link that draws nothing is folded here into
    ``mean``, the starting mean when one is given.

    The survivors are then ``outputs``, every node left unread, in that
    order, with covariance ``cov``; ``nodes`` are the read-out nodes in
    walk order.
    """

    def __init__(self, cov, events, mode_of, outputs, link_noise=(0.0, 0.0), mean=None):
        cov, mode_of, self.link_noise = np.array(cov, dtype=float), dict(mode_of), link_noise
        self.mean = None if mean is None else np.array(mean, dtype=float)
        self.steps: list[tuple] = []
        n, link_map, turn_map = cov.shape[0] // 2, cache(controlled_phase), cache(rotation)
        for event in events:
            if isinstance(event, tuple):
                a, b, weight = event
                link = link_map(weight)
                index = np.array([mode_of[a], mode_of[b], n + mode_of[a], n + mode_of[b]])
                _apply_local_cov(cov, link, index)
                _add_link_variance(cov, index[:2], link_noise)
                if self.mean is not None and not self.steps and not any(link_noise):
                    _apply_local_mean(self.mean, link, index)
                else:
                    self.steps.append((None, link, index, None, None, None, None))
                continue
            mode = mode_of.pop(event.node)
            turn, index = None, np.array([mode, n + mode])
            if event.basis.engine_angle != 0.0:
                turn = turn_map(-event.basis.engine_angle)
                _apply_local_cov(cov, turn, index)
            var = _readout_variance(cov, mode)
            column = cov[:, mode].copy()
            column[index] = 0.0
            support = np.flatnonzero(column)
            cross = column[support]
            cov[np.ix_(support, support)] -= np.outer(cross, cross) / var
            cov[index, :] = 0.0
            cov[:, index] = 0.0
            self.steps.append((event, turn, index, support, cross, var, np.sqrt(var)))
        if len(mode_of) != len(outputs):
            raise ScheduleError("schedule left a dangling unmeasured node")
        wires = [mode_of[i] for i in outputs]
        self.output = np.array(wires + [n + m for m in wires], dtype=np.intp)
        self.cov = cov[np.ix_(self.output, self.output)]
        self.nodes = [entry.node for entry, *_ in self.steps if entry is not None]

    def draws(self, pins=None) -> int:
        """Normals a trial draws: each link's nonzero kicks, each unpinned readout."""
        kicks = (len(self.steps) - len(self.nodes)) * 2 * sum(map(bool, self.link_noise))
        return kicks + sum((pins or {}).get(node) is None for node in self.nodes)

    def stack(self, mean: np.ndarray, normals=None, pins=None):
        """Means after every event from each row of ``mean`` (one trial's
        mean or a stack; left unmodified), row t drawing from ``normals[t]``
        in event order (no link kicks without ``normals``) unless pinned by
        ``pins``.  Returns the output means and the recorded outcomes."""
        pins = pins or {}
        # quadratures first, so an event gathers its rows for every trial
        mean = np.array(np.transpose(mean), dtype=float)
        rows = None if normals is None else iter(np.transpose(normals))
        records, read = np.empty((len(self.nodes),) + mean.shape[1:]), 0

        def normal(loc, scale):  # the arithmetic of Generator.normal
            return loc + scale * next(rows)
        for entry, op, index, support, cross, var, scale in self.steps:
            if entry is None:
                _apply_local_mean(mean, op, index)
                if rows is not None:
                    _add_link_kicks(mean, index[:2], self.link_noise, normal)
                continue
            # the rotated mode is dead after its readout, so only mu is kept
            if op is None:
                mu = mean[index[0]]
            else:
                mu = _matvec(op.matrix, mean[index].T)[..., 0] + op.shift[0]
            pinned = pins.get(entry.node)
            if pinned is not None:
                raw = float(entry.basis.raw(pinned))
            elif rows is None:
                raise MeasurementError("sampling a homodyne outcome requires rng")
            else:
                raw = normal(mu, scale)
            mean[support] += np.multiply.outer(cross, (raw - mu) / var)
            records[read], read = entry.basis.record(raw) if pinned is None else pinned, read + 1
        return mean[self.output].T, records.T

    def walk(self, mean: np.ndarray, outcomes: dict[int, float], rng=None, pins=None):
        """One trial of :meth:`stack` from ``mean``, its normals drawn from
        ``rng`` in one call, recording each outcome into ``outcomes``."""
        normals = None if rng is None else rng.standard_normal(self.draws(pins))
        mean, records = self.stack(mean, normals, pins)
        outcomes.update(zip(self.nodes, records.tolist()))
        return mean


def _register_plan(
    graph: ClusterGraph,
    events,
    outputs,
    source: GaussianState | None = None,
    source_nodes: tuple[int, ...] = (),
    link_noise: tuple[float, float] = (0.0, 0.0),
) -> RegisterPlan:
    """``events`` planned from the unlinked register of ``graph``, leaving
    ``outputs``: mode k is the k-th node, with mode i of ``source`` on node
    ``source_nodes[i]`` and squeezed vacua elsewhere."""
    n = len(graph.nodes)
    if n == 0:
        raise InvalidOperationError("cluster graph has no nodes")
    if source is not None and source.n_modes != len(source_nodes):
        raise InvalidOperationError(
            f"input has {source.n_modes} modes for {len(source_nodes)} source nodes"
        )
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    placed = [] if source is None else [graph.mode_index(i) for i in source_nodes]
    for k, (_, omega) in enumerate(graph.nodes):
        if k not in placed:
            cov[k, k], cov[n + k, n + k] = _squeezed_variances(omega)
    if placed:
        index = placed + [n + k for k in placed]
        mean[index] = source.mean
        cov[np.ix_(index, index)] = source.cov
    return RegisterPlan(cov, events, graph._modes, outputs, link_noise, mean)


def _linked_register(
    graph: ClusterGraph,
    source: GaussianState | None = None,
    source_nodes: tuple[int, ...] = (),
    link_noise: tuple[float, float] = (0.0, 0.0),
    rng: np.random.Generator | None = None,
) -> GaussianState:
    """The register of ``graph`` with its edges linked in order: a
    links-only plan walked once, drawing each link's kicks from ``rng``
    (none without one), whose outputs are every node in graph order.
    Each link updates its two modes' rows and columns in place, so the
    build costs O(n^2) plus O(n) per edge."""
    plan = _register_plan(graph, graph.edges, graph.node_ids, source, source_nodes, link_noise)
    return GaussianState(plan.walk(plan.mean, {}, rng), plan.cov, validate=False)


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
