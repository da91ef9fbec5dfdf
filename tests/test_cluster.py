"""Cluster construction, nullifier diagnostics, register joining."""

import numpy as np
import pytest

from conftest import assert_state_allclose, random_graph
from cvcluster.cluster import (
    ClusterGraph,
    attach,
    build_cluster,
    nullifier_variances,
)
from cvcluster.exceptions import InvalidOperationError
from cvcluster.gaussian import (
    apply_affine,
    coherent,
    homodyne,
    squeezed_vacuum_p,
    vacuum,
)
from cvcluster.symplectic import controlled_phase


def chain_graph(n: int, omega: float) -> ClusterGraph:
    return ClusterGraph(
        nodes=[(i, omega) for i in range(1, n + 1)],
        edges=[(i, i + 1) for i in range(1, n)],
    )


def test_graph_validation():
    with pytest.raises(InvalidOperationError):
        ClusterGraph(nodes=[(1, 0.3), (1, 0.4)])
    with pytest.raises(InvalidOperationError):
        ClusterGraph(nodes=[(1, -0.3)])
    with pytest.raises(InvalidOperationError):
        ClusterGraph(nodes=[(1, 0.3)], edges=[(1, 1)])
    with pytest.raises(InvalidOperationError):
        ClusterGraph(nodes=[(1, 0.3)], edges=[(1, 2)])
    with pytest.raises(InvalidOperationError):
        ClusterGraph(nodes=[(1, 0.3), (2, 0.3)], edges=[(1, 2, 0.0)])


def test_two_tuple_edges_default_to_unit_weight():
    graph = ClusterGraph(nodes=[(1, 0.3), (2, 0.3)], edges=[(1, 2)])
    assert graph.edges == [(1, 2, 1.0)]
    assert graph.mode_index(2) == 1


def test_single_node_cluster_is_a_squeezed_vacuum():
    state = build_cluster(ClusterGraph(nodes=[(7, 0.3)]))
    assert_state_allclose(state, squeezed_vacuum_p(0.3), atol=1e-12)


def test_two_node_cluster_matches_direct_interaction():
    graph = ClusterGraph(nodes=[(1, 1.0), (2, 1.0)], edges=[(1, 2)])
    direct = apply_affine(vacuum(2), controlled_phase(1.0), [0, 1])
    assert_state_allclose(build_cluster(graph), direct, atol=1e-12)


def test_five_node_chain_layout_and_nullifiers():
    graph = chain_graph(5, 0.3)
    assert graph.node_ids == [1, 2, 3, 4, 5]
    assert graph.edges == [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)]
    report = nullifier_variances(build_cluster(graph), graph)
    for node in graph.node_ids:
        assert report.variances[node] == pytest.approx(0.045, abs=1e-12)
    assert report.max_excess(graph) < 1e-12


def test_three_node_chain_nullifier_value():
    graph = chain_graph(3, 0.1)
    report = nullifier_variances(build_cluster(graph), graph)
    assert all(v == pytest.approx(0.005, abs=1e-12) for v in report.variances.values())


def test_unlinked_node_nullifier_is_plain_momentum_variance():
    graph = ClusterGraph(nodes=[(1, 1.0)])
    report = nullifier_variances(build_cluster(graph), graph)
    assert report.variances[1] == pytest.approx(0.5, abs=1e-12)


def test_nullifier_law_on_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(12):
        graph = random_graph(rng)
        report = nullifier_variances(build_cluster(graph), graph)
        assert report.max_excess(graph) < 1e-10


def test_nullifiers_detect_a_degraded_register():
    graph = chain_graph(3, 0.2)
    state = build_cluster(graph)
    noisy = state.cov.copy()
    noisy[3:, 3:] += 0.01 * np.eye(3)
    degraded = type(state)(state.mean, noisy)
    assert nullifier_variances(degraded, graph).max_excess(graph) > 5e-3


def test_attach_with_no_edges_is_a_tensor_product():
    a, b = coherent(0.5, 0.1), squeezed_vacuum_p(0.4)
    assert_state_allclose(attach(a, b, []), a.tensor(b), atol=1e-12)


def test_attach_reproduces_joint_build():
    left = ClusterGraph(nodes=[(1, 0.4), (2, 0.4)], edges=[(1, 2)])
    right = ClusterGraph(nodes=[(3, 0.6), (4, 0.6)], edges=[(3, 4, 0.8)])
    joined = ClusterGraph(
        nodes=left.nodes + right.nodes,
        edges=left.edges + right.edges + [(2, 3, 1.0)],
    )
    glued = attach(build_cluster(left), build_cluster(right), [(1, 0)])
    assert_state_allclose(glued, build_cluster(joined), atol=1e-10)


def test_attach_rejects_out_of_range_modes():
    with pytest.raises(InvalidOperationError):
        attach(vacuum(1), vacuum(1), [(0, 1)])


def test_measuring_before_attaching_commutes_for_identical_pins():
    # pre-measuring the detached register, then linking, equals linking
    # first and measuring afterwards when the pinned outcomes agree
    omega = 0.35
    pins = (0.3, -0.2)

    mini = build_cluster(chain_graph(4, omega))
    for outcome in pins:
        mini = homodyne(mini, 1, np.pi / 2.0, outcome=outcome).state
    early = attach(coherent(0.6, -0.1), mini, [(0, 0)])
    early = homodyne(early, 0, np.pi / 2.0, outcome=0.1).state

    full = attach(coherent(0.6, -0.1), build_cluster(chain_graph(4, omega)), [(0, 0)])
    for outcome in pins:
        full = homodyne(full, 2, np.pi / 2.0, outcome=outcome).state
    late = homodyne(full, 0, np.pi / 2.0, outcome=0.1).state
    assert_state_allclose(early, late, atol=1e-10)

    # distinct pins land on a different conditioned state
    other = attach(coherent(0.6, -0.1), build_cluster(chain_graph(4, omega)), [(0, 0)])
    for outcome in (0.5, 0.4):
        other = homodyne(other, 2, np.pi / 2.0, outcome=outcome).state
    other = homodyne(other, 0, np.pi / 2.0, outcome=0.1).state
    assert np.max(np.abs(other.mean - late.mean)) > 1e-3
