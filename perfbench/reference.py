"""Reference computations for the benchmark's output checks.

Everything here is plain numpy/scipy and imports nothing from
``cvcluster``, so a fault in the package cannot hide in its own check.
The conventions are the package's documented ones: quadratures ordered
(q_1 .. q_n, p_1 .. p_n), vacuum variance 1/2, a momentum-squeezed
ancilla of width omega has Var(q) = 1/(2 omega^2) and Var(p) = omega^2/2,
the quarter rotation maps (q, p) to (-p, q), and a CZ of weight g adds
g q_b to p_a and g q_a to p_b.

An instruction is a ``(kind, targets, params)`` triple with the kinds of
the package's program format: ``x``, ``z``, ``f``, ``p`` and ``cz``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

VACUUM = 0.5
QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])


def shear(t: float) -> np.ndarray:
    """p -> p + t q on one mode."""
    return np.array([[1.0, 0.0], [t, 1.0]])


def cz_local(g: float) -> np.ndarray:
    """Two-mode CZ in local order (q_a, q_b, p_a, p_b)."""
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, g, 1.0, 0.0],
            [g, 0.0, 0.0, 1.0],
        ]
    )


def embed(local: np.ndarray, n: int, modes: list[int]) -> np.ndarray:
    """A k-mode matrix acting on ``modes`` of an n-mode register."""
    index = list(modes) + [n + m for m in modes]
    full = np.eye(2 * n)
    full[np.ix_(index, index)] = local
    return full


def symplectic_form(n: int) -> np.ndarray:
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def intended_map(ops, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and shift of the program's intended action, last op applied last."""
    matrix, shift = np.eye(2 * n), np.zeros(2 * n)
    for kind, targets, params in ops:
        step_shift = np.zeros(2 * n)
        if kind == "x":
            step, step_shift[targets[0]] = np.eye(2 * n), params[0]
        elif kind == "z":
            step, step_shift[n + targets[0]] = np.eye(2 * n), params[0]
        elif kind == "f":
            step = embed(QUARTER, n, targets)
        elif kind == "p":
            step = embed(shear(params[0]), n, targets)
        elif kind == "cz":
            step = embed(cz_local(params[0] if params else 1.0), n, targets)
        else:
            raise ValueError(f"no reference for instruction kind {kind!r}")
        matrix, shift = step @ matrix, step @ shift + step_shift
    return matrix, shift


def _squeezed(omega: float) -> np.ndarray:
    return np.diag([1.0 / (2.0 * omega**2), omega**2 / 2.0])


def _append_mode(cov: np.ndarray, single: np.ndarray) -> np.ndarray:
    n = cov.shape[0] // 2
    out = np.zeros((2 * n + 2, 2 * n + 2))
    old = list(range(n)) + list(range(n + 1, 2 * n + 1))
    out[np.ix_(old, old)] = cov
    out[np.ix_([n, 2 * n + 1], [n, 2 * n + 1])] = single
    return out


def condition_on_quadrature(cov: np.ndarray, mode: int, c_q: float, c_p: float) -> np.ndarray:
    """Covariance of the other modes after reading c_q q + c_p p on ``mode``.

    Homodyne conditioning is the Gaussian conditional on one linear
    combination; the conjugate quadrature of the measured mode is traced out.
    """
    n = cov.shape[0] // 2
    c = np.zeros(2 * n)
    c[mode], c[n + mode] = c_q, c_p
    cross = cov @ c
    updated = cov - np.outer(cross, cross) / float(c @ cross)
    keep = [i for i in range(2 * n) if i not in (mode, n + mode)]
    return updated[np.ix_(keep, keep)]


def _move_last_to(cov: np.ndarray, position: int) -> np.ndarray:
    n = cov.shape[0] // 2
    order = list(range(n - 1))
    order.insert(position, n - 1)
    index = order + [n + m for m in order]
    return cov[np.ix_(index, index)]


def teleported_output_cov(ops, n: int, omega: float, input_cov=None) -> np.ndarray:
    """Frame-resolved output covariance of a program run on a cluster.

    The program is teleported one step at a time: each single-mode gate
    links one fresh ancilla to its wire and reads ``p + t q`` on the old
    node (``t`` the shear, else 0); a ``cz`` links one fresh ancilla to
    each wire plus the two old nodes and reads ``p`` on both.  The
    register never holds more than n + 2 modes.  The physical map of a
    step is the quarter rotation after the gate, so the byproduct matrix
    M = (physical steps)(intended)^-1 is undone at the end.
    """
    cov = VACUUM * np.eye(2 * n) if input_cov is None else np.array(input_cov, float)
    physical = np.eye(2 * n)
    for kind, targets, params in ops:
        if kind == "x":
            continue
        if kind == "cz":
            a, b = targets
            g = params[0] if params else 1.0
            work = _append_mode(_append_mode(cov, _squeezed(omega)), _squeezed(omega))
            m = n + 2
            link = (
                embed(cz_local(1.0), m, [a, n])
                @ embed(cz_local(1.0), m, [b, n + 1])
                @ embed(cz_local(g), m, [a, b])
            )
            work = link @ work @ link.T
            high, low = max(a, b), min(a, b)
            work = condition_on_quadrature(work, high, 0.0, 1.0)
            work = condition_on_quadrature(work, low, 0.0, 1.0)
            # ancillas now sit last, in wire order a then b
            first, second = (a, b) if a < b else (b, a)
            ancilla_first = n - 2 if first == a else n - 1
            order = list(range(n - 2))
            order.insert(first, ancilla_first)
            order.insert(second, 2 * n - 3 - ancilla_first)
            index = order + [n + i for i in order]
            cov = work[np.ix_(index, index)]
            local = embed(QUARTER, n, [a]) @ embed(QUARTER, n, [b]) @ embed(cz_local(g), n, [a, b])
        else:
            (wire,) = targets
            t = params[0] if kind == "p" else 0.0
            work = _append_mode(cov, _squeezed(omega))
            link = embed(cz_local(1.0), n + 1, [wire, n])
            work = link @ work @ link.T
            work = condition_on_quadrature(work, wire, t, 1.0)
            cov = _move_last_to(work, wire)
            gate = shear(t) if kind == "p" else np.eye(2)
            local = embed(QUARTER @ gate, n, [wire])
        physical = local @ physical
    intended, _ = intended_map(ops, n)
    frame_inv = np.linalg.inv(physical @ np.linalg.inv(intended))
    return frame_inv @ cov @ frame_inv.T


def cluster_output_cov(ops, n: int, omega: float) -> np.ndarray:
    """The same output covariance, from the program's whole cluster.

    Lays the wire graph out as the compiler does (input heads first, fresh
    nodes in op order), takes the closed-form graph-state covariance, reads
    every non-output node in op order, and undoes the byproduct matrix.
    This is the route the package takes, dense in the full node count.
    """
    widths, edges, tails, reads = [1.0] * n, [], list(range(n)), []
    physical = np.eye(2 * n)
    for kind, targets, params in ops:
        if kind == "x":
            continue
        if kind == "cz":
            a, b = targets
            g = params[0] if params else 1.0
            new_a, new_b = len(widths), len(widths) + 1
            widths += [omega, omega]
            edges += [(tails[a], new_a, 1.0), (tails[b], new_b, 1.0), (tails[a], tails[b], g)]
            reads += [(tails[a], 0.0), (tails[b], 0.0)]
            tails[a], tails[b] = new_a, new_b
            local = embed(QUARTER, n, [a]) @ embed(QUARTER, n, [b]) @ embed(cz_local(g), n, [a, b])
        else:
            (wire,) = targets
            t = params[0] if kind == "p" else 0.0
            widths.append(omega)
            edges.append((tails[wire], len(widths) - 1, 1.0))
            reads.append((tails[wire], t))
            tails[wire] = len(widths) - 1
            local = embed(QUARTER @ (shear(t) if kind == "p" else np.eye(2)), n, [wire])
        physical = local @ physical
    weights = np.zeros((len(widths), len(widths)))
    for a, b, g in edges:
        weights[a, b] = weights[b, a] = g
    cov = graph_state_cov(widths, weights)
    alive = list(range(len(widths)))
    for node, t in reads:
        cov = condition_on_quadrature(cov, alive.index(node), t, 1.0)
        alive.remove(node)
    index = [alive.index(tail) for tail in tails]
    index += [len(alive) + i for i in index]
    intended, _ = intended_map(ops, n)
    frame_inv = np.linalg.inv(physical @ np.linalg.inv(intended))
    return frame_inv @ cov[np.ix_(index, index)] @ frame_inv.T


def graph_state_cov(widths, weights) -> np.ndarray:
    """Closed-form covariance of squeezed nodes linked by CZs.

    With V_qq = diag(1/(2 omega_i^2)) and V_pp0 = diag(omega_i^2/2):
    V_qp = V_qq W and V_pp = W V_qq W + V_pp0.  A node of width 1 is a
    vacuum input.
    """
    widths = np.asarray(widths, dtype=float)
    w = np.asarray(weights, dtype=float)
    vqq = np.diag(1.0 / (2.0 * widths**2))
    vqp = vqq @ w
    vpp = w @ vqq @ w + np.diag(widths**2 / 2.0)
    return np.block([[vqq, vqp], [vqp.T, vpp]])


def nullifier_variances(cov: np.ndarray, weights) -> np.ndarray:
    """Variances of p_i - sum_j W_ij q_j, which equal omega_i^2/2 on a clean build."""
    w = np.asarray(weights, dtype=float)
    coeff = np.hstack([-w, np.eye(w.shape[0])])
    return np.diag(coeff @ cov @ coeff.T)


def chain_weights(n_nodes: int) -> np.ndarray:
    w = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return w


def box_probability(cov2, window: float) -> float:
    """P(|x_1| <= window and |x_2| <= window) for a zero-mean bivariate normal."""
    cov2 = np.asarray(cov2, dtype=float)
    s1 = math.sqrt(cov2[0, 0])
    slope = cov2[0, 1] / cov2[0, 0]
    s2 = math.sqrt(cov2[1, 1] - cov2[0, 1] ** 2 / cov2[0, 0])

    def density(x1: float) -> float:
        inner = stats.norm.cdf((window - slope * x1) / s2) - stats.norm.cdf(
            (-window - slope * x1) / s2
        )
        return stats.norm.pdf(x1, scale=s1) * inner

    value, _ = integrate.quad(density, -window, window, epsabs=1e-14, epsrel=1e-12)
    return float(value)


def chain_acceptance_probability(chain_nodes: int, omega: float, window: float) -> float:
    """Chance that both pre-measured momenta of the detached chain fall in the window.

    The detached mini-cluster is nodes 2..chain_nodes as a linear chain of
    width-omega nodes; its inner nodes (all but the first and last) are
    read in momentum before the input is attached.
    """
    size = chain_nodes - 1
    cov = graph_state_cov([omega] * size, chain_weights(size))
    inner = [size + i for i in range(1, size - 1)]
    if len(inner) != 2:
        raise ValueError("the exact box probability is written for two pre-measured nodes")
    return box_probability(cov[np.ix_(inner, inner)], window)


def fidelity(mean_a, cov_a, mean_b, cov_b) -> float:
    """Closed-form Gaussian fidelity, unclipped.

    One mode: exp(-d^T (Va+Vb)^-1 d / 2) / (sqrt(D + L) - sqrt(L)) with
    D = det(Va+Vb) and L = (4 det Va - 1)(4 det Vb - 1)/4.  Several modes
    need one pure argument, where it is the overlap exp(...)/sqrt(D).
    """
    mean_a, mean_b = np.asarray(mean_a, float), np.asarray(mean_b, float)
    cov_a, cov_b = np.asarray(cov_a, float), np.asarray(cov_b, float)
    total = cov_a + cov_b
    delta = mean_a - mean_b
    expo = math.exp(-0.5 * float(delta @ np.linalg.solve(total, delta)))
    big = float(np.linalg.det(total))
    if mean_a.size == 2:
        lam = max(
            0.0,
            (4.0 * np.linalg.det(cov_a) - 1.0) * (4.0 * np.linalg.det(cov_b) - 1.0) / 4.0,
        )
        return expo / (math.sqrt(big + lam) - math.sqrt(lam))
    return expo / math.sqrt(big)


def symplectic_eigenvalues(cov) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    return np.sort(np.abs(np.linalg.eigvals(symplectic_form(n) @ cov)))[::2]
