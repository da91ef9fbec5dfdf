"""Gaussian states, gates, homodyne conditioning, fidelity, Wigner grids."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_state_allclose, mixed_states, symplectic_maps
from cvcluster.exceptions import InvalidOperationError, InvalidStateError, MeasurementError
from cvcluster.gaussian import (
    GaussianState,
    _fidelity_cov,
    _fidelity_mean,
    _mixed_fidelity,
    apply_affine,
    coherent,
    fidelity,
    homodyne,
    homodyne_marginal,
    squeezed_vacuum_p,
    vacuum,
    wigner,
)
from cvcluster.symplectic import controlled_phase, fourier, rotation, shift_q


def test_vacuum_quadrature_variances():
    one = vacuum()
    np.testing.assert_allclose(one.mean, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(one.cov, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(vacuum(2).cov, 0.5 * np.eye(4), atol=1e-12)


def test_vacuum_is_pure_with_minimal_symplectic_eigenvalues():
    three = vacuum(3)
    np.testing.assert_allclose(three.symplectic_eigenvalues(), 0.5 * np.ones(3), atol=1e-12)
    assert three.is_pure()


def test_squeezed_vacuum_covariances():
    np.testing.assert_allclose(squeezed_vacuum_p(1.0).cov, 0.5 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        squeezed_vacuum_p(0.5).cov, np.diag([2.0, 0.125]), atol=1e-12
    )


def test_squeezed_width_duality_under_quarter_rotation():
    # a momentum width of omega is a position width of 1/omega
    for omega in (0.3, 0.7, 2.0):
        rotated = apply_affine(squeezed_vacuum_p(1.0 / omega), fourier())
        assert_state_allclose(rotated, squeezed_vacuum_p(omega), atol=1e-12)


def test_invalid_states_rejected():
    with pytest.raises(InvalidStateError):
        GaussianState(np.zeros(2), 0.1 * np.eye(2))
    with pytest.raises(InvalidStateError):
        GaussianState(np.zeros(2), np.array([[0.5, 0.2], [0.0, 0.5]]))
    with pytest.raises(InvalidStateError):
        GaussianState(np.zeros(3), 0.5 * np.eye(2))


def test_fourier_leaves_vacuum_unchanged():
    assert_state_allclose(apply_affine(vacuum(), fourier()), vacuum(), atol=1e-12)


def test_position_shift_displaces_mean_only():
    shifted = apply_affine(vacuum(), shift_q(2.0))
    np.testing.assert_allclose(shifted.mean, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(shifted.cov, 0.5 * np.eye(2), atol=1e-12)


def test_interaction_covariance_on_two_vacua():
    state = apply_affine(vacuum(2), controlled_phase(1.0), [0, 1])
    expected = np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 1.0, 0.0],
            [0.5, 0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(state.cov, expected, atol=1e-12)


def test_apply_affine_on_selected_modes_matches_embedding():
    state = vacuum(3)
    state = apply_affine(state, shift_q(1.0), [2])
    rotated = apply_affine(state, rotation(0.4), [1])
    embedded = apply_affine(state, rotation(0.4).embed(3, [1]))
    assert_state_allclose(rotated, embedded, atol=1e-12)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_local_apply_affine_matches_the_embedded_map(data):
    k = data.draw(st.sampled_from([1, 2]), label="k")
    n = data.draw(st.integers(k, 6), label="n")
    # any k distinct modes in any order: reversed and non-adjacent included
    modes = tuple(data.draw(st.permutations(range(n)), label="order")[:k])
    op = data.draw(symplectic_maps(k), label="op")
    state = data.draw(mixed_states(n), label="state")
    before = (state.mean.copy(), state.cov.copy())
    local = apply_affine(state, op, modes)
    dense = apply_affine(state, op.embed(n, modes))
    scale = max(np.max(np.abs(dense.cov)), np.max(np.abs(dense.mean)))
    assert np.max(np.abs(local.mean - dense.mean)) <= 1e-12 * scale
    assert np.max(np.abs(local.cov - dense.cov)) <= 1e-12 * scale
    np.testing.assert_array_equal(state.mean, before[0])
    np.testing.assert_array_equal(state.cov, before[1])


def test_local_apply_affine_rejects_bad_modes():
    state = vacuum(3)
    for modes, message in (
        ((0,), "one target mode per local mode"),
        ((1, 1), "distinct"),
        ((0, 3), "out of range"),
        ((-1, 0), "out of range"),
    ):
        with pytest.raises(InvalidOperationError, match=message):
            apply_affine(state, controlled_phase(), modes)


def test_tensor_permute_reduced_round_trip():
    pair = coherent(1.0, -0.5).tensor(squeezed_vacuum_p(0.4))
    swapped = pair.permute_modes([1, 0])
    np.testing.assert_allclose(swapped.mean[1], 1.0)
    assert_state_allclose(swapped.permute_modes([1, 0]), pair, atol=1e-12)


def test_marginal_of_vacuum_position():
    mu, var = homodyne_marginal(vacuum(), 0, 0.0)
    assert mu == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(0.5, abs=1e-12)


def test_measuring_a_product_state_leaves_partner_untouched():
    result = homodyne(vacuum(2), 0, 0.0, outcome=1.3)
    assert_state_allclose(result.state, vacuum(), atol=1e-12)
    assert result.outcome == 1.3
    assert result.relabel == {1: 0}


def test_pinned_momentum_readout_conditions_linked_mode():
    linked = apply_affine(vacuum(2), controlled_phase(1.0), [0, 1])
    result = homodyne(linked, 0, np.pi / 2.0, outcome=0.0)
    np.testing.assert_allclose(result.state.cov, np.diag([0.25, 1.0]), atol=1e-12)
    np.testing.assert_allclose(result.state.mean, [0.0, 0.0], atol=1e-12)


def test_pinned_conditioning_matches_schur_complement():
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = vacuum(3)
        for _ in range(5):
            mode = int(rng.integers(3))
            state = apply_affine(state, rotation(float(rng.normal())), [mode])
            a, b = rng.choice(3, size=2, replace=False)
            state = apply_affine(
                state, controlled_phase(float(rng.uniform(0.2, 0.8))), [int(a), int(b)]
            )
        theta = float(rng.uniform(0, np.pi))
        pin = float(rng.normal())
        mode = int(rng.integers(3))
        got = homodyne(state, mode, theta, outcome=pin)

        n = 3
        c, s = np.cos(theta), np.sin(theta)
        form = np.zeros(2 * n)
        form[mode], form[n + mode] = c, s
        keep = [i for i in range(2 * n) if i not in (mode, n + mode)]
        var = form @ state.cov @ form
        cross = state.cov[keep] @ form
        mean = state.mean[keep] + cross * (pin - form @ state.mean) / var
        cov = state.cov[np.ix_(keep, keep)] - np.outer(cross, cross) / var
        np.testing.assert_allclose(got.state.mean, mean, atol=1e-10)
        np.testing.assert_allclose(got.state.cov, cov, atol=1e-10)


def test_sampled_outcomes_match_marginal_statistics():
    rng = np.random.default_rng(19)
    state = apply_affine(coherent(0.7, -0.2), rotation(0.3))
    draws = np.array([homodyne(state, 0, 0.0, rng=rng).outcome for _ in range(4000)])
    mu, var = homodyne_marginal(state, 0, 0.0)
    assert abs(draws.mean() - mu) < 5 * np.sqrt(var / draws.size)
    assert abs(draws.var(ddof=1) - var) < 5 * var * np.sqrt(2.0 / draws.size)


def test_homodyne_requires_outcome_or_rng():
    with pytest.raises(MeasurementError):
        homodyne(vacuum(), 0, 0.0)


def test_fidelity_of_identical_states_is_one():
    state = apply_affine(coherent(0.4, 1.1), rotation(0.8))
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_of_displaced_vacuum():
    # coherent-state overlap |<0|alpha>|^2 = exp(-s^2 / 2) at q-shift s
    value = fidelity(vacuum(), coherent(2.0, 0.0))
    assert value == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_fidelity_of_vacuum_against_squeezed():
    value = fidelity(vacuum(), squeezed_vacuum_p(0.5))
    assert value == pytest.approx(0.8, abs=1e-12)


def test_fidelity_is_symmetric_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(15):
        a = apply_affine(coherent(*rng.normal(size=2)), rotation(float(rng.normal())))
        b = apply_affine(
            squeezed_vacuum_p(float(rng.uniform(0.3, 1.5))),
            rotation(float(rng.normal())),
        )
        f_ab, f_ba = fidelity(a, b), fidelity(b, a)
        assert f_ab == pytest.approx(f_ba, abs=1e-12)
        assert 0.0 <= f_ab <= 1.0


def _thermal_squeezed(nu, omega, phi, mean):
    """Rotated squeezed thermal state with symplectic eigenvalue nu."""
    cov = nu * np.diag([1.0 / omega**2, omega**2])
    return apply_affine(GaussianState(mean, cov), rotation(phi))


def _one_mode_mixed_states(seed, count):
    rng = np.random.default_rng(seed)
    return [
        _thermal_squeezed(
            float(rng.uniform(0.55, 1.5)),
            float(rng.uniform(0.4, 2.0)),
            float(rng.uniform(0.0, np.pi)),
            rng.normal(size=2),
        )
        for _ in range(count)
    ]


def _mixed_two_mode(a, b):
    # a controlled-phase link keeps a product of mixed states mixed but
    # correlates it, so the multi-mode formula sees off-diagonal blocks
    return apply_affine(a.tensor(b), controlled_phase(0.7))


def test_mixed_fidelity_formula_matches_the_one_mode_closed_form():
    states = _one_mode_mixed_states(31, 12)
    for a, b in zip(states[::2], states[1::2]):
        assert not (a.is_pure() or b.is_pure())
        assert _mixed_fidelity(a, b) == pytest.approx(fidelity(a, b), abs=1e-12)


def test_mixed_fidelity_of_a_state_with_itself_is_one():
    a, b, c = _one_mode_mixed_states(32, 3)
    state = apply_affine(_mixed_two_mode(a, b).tensor(c), controlled_phase(-0.4), (2, 0))
    assert not state.is_pure()
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)
    assert _mixed_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)


def test_mixed_fidelity_factorises_on_products():
    a1, b1, a2, b2 = _one_mode_mixed_states(33, 4)
    joint = fidelity(a1.tensor(a2), b1.tensor(b2))
    assert joint == pytest.approx(fidelity(a1, b1) * fidelity(a2, b2), abs=1e-12)
    # the same pair seen through one shared two-mode map keeps its fidelity
    linked = fidelity(_mixed_two_mode(a1, a2), _mixed_two_mode(b1, b2))
    assert linked == pytest.approx(joint, abs=1e-12)
    # a vacuum factor puts one symplectic eigenvalue at exactly 1/2 on a
    # state that is not pure, so the mixed formula's root is singular
    thermal, other = (_thermal_squeezed(nu, 1.0, 0.0, np.zeros(2)) for nu in (1.3, 0.8))
    squeezed = GaussianState(np.array([0.4, -0.2]), squeezed_vacuum_p(0.6).cov)
    product = fidelity(thermal.tensor(vacuum()), other.tensor(squeezed))
    assert product == pytest.approx(
        fidelity(thermal, other) * fidelity(vacuum(), squeezed), abs=1e-12
    )


def _pure_states(n_modes):
    return symplectic_maps(n_modes).map(lambda op: apply_affine(vacuum(n_modes), op))


def _fidelity_pairs(n_modes):
    either = st.one_of(_pure_states(n_modes), mixed_states(n_modes))
    return st.tuples(either, either, st.lists(mixed_states(n_modes), min_size=1, max_size=3))


# covariance I/2 + E_00: mixed, with one symplectic eigenvalue at exactly 1/2
_EIGENVALUE_AT_HALF = GaussianState(np.zeros(4), np.diag([1.5, 0.5, 0.5, 0.5]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(_fidelity_pairs))
@example((_EIGENVALUE_AT_HALF, _EIGENVALUE_AT_HALF, [_EIGENVALUE_AT_HALF]))
def test_fidelity_is_its_covariance_half_then_its_mean_half(pair):
    a, b, others = pair
    half = _fidelity_cov(a.cov, b.cov)
    assert repr(_fidelity_mean(half, a.mean - b.mean)) == repr(fidelity(a, b))
    # the covariance half reads no mean, so one serves every pair of means
    for other in others:
        moved_a = GaussianState(other.mean, a.cov, validate=False)
        moved_b = GaussianState(-other.mean, b.cov, validate=False)
        expected = fidelity(moved_a, moved_b)
        assert repr(_fidelity_mean(half, moved_a.mean - moved_b.mean)) == repr(expected)


def _pair_sharing_a_vacuum_mode(eps):
    """Mixed 3-mode pair whose mode 1 is vacuum in both, coupled by ``eps``."""
    cov_a = np.diag([0.5, 0.5, 0.5 + 2.0**-13, 0.5, 0.5, 0.5])
    cov_b = np.diag([0.5, 0.5, 0.5, 1.0625, 0.5, 0.5 + 2.0**-10])
    cov_b[3, 5] = cov_b[5, 3] = 0.0234375
    for cov, row, cols in ((cov_a, 2, (0, 1, 3, 4, 5)), (cov_b, 3, (0, 1, 2, 4))):
        cov[row, cols] = cov[cols, row] = eps
    return GaussianState(np.zeros(6), cov_a), GaussianState(np.zeros(6), cov_b)


def test_mixed_fidelity_on_a_nearly_defective_root_argument():
    # the same pair without its vacuum mode never reaches a singular root;
    # eps = 1e-30, 1e-146 and 1e-200 once raised, missed and gave NaN
    reference = 0.7999221450996433
    for exponent in range(-200, -9):
        a, b = _pair_sharing_a_vacuum_mode(10.0**exponent)
        assert fidelity(a, b) == pytest.approx(reference, abs=1e-7), exponent


def test_fidelity_rejects_a_degenerate_covariance_sum():
    pure = apply_affine(vacuum(2), controlled_phase(0.5))
    negated = GaussianState(np.zeros(4), -pure.cov, validate=False)
    with pytest.raises(InvalidStateError, match="degenerate"):
        fidelity(pure, negated)
    with pytest.raises(InvalidStateError, match="degenerate"):
        _fidelity_cov(pure.cov, negated.cov)


def test_wigner_peak_tail_and_normalization():
    axis = np.linspace(-6.0, 6.0, 241)
    grid = wigner(vacuum(), axis, axis)
    center = np.argmin(np.abs(axis))
    assert grid[center, center] == pytest.approx(1.0 / np.pi, abs=1e-12)
    far = wigner(vacuum(), np.array([10.0]), np.array([0.0]))
    assert far[0, 0] < 1e-20
    step = axis[1] - axis[0]
    assert grid.sum() * step * step == pytest.approx(1.0, abs=1e-3)
