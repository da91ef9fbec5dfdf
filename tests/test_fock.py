"""Number-basis oracle: state builders, gates, measurements, overlaps."""

import numpy as np
import pytest
from scipy.linalg import expm

from cvcluster.distortion import apply_position_envelope
from cvcluster.exceptions import (
    InvalidOperationError,
    MeasurementError,
    TruncationError,
)
from cvcluster.fock import (
    DEFAULT_CUTOFFS,
    default_cutoff,
    fock_coherent,
    fock_controlled_phase,
    fock_cubic_phase,
    fock_fourier,
    fock_homodyne,
    fock_position_envelope,
    fock_shear,
    fock_shift_q,
    fock_squeezed_vacuum_p,
    fock_tensor,
    fock_vacuum,
    measure_nonlinear_quadrature,
    moments,
    momentum_operator,
    nonlinear_spectral_measure,
    overlap,
    photon_count,
    position_operator,
    quadrature_density,
    quadrature_grid,
)
from cvcluster.fock import _apply_matrix
from cvcluster.gaussian import (
    apply_affine,
    coherent,
    fidelity,
    homodyne,
    squeezed_vacuum_p,
    vacuum,
)
from cvcluster.symplectic import controlled_phase, quadratic_phase
from cvcluster.validate import _two_mode_linked


def smoothed_density(points, weights, axis, bandwidth):
    """Gaussian-kernel density of a weighted sample on a fixed axis."""
    out = np.zeros_like(axis)
    norm = bandwidth * np.sqrt(2.0 * np.pi)
    for x, w in zip(points, weights):
        out += w * np.exp(-((axis - x) ** 2) / (2.0 * bandwidth**2)) / norm
    return out


def pairwise_moments(state):
    """Reference moments: one expectation per quadrature and per pair,
    with same-mode pairs as the symmetrized operator product."""
    m = state.n_modes
    amps = state.amplitudes / np.linalg.norm(state.amplitudes)
    mats = [position_operator(d) for d in state.dims] + [momentum_operator(d) for d in state.dims]
    axis_of = list(range(m)) + list(range(m))

    def expect(ops):
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
                raw = expect([(ai, 0.5 * (mats[i] @ mats[j] + mats[j] @ mats[i]))])
            else:
                raw = expect([(ai, mats[i]), (aj, mats[j])])
            cov[i, j] = cov[j, i] = raw - mean[i] * mean[j]
    return mean, cov


def test_default_cutoffs_shrink_with_mode_count():
    assert default_cutoff(1) == DEFAULT_CUTOFFS[1]
    assert default_cutoff(2) == DEFAULT_CUTOFFS[2]
    assert default_cutoff(3) == DEFAULT_CUTOFFS[3]


def test_unit_width_squeezed_vacuum_is_the_vacuum():
    state = fock_squeezed_vacuum_p(1.0)
    amps = np.abs(state.amplitudes)
    assert amps[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(amps[1:]) < 1e-12


def test_squeezed_vacuum_has_even_parity():
    for omega in (0.5, 0.8, 1.4):
        amps = fock_squeezed_vacuum_p(omega).amplitudes
        assert np.max(np.abs(amps[1::2])) < 1e-12


def test_squeezed_vacuum_momentum_variance():
    _, cov = moments(fock_squeezed_vacuum_p(0.5))
    assert cov[1, 1] == pytest.approx(0.125, abs=1e-6)
    assert cov[0, 0] == pytest.approx(2.0, abs=1e-6)


def test_moments_match_the_pairwise_expectations():
    linked, _ = _two_mode_linked(1)
    cutoff = default_cutoff(3)
    states = (
        fock_coherent(0.7, -0.4),
        fock_shear(fock_squeezed_vacuum_p(0.6), 0, 0.7),
        linked,
        fock_tensor(
            fock_tensor(fock_coherent(0.4, 0.1, cutoff=cutoff), fock_vacuum(cutoff=cutoff)),
            fock_squeezed_vacuum_p(0.9, cutoff=cutoff),
        ),
    )
    for state in states:
        mean, cov = moments(state)
        ref_mean, ref_cov = pairwise_moments(state)
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-14)
        np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=1e-14)


def test_moments_of_coherent_state():
    mean, cov = moments(fock_coherent(0.7, -0.4))
    np.testing.assert_allclose(mean, [0.7, -0.4], atol=1e-9)
    np.testing.assert_allclose(cov, 0.5 * np.eye(2), atol=1e-9)


def test_oversized_displacement_trips_the_truncation_guard():
    with pytest.raises(TruncationError):
        fock_coherent(6.0, 0.0, cutoff=12)
    state = fock_coherent(6.0, 0.0, cutoff=12, enforce=False)
    assert not state.truncation_safe


@pytest.mark.parametrize("factor", [1, 2], ids=["default_cutoff", "doubled_cutoff"])
def test_gates_match_the_exponential_of_their_truncated_generator(factor):
    cutoff = factor * default_cutoff(1)
    q, p = position_operator(cutoff), momentum_operator(cutoff)
    state = fock_coherent(0.6, -0.3, cutoff=cutoff)
    cases = (
        (fock_shear(state, 0, 0.7), expm(0.35j * q @ q)),
        (fock_cubic_phase(state, 0, 0.2), expm(0.2j / 3.0 * q @ q @ q)),
        (fock_shift_q(state, 0, 0.9), expm(-0.9j * p)),
    )
    for gated, unitary in cases:
        np.testing.assert_allclose(gated.amplitudes, unitary @ state.amplitudes, atol=1e-12)
    shifted = q - 0.4 * np.eye(cutoff)
    filtered = expm(-0.5 * 1.3**2 * shifted @ shifted) @ state.amplitudes
    np.testing.assert_allclose(
        fock_position_envelope(state, 0, 1.3, 0.4).amplitudes,
        filtered / np.linalg.norm(filtered),
        atol=1e-12,
    )

    cutoff = factor * default_cutoff(2)
    q = position_operator(cutoff)
    pair = fock_tensor(
        fock_coherent(0.4, 0.1, cutoff=cutoff), fock_squeezed_vacuum_p(0.8, cutoff=cutoff)
    )
    linked = expm(0.8j * np.kron(q, q)) @ pair.amplitudes.reshape(-1)
    np.testing.assert_allclose(
        fock_controlled_phase(pair, 0, 1, 0.8).amplitudes,
        linked.reshape(pair.dims),
        atol=1e-12,
    )


def test_controlled_phase_on_the_outer_modes_of_three():
    cutoff = default_cutoff(3)
    q = position_operator(cutoff)
    state = fock_tensor(
        fock_tensor(fock_coherent(0.4, 0.1, cutoff=cutoff), fock_coherent(-0.2, 0.3, cutoff=cutoff)),
        fock_squeezed_vacuum_p(0.9, cutoff=cutoff),
    )
    unitary = expm(-0.6j * np.kron(q, q)).reshape((cutoff,) * 4)
    # unitary axes: (out mode 2, out mode 0, in mode 2, in mode 0)
    expected = np.einsum("CAca,abc->AbC", unitary, state.amplitudes)
    gated = fock_controlled_phase(state, 2, 0, -0.6)
    np.testing.assert_allclose(gated.amplitudes, expected, atol=1e-12)


def test_a_gate_that_leaks_past_the_cutoff_trips_the_guard():
    state = fock_coherent(0.5, 0.0, cutoff=12)
    with pytest.raises(TruncationError):
        fock_shift_q(state, 0, 5.0)
    assert not fock_shift_q(state, 0, 5.0, enforce=False).truncation_safe


_BAD_MODE_CALLS = {
    "homodyne_-1": lambda one, two: fock_homodyne(two, -1, 0.0, outcome=0.1),
    "homodyne_2": lambda one, two: fock_homodyne(two, 2, 0.5, outcome=0.1),
    "shear_3": lambda one, two: fock_shear(two, 3, 0.4),
    "cubic_-1": lambda one, two: fock_cubic_phase(one, -1, 0.1),
    "shift_1": lambda one, two: fock_shift_q(one, 1, 0.2),
    "fourier_2": lambda one, two: fock_fourier(two, 2),
    "fourier_-1": lambda one, two: fock_fourier(two, -1),
    "envelope_-1": lambda one, two: fock_position_envelope(two, -1, 1.0),
    "controlled_phase_5": lambda one, two: fock_controlled_phase(two, 0, 5),
    "density_4": lambda one, two: quadrature_density(one, 4, 0.0, quadrature_grid(40)),
    "spectral_3": lambda one, two: nonlinear_spectral_measure(two, 3, 0.2),
    "nonlinear_-1": lambda one, two: measure_nonlinear_quadrature(one, -1, 0.2, outcome=0.0),
    "photon_count_2": lambda one, two: photon_count(two, 2, outcome=0),
    "photon_count_-1": lambda one, two: photon_count(two, -1, outcome=0),
}


@pytest.mark.parametrize("call", _BAD_MODE_CALLS.values(), ids=_BAD_MODE_CALLS.keys())
def test_a_mode_outside_the_state_is_rejected(call):
    one = fock_coherent(0.3, 0.2)
    two = fock_tensor(fock_coherent(0.3, 0.2, cutoff=18), fock_vacuum(cutoff=18))
    with pytest.raises(InvalidOperationError, match="out of range"):
        call(one, two)


def test_fourier_fixes_the_vacuum():
    state = fock_fourier(fock_vacuum())
    assert abs(abs(overlap(state, fock_vacuum())) - 1.0) < 1e-12


def test_shear_matches_gaussian_moments():
    sheared = fock_shear(fock_squeezed_vacuum_p(0.8), 0, 0.7)
    mean, cov = moments(sheared)
    target = apply_affine(squeezed_vacuum_p(0.8), quadratic_phase(0.7))
    np.testing.assert_allclose(mean, target.mean, atol=1e-8)
    np.testing.assert_allclose(cov, target.cov, atol=1e-8)


def test_shift_displaces_position_mean():
    mean, _ = moments(fock_shift_q(fock_vacuum(), 0, 0.9))
    np.testing.assert_allclose(mean, [0.9, 0.0], atol=1e-9)


def test_linked_vacua_cross_moment():
    pair = fock_tensor(fock_vacuum(), fock_vacuum())
    pair = fock_controlled_phase(pair, 0, 1)
    _, cov = moments(pair)
    # block order (q1, q2, p1, p2): <q1 p2> sits at [0, 3]
    assert cov[0, 3] == pytest.approx(0.5, abs=1e-9)
    assert cov[1, 2] == pytest.approx(0.5, abs=1e-9)


def test_cubic_gate_produces_momentum_non_gaussianity():
    state = fock_cubic_phase(fock_vacuum(), 0, 0.1)
    grid = quadrature_grid(state.dims[0])
    step = grid[1] - grid[0]

    def cumulants(theta):
        density = quadrature_density(state, 0, theta, grid)
        m1 = np.sum(grid * density) * step
        c2 = np.sum((grid - m1) ** 2 * density) * step
        c4 = np.sum((grid - m1) ** 4 * density) * step - 3.0 * c2**2
        return m1, c2, c4

    # the gate is diagonal in position, so all position cumulants stay Gaussian
    _, _, kappa4_q = cumulants(0.0)
    assert abs(kappa4_q) < 1e-8
    mean_p, _, kappa4_p = cumulants(np.pi / 2.0)
    assert kappa4_p > 1e-4
    assert mean_p == pytest.approx(0.05, abs=1e-6)


def test_envelope_narrows_vacuum_position_variance():
    state = fock_position_envelope(fock_vacuum(), 0, 1.0, 0.0)
    _, cov = moments(state)
    assert cov[0, 0] == pytest.approx(0.25, abs=1e-9)


def test_envelope_pulls_displaced_mean_toward_center():
    state = fock_position_envelope(fock_coherent(1.5, 0.3), 0, 1.0, 0.0)
    mean, _ = moments(state)
    np.testing.assert_allclose(mean, [0.75, 0.3], atol=1e-8)


def test_envelope_moments_match_the_gaussian_engine():
    cases = (
        (fock_coherent(0.8, -0.5), coherent(0.8, -0.5)),
        (fock_squeezed_vacuum_p(0.8), squeezed_vacuum_p(0.8)),
        (
            fock_shear(fock_squeezed_vacuum_p(0.8), 0, 0.7),
            apply_affine(squeezed_vacuum_p(0.8), quadratic_phase(0.7)),
        ),
    )
    for fock_state, gaussian_state in cases:
        for width, center in ((0.6, 0.0), (1.3, -0.7)):
            mean, cov = moments(fock_position_envelope(fock_state, 0, width, center))
            expected = apply_position_envelope(gaussian_state, 0, width, center)
            np.testing.assert_allclose(mean, expected.mean, atol=1e-8)
            np.testing.assert_allclose(cov, expected.cov, atol=1e-8)


def test_vacuum_quadrature_density_variance():
    grid = quadrature_grid(default_cutoff(1))
    density = quadrature_density(fock_vacuum(), 0, 0.0, grid)
    step = grid[1] - grid[0]
    var = np.sum(grid**2 * density) * step
    assert var == pytest.approx(0.5, abs=2e-3)


def test_conditioning_a_product_state_leaves_partner_unchanged():
    pair = fock_tensor(fock_coherent(0.5, -0.3, cutoff=14), fock_squeezed_vacuum_p(0.8, cutoff=14))
    _, conditioned = fock_homodyne(pair, 1, 0.3, outcome=0.2)
    reference = fock_coherent(0.5, -0.3, cutoff=14)
    assert abs(abs(overlap(conditioned, reference)) - 1.0) < 1e-8


def test_teleport_conditioning_matches_gaussian_engine():
    # the two-mode linked state at this width overflows the per-gate
    # tail ceiling below cutoff ~1e3 population, so enforcement is off
    # and convergence under cutoff growth is asserted instead
    results = []
    for cut_sq, cut_in in ((40, 16), (48, 20)):
        ancilla = fock_squeezed_vacuum_p(0.5, cutoff=cut_sq, enforce=False)
        source = fock_coherent(0.6, -0.2, cutoff=cut_in)
        pair = fock_controlled_phase(fock_tensor(source, ancilla), 0, 1, enforce=False)
        _, out = fock_homodyne(pair, 0, np.pi / 2.0, outcome=0.0)
        results.append(moments(out))
    (mean_a, cov_a), (mean_b, cov_b) = results
    np.testing.assert_allclose(mean_a, mean_b, atol=2e-4)
    np.testing.assert_allclose(cov_a, cov_b, atol=2e-4)

    linked = coherent(0.6, -0.2).tensor(squeezed_vacuum_p(0.5))
    linked = apply_affine(linked, controlled_phase(1.0), [0, 1])
    target = homodyne(linked, 0, np.pi / 2.0, outcome=0.0).state
    np.testing.assert_allclose(mean_b, target.mean, atol=1e-3)
    np.testing.assert_allclose(cov_b, target.cov, atol=1e-3)


def test_sampled_fock_homodyne_tracks_gaussian_marginal():
    rng = np.random.default_rng(41)
    state = fock_squeezed_vacuum_p(0.8)
    draws = np.array([fock_homodyne(state, 0, 0.0, rng=rng)[0] for _ in range(600)])
    var = squeezed_vacuum_p(0.8).cov[0, 0]
    assert abs(draws.mean()) < 5 * np.sqrt(var / draws.size)
    assert abs(draws.var(ddof=1) - var) < 5 * var * np.sqrt(2.0 / draws.size)


def test_vacuum_photon_count_is_always_zero():
    rng = np.random.default_rng(43)
    for _ in range(25):
        outcome, _ = photon_count(fock_vacuum(), 0, rng=rng)
        assert outcome == 0


def test_squeezed_vacuum_odd_counts_are_forbidden():
    probs = np.abs(fock_squeezed_vacuum_p(0.5).amplitudes) ** 2
    assert probs[1::2].sum() < 1e-10


def test_coherent_photon_statistics_follow_the_poisson_law():
    # mean photon number 1 at coherent amplitude (sqrt(2), 0)
    probs = np.abs(fock_coherent(np.sqrt(2.0), 0.0).amplitudes) ** 2
    assert probs[0] == pytest.approx(np.exp(-1.0), abs=1e-4)
    assert probs[1] == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_pinned_photon_count_conditions_remaining_mode():
    pair = fock_tensor(fock_coherent(0.8, 0.0, cutoff=14), fock_vacuum(cutoff=14))
    pair = fock_controlled_phase(pair, 0, 1, enforce=False)
    outcome, rest = photon_count(pair, 0, outcome=1)
    assert outcome == 1
    assert rest.n_modes == 1
    with pytest.raises(MeasurementError):
        photon_count(fock_vacuum(), 0, outcome=3)


def test_sheared_quadrature_at_zero_reduces_to_momentum_readout():
    state = fock_coherent(0.6, -0.3)
    values, weights = nonlinear_spectral_measure(state, 0, 0.0)
    grid = quadrature_grid(state.dims[0])
    density = quadrature_density(state, 0, np.pi / 2.0, grid)
    axis = np.arange(-10.0, 10.0, 0.02)
    spectral = smoothed_density(values, weights, axis, 0.5)
    homodyne_side = smoothed_density(grid, density * (grid[1] - grid[0]), axis, 0.5)
    tv = 0.5 * np.sum(np.abs(spectral - homodyne_side)) * 0.02
    assert tv < 1e-6


def test_sheared_quadrature_equals_cubic_gate_then_momentum():
    u = 0.2
    state = fock_coherent(0.6, -0.3)
    values, weights = nonlinear_spectral_measure(state, 0, u)
    gated = fock_cubic_phase(state, 0, u)
    grid = quadrature_grid(state.dims[0])
    density = quadrature_density(gated, 0, np.pi / 2.0, grid)
    axis = np.arange(-10.0, 10.0, 0.02)
    spectral = smoothed_density(values, weights, axis, 0.5)
    gate_side = smoothed_density(grid, density * (grid[1] - grid[0]), axis, 0.5)
    tv = 0.5 * np.sum(np.abs(spectral - gate_side)) * 0.02
    assert tv < 2e-3

    # flipping the gate's sign must break the agreement decisively
    flipped = fock_cubic_phase(state, 0, -u)
    density = quadrature_density(flipped, 0, np.pi / 2.0, grid)
    wrong = smoothed_density(grid, density * (grid[1] - grid[0]), axis, 0.5)
    assert 0.5 * np.sum(np.abs(spectral - wrong)) * 0.02 > 0.05


def test_sheared_quadrature_first_moment_on_vacuum():
    values, weights = nonlinear_spectral_measure(fock_vacuum(), 0, 0.3)
    assert float(values @ weights) == pytest.approx(0.15, abs=5e-3)


def test_pinned_sheared_quadrature_on_vacuum_is_accepted():
    outcome, rest = measure_nonlinear_quadrature(fock_vacuum(), 0, 0.2, outcome=0.0)
    assert outcome == 0.0
    assert rest.dims == (1,)


def test_measuring_the_sheared_quadrature_conditions_the_other_mode():
    linked, _ = _two_mode_linked(1)
    outcome, rest = measure_nonlinear_quadrature(linked, 0, 0.0, outcome=0.4)
    _, expected = fock_homodyne(linked, 0, np.pi / 2.0, outcome=0.4)
    assert outcome == 0.4
    assert rest.n_modes == 1
    np.testing.assert_allclose(rest.amplitudes, expected.amplitudes, rtol=0, atol=1e-12)


def test_sampled_sheared_quadrature_follows_the_spectral_moments():
    u, draws = 0.2, 4000
    state = fock_coherent(0.6, -0.3)
    values, weights = nonlinear_spectral_measure(state, 0, u)
    mean = float(values @ weights)
    var = float((values - mean) ** 2 @ weights)
    fourth = float((values - mean) ** 4 @ weights)
    rng = np.random.default_rng(47)
    outcomes = np.array(
        [measure_nonlinear_quadrature(state, 0, u, rng=rng)[0] for _ in range(draws)]
    )
    assert abs(outcomes.mean() - mean) < 4.0 * np.sqrt(var / draws)
    assert abs(outcomes.var() - var) < 4.0 * np.sqrt((fourth - var**2) / draws)


def test_overlap_basics_and_cross_check():
    state = fock_coherent(0.4, 0.2)
    assert abs(overlap(state, state)) == pytest.approx(1.0, abs=1e-12)
    one = np.zeros(10, dtype=complex)
    one[1] = 1.0
    zero = np.zeros(10, dtype=complex)
    zero[0] = 1.0
    from cvcluster.fock import FockState

    assert abs(overlap(FockState(one), FockState(zero))) == 0.0
    value = abs(overlap(fock_vacuum(), fock_squeezed_vacuum_p(0.5))) ** 2
    assert value == pytest.approx(fidelity(vacuum(), squeezed_vacuum_p(0.5)), abs=1e-4)


def test_overlap_requires_matching_shapes():
    with pytest.raises(InvalidOperationError):
        overlap(fock_vacuum(cutoff=10), fock_vacuum(cutoff=12))
