"""Phase-space map algebra: construction, composition, embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import symplectic_maps
from cvcluster.exceptions import InvalidOperationError
from cvcluster.symplectic import (
    SYMPLECTIC_TOL,
    SymplecticAffine,
    controlled_addition,
    controlled_phase,
    fourier,
    fourier_inverse,
    gate_matrices,
    quadratic_phase,
    rotation,
    shift_p,
    shift_q,
    symplectic_form,
)


def test_symplectic_form_squares_to_minus_identity():
    for n in (1, 2, 4):
        form = symplectic_form(n)
        np.testing.assert_allclose(form @ form, -np.eye(2 * n))


def test_non_symplectic_matrix_rejected():
    with pytest.raises(InvalidOperationError):
        SymplecticAffine(np.diag([2.0, 2.0]))
    with pytest.raises(InvalidOperationError, match="not symplectic"):
        SymplecticAffine([[1, 1], [0, 2]])


def _defect(op: SymplecticAffine) -> float:
    form = symplectic_form(op.n_modes)
    return float(np.max(np.abs(op.matrix.T @ form @ op.matrix - form)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_derived_maps_stay_symplectic(data):
    # compose, inverse and embed skip the check, so their results must
    # be symplectic by construction
    k = data.draw(st.sampled_from([1, 2]), label="k")
    first = data.draw(symplectic_maps(k), label="first")
    second = data.draw(symplectic_maps(k), label="second")
    n = data.draw(st.integers(k, 6), label="n")
    modes = tuple(data.draw(st.permutations(range(n)), label="order")[:k])
    composed = first.compose(second)
    for derived in (composed, first.inverse(), composed.inverse(), first.embed(n, modes)):
        assert _defect(derived) <= SYMPLECTIC_TOL
    assert composed.compose(composed.inverse()).is_identity(tol=1e-9)


def test_shift_gates_move_the_right_quadrature():
    np.testing.assert_allclose(shift_q(2.0).shift, [2.0, 0.0])
    np.testing.assert_allclose(shift_p(-1.3).shift, [0.0, -1.3])
    np.testing.assert_allclose(shift_q(2.0).matrix, np.eye(2))


def test_fourier_fourth_power_is_identity():
    total = SymplecticAffine.identity(1)
    for _ in range(4):
        total = fourier().compose(total)
    assert total.is_identity()


def test_fourier_inverse_matches_algebraic_inverse():
    np.testing.assert_allclose(
        fourier_inverse().matrix, fourier().inverse().matrix, atol=1e-15
    )


def test_rotation_composes_additively():
    lhs = rotation(0.7).compose(rotation(-0.2))
    np.testing.assert_allclose(lhs.matrix, rotation(0.5).matrix, atol=1e-12)


def test_quadratic_phase_shears_momentum():
    point = quadratic_phase(1.0).matrix @ np.array([1.0, 0.0])
    np.testing.assert_allclose(point, [1.0, 1.0])


def test_controlled_phase_adds_cross_positions_to_momenta():
    g = 0.8
    point = controlled_phase(g).matrix @ np.array([1.0, 2.0, 0.0, 0.0])
    np.testing.assert_allclose(point, [1.0, 2.0, g * 2.0, g * 1.0])


def test_controlled_addition_acts_on_positions():
    point = controlled_addition().matrix @ np.array([1.0, 0.5, 0.2, 0.4])
    np.testing.assert_allclose(point, [1.0, 1.5, -0.2, 0.4])


def test_embed_places_local_map_on_selected_mode():
    embedded = fourier().embed(3, [1])
    vec = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    out = embedded.matrix @ vec
    np.testing.assert_allclose(out, [1.0, -5.0, 3.0, 4.0, 2.0, 6.0])


def test_embed_rejects_bad_targets():
    with pytest.raises(InvalidOperationError):
        fourier().embed(2, [0, 1])
    with pytest.raises(InvalidOperationError):
        controlled_phase().embed(2, [0, 2])


def test_compose_inverse_round_trip_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        total = SymplecticAffine.identity(2)
        for _ in range(6):
            pick = rng.integers(4)
            if pick == 0:
                local = rotation(float(rng.normal()))
            elif pick == 1:
                local = quadratic_phase(float(rng.normal()))
            elif pick == 2:
                local = shift_q(float(rng.normal()))
            else:
                local = shift_p(float(rng.normal()))
            total = local.embed(2, [int(rng.integers(2))]).compose(total)
            if rng.integers(3) == 0:
                total = controlled_phase(float(rng.uniform(0.3, 1.0))).compose(total)
        assert total.compose(total.inverse()).is_identity(tol=1e-9)
        assert total.inverse().compose(total).is_identity(tol=1e-9)


def test_gate_catalog_builds_valid_maps():
    catalog = gate_matrices()
    assert set(catalog) == {
        "shift_q",
        "shift_p",
        "fourier",
        "fourier_inverse",
        "rotation",
        "quadratic_phase",
        "controlled_phase",
        "controlled_addition",
    }
    for name, build in catalog.items():
        gate = build(0.5) if name not in ("fourier", "fourier_inverse", "controlled_addition") else build()
        assert isinstance(gate, SymplecticAffine)
