"""Tests of the benchmark's references, output checks and tracer.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import checks
import reference

SRC = Path(__file__).resolve().parents[1] / "src"

SHORT = [
    ("f", [0], []),
    ("p", [1], [0.5]),
    ("cz", [0, 1], []),
    ("z", [0], [0.2]),
    ("f", [1], []),
    ("p", [0], [-0.4]),
]


def test_step_by_step_output_agrees_with_full_cluster_path():
    for omega in (0.3, 0.1):
        stepwise = reference.teleported_output_cov(SHORT, 2, omega)
        full = reference.cluster_output_cov(SHORT, 2, omega)
        assert np.allclose(stepwise, full, rtol=1e-10, atol=1e-12)


def test_step_by_step_output_is_pure_and_tends_to_the_ideal_gate():
    matrix, _ = reference.intended_map(SHORT, 2)
    ideal = reference.VACUUM * matrix @ matrix.T
    for omega in (0.3, 0.1, 0.01):
        cov = reference.teleported_output_cov(SHORT, 2, omega)
        assert np.allclose(reference.symplectic_eigenvalues(cov), 0.5, atol=1e-10)
    assert np.max(np.abs(reference.teleported_output_cov(SHORT, 2, 1e-3) - ideal)) < 1e-2
    assert np.max(np.abs(reference.teleported_output_cov(SHORT, 2, 0.3) - ideal)) > 1e-2


def test_graph_state_matches_cz_links_applied_one_by_one():
    rng = np.random.default_rng(3)
    size = 5
    widths = rng.uniform(0.2, 1.0, size)
    weights = np.zeros((size, size))
    cov = np.diag(np.concatenate([1.0 / (2.0 * widths**2), widths**2 / 2.0]))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)]:
        g = rng.uniform(0.5, 1.5)
        weights[a, b] = weights[b, a] = g
        link = reference.embed(reference.cz_local(g), size, [a, b])
        cov = link @ cov @ link.T
    assert np.allclose(reference.graph_state_cov(widths, weights), cov, rtol=1e-12)
    assert np.allclose(reference.nullifier_variances(cov, weights), widths**2 / 2.0, rtol=1e-10)


def test_chain_acceptance_probability():
    value = reference.chain_acceptance_probability(5, 0.3, 0.5)
    assert value == pytest.approx(0.01416, abs=5e-5)
    # the two pre-measured momenta of the detached chain are independent
    sigma = math.sqrt(2.0 / (2.0 * 0.3**2) + 0.3**2 / 2.0)
    one = stats.norm.cdf(0.5 / sigma) - stats.norm.cdf(-0.5 / sigma)
    assert value == pytest.approx(one**2, rel=1e-9)


def test_box_probability_of_correlated_pair_against_sampling():
    cov2 = np.array([[1.0, 0.6], [0.6, 2.0]])
    exact = reference.box_probability(cov2, 0.7)
    draws = np.random.default_rng(5).multivariate_normal([0.0, 0.0], cov2, 400_000)
    hits = np.mean(np.all(np.abs(draws) <= 0.7, axis=1))
    assert abs(hits - exact) < 4.0 * math.sqrt(exact * (1 - exact) / draws.shape[0])


def test_fidelity_closed_forms():
    vac = 0.5 * np.eye(2)
    assert reference.fidelity([0, 0], vac, [0, 0], vac) == pytest.approx(1.0)
    assert reference.fidelity([0.3, -0.4], vac, [0, 0], vac) == pytest.approx(math.exp(-0.125))
    thermal = 1.3 * np.eye(2)
    assert reference.fidelity([0, 0], thermal, [0, 0], thermal) == pytest.approx(1.0)
    squeezed = np.diag([2.0, 0.125])
    single = reference.fidelity([0.2, 0.1], squeezed, [0, 0], vac)
    pair = reference.fidelity(
        [0.2, 0.0, 0.1, 0.0], np.diag([2.0, 0.5, 0.125, 0.5]), [0, 0, 0, 0], 0.5 * np.eye(4)
    )
    assert pair == pytest.approx(single, rel=1e-12)


def _run_records(cov, target_mean, target_cov, trials=4):
    rng = np.random.default_rng(11)
    records = []
    for index in range(trials):
        mean = rng.normal(size=len(target_mean)).tolist()
        value = reference.fidelity(mean, cov, target_mean, target_cov)
        records.append(
            {"index": index, "mean": mean, "cov": np.asarray(cov).tolist(), "fidelity": value}
        )
    return records


@pytest.fixture
def run_case():
    cov = reference.teleported_output_cov(SHORT, 2, 0.1)
    matrix, shift = reference.intended_map(SHORT, 2)
    target_cov = reference.VACUUM * matrix @ matrix.T
    return cov, shift, target_cov, _run_records(cov, shift, target_cov)


def test_run_check_accepts_correct_output(run_case):
    cov, mean, target_cov, records = run_case
    assert checks.check_run_records(records, 4, cov, mean, target_cov) == []


@pytest.mark.parametrize("fault", ["cov", "one_trial_cov", "fidelity", "mixed", "missing"])
def test_run_check_rejects_perturbed_output(run_case, fault):
    cov, mean, target_cov, records = run_case
    if fault == "cov":
        for record in records:
            record["cov"][0][0] += 1e-6
    elif fault == "one_trial_cov":
        records[2]["cov"][1][1] += 1e-9
    elif fault == "fidelity":
        records[1]["fidelity"] *= 1 + 1e-7
    elif fault == "mixed":
        mixed = (np.asarray(cov) * 1.01).tolist()
        for record in records:
            record["cov"] = mixed
            record["fidelity"] = reference.fidelity(record["mean"], mixed, mean, target_cov)
        assert checks.check_run_records(records, 4, mixed, mean, target_cov)
        return
    else:
        records.pop()
    assert checks.check_run_records(records, 4, cov, mean, target_cov)


def _postselect_case():
    ops = [("f", [0], [])] * 4
    cov = reference.teleported_output_cov(ops, 1, 0.3)
    vac_mean, vac_cov = np.zeros(2), 0.5 * np.eye(2)
    baseline = _run_records(cov, vac_mean, vac_cov)
    mini = []
    for record, outcomes in zip(_run_records(cov, vac_mean, vac_cov), [0.1, 0.9, -0.3, 2.0]):
        inside = abs(outcomes) <= 0.5
        record.update(outcomes={"3": outcomes, "4": 0.2}, accepted=inside)
        if not inside:
            record.update(mean=None, cov=None, fidelity=None)
        mini.append(record)
    return baseline, mini, cov, vac_mean, vac_cov


@pytest.mark.parametrize("fault", [None, "cov", "fidelity", "accepted", "mini_fidelity"])
def test_postselect_check(fault):
    baseline, mini, cov, mean, target = _postselect_case()
    if fault == "cov":
        baseline[3]["cov"][1][1] += 1e-6
    elif fault == "fidelity":
        baseline[0]["fidelity"] *= 1 - 1e-7
    elif fault == "accepted":
        mini[3]["accepted"] = True
    elif fault == "mini_fidelity":
        mini[0]["fidelity"] *= 1 + 1e-7
    problems = checks.check_postselect_records(baseline, mini, 4, 0.5, [3, 4], cov, mean, target)
    assert bool(problems) == (fault is not None)


def test_acceptance_check():
    p = reference.chain_acceptance_probability(5, 0.3, 0.5)
    n = 10_000
    sigma = math.sqrt(n * p * (1 - p))
    assert checks.check_acceptance(round(n * p), n, p) == []
    assert checks.check_acceptance(round(n * p + 3.5 * sigma), n, p) == []
    assert checks.check_acceptance(round(n * p + 4.5 * sigma), n, p)
    assert checks.check_acceptance(round(n * p - 4.5 * sigma), n, p)


def test_header_check():
    assert checks.check_header({"record": "header", "seed": 7}, 7) == []
    assert checks.check_header({"record": "header", "seed": 8}, 7)


def test_prepared_register_check():
    widths = [1.0, 1.0, 0.1, 0.1, 0.1, 0.1]
    weights = np.zeros((6, 6))
    for a, b in [(0, 2), (1, 3), (2, 4), (3, 5), (2, 3)]:
        weights[a, b] = weights[b, a] = 1.0
    cov = reference.graph_state_cov(widths, weights)
    assert checks.check_prepared_register(cov, widths, weights) == []
    broken = cov.copy()
    broken[8, 8] += 1e-4  # a momentum variance only: nullifier and covariance both move
    assert len(checks.check_prepared_register(broken, widths, weights)) == 2
    missing_link = weights.copy()
    missing_link[2, 3] = missing_link[3, 2] = 0.0
    assert checks.check_prepared_register(reference.graph_state_cov(widths, missing_link), widths, weights)


@pytest.fixture
def package():
    sys.path.insert(0, str(SRC))
    try:
        import cvcluster.cli  # noqa: F401

        yield sys.modules["cvcluster"]
    finally:
        sys.path.remove(str(SRC))


def test_package_output_passes_the_run_check(package):
    from cvcluster.experiment import ExperimentConfig, run_program
    from cvcluster.mbqc import GateProgram, Instruction

    program = GateProgram(2, tuple(Instruction(k, tuple(t), tuple(p)) for k, t, p in SHORT))
    records = run_program(ExperimentConfig(program=program, omega=0.1, trials=3, seed=4))
    payload = [
        {"index": r.index, "mean": r.mean, "cov": r.cov, "fidelity": r.fidelity} for r in records
    ]
    matrix, shift = reference.intended_map(SHORT, 2)
    expected = reference.teleported_output_cov(SHORT, 2, 0.1)
    assert checks.check_run_records(payload, 3, expected, shift, 0.5 * matrix @ matrix.T) == []


def test_tracer_records_spans_and_restores_every_name(package):
    from tracing import Tracer

    from cvcluster import cli, experiment, gaussian, mbqc, symplectic

    originals = (gaussian.homodyne, mbqc.homodyne, experiment.homodyne, cli.run_program)
    compose = symplectic.SymplecticAffine.__dict__["compose"]
    tracer = Tracer()
    with tracer:
        assert mbqc.homodyne is not originals[1]
        assert gaussian.homodyne is mbqc.homodyne is experiment.homodyne
        state = gaussian.squeezed_vacuum_p(0.3).tensor(gaussian.vacuum(1))
        state = gaussian.apply_affine(state, symplectic.controlled_phase(1.0))
        mbqc.homodyne(state, 0, math.pi / 2, rng=np.random.default_rng(0))
    assert (gaussian.homodyne, mbqc.homodyne, experiment.homodyne, cli.run_program) == originals
    assert symplectic.SymplecticAffine.__dict__["compose"] is compose
    assert tracer.restored()
    totals = tracer.layer_totals()
    assert totals["gaussian.homodyne"][0] == 1
    assert totals["gaussian.apply_affine"][0] == 2  # the link and the homodyne rotation
    assert tracer.max_modes == 2
    # self time excludes children, so the parts never exceed the whole
    outer = [span for span in tracer.spans if span[3] == -1]
    assert sum(t[1] for t in totals.values()) == pytest.approx(sum(e - s for _, s, e, _ in outer))
