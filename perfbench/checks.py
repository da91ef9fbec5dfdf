"""Output checks: each compares what the program wrote against a reference.

Every function takes plain parsed data (lists and arrays from the output
files) and returns a list of problems; an empty list means the output
passed.  Nothing here imports ``cvcluster``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from reference import VACUUM, fidelity, graph_state_cov, nullifier_variances, symplectic_eigenvalues

COV_RTOL = 1e-8  # package path against the step-by-step reference, relative to max |entry|
SAME_COV_TOL = 1e-12  # one covariance, recomputed per trial
FIDELITY_RTOL = 1e-9
PURITY_TOL = 1e-9
ACCEPTANCE_SIGMAS = 4.0
REGISTER_RTOL = 1e-9


def read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    lines = Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    return header, [json.loads(line) for line in lines[1:]]


def _cov_problem(label: str, cov: np.ndarray, expected: np.ndarray) -> list[str]:
    if cov.shape != expected.shape:
        return [f"{label}: covariance shape {cov.shape}, expected {expected.shape}"]
    worst = float(np.max(np.abs(cov - expected)))
    if not worst <= COV_RTOL * float(np.max(np.abs(expected))):
        return [f"{label}: covariance differs from the reference by {worst:.3e}"]
    return []


def _fidelity_problem(label: str, record: dict, target_mean, target_cov) -> list[str]:
    expected = fidelity(record["mean"], record["cov"], target_mean, target_cov)
    value = record["fidelity"]
    if value is None or not math.isclose(value, expected, rel_tol=FIDELITY_RTOL, abs_tol=1e-300):
        return [f"{label}: fidelity {value!r}, closed form gives {expected!r}"]
    return []


def check_header(header: dict, seed: int) -> list[str]:
    if header.get("record") != "header" or header.get("seed") != seed:
        return [f"header {header!r} does not carry seed {seed}"]
    return []


def check_run_records(
    records: list[dict], trials: int, expected_cov, target_mean, target_cov
) -> list[str]:
    """``cvcluster run`` output of a noiseless program.

    The covariance is the same in every trial and equals the step-by-step
    reference, the output is pure, and each fidelity is the closed form.
    """
    if len(records) != trials:
        return [f"{len(records)} trial records, expected {trials}"]
    problems: list[str] = []
    first = np.asarray(records[0]["cov"], dtype=float)
    problems += _cov_problem("trial 0", first, np.asarray(expected_cov))
    nus = symplectic_eigenvalues(first)
    if np.max(np.abs(nus - VACUUM)) > PURITY_TOL:
        problems.append(f"output is not pure: symplectic eigenvalues {nus}")
    scale = max(1.0, float(np.max(np.abs(first))))
    for record in records:
        label = f"trial {record['index']}"
        cov = np.asarray(record["cov"], dtype=float)
        if cov.shape != first.shape or np.max(np.abs(cov - first)) > SAME_COV_TOL * scale:
            problems.append(f"{label}: covariance differs from trial 0")
        problems += _fidelity_problem(label, record, target_mean, target_cov)
    return problems


def check_postselect_records(
    baseline: list[dict],
    mini: list[dict],
    trials: int,
    window: float,
    inner_nodes: list[int],
    expected_cov,
    target_mean,
    target_cov,
) -> list[str]:
    """``cvcluster postselect`` records of both strategies.

    Every baseline covariance matches the reference, every recorded
    fidelity (baseline and accepted mini trials) is the closed form, and a
    mini trial is accepted exactly when its pre-measured outcomes lie in
    the window.
    """
    if len(baseline) != trials or len(mini) != trials:
        return [f"{len(baseline)} baseline and {len(mini)} mini records, expected {trials}"]
    problems: list[str] = []
    for record in baseline:
        label = f"baseline trial {record['index']}"
        problems += _cov_problem(label, np.asarray(record["cov"], dtype=float), np.asarray(expected_cov))
        problems += _fidelity_problem(label, record, target_mean, target_cov)
    for record in mini:
        label = f"mini trial {record['index']}"
        inside = all(abs(record["outcomes"][str(node)]) <= window for node in inner_nodes)
        if inside != record["accepted"]:
            problems.append(f"{label}: accepted={record['accepted']} but window test gives {inside}")
        elif inside:
            problems += _fidelity_problem(label, record, target_mean, target_cov)
    return problems


def check_acceptance(accepted: int, attempted: int, probability: float) -> list[str]:
    """Accepted count within a few binomial standard errors of the exact rate."""
    sigma = math.sqrt(attempted * probability * (1.0 - probability))
    deviation = accepted - attempted * probability
    if abs(deviation) > ACCEPTANCE_SIGMAS * sigma:
        return [
            f"acceptance {accepted}/{attempted} is {deviation / sigma:+.2f} standard "
            f"errors from the exact probability {probability:.6f}"
        ]
    return []


def check_prepared_register(cov, widths, weights) -> list[str]:
    """A prepared cluster against the closed-form graph state and its nullifiers."""
    cov = np.asarray(cov, dtype=float)
    expected = graph_state_cov(widths, weights)
    problems: list[str] = []
    if cov.shape != expected.shape:
        return [f"register covariance shape {cov.shape}, expected {expected.shape}"]
    scale = float(np.max(np.abs(expected)))
    worst = float(np.max(np.abs(cov - expected)))
    if worst > REGISTER_RTOL * scale:
        problems.append(f"register covariance differs from the graph state by {worst:.3e}")
    ideal = np.asarray(widths, dtype=float) ** 2 / 2.0
    excess = float(np.max(np.abs(nullifier_variances(cov, weights) - ideal)))
    if excess > REGISTER_RTOL * scale:
        problems.append(f"nullifier variances miss omega^2/2 by {excess:.3e}")
    return problems
