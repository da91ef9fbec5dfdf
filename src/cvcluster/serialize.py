"""Parsing of run configs (and the gate programs inside them), plus
the file writers used by the command-line tools.

Every document carries ``"schema": 1``.  Parsers reject unknown keys
and report the path to the offending field, so a typo in a config file
fails loudly instead of silently using a default.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .distortion import NoiseBudget
from .exceptions import ConfigError, CVClusterError
from .experiment import ExperimentConfig, TomographySummary, TrialRecord
from .mbqc import GateProgram, Instruction

SCHEMA_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Deterministic rendering: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ConfigError(f"cannot read {path}: {error}") from error
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigError(f"{path} is not valid JSON: {error}") from error


def _require_mapping(payload: Any, path: str) -> dict:
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object")
    return payload


def _check_schema(payload: dict, path: str) -> None:
    if payload.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"{path}.schema: expected {SCHEMA_VERSION}")


def _reject_unknown(payload: dict, allowed: set[str], path: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def parse_program(payload: Any, path: str = "program") -> GateProgram:
    payload = _require_mapping(payload, path)
    _check_schema(payload, path)
    _reject_unknown(payload, {"schema", "modes", "ops"}, path)
    modes = _integer(payload.get("modes"), f"{path}.modes")
    ops = []
    for i, op in enumerate(payload.get("ops", [])):
        op = _require_mapping(op, f"{path}.ops[{i}]")
        _reject_unknown(op, {"kind", "params", "targets"}, f"{path}.ops[{i}]")
        kind = op.get("kind")
        if not isinstance(kind, str):
            raise ConfigError(f"{path}.ops[{i}].kind: expected a string")
        params = tuple(
            _number(value, f"{path}.ops[{i}].params[{j}]")
            for j, value in enumerate(op.get("params", []))
        )
        targets = tuple(
            _integer(value, f"{path}.ops[{i}].targets[{j}]")
            for j, value in enumerate(op.get("targets", []))
        )
        try:
            ops.append(Instruction(kind, targets, params))
        except CVClusterError as error:
            raise ConfigError(f"{path}.ops[{i}]: {error}") from error
    try:
        return GateProgram(modes, tuple(ops))
    except CVClusterError as error:
        raise ConfigError(f"{path}: {error}") from error


def _parse_noise(payload: Any, path: str) -> NoiseBudget:
    payload = _require_mapping(payload, path)
    allowed = {
        "per_link_variance",
        "per_link_variance_q",
        "per_link_variance_p",
        "input_excess_variance",
    }
    _reject_unknown(payload, allowed, path)
    values = {}
    for key in allowed:
        if key in payload and payload[key] is not None:
            values[key] = _number(payload[key], f"{path}.{key}")
    try:
        return NoiseBudget(**values)
    except CVClusterError as error:
        raise ConfigError(f"{path}: {error}") from error


def _parse_keyed_floats(payload: Any, path: str) -> dict[int, float]:
    payload = _require_mapping(payload, path)
    parsed = {}
    for key, value in payload.items():
        try:
            node = int(key)
        except ValueError as error:
            raise ConfigError(f"{path}: key {key!r} is not a node id") from error
        if node in parsed:
            raise ConfigError(f"{path}: key {key!r} repeats node {node}")
        parsed[node] = _number(value, f"{path}.{key}")
    return parsed


def _parse_input_mean(payload: Any, path: str) -> tuple[float, float]:
    if not isinstance(payload, list) or len(payload) != 2:
        raise ConfigError(f"{path}: expected [q, p]")
    return _number(payload[0], f"{path}[0]"), _number(payload[1], f"{path}[1]")


class ConfigKey(NamedTuple):
    field: str  # the ExperimentConfig field the key fills
    parse: Callable[[Any, str], Any]
    commands: tuple[str, ...]  # the CLI commands that read the key


# Every config key besides "schema", in the order error messages name them.
CONFIG_KEYS = {
    "program": ConfigKey("program", parse_program, ("run", "sweep")),
    "omega": ConfigKey("omega", _number, ("run", "postselect", "sweep")),
    "pins": ConfigKey("pins", _parse_keyed_floats, ("run",)),
    "omega_overrides": ConfigKey("omega_overrides", _parse_keyed_floats, ("run",)),
    "noise": ConfigKey("budget", _parse_noise, ("run", "postselect")),
    "input_mean": ConfigKey("input_mean", _parse_input_mean, ("run", "postselect")),
    "trials": ConfigKey("trials", _integer, ("run", "postselect", "sweep")),
    "seed": ConfigKey("seed", _integer, ("run", "postselect", "sweep")),
    "window": ConfigKey("window", _number, ("postselect",)),
    "chain_nodes": ConfigKey("chain_nodes", _integer, ("postselect",)),
}


def parse_config(payload: Any, path: str = "config") -> ExperimentConfig:
    payload = _require_mapping(payload, path)
    _check_schema(payload, path)
    _reject_unknown(payload, {"schema", *CONFIG_KEYS}, path)
    return ExperimentConfig(
        **{
            key.field: key.parse(payload[name], f"{path}.{name}")
            for name, key in CONFIG_KEYS.items()
            if name in payload
        }
    )


def trial_record_payload(record: TrialRecord) -> dict:
    return {
        "record": "trial",
        "index": record.index,
        "outcomes": {str(node): value for node, value in record.outcomes.items()},
        "accepted": record.accepted,
        "mean": record.mean,
        "cov": record.cov,
        "fidelity": record.fidelity,
    }


def write_jsonl(
    path: str | Path,
    digest: str,
    seed: int,
    records: Iterable[dict],
    extra_header: dict | None = None,
) -> None:
    """Trial stream: one header record, then one record per line."""
    header = {
        "record": "header",
        "schema": SCHEMA_VERSION,
        "config_hash": digest,
        "seed": seed,
    }
    header.update(extra_header or {})
    with open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in records:
            handle.write(json.dumps(record) + "\n")


def write_csv(
    path: str | Path,
    digest: str,
    seed: int,
    fieldnames: list[str],
    rows: Iterable[list],
) -> None:
    """Flat table with provenance carried in comment lines."""
    with open(path, "w") as handle:
        handle.write(f"# schema={SCHEMA_VERSION}\n")
        handle.write(f"# config_hash={digest}\n")
        handle.write(f"# seed={seed}\n")
        handle.write(",".join(fieldnames) + "\n")
        for row in rows:
            handle.write(",".join(_csv_cell(value) for value in row) + "\n")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_wigner_grid(
    path: str | Path, digest: str, seed: int, summary: TomographySummary
) -> None:
    """Averaged phase-space density as a whitespace-separated grid.

    Rows run over position values, columns over momentum values, with
    the axes recorded in the comment header.
    """
    with open(path, "w") as handle:
        handle.write(f"# schema={SCHEMA_VERSION}\n")
        handle.write(f"# config_hash={digest}\n")
        handle.write(f"# seed={seed}\n")
        handle.write(
            "# q_axis="
            + " ".join(repr(float(q)) for q in summary.q_values)
            + "\n"
        )
        handle.write(
            "# p_axis="
            + " ".join(repr(float(p)) for p in summary.p_values)
            + "\n"
        )
        np.savetxt(handle, summary.wigner)
