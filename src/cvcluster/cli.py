"""Command-line entry point.

Exit codes: 0 on success, 2 for configuration or argument problems,
3 when a physical invariant or runtime check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, CVClusterError
from .experiment import (
    ExperimentConfig,
    TrialRecord,
    _summarize,
    fidelity_vs_squeezing,
    run_postselection_experiment,
    run_program,
    tomography_summary,
)
from .gaussian import GaussianState
from .serialize import (
    CONFIG_KEYS,
    SCHEMA_VERSION,
    config_hash,
    load_json,
    parse_config,
    trial_record_payload,
    write_csv,
    write_jsonl,
    write_wigner_grid,
)
from .validate import run_validation_suite

DEFAULT_SWEEP = "0.3,0.1,0.03,0.01"


def _parse_pins(values: list[str] | None) -> dict[int, float]:
    pins: dict[int, float] = {}
    for chunk in values or []:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            node, _, value = item.partition("=")
            try:
                pins[int(node)] = float(value)
            except ValueError as error:
                raise ConfigError(
                    f"--pin expects node=value pairs, got {item!r}"
                ) from error
    return pins


def _load_payload(args: argparse.Namespace) -> dict:
    if args.config:
        payload = load_json(args.config)
        if not isinstance(payload, dict):
            raise ConfigError(f"{args.config}: expected a JSON object")
    else:
        payload = {"schema": SCHEMA_VERSION}
    for name in ("seed", "trials", "window", "omega"):
        value = getattr(args, name, None)
        if value is not None:
            payload[name] = value
    pins = _parse_pins(getattr(args, "pin", None))
    if pins:
        merged = payload.get("pins", {})
        if not isinstance(merged, dict):
            raise ConfigError("config.pins: expected an object")
        payload["pins"] = {**merged, **{str(node): value for node, value in pins.items()}}
    return payload


def _effective_config(args: argparse.Namespace) -> tuple[ExperimentConfig, str]:
    """The parsed config and its hash; ``args.command`` must read every key it holds."""
    payload = _load_payload(args)
    command = args.command
    unread = [
        name for name, key in CONFIG_KEYS.items() if name in payload and command not in key.commands
    ]
    if unread:
        raise ConfigError(f"{command} does not read {', '.join(unread)}")
    if "program" not in payload and command in CONFIG_KEYS["program"].commands:
        raise ConfigError(f"{command} needs a config with a program")
    return parse_config(payload), config_hash(payload)


def _out_path(args: argparse.Namespace) -> Path | None:
    """The ``--out`` directory, checked before a run but made only after it."""
    if not getattr(args, "out", None):
        return None
    path = Path(args.out)
    existing = next(part for part in (path, *path.parents) if os.path.exists(part))
    if not os.path.isdir(existing):
        raise ConfigError(f"--out {path}: {existing} is not a directory")
    return path


def _make_out(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise ConfigError(f"--out {path}: {error}") from error


def _record_rows(records: list[TrialRecord], nodes: list[int]) -> list[list]:
    rows = []
    for record in records:
        row: list = [record.index, record.accepted, record.fidelity]
        row.extend(record.outcomes.get(node) for node in nodes)
        rows.append(row)
    return rows


def _write_records(
    out: Path,
    stem: str,
    digest: str,
    seed: int,
    records: list[TrialRecord],
    extra_header: dict | None = None,
) -> None:
    write_jsonl(
        out / f"{stem}.jsonl",
        digest,
        seed,
        (trial_record_payload(record) for record in records),
        extra_header,
    )
    nodes = sorted({node for record in records for node in record.outcomes})
    fields = ["index", "accepted", "fidelity"] + [f"s{node}" for node in nodes]
    write_csv(out / f"{stem}.csv", digest, seed, fields, _record_rows(records, nodes))


def _write_tomography(
    out: Path, stem: str, digest: str, seed: int, records: list[TrialRecord]
) -> None:
    states = [
        GaussianState(record.mean, record.cov, validate=False)
        for record in records
        if record.accepted and record.mean is not None and len(record.mean) == 2
    ]
    if len(states) < 2:
        return
    summary = tomography_summary(states)
    write_wigner_grid(out / f"{stem}_wigner.txt", digest, seed, summary)


def cmd_run(args: argparse.Namespace) -> int:
    config, digest = _effective_config(args)
    out = _out_path(args)
    records = run_program(config)
    summary = _summarize([record.fidelity for record in records])
    print(f"config {digest[:12]} seed {config.seed} trials {config.trials}")
    print(f"mean fidelity {summary.mean_fidelity:.6f} +/- {summary.stderr:.6f}")
    if out is not None:
        _make_out(out)
        _write_records(out, "trials", digest, config.seed, records)
        _write_tomography(out, "trials", digest, config.seed, records)
        print(f"wrote {out}/trials.jsonl and {out}/trials.csv")
    return 0


def cmd_postselect(args: argparse.Namespace) -> int:
    config, digest = _effective_config(args)
    out = _out_path(args)
    summary = run_postselection_experiment(config)
    print(
        f"config {digest[:12]} seed {summary.seed} trials {summary.trials} "
        f"omega {summary.omega} window {summary.window}"
    )
    print(
        f"baseline  fidelity {summary.baseline.mean_fidelity:.6f} "
        f"+/- {summary.baseline.stderr:.6f} ({summary.baseline.trials} trials)"
    )
    if summary.no_accepts:
        print("selected  no accepted trials in this window")
    else:
        print(
            f"selected  fidelity {summary.selected.mean_fidelity:.6f} "
            f"+/- {summary.selected.stderr:.6f} ({summary.accepted_trials} accepted, "
            f"rate {summary.acceptance_rate:.4f})"
        )
    if out is not None:
        _make_out(out)
        header = {"window": summary.window, "omega": summary.omega}
        for stem, records in (
            ("baseline", summary.baseline_records),
            ("mini", summary.mini_records),
        ):
            _write_records(out, stem, digest, config.seed, records, {"strategy": stem, **header})
        write_csv(
            out / "acceptance_curve.csv",
            digest,
            config.seed,
            ["window", "acceptance_rate"],
            [[w, rate] for w, rate in summary.acceptance_curve],
        )
        _write_tomography(out, "mini", digest, config.seed, summary.mini_records)
        payload = {
            "schema": SCHEMA_VERSION,
            "config_hash": digest,
            "seed": summary.seed,
            "trials": summary.trials,
            "window": summary.window,
            "omega": summary.omega,
            "acceptance_rate": summary.acceptance_rate,
            "accepted_trials": summary.accepted_trials,
            "no_accepts": summary.no_accepts,
            "baseline": {
                "mean_fidelity": summary.baseline.mean_fidelity,
                "stderr": summary.baseline.stderr,
                "trials": summary.baseline.trials,
            },
            "selected": {
                "mean_fidelity": summary.selected.mean_fidelity
                if not summary.no_accepts
                else None,
                "stderr": summary.selected.stderr if not summary.no_accepts else None,
                "trials": summary.selected.trials,
            },
        }
        (out / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}/summary.json")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config, digest = _effective_config(args)
    if args.omega is not None:
        raise ConfigError("sweep takes its widths from --omegas, not --omega")
    try:
        omegas = [float(part) for part in args.omegas.split(",") if part.strip()]
    except ValueError as error:
        raise ConfigError("--omegas expects comma-separated numbers") from error
    if not omegas or not all(np.isfinite(w) and w > 0 for w in omegas):
        raise ConfigError("--omegas needs one or more positive, finite widths")
    out = _out_path(args)
    rng = np.random.default_rng(config.seed) if config.trials > 1 else None
    points = fidelity_vs_squeezing(config.program, omegas, trials=config.trials, rng=rng)
    print(f"config {digest[:12]} seed {config.seed} trials {config.trials}")
    for point in points:
        print(
            f"omega {point.omega:<8g} fidelity {point.mean_fidelity:.6f} "
            f"+/- {point.stderr:.6f}"
        )
    if out is not None:
        _make_out(out)
        write_csv(
            out / "sweep.csv",
            digest,
            config.seed,
            ["omega", "mean_fidelity", "stderr", "trials"],
            [[p.omega, p.mean_fidelity, p.stderr, p.trials] for p in points],
        )
        print(f"wrote {out}/sweep.csv")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_validation_suite()
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvcluster",
        description=(
            "Simulate measurement-based Gaussian computation on "
            "continuous-variable cluster states."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--trials", type=int, help="trial count override")
    common.add_argument("--omega", type=float, help="ancilla width override")
    common.add_argument(
        "--pin",
        action="append",
        metavar="NODE=VALUE",
        help="pin a node's recorded outcome (repeatable, comma-separable)",
    )
    common.add_argument("--out", help="directory for output files")

    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser(
        "run", parents=[common], help="execute a compiled program for many trials"
    )
    run_parser.set_defaults(func=cmd_run)
    post_parser = sub.add_parser(
        "postselect",
        parents=[common],
        help="compare straight-through and post-selected teleport chains",
    )
    post_parser.add_argument("--window", type=float, help="post-selection window override")
    post_parser.set_defaults(func=cmd_postselect)
    sweep_parser = sub.add_parser(
        "sweep", parents=[common], help="fidelity versus ancilla squeezing width"
    )
    sweep_parser.add_argument(
        "--omegas", default=DEFAULT_SWEEP, help="comma-separated widths"
    )
    sweep_parser.set_defaults(func=cmd_sweep)
    validate_parser = sub.add_parser("validate", help="cross-check the engine against the oracle")
    validate_parser.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return 2
    except CVClusterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
