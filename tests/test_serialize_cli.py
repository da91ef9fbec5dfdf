"""Config parsing, file writers, and the command-line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvcluster
from cvcluster.cli import main
from cvcluster.exceptions import ConfigError
from cvcluster.experiment import tomography_summary
from cvcluster.gaussian import vacuum
from cvcluster.mbqc import Instruction
from cvcluster.serialize import (
    config_hash,
    load_json,
    parse_config,
    parse_program,
    write_csv,
    write_jsonl,
    write_wigner_grid,
)


def sample_program_payload():
    return {
        "schema": 1,
        "modes": 1,
        "ops": [
            {"kind": "p", "params": [0.5], "targets": [0]},
            {"kind": "f", "params": [], "targets": [0]},
        ],
    }


def test_program_round_trip():
    program = parse_program(sample_program_payload())
    assert program.n_modes == 1
    assert program.ops[0] == Instruction("p", (0,), (0.5,))


def test_unknown_keys_are_rejected_with_a_path():
    with pytest.raises(ConfigError, match="program"):
        parse_program({**sample_program_payload(), "extra": 1})
    with pytest.raises(ConfigError, match=r"ops\[0\]: unknown keys"):
        parse_program({"schema": 1, "modes": 1, "ops": [{"kind": "f", "width": 0.1}]})
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({"schema": 1, "windowing": 0.5})


def test_wrong_schema_and_wrong_types_are_rejected():
    payload = sample_program_payload()
    payload["schema"] = 2
    with pytest.raises(ConfigError, match="schema"):
        parse_program(payload)
    with pytest.raises(ConfigError, match="expected a number"):
        parse_program(
            {"schema": 1, "modes": 1, "ops": [{"kind": "p", "params": [True], "targets": [0]}]}
        )
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config({"schema": 1, "trials": True})
    with pytest.raises(ConfigError, match="expected an object"):
        parse_program([1, 2])


def test_domain_errors_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_program({"schema": 1, "modes": 0, "ops": []})
    with pytest.raises(ConfigError):
        parse_program(
            {"schema": 1, "modes": 1, "ops": [{"kind": "hadamard", "targets": [0]}]}
        )
    with pytest.raises(ConfigError):
        parse_config({"schema": 1, "trials": 0})


def test_parse_config_full_payload():
    config = parse_config(
        {
            "schema": 1,
            "program": sample_program_payload(),
            "omega": 0.25,
            "omega_overrides": {"1": 0.05},
            "noise": {"per_link_variance": 0.01},
            "trials": 7,
            "seed": 42,
            "window": 1.5,
            "chain_nodes": 6,
            "input_mean": [0.4, -0.2],
            "pins": {"0": 0.3},
        }
    )
    assert config.trials == 7
    assert config.seed == 42
    assert config.omega_overrides == {1: 0.05}
    assert config.pins == {0: 0.3}
    assert config.input_mean == (0.4, -0.2)
    assert config.budget.per_link_variance == 0.01
    with pytest.raises(ConfigError, match="node id"):
        parse_config({"schema": 1, "pins": {"abc": 0.3}})
    with pytest.raises(ConfigError, match="input_mean"):
        parse_config({"schema": 1, "input_mean": [0.1]})
    with pytest.raises(ConfigError, match="pins: key '01' repeats node 1"):
        parse_config({"schema": 1, "pins": {"1": 0.3, "01": 0.5}})
    with pytest.raises(ConfigError, match="omega_overrides: key '00' repeats node 0"):
        parse_config({"schema": 1, "omega_overrides": {"0": 0.2, "00": 0.5}})


def test_config_hash_is_order_stable_and_value_sensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_jsonl_writer_headers_and_records(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, "feedbeef", 7, [{"index": 0}, {"index": 1}], {"arm": "mini"})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 3
    header = lines[0]
    assert header["record"] == "header"
    assert header["config_hash"] == "feedbeef"
    assert header["seed"] == 7
    assert header["arm"] == "mini"
    assert lines[1:] == [{"index": 0}, {"index": 1}]


def test_csv_writer_headers_and_cells(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, "feedbeef", 7, ["a", "b", "c"], [[1, None, True], [0.5, -2.0, False]])
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "# config_hash=feedbeef"
    assert lines[2] == "# seed=7"
    assert lines[3] == "a,b,c"
    assert lines[4] == "1,,1"
    assert lines[5] == "0.5,-2.0,0"


def test_wigner_grid_loads_back(tmp_path):
    summary = tomography_summary([vacuum(1), vacuum(1)], grid_points=41)
    path = tmp_path / "grid.txt"
    write_wigner_grid(path, "feedbeef", 7, summary)
    text = path.read_text().splitlines()
    assert text[1] == "# config_hash=feedbeef"
    assert text[3].startswith("# q_axis=")
    grid = np.loadtxt(path)
    np.testing.assert_allclose(grid, summary.wigner, rtol=1e-12)


def test_load_json_failures(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_json(bad)


@pytest.fixture
def program_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "program": sample_program_payload(),
                "omega": 0.1,
                "trials": 3,
                "seed": 5,
            }
        )
    )
    return path


def test_cli_run_writes_record_files(tmp_path, program_config, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(program_config), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mean fidelity" in stdout
    lines = (out / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 4
    header = json.loads(lines[0])
    assert header["seed"] == 5
    assert len(header["config_hash"]) == 64
    csv_lines = (out / "trials.csv").read_text().splitlines()
    assert csv_lines[3].startswith("index,accepted,fidelity")


def test_every_exported_name_resolves_on_the_package():
    namespace: dict = {}
    exec("from cvcluster import *", namespace)
    assert set(cvcluster.__all__) <= set(namespace)


def test_python_m_cvcluster_runs_the_command_line(tmp_path, program_config):
    # the source tree the tests import, found without an install
    env = {**os.environ, "PYTHONPATH": str(Path(cvcluster.__file__).parents[1])}
    out = tmp_path / "out"
    command = [sys.executable, "-m", "cvcluster", "run", "--config", str(program_config)]
    done = subprocess.run(
        command + ["--trials", "2", "--out", str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len((out / "trials.jsonl").read_text().splitlines()) == 3


def test_cli_run_pins_propagate(tmp_path, program_config, capsys):
    code = main(
        ["run", "--config", str(program_config), "--pin", "0=0.5,1=-0.25"]
    )
    assert code == 0
    capsys.readouterr()
    out = tmp_path / "pinned"
    main(
        [
            "run",
            "--config",
            str(program_config),
            "--pin",
            "0=0.5,1=-0.25",
            "--out",
            str(out),
        ]
    )
    records = [
        json.loads(line)
        for line in (out / "trials.jsonl").read_text().splitlines()[1:]
    ]
    for record in records:
        assert record["outcomes"] == {"0": 0.5, "1": -0.25}


def test_cli_seed_override_changes_the_hash(program_config, capsys):
    main(["run", "--config", str(program_config)])
    first = capsys.readouterr().out.splitlines()[0]
    main(["run", "--config", str(program_config), "--seed", "99"])
    second = capsys.readouterr().out.splitlines()[0]
    assert first.split()[1] != second.split()[1]
    assert "seed 99" in second


def test_cli_rejects_bad_inputs(tmp_path, program_config, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    assert main(["run"]) == 2
    assert "program" in capsys.readouterr().err

    assert main(["run", "--config", str(program_config), "--pin", "abc"]) == 2
    assert "node=value" in capsys.readouterr().err

    assert main(["sweep", "--config", str(program_config), "--omegas", "a,b"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_cli_runtime_failures_exit_three(tmp_path, capsys):
    # an ancilla width below OMEGA_FLOOR parses but fails at preparation
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "omega_overrides": {"0": 1e-9},
                "program": {
                    "schema": 1,
                    "modes": 1,
                    "ops": [{"kind": "f", "targets": [0]}],
                },
            }
        )
    )
    assert main(["run", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "changes,flags",
    [
        ({}, ["--pin", "0=nan"]),
        ({}, ["--pin", "0=inf"]),
        ({}, ["--pin", "7=0.5"]),
        ({"omega_overrides": {"9": 0.5}}, []),
        ({"omega_overrides": {"0": -0.1}}, []),
        ({"input_mean": [float("nan"), 0.0]}, []),
    ],
    ids=["nan_pin", "inf_pin", "unmeasured_pin", "stray_override", "negative_override",
         "nan_input_mean"],
)
def test_cli_bad_pins_and_overrides_exit_two_and_write_nothing(
    tmp_path, capsys, changes, flags
):
    path = tmp_path / "config.json"
    payload = {"schema": 1, "program": sample_program_payload(), "trials": 3, **changes}
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "postselect", "sweep"])
def test_cli_negative_seed_exits_two_and_writes_nothing(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    program = {} if command == "postselect" else {"program": sample_program_payload()}
    path.write_text(json.dumps({"schema": 1, "trials": 3, **program}))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_accepts_a_mixed_input_on_several_wires(tmp_path, capsys):
    # a thermalized input makes both the output and the target mixed
    path = tmp_path / "config.json"
    ops = [
        {"kind": "cz", "targets": [0, 1]},
        {"kind": "p", "params": [0.5], "targets": [0]},
        {"kind": "z", "params": [0.2], "targets": [1]},
        {"kind": "x", "params": [-0.3], "targets": [0]},
        {"kind": "f", "targets": [1]},
    ]
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "program": {"schema": 1, "modes": 2, "ops": ops},
                "omega": 0.3,
                "trials": 3,
                "noise": {"input_excess_variance": 0.05},
            }
        )
    )
    assert main(["run", "--config", str(path)]) == 0
    assert "mean fidelity" in capsys.readouterr().out


@pytest.mark.parametrize(
    "op",
    [
        {"kind": "photon_count", "targets": [0]},
        {"kind": "nonlinear_quadrature", "params": [0.2], "targets": [0]},
    ],
)
def test_cli_non_gaussian_kinds_are_config_errors(tmp_path, capsys, op):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "program": {"schema": 1, "modes": 1, "ops": [op]},
            }
        )
    )
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "unknown instruction kind" in err


def test_cli_postselect_writes_summary(tmp_path, capsys):
    out = tmp_path / "post"
    code = main(
        [
            "postselect",
            "--trials",
            "30",
            "--omega",
            "0.3",
            "--window",
            "2.0",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "baseline" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 30
    assert summary["window"] == 2.0
    assert 0.0 <= summary["acceptance_rate"] <= 1.0
    assert (out / "baseline.jsonl").exists()
    assert (out / "mini.jsonl").exists()
    curve = (out / "acceptance_curve.csv").read_text().splitlines()
    assert curve[3] == "window,acceptance_rate"


def test_cli_run_on_the_chain_writes_the_postselect_baseline(tmp_path, capsys):
    # one link-noise model: the straight-through arm is a program run
    shared = {
        "schema": 1,
        "omega": 0.3,
        "trials": 4,
        "seed": 1,
        "noise": {"per_link_variance": 0.01, "input_excess_variance": 0.02},
    }
    chain = {"kind": "f", "targets": [0]}
    run_config = tmp_path / "run.json"
    run_config.write_text(
        json.dumps(
            {**shared, "program": {"schema": 1, "modes": 1, "ops": [chain] * 4}}
        )
    )
    post_config = tmp_path / "post.json"
    post_config.write_text(json.dumps(shared))
    assert main(["run", "--config", str(run_config), "--out", str(tmp_path / "r")]) == 0
    assert (
        main(["postselect", "--config", str(post_config), "--out", str(tmp_path / "p")])
        == 0
    )
    capsys.readouterr()

    def records(path):
        return [json.loads(line) for line in path.read_text().splitlines()[1:]]

    baseline = records(tmp_path / "p" / "baseline.jsonl")
    run = records(tmp_path / "r" / "trials.jsonl")
    assert len(run) == len(baseline) == 4
    for record in run:
        record["outcomes"] = {
            str(int(node) + 1): s for node, s in record["outcomes"].items()
        }
    assert json.dumps(run) == json.dumps(baseline)


def test_cli_sweep_prints_and_writes_the_table(tmp_path, program_config, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            str(program_config),
            "--omegas",
            "0.3,0.1",
            "--trials",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("omega") == 2
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[3] == "omega,mean_fidelity,stderr,trials"
    assert len(rows) == 6


def test_cli_postselect_rejects_the_keys_it_never_reads(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "trials": 3, "omega_overrides": {"0": 0.5}}))
    out = tmp_path / "out"
    flags = ["--config", str(path), "--pin", "3=0.5", "--out", str(out)]
    assert main(["postselect", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "postselect does not read pins, omega_overrides" in err
    assert not out.exists()


def test_cli_postselect_rejects_a_program(tmp_path, program_config, capsys):
    # the chain experiment builds its own chain and never runs the program
    out = tmp_path / "out"
    assert main(["postselect", "--config", str(program_config), "--out", str(out)]) == 2
    assert "postselect does not read program" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_rejects_an_omega_override(tmp_path, program_config, capsys):
    out = tmp_path / "out"
    flags = ["--config", str(program_config), "--omega", "0.05", "--omegas", "0.3"]
    assert main(["sweep", *flags, "--out", str(out)]) == 2
    assert "sweep takes its widths from --omegas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "omegas",
    ["", ",", "0.3,-1", "0", "nan", "0.3,inf"],
    ids=["empty", "only_commas", "negative", "zero", "nan", "inf"],
)
def test_cli_sweep_bad_widths_exit_two_and_write_nothing(tmp_path, program_config, capsys, omegas):
    out = tmp_path / "out"
    flags = ["--config", str(program_config), "--omegas", omegas, "--out", str(out)]
    assert main(["sweep", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --omegas needs one or more positive, finite widths")
    assert not out.exists()


def test_cli_sweep_width_below_the_floor_exits_three_and_writes_nothing(
    tmp_path, program_config, capsys
):
    # a positive width below OMEGA_FLOOR parses but fails at compilation, as on `run`
    out = tmp_path / "out"
    flags = ["--config", str(program_config), "--omegas", "0.3,1e-9", "--out", str(out)]
    assert main(["sweep", *flags]) == 3
    assert capsys.readouterr().err.startswith("error: squeezing width must be finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags",
    [
        ("run", ["--window", "0.3"]),
        ("sweep", ["--window", "0.3"]),
        ("validate", ["--config", "missing.json", "--trials", "5", "--pin", "3=1"]),
    ],
    ids=["run_window", "sweep_window", "validate_common_flags"],
)
def test_cli_flags_a_command_never_reads_exit_two_and_write_nothing(
    tmp_path, program_config, capsys, command, flags
):
    out = tmp_path / "out"
    config = [] if command == "validate" else ["--config", str(program_config)]
    with pytest.raises(SystemExit) as stopped:
        main([command, *config, *flags, "--out", str(out)])
    assert stopped.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_rejects_the_keys_it_never_reads(tmp_path, capsys):
    path = tmp_path / "config.json"
    payload = {
        "schema": 1,
        "program": sample_program_payload(),
        "omega_overrides": {"0": 0.5},
        "noise": {"per_link_variance": 0.01},
        "input_mean": [0.5, -0.3],
    }
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    flags = ["--config", str(path), "--pin", "0=0.5", "--omegas", "0.3", "--out", str(out)]
    assert main(["sweep", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "sweep does not read pins, omega_overrides, noise, input_mean" in err
    assert not out.exists()


# The keys each command reads, written out here rather than taken from
# serialize.CONFIG_KEYS, so a change to that table has to change this too.
_READS = {
    "run": {"program", "omega", "pins", "omega_overrides", "noise", "input_mean", "trials", "seed"},
    "postselect": {"omega", "noise", "input_mean", "trials", "seed", "window", "chain_nodes"},
    "sweep": {"program", "omega", "trials", "seed"},
}
_KEY_VALUES = {
    "program": sample_program_payload(),
    "omega": 0.2,
    "pins": {},
    "omega_overrides": {"0": 0.5},
    "noise": {"per_link_variance": 0.01},
    "input_mean": [0.5, -0.3],
    "trials": 2,
    "seed": 3,
    "window": 0.3,
    "chain_nodes": 6,
}


@pytest.mark.parametrize("key", list(_KEY_VALUES))
@pytest.mark.parametrize("command", list(_READS))
def test_cli_a_config_key_the_command_never_reads_exits_two_and_writes_nothing(
    tmp_path, capsys, command, key
):
    payload = {"schema": 1, key: _KEY_VALUES[key]}
    if command != "postselect":
        payload["program"] = sample_program_payload()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    flags = ["--omegas", "0.3"] if command == "sweep" else []
    code = main([command, "--config", str(path), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    if key in _READS[command]:
        assert code == 0, err
        assert out.is_dir()
    else:
        assert code == 2
        assert err == f"config error: {command} does not read {key}\n"
        assert not out.exists()


def test_cli_pin_flag_on_a_config_whose_pins_are_not_an_object_exits_two(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "program": sample_program_payload(), "pins": [1, 2]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--pin", "0=0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: config.pins: expected an object\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, flags, message",
    [
        ({"pins": {"1": 0.3, "01": 0.5}}, [], "pins: key '01' repeats node 1"),
        ({"omega_overrides": {"0": 0.2, "00": 0.5}}, [], "omega_overrides: key '00' repeats node 0"),
        ({"pins": {"01": 0.3}}, ["--pin", "1=0.5"], "pins: key '1' repeats node 1"),
    ],
    ids=["pins", "omega_overrides", "pin_flag"],
)
def test_cli_a_repeated_node_key_exits_two_and_writes_nothing(
    tmp_path, capsys, extra, flags, message
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "program": sample_program_payload(), **extra}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), *flags, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("config error:")
    assert message in printed.err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", ["run", "postselect", "sweep"])
def test_cli_out_that_names_a_file_exits_two(tmp_path, capsys, command, below):
    path = tmp_path / "config.json"
    program = {} if command == "postselect" else {"program": sample_program_payload()}
    path.write_text(json.dumps({"schema": 1, **program}))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / below if below else taken
    flags = ["--omegas", "0.3"] if command == "sweep" else []
    assert main([command, "--config", str(path), *flags, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"config error: --out {out}: {taken} is not a directory\n"
    assert taken.read_text() == "kept\n"


def test_cli_validate_reports_check_lines(monkeypatch, capsys):
    from cvcluster.validate import CheckResult

    passing = [CheckResult("sample check", True, 1e-9, 1e-3, "max deviation 1e-9")]
    monkeypatch.setattr("cvcluster.cli.run_validation_suite", lambda: passing)
    assert main(["validate"]) == 0
    assert "PASS  sample check" in capsys.readouterr().out

    failing = [CheckResult("sample check", False, 1.0, 1e-3, "max deviation 1.0")]
    monkeypatch.setattr("cvcluster.cli.run_validation_suite", lambda: failing)
    assert main(["validate"]) == 3
    stdout = capsys.readouterr().out
    assert "FAIL  sample check" in stdout
    assert "1 of 1 checks failed" in stdout
