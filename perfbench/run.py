#!/usr/bin/env python3
"""Benchmark of the cvcluster command line, end to end and per layer.

Run from anywhere; it finds the repository root above this file:

    python3 perfbench/run.py --workload postselect --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload long_wire --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload run_trials --seed 1 --seconds 30 --repeat 10

Each operation is one full ``cvcluster`` CLI command, called in-process
through ``cvcluster.cli.main`` with ``--out`` and a seed derived from
``--seed``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run, and ``--repeat k`` runs
``--trace 0`` k times in fresh processes and prints each metric's median,
quartiles and spread against its bound.  The last line of standard
output is one JSON object; see README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: the measured process is the only load, and OpenBLAS
# would otherwise start its thread pool on the first product above ~80x80.
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

SETUP_PROBES = 8  # fresh interpreters per run, spread over the timed phase
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import cvcluster.cli; "
    "from cvcluster.serialize import load_json, parse_config; "
    "parse_config(load_json(sys.argv[2])); print('ready', flush=True)"
)
EXPONENT_NODES = (40, 80, 160)  # single-wire lengths for the preparation scaling fit


def _op(kind: str, targets, params=()) -> tuple[str, list[int], list[float]]:
    return (kind, list(targets), list(params))


RUN_TRIALS_OPS = [
    _op("f", [0]),
    _op("p", [1], [0.5]),
    _op("cz", [0, 1]),
    _op("z", [0], [0.2]),
    _op("f", [1]),
    _op("p", [0], [-0.4]),
]
LONG_WIRE_PERIOD = [
    _op("f", [0]),
    _op("f", [1]),
    _op("p", [0], [0.3]),
    _op("z", [1], [0.1]),
    _op("f", [0]),
    _op("p", [1], [-0.2]),
    _op("f", [0]),
    _op("f", [1]),
    _op("z", [0], [-0.15]),
    _op("cz", [0, 1]),
]
LONG_WIRE_OPS = LONG_WIRE_PERIOD * 12  # 120 ops, 134 cluster nodes


def _program_payload(ops, modes: int) -> dict:
    return {
        "schema": 1,
        "modes": modes,
        "ops": [{"kind": k, "targets": t, "params": p} for k, t, p in ops],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    config: dict  # written to config.json and passed with --config
    trials: int  # trials per chunk
    trace_chunks: int  # traced chunks (each also run untraced) in --trace 1
    calibration_reps: int  # reference computations per calibration
    reference_seconds: float  # one calibration at the reference machine speed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "postselect",
            "postselect",
            {"schema": 1, "omega": 0.3, "window": 0.5},
            200,
            10,
            40,
            0.0104,
        ),
        Workload(
            "run_trials",
            "run",
            {"schema": 1, "program": _program_payload(RUN_TRIALS_OPS, 2), "omega": 0.1},
            25,
            12,
            35,
            0.0102,
        ),
        Workload(
            "long_wire",
            "run",
            {"schema": 1, "program": _program_payload(LONG_WIRE_OPS, 2), "omega": 0.1},
            1,
            4,
            1,
            0.0267,
        ),
    )
}


POSTSELECT_CHAIN = 5  # the CLI's default chain_nodes


def reference_program(workload: Workload) -> tuple[list, int]:
    """Ops and wire count whose output the workload's records must match.

    The post-selection baseline arm is four plain teleport steps of the
    vacuum input down the 5-node chain.
    """
    if workload.command == "postselect":
        return [_op("f", [0])] * (POSTSELECT_CHAIN - 1), 1
    program = workload.config["program"]
    return [(o["kind"], o["targets"], o["params"]) for o in program["ops"]], program["modes"]


def chunk_seed(seed: int, index: int) -> int:
    """Seed of chunk ``index`` (0 is the discarded warm-up chunk)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Checker:
    """Reference values for one workload and the per-operation output check."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.accepted_trials = 0
        self.mini_trials = 0
        config = workload.config
        ops, modes = reference_program(workload)
        self.expected_cov = reference.teleported_output_cov(ops, modes, config["omega"])
        if workload.command == "postselect":
            self.inner_nodes = list(range(3, POSTSELECT_CHAIN))
            self.acceptance = reference.chain_acceptance_probability(
                POSTSELECT_CHAIN, config["omega"], config["window"]
            )
        matrix, shift = reference.intended_map(ops, modes)
        self.target_mean = shift
        self.target_cov = reference.VACUUM * matrix @ matrix.T

    def check(self, out: Path, seed: int) -> tuple[list[str], str]:
        """Problems with one operation's output files, and its config hash."""
        trials = self.workload.trials
        if self.workload.command == "run":
            header, records = checks.read_jsonl(out / "trials.jsonl")
            problems = checks.check_header(header, seed) + checks.check_run_records(
                records, trials, self.expected_cov, self.target_mean, self.target_cov
            )
            return problems, header.get("config_hash", "")
        header, baseline = checks.read_jsonl(out / "baseline.jsonl")
        _, mini = checks.read_jsonl(out / "mini.jsonl")
        problems = checks.check_header(header, seed) + checks.check_postselect_records(
            baseline,
            mini,
            trials,
            self.workload.config["window"],
            self.inner_nodes,
            self.expected_cov,
            self.target_mean,
            self.target_cov,
        )
        summary = json.loads((out / "summary.json").read_text())
        accepted = sum(1 for record in mini if record["accepted"])
        if summary["accepted_trials"] != accepted:
            problems.append(f"summary counts {summary['accepted_trials']} accepted, records {accepted}")
        self.accepted_trials += accepted
        self.mini_trials += trials
        return problems, header.get("config_hash", "")

    def run_level_problems(self) -> list[str]:
        if self.workload.command != "postselect":
            return []
        return checks.check_acceptance(self.accepted_trials, self.mini_trials, self.acceptance)


class Harness:
    """One benchmark run: the CLI in-process, its outputs and its checks."""

    def __init__(self, workload: Workload, seed: int):
        from cvcluster import cli  # noqa: PLC0415 - imported after the path is fixed

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.dir = OUT / workload.name
        self.out = self.dir / "chunk"
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config, indent=1) + "\n")
        self.checker = Checker(workload)
        ops, modes = reference_program(workload)
        # The calibration follows the package's own route: a chain of small
        # registers for postselect, one whole cluster for run.
        route = reference.teleported_output_cov if workload.command == "postselect" else reference.cluster_output_cov
        self._kernel = lambda: route(ops, modes, workload.config["omega"])
        self.attempted = 0
        self.failed = 0
        self.config_hashes: dict[int, str] = {}

    def chunk(self, index: int) -> tuple[float, bool]:
        """Run and check one CLI command; return its wall time and whether it passed."""
        seed = chunk_seed(self.seed, index)
        argv = [
            self.workload.command,
            "--config",
            str(self.config_path),
            "--trials",
            str(self.workload.trials),
            "--seed",
            str(seed),
            "--out",
            str(self.out),
        ]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:  # a crash is one failed operation; the run goes on
            code = None
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = [f"exit code {code}: {sink.getvalue().strip()}"] if code != 0 else []
        if not problems:
            try:
                found, digest = self.checker.check(self.out, seed)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as error:
                found, digest = [f"unreadable output: {error!r}"], ""
            problems += found
            self.config_hashes[index] = digest
        if problems:
            self.failed += 1
            print(f"chunk {index} (seed {seed}) failed: {problems[:3]}", file=sys.stderr)
        return elapsed, not problems

    def calibrate(self) -> float:
        """Seconds for a fixed numpy computation of the same kind as the workload."""
        start = time.perf_counter()
        for _ in range(self.workload.calibration_reps):
            self._kernel()
        return time.perf_counter() - start

    def setup_probe(self) -> float:
        """Seconds from spawning a fresh interpreter to cvcluster imported
        and this workload's config parsed."""
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.config_path)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        return elapsed


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    """End-to-end run: a warm-up chunk, then ``seconds`` of whole chunks
    with the set-up probes spread evenly among them.

    A calibration runs before and after every chunk and probe.  Each time
    is divided by the mean of its two neighbouring calibrations, and the
    median ratio times ``reference_seconds`` is the time at the reference
    machine speed (README: calibrated timing).
    """
    harness = Harness(workload, seed)
    harness.chunk(0)
    raw = {"chunk_seconds": [], "setup_seconds": [], "calibration_seconds": []}
    ratios: list[float] = []  # chunks that passed their check
    setup_ratios: list[float] = []
    before = harness.calibrate()
    raw["calibration_seconds"].append(before)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        probe_due = len(setup_ratios) < SETUP_PROBES and elapsed >= len(setup_ratios) * seconds / SETUP_PROBES
        if not probe_due and harness.attempted > 1 and elapsed >= seconds:
            break
        taken, passed = (harness.setup_probe(), True) if probe_due else harness.chunk(harness.attempted)
        after = harness.calibrate()
        raw["calibration_seconds"].append(after)
        raw["setup_seconds" if probe_due else "chunk_seconds"].append(taken)
        if passed:
            (setup_ratios if probe_due else ratios).append(taken / (0.5 * (before + after)))
        before = after
    if not ratios:
        raise RuntimeError("no timed chunk passed its check")
    problems = harness.checker.run_level_problems()
    values = {
        "trials_per_s": workload.trials / (statistics.median(ratios) * workload.reference_seconds),
        "setup_s": statistics.median(setup_ratios) * workload.reference_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    chunks = raw["chunk_seconds"]
    print(
        f"uncalibrated: {workload.trials / statistics.median(chunks):.6g} trials/s in the median chunk, "
        f"{workload.trials / min(chunks):.6g} in the fastest; set-up {min(raw['setup_seconds']):.4f} s at best"
    )
    _write_json(
        harness.dir / f"samples_{seed}.json",
        {
            "workload": workload.name,
            "seed": seed,
            "blas_threads": BLAS_THREADS,
            **raw,
            "config_hashes": harness.config_hashes,
            "values": values,
            "problems": problems,
        },
    )
    return _result(harness, problems, values, "end_to_end")


def _result(harness: Harness, problems: list[str], values: dict, kind: str) -> dict:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"computed {sorted(values)}, BENCHMARK.json lists {sorted(units)}")
    return {
        "correct": not problems,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _preparation_exponent() -> float:
    """Log-log slope of preparation time against node count on one wire."""
    from cvcluster.mbqc import GateProgram, Instruction, compile_program, prepare_cluster_state  # noqa: PLC0415

    seconds = []
    for nodes in EXPONENT_NODES:
        program = GateProgram(1, tuple(Instruction("f", (0,)) for _ in range(nodes - 1)))
        compiled = compile_program(program, 0.1)
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            prepare_cluster_state(compiled)
            best = min(best, time.perf_counter() - start)
        seconds.append(best)
    slope, _ = np.polyfit(np.log(EXPONENT_NODES), np.log(seconds), 1)
    return float(slope)


def _prepared_problems(tracer) -> list[str]:
    if tracer.prepared is None:
        return []
    compiled, register = tracer.prepared
    ids = [node for node, _ in compiled.graph.nodes]
    position = {node: i for i, node in enumerate(ids)}
    weights = np.zeros((len(ids), len(ids)))
    for a, b, g in compiled.graph.edges:
        weights[position[a], position[b]] += g
        weights[position[b], position[a]] += g
    widths = [width for _, width in compiled.graph.nodes]
    return checks.check_prepared_register(register.cov, widths, weights)


def traced(workload: Workload, seed: int) -> dict:
    """Per-layer run: each of ``trace_chunks`` chunks runs untraced and traced."""
    from tracing import SPAN_NAMES, Tracer  # noqa: PLC0415

    harness = Harness(workload, seed)
    harness.chunk(0)
    tracer = Tracer()
    overhead = 0.0
    for index in range(1, workload.trace_chunks + 1):
        plain = traced_time = 0.0
        for traced_first in ((True, False) if index % 2 else (False, True)):
            if traced_first:
                with tracer:
                    traced_time, _ = harness.chunk(index)
            else:
                plain, _ = harness.chunk(index)
        overhead += traced_time - plain
    problems = harness.checker.run_level_problems() + _prepared_problems(tracer)
    if not tracer.restored():
        problems.append("a traced name was left rebound")
    values: dict[str, float] = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["gaussian.homodyne.max_modes"] = tracer.max_modes
    values["serialize.write_jsonl.bytes"] = tracer.bytes["write_jsonl"]
    values["serialize.write_csv.bytes"] = tracer.bytes["write_csv"]
    values["experiment.postselect.accepted_per_attempt"] = (
        tracer.accepted / tracer.attempted if tracer.attempted else 0.0
    )
    values["mbqc.prepare_cluster_state.exponent"] = _preparation_exponent()
    values["trace.overhead_s"] = overhead
    print(f"trace.overhead_s {overhead:.4f} over {workload.trace_chunks} chunks")
    _write_json(
        OUT / f"trace_{workload.name}.json",
        {
            "workload": workload.name,
            "revision": git_revision(),
            "seed": seed,
            "chunk_seeds": {i: chunk_seed(seed, i) for i in range(workload.trace_chunks + 1)},
            "config_hashes": harness.config_hashes,
            "blas_threads": BLAS_THREADS,
            "spans": len(tracer.spans),
            "span_names": list(SPAN_NAMES),
            "metrics": values,
            "problems": problems,
        },
    )
    return _result(harness, problems, values, "per_layer")


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def repeat(workload: str, seed: int, seconds: float, count: int) -> dict:
    """Steadiness check: ``count`` fresh-process runs with seeds seed..seed+count-1."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    runs = []
    for i in range(count):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        argv += ["--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"run {i + 1}/{count} seed {seed + i}: {shown} failed={result['failed']}", flush=True)
    summary = {"workload": workload, "seeds": [seed, seed + count - 1], "seconds": seconds, "metrics": {}}
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        print(f"{name:<14}{median:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}{bound:>8.3g}")
    summary["correct"] = all(run["correct"] for run in runs)
    summary["failed_share"] = [run["failed"] / run["attempted"] for run in runs]
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: runs in fresh processes")
    args = parser.parse_args(argv)

    if not (SRC / "cvcluster" / "cli.py").is_file() or SPEC is None:
        print(f"no cvcluster sources under {SRC} or no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    if args.repeat:
        print(json.dumps(repeat(args.workload, args.seed, args.seconds, args.repeat)))
        return 0
    sys.path.insert(0, str(SRC))
    import cvcluster  # noqa: PLC0415

    if Path(cvcluster.__file__).resolve().parent != SRC / "cvcluster":
        print(f"cvcluster imported from {cvcluster.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
