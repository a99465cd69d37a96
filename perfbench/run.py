"""Benchmark of the vulnseries pipeline, end to end and per layer.

Usage, from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates the workload's inputs from the seed, runs one untimed
warm-up pass, then repeats the pass for S seconds.  A pass drives the
real CLI in this process through ``cli.main``: a cold ``ingest`` into an
empty payload cache (served by an in-process transport), the warm rerun
``ingest --offline``, then ``build``, ``markov`` and ``forecast``.
Every CLI invocation and every output check is one operation.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics, medians over the timed passes.  Command times are scaled to a
reference host speed by probe readings taken between the commands
(see ``probe.py``); the wall-clock medians are printed above.  With
``--trace 1`` traced passes alternate with untraced ones and the last
line reports the per-layer metrics.  The lines above it list every
metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import fmean, median
from types import SimpleNamespace

sys.dont_write_bytecode = True
# The program's least-squares systems have a handful of columns, so more
# BLAS threads only add hand-offs whose cost follows the host's load.
# numpy reads these when the program first imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
COMMANDS = tracing.COMMANDS
OUTPUTS = {
    "ingest_cold": "snapshot-cold.json",
    "ingest_warm": "snapshot-warm.json",
    "build": "build.json",
    "markov": "markov.json",
    "forecast": "forecast.json",
}
MIN_PASSES = 3
SETUPS = 3
PROBES = 2  # probe readings before each command
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    trace: {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for trace in (False, True)
}


class Index:
    """In-process package index: answers JSON API URLs from generated payloads."""

    def __init__(self, payloads: dict[str, bytes | None]) -> None:
        self.payloads = payloads
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, url: str) -> tuple[int, bytes]:
        with self._lock:
            self.calls += 1
        body = self.payloads.get(url.rsplit("/", 2)[-2])
        return (404, b"") if body is None else (200, body)


class Ledger:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problems[0]}")

    def check(self, what: str, check, *args) -> None:
        """Run one output check; a check that raises has found a malformed output."""
        try:
            problems = check(*args)
        except Exception as exc:  # noqa: BLE001 - any crash is a failed check
            problems = [f"check raised {exc!r}"]
        self.op(what, problems)


def _nproc() -> int:
    """The cores this process may use; ``ingest --workers`` is capped at it."""
    os.environ.pop("VULNSERIES_CACHE", None)
    return len(os.sched_getaffinity(0))


def _import_program() -> SimpleNamespace:
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy
    import vulnseries
    from vulnseries import autologistic, cli, errors, markov, registry, safetydb, vectorize

    if Path(vulnseries.__file__).resolve().parent != src / "vulnseries":
        raise RuntimeError(f"imported vulnseries from {vulnseries.__file__}, not {src}")
    return SimpleNamespace(
        cli=cli, registry=registry, safetydb=safetydb, vectorize=vectorize,
        markov=markov, autologistic=autologistic, errors=errors, numpy=numpy,
    )


class Workload:
    """A workload's generated files in a private directory of the checkout."""

    def __init__(self, name: str, seed: int, scale: float, nproc: int) -> None:
        self.dir = WORK / f"{name}-s{seed}-p{os.getpid()}"
        self.name, self.seed, self.scale, self.nproc = name, seed, scale, nproc

    def generate(self) -> tuple[str, float]:
        """Generate and write the inputs; returns their digest and the time taken."""
        start = time.perf_counter()
        inputs = workloads.generate(self.name, self.seed, self.scale)
        database = json.dumps(inputs.database(), indent=1).encode()
        snapshot = json.dumps(inputs.snapshot(), indent=2, sort_keys=True).encode() + b"\n"
        payloads = {name: inputs.payload(name) for name in inputs.fetched()}
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "db.json").write_bytes(database)
        (self.dir / "snapshot.json").write_bytes(snapshot)
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256(database + snapshot)
        for name in sorted(payloads):
            digest.update(payloads[name] or b"404")
        self.inputs, self.index = inputs, Index(payloads)
        return digest.hexdigest(), elapsed

    def argv(self, command: str, label: str) -> list[str]:
        common = ["--db", str(self.dir / "db.json"), "--no-timestamp"]
        out = str(self.dir / label / OUTPUTS[command])
        cache = str(self.dir / label / "cache")
        if command == "ingest_cold":
            return ["ingest", *common, "--snapshot", out, "--cache", cache,
                    "--workers", str(self.nproc)]
        if command == "ingest_warm":
            # Offline mode treats a package the index never had as a cache
            # miss, so the rerun names the packages that were found.
            return ["ingest", *common, "--snapshot", out, "--cache", cache,
                    "--offline", "--packages", ",".join(self.inputs.found()),
                    "--workers", str(self.nproc)]
        return [command, *common, "--snapshot", str(self.dir / "snapshot.json"), "--out", out]

    def outputs(self, label: str) -> dict[str, bytes]:
        out = {}
        for command, file in OUTPUTS.items():
            path = self.dir / label / file
            out[command] = path.read_bytes() if path.is_file() else b""
        return out


def _commit(directory: Path) -> None:
    """Flush a directory's metadata, so journal work left by file creation
    and deletion lands here rather than inside a timed command."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def run_pass(program, work: Workload, ledger: Ledger, label: str, tracer=None) -> dict:
    """Run the five CLI commands once; returns their times, outputs and warnings.

    Every command starts from a collected heap, after probe readings.
    Each pass writes into a directory of its own: deleting thousands of
    cache files between passes slows the file writes that follow.
    """
    (work.dir / label).mkdir()
    work.index.calls = 0
    times, probes, warnings = {}, [], 0
    for command in COMMANDS:
        gc.collect()
        probes += (probe.reading() for _ in range(PROBES))
        if tracer is not None:
            tracer.run = f"{label}/{command}"
        transport = work.index if command.startswith("ingest") else None
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = program.cli.main(work.argv(command, label), transport=transport)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            code = f"raised {exc!r}"
        times[command] = time.perf_counter() - start
        lines = stderr.getvalue().splitlines()
        warnings += sum(1 for line in lines if line.startswith("warning:"))
        ledger.op(f"{label} {command}", [] if code == 0 else [f"exit {code}: {lines[-1:]}"])
    outputs = work.outputs(label)
    _commit(work.dir / label)
    return {
        "times": times,
        "probes": probes,
        "outputs": outputs,
        "warnings": warnings,
        "transport_calls": work.index.calls,
        "output_bytes": sum(len(b) for b in outputs.values()),
    }


def _json(data: bytes) -> dict:
    try:
        doc = json.loads(data)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def check_truth(first: dict, work: Workload, ledger: Ledger, corrupt: bool) -> dict[str, str]:
    """Check the warm-up pass against the planted truth; returns output digests."""
    out = dict(first["outputs"])
    if corrupt:
        # Deliberately wrong output, for the benchmark's self-test.
        doc = _json(out["build"])
        row = doc["corpus"][0]
        row["w"] = ("0" if row["w"][0] == "1" else "1") + row["w"][1:]
        out["build"] = json.dumps(doc).encode()
    inputs = work.inputs
    ledger.check("ingest snapshot", checks.ingest, out["ingest_cold"], inputs)
    ledger.op("offline snapshot", [] if out["ingest_warm"] == out["ingest_cold"]
              else ["offline rerun wrote a different snapshot"])
    ledger.check("build corpus", checks.build, _json(out["build"]), inputs)
    ledger.check("markov records", checks.markov, _json(out["markov"]), inputs)
    ledger.check("forecast document", checks.forecast, _json(out["forecast"]), inputs)
    return {c: hashlib.sha256(b).hexdigest() for c, b in out.items()}


def check_repeat(result: dict, digests: dict[str, str], ledger: Ledger, label: str) -> None:
    """Outputs of every pass are byte-identical to the warm-up pass."""
    for command, data in result["outputs"].items():
        same = hashlib.sha256(data).hexdigest() == digests[command]
        ledger.op(f"{label} {command} output", [] if same else ["bytes differ from the warm-up pass"])


def _pipeline(times: dict[str, float]) -> float:
    return sum(times.values())


def _timed(program, work, ledger, digests, seconds) -> dict:
    """Passes until the next one would end after ``seconds``.

    Returns medians over the passes, scaled by REFERENCE_S over the
    mean of the passes' probe readings, and the wall-clock medians.
    """
    passes, probes = [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() + last <= deadline:
        label = f"p{len(passes) + 1}"
        start = time.perf_counter()
        result = run_pass(program, work, ledger, label)
        last = time.perf_counter() - start
        check_repeat(result, digests, ledger, label)
        # Keep only the times: held outputs would make peak RSS grow
        # with the number of passes that fit into the run.
        passes.append(result["times"])
        probes += result["probes"]
        del result
    wall = {c: median(p[c] for p in passes) for c in COMMANDS}
    scale = probe.REFERENCE_S / fmean(probes)
    metrics = {f"{c}_s": t * scale for c, t in wall.items()}
    metrics["pipeline_s"] = median(_pipeline(p) for p in passes) * scale
    metrics["packages_per_s"] = len(work.inputs.packages) / metrics["pipeline_s"]
    metrics["passes"] = len(passes)
    metrics["host_index_s"] = fmean(probes)
    metrics["wall"] = wall
    return metrics


def _traced(program, work, ledger, digests, seconds) -> tuple[dict[str, float], list[dict]]:
    plain, traced, spans = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        k = len(traced) + 1
        result = run_pass(program, work, ledger, f"u{k}")
        check_repeat(result, digests, ledger, f"u{k}")
        plain.append(_pipeline(result["times"]))
        tracer = tracing.Tracer(program)
        with tracer.installed():
            result = run_pass(program, work, ledger, f"t{k}", tracer)
        check_repeat(result, digests, ledger, f"t{k}")
        tracer.counts["registry.transport_calls"] = result["transport_calls"]
        tracer.counts["cli.output_bytes"] = result["output_bytes"]
        tracer.counts["cli.warning_lines"] = result["warnings"]
        if k == 1:
            ledger.check("forecast vs traced calls", checks.traced_forecast,
                         _json(result["outputs"]["forecast"]), tracer.selections, tracer.reports)
        traced.append((_pipeline(result["times"]), tracer.metrics()))
        spans.extend(tracer.span_rows(f"t{k}"))
    first = traced[0][1]
    for _, m in traced[1:]:
        moved = [name for name in tracing.COUNTS if m[name] != first[name]]
        ledger.op("trace counts repeat", [f"{moved} changed between passes"] if moved else [])
    metrics = {name: median(m[name] for _, m in traced) for name in first}
    metrics.update({name: first[name] for name in tracing.COUNTS})
    metrics["trace.overhead_s"] = median(t for t, _ in traced) - median(plain)
    metrics["passes"] = len(traced)
    return metrics, spans


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              *, scale: float = 1.0, corrupt: bool = False, log=print) -> dict:
    """Run one workload; returns the result object the last stdout line carries."""
    setup_start = time.perf_counter()
    nproc = _nproc()
    program = _import_program()
    import_s = time.perf_counter() - setup_start
    ledger = Ledger()
    work = Workload(workload, seed, scale, nproc)
    try:
        # Set-up is timed several times and reported as a median; the
        # last generation's files are the ones measured.
        generate_s = median(work.generate()[1] for _ in range(SETUPS))
        first = run_pass(program, work, ledger, "warmup")
        # Set-up is scaled like the command times, by the warm-up pass's
        # own probe readings, taken while it ran.
        setup_s = (import_s + generate_s + _pipeline(first["times"])) \
            * probe.REFERENCE_S / fmean(first["probes"])
        digests = check_truth(first, work, ledger, corrupt)
        del first
        if trace:
            metrics, spans = _traced(program, work, ledger, digests, seconds)
            WORK.mkdir(exist_ok=True)
            trace_file = WORK / f"trace-{workload}-s{seed}.jsonl"
            trace_file.write_text("".join(json.dumps(s) + "\n" for s in spans))
        else:
            metrics = _timed(program, work, ledger, digests, seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work.dir, ignore_errors=True)
        if WORK.is_dir():
            _commit(WORK)
    units = UNITS[trace]
    log(f"perfbench: workload={workload} seed={seed} packages={len(work.inputs.packages)} "
        f"passes={metrics.pop('passes')} nproc={nproc} python={sys.version.split()[0]} "
        f"numpy={program.numpy.__version__} trace={int(trace)}")
    for name in units:
        log(f"  {name:36s} {metrics[name]:>14.6g} {units[name]}")
    if "wall" in metrics:
        log(f"  host index {metrics.pop('host_index_s') * 1e3:.4g} ms (reference "
            f"{probe.REFERENCE_S * 1e3:.4g} ms); wall-clock medians: "
            + " ".join(f"{c}={t:.4g}s" for c, t in metrics.pop("wall").items()))
    log(f"  {'failed_ops_frac':36s} {ledger.failed / ledger.attempted:>14.6g} ratio "
        f"({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        log(f"  FAILED {problem}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vulnseries" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'vulnseries'} is missing",
              file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
