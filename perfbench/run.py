#!/usr/bin/env python3
"""starwedge benchmark: end-to-end metrics, per-layer trace and oracles.

Usage, from the repository root:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 1        # every workload
    python3 perfbench/selftest.py                              # smoke + negative tests

One run is one process and one workload (spectrum, algebra or verify; see
``workloads.py``).  It

1. measures ``setup_s`` in eight fresh interpreters (half before the
   warm-up pass, half after the last pass).  Each times ``import
   starwedge.cli`` plus loading the workload's config files, reading
   bytecode from a cache of the run's own.  Next to each, another fresh
   interpreter times the import of the program's third-party dependencies
   (``reference.IMPORTS``).  ``setup_s`` is the median ratio of the two,
   in seconds at the reference import's nominal speed;
2. runs one untimed warm-up pass over the op list, then timed passes until
   ``--seconds`` have gone by (at least one).  The workload's reference
   kernel (numpy for spectrum, python otherwise) is timed before and after
   every pass; ``wall_norm`` is the median over passes of the pass's wall
   time divided by the kernel's time around it.  Both divisions take out
   the drift in the speed of a shared machine.  The raw medians are printed
   beside them;
3. reads ``peak_rss_mb`` (``ru_maxrss``) before any oracle is imported;
4. checks that every repeated op wrote byte-identical artifacts, that exit
   codes are the documented ones, and runs the workload's oracle on the last
   pass (``oracles.py``), giving ``pass_share`` and ``oracle_digits``.

Exit codes 4 (spectrum) and 1 (verify) are results: they are timed and their
unconverged rows or failed checks count against ``pass_share``.  Any other
exit code or a traceback fails the op and makes the run incorrect.

With ``--trace 1`` the run alternates untraced and traced passes and prints
the per-layer metrics of ``BENCHMARK.json`` instead: medians over the traced
passes, the import split from ``python -X importtime``, and the tracing
overhead (median traced minus median untraced pass).  Its spans are written to
``.perfbench/trace-<workload>-seed<seed>.json`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when the run is correct.  Artifacts go to a temporary directory under
``.perfbench/`` that is removed at the end.  Timings are taken as they come:
no CPU pinning, frequency control or isolation is applied, and the machine
context (CPU count, versions, load average and steal time at start and end)
is printed with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import reference
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up is sampled in two bursts, before the warm-up pass and after the last
# pass, so that one slow stretch of the machine does not set the median.
SETUP_INTERPRETERS_PER_BURST = 4
CHILD_TIMEOUT_S = 120
# The reference kernel runs for this share of the previous pass's wall time
# (and at least REFERENCE_REPEATS times), so that it averages the machine's
# speed over a stretch that grows with the pass it normalizes.
REFERENCE_SHARE = 0.05
REFERENCE_REPEATS = 5

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import starwedge.cli
from starwedge.config import load_config
for path in sys.argv[1:]:
    load_config(path)
print(time.perf_counter() - t0)
"""
REFERENCE_CHILD = f"""\
import time
t0 = time.perf_counter()
import {", ".join(reference.IMPORTS)}
print(time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    name: str
    code: int | None = None
    error: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    results: list | None = None
    seconds: float = 0.0


@dataclass
class PassRecord:
    seconds: float
    outcomes: list[Outcome]
    layer: dict[str, float] | None = None
    failed: bool = False
    op_seconds: list[float] = field(default_factory=list)
    norm: float = 0.0  # seconds over the reference kernel's seconds around the pass


def machine_context() -> dict:
    """CPU count, versions, load average and cumulative steal time (read only)."""
    ctx = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "isolation": "none: no CPU pinning, frequency control or isolation",
    }
    loadavg, stat = Path("/proc/loadavg"), Path("/proc/stat")
    if loadavg.exists():
        ctx["loadavg"] = loadavg.read_text().split()[:3]
    if stat.exists():
        fields = stat.read_text().splitlines()[0].split()
        if len(fields) > 8:
            ctx["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return ctx


# --- set-up -----------------------------------------------------------------------


def _importtime(stderr: str) -> dict[str, float]:
    """numpy, click and starwedge's own import cost from `python -X importtime`."""
    self_us: dict[str, int] = {}
    cumulative_us: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        self_us[name] = int(parts[0])
        cumulative_us[name] = int(parts[1])
    own = sum(v for k, v in self_us.items() if k == "starwedge" or k.startswith("starwedge."))
    return {
        "import.numpy_s": cumulative_us.get("numpy", 0) / 1e6,
        "import.click_s": cumulative_us.get("click", 0) / 1e6,
        "import.starwedge_s": own / 1e6,
    }


@dataclass
class SetupSample:
    seconds: float  # import starwedge.cli plus loading the configs
    reference_s: float  # importing reference.IMPORTS in a fresh interpreter next to it
    imports: dict[str, float]


def _child(code: str, args: list[str], env: dict, importtime: bool = False) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", code, *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return proc


def measure_setup(wl: workloads.Workload, work: Path, importtime: bool, count: int, warm: bool) -> list[SetupSample]:
    """``count`` pairs of fresh interpreters: set-up time, reference import time and import split.

    Every interpreter reads bytecode from a cache under ``work`` (the first
    one, not counted, writes it), so the time neither depends on caches left
    in the source tree nor on PYTHONDONTWRITEBYTECODE.  The two of a pair
    run in turns, so that neither always goes first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    configs = [str(p) for p in wl.config_paths]
    if warm:
        _child(SETUP_CHILD, configs, env)  # writes the bytecode cache
    samples = []
    for i in range(count):
        if i % 2:
            ref = _child(REFERENCE_CHILD, [], env)
        proc = _child(SETUP_CHILD, configs, env, importtime)
        if not i % 2:
            ref = _child(REFERENCE_CHILD, [], env)
        samples.append(SetupSample(float(proc.stdout.split()[-1]), float(ref.stdout.split()[-1]), _importtime(proc.stderr)))
    return samples


def reference_seconds(wl: workloads.Workload, pass_seconds: float) -> float:
    """Mean wall time of the workload's reference kernel, run for a share of a pass."""
    return reference.mean_seconds(wl.kernel, REFERENCE_REPEATS, REFERENCE_SHARE * pass_seconds)


# --- passes -----------------------------------------------------------------------


class Runner:
    def __init__(self, wl: workloads.Workload) -> None:
        import starwedge.cli

        self.wl = wl
        self.cli = starwedge.cli
        self.f, self.g = workloads.ladder_pair()

    def _cli(self, op: workloads.CliOp, tracer: Tracer | None) -> Outcome:
        oc = Outcome(op.name)
        buf = io.StringIO()
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                with tracer.span(f"cli.{op.subcommand}") if tracer else nullcontext():
                    self.cli.main(args=op.args, prog_name="starwedge")
        except SystemExit as exc:
            oc.code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else -1)
        except Exception:
            oc.error = traceback.format_exc()
            return oc
        if oc.code not in op.ok_codes:
            oc.error = f"exit {oc.code}: {buf.getvalue()[-2000:]}"
        return oc

    def _ladder(self, op: workloads.LadderOp) -> Outcome:
        from starwedge import diffop, starprod, twists

        oc = Outcome(op.name)
        try:
            twist = twists.build_linear_twist(twists.spec_from_config(dict(op.twist_items)), diffop.RINDLER)
            oc.results = [
                starprod.commutator(self.f**k, self.g**k, twist) for k in workloads.LADDER_DEGREES
            ]
        except Exception:
            oc.error = traceback.format_exc()
        return oc

    def run_pass(self, tracer: Tracer | None = None) -> PassRecord:
        # every pass must write its own artifacts: nothing of the last pass is left
        for op in self.wl.ops:
            if isinstance(op, workloads.CliOp):
                shutil.rmtree(op.out_dir, ignore_errors=True)
        outcomes = []
        if tracer:
            tracer.install()
            mark = (len(tracer.spans), dict(tracer.counters))
        t0 = time.perf_counter()
        try:
            for i, op in enumerate(self.wl.ops):
                if tracer:
                    tracer.op = i
                t_op = time.perf_counter()
                if isinstance(op, workloads.CliOp):
                    outcomes.append(self._cli(op, tracer))
                else:
                    outcomes.append(self._ladder(op))
                outcomes[-1].seconds = time.perf_counter() - t_op
        finally:
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        for op, oc in zip(self.wl.ops, outcomes):
            if isinstance(op, workloads.CliOp) and oc.error is None:
                for name in op.artifacts:
                    path = op.out_dir / name
                    if not path.is_file():
                        oc.error = f"artifact {name} missing"
                        break
                    oc.digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        layer = None
        if tracer:
            layer = tracer.summary(*mark)
            layer["starprod.result_terms"] = sum(
                _term_count(r) for oc in outcomes if oc.results for r in oc.results
            )
        return PassRecord(
            seconds, outcomes, layer, any(oc.error for oc in outcomes), [oc.seconds for oc in outcomes]
        )


def _term_count(e) -> int:
    from starwedge.expr import ZERO, Add

    if isinstance(e, Add):
        return len(e.terms)
    return 0 if e == ZERO else 1


def _compare(first: PassRecord, later: PassRecord) -> list[str]:
    """Every repeated op must write the same bytes and return the same results."""
    problems = []
    for ref, oc in zip(first.outcomes, later.outcomes):
        if oc.error or ref.error:
            continue
        for name, digest in oc.digests.items():
            if ref.digests.get(name) != digest:
                problems.append(f"{oc.name}: {name} differs between passes")
        if oc.code != ref.code:
            problems.append(f"{oc.name}: exit {oc.code} differs from exit {ref.code} of the warm-up")
        if ref.results is not None and oc.results != ref.results:
            problems.append(f"{oc.name}: results differ between passes")
    return problems


# --- one workload -------------------------------------------------------------------


def run_workload(args) -> int:
    context = {"start": machine_context()}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    problems: list[str] = []
    try:
        wl = workloads.build(args.workload, args.seed, work)
        setup = measure_setup(wl, work, bool(args.trace), SETUP_INTERPRETERS_PER_BURST, warm=True)

        sys.path.insert(0, str(SRC))
        import numpy
        import starwedge

        if Path(starwedge.__file__).resolve().parent != SRC / "starwedge":
            raise RuntimeError(f"imported starwedge from {starwedge.__file__}, not from {SRC}")
        context["numpy"] = numpy.__version__

        runner = Runner(wl)
        tracer = Tracer() if args.trace else None
        warm = runner.run_pass()
        attempted, failed, errors = 0, 0, {}
        plain, traced = [], []

        def settle(record: PassRecord) -> None:
            nonlocal attempted, failed
            attempted += len(record.outcomes)
            for oc in record.outcomes:
                if oc.error:
                    failed += 1
                    errors.setdefault(oc.name, oc.error)
            if record is not warm:
                problems.extend(_compare(warm, record))

        settle(warm)
        kernel = [reference_seconds(wl, warm.seconds)]
        t0 = time.perf_counter()
        while not plain or time.perf_counter() - t0 < args.seconds:
            if plain:
                # only the last pass is read later: drop the rest, so that
                # peak RSS does not grow with the number of passes
                plain[-1].outcomes = []
            plain.append(runner.run_pass())
            kernel.append(reference_seconds(wl, plain[-1].seconds))
            plain[-1].norm = plain[-1].seconds / statistics.mean(kernel[-2:])
            settle(plain[-1])
            if tracer:
                traced.append(runner.run_pass(tracer))
                kernel.append(reference_seconds(wl, traced[-1].seconds))
                settle(traced[-1])
                traced[-1].outcomes = []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = plain[-1]
        setup += measure_setup(wl, work, bool(args.trace), SETUP_INTERPRETERS_PER_BURST, warm=False)
        setup_raw = statistics.median(s.seconds for s in setup)
        setup_reference = statistics.median(s.reference_s for s in setup)
        setup_ratio = statistics.median(s.seconds / s.reference_s for s in setup)
        import_split = {k: statistics.median(s.imports[k] for s in setup) for k in setup[0].imports}
        for name, error in errors.items():
            problems.append(f"{name} failed: {error.strip().splitlines()[-1]}")
        # a pass with a failed op is never timed as a success
        timed = [p for p in plain if not p.failed] or plain
        wall = [p.seconds for p in timed]
        norm = [p.norm for p in timed]

        verdict = oracles.Verdict()
        if not last.failed:
            if args.corrupt:
                print(f"# corrupted on purpose: {oracles.corrupt(args.workload, args.corrupt, wl.ops)}")
            verdict = oracles.CHECKS[args.workload](wl.ops, last.outcomes, args.seed)
            problems += verdict.problems
        context["end"] = machine_context()

        if args.trace:
            extra = {
                "run.wall_s": statistics.median(wall),
                "run.reference_s": statistics.median(kernel),
                "run.setup_raw_s": setup_raw,
                "run.setup_reference_s": setup_reference,
            }
            metrics = _layer_metrics(traced, wall, {**import_split, **extra})
            _write_trace(args, wl, tracer, context, traced)
        else:
            metrics = _spec_metrics("end_to_end", {
                "setup_s": setup_ratio * reference.NOMINAL_IMPORT_S,
                "wall_norm": statistics.median(norm),
                "pass_share": verdict.good / verdict.units if verdict.units else 0.0,
                "oracle_digits": verdict.digits if verdict.units else 0.0,
                "peak_rss_mb": peak_rss_mb,
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}: {len(wall)} timed passes, "
          f"{len(traced)} traced passes, 1 warm-up pass")
    print(f"# timed pass seconds {[round(t, 4) for t in wall]}: median {statistics.median(wall):.4f}")
    print(f"# reference kernel seconds: median {statistics.median(kernel):.5f} over {len(kernel)} points")
    print(f"# set-up seconds: raw median {setup_raw:.4f}, reference import median {setup_reference:.4f} "
          f"over {len(setup)} interpreter pairs")
    op_medians = {
        op.name: round(statistics.median(p.op_seconds[i] for p in plain), 4) for i, op in enumerate(wl.ops)
    }
    print(f"# median op seconds {json.dumps(op_medians)}")
    print(f"# ops per pass {len(wl.ops)}; oracle units {verdict.units}, good {verdict.good}")
    print(f"# context {json.dumps(context, sort_keys=True)}")
    for p in problems:
        print(f"# PROBLEM {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.6f} {unit}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def _spec_metrics(kind: str, values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json lists under ``kind``, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec[kind]}


def _layer_metrics(traced: list[PassRecord], wall: list[float], measured: dict) -> dict:
    values = dict(measured)
    values["trace.overhead_s"] = statistics.median(p.seconds for p in traced) - statistics.median(wall)
    for name in {k for p in traced for k in p.layer}:
        values.setdefault(name, statistics.median(p.layer.get(name, 0) for p in traced))
    return _spec_metrics("per_layer", defaultdict(float, values))


def _write_trace(args, wl: workloads.Workload, tracer: Tracer, context: dict, traced: list[PassRecord]) -> None:
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "context": context,
        "ops": [op.name for op in wl.ops],
        "span_fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
        "pass_seconds": [p.seconds for p in traced],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


# --- every workload ---------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; prints every metric of every workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.BUILDERS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.corrupt:
            cmd += ["--corrupt", args.corrupt]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=sorted({t for ts in oracles.CORRUPTIONS.values() for t in ts}),
                        help="damage this output before the oracle runs (negative test)")
    args = parser.parse_args(argv)
    if not (SRC / "starwedge" / "__init__.py").is_file():
        print(f"error: no starwedge sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
