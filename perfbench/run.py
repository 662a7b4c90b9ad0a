"""Benchmark of diffres: ``eliminate`` on three families of systems and the
CLI on pattern files.

    python3 perfbench/run.py --workload numeric_frames --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout; diffres is imported from
``src/``.  One process runs one workload on one thread.  After set-up it
makes one warm-up pass, whose outputs get the full independent checks of
``checks.py``, then times whole passes over the same operations until
``--seconds`` are used (at least MIN_SAMPLES operations).  Every later
output must equal the checked warm-up output.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every diffres layer is wrapped by
``spans.Tracer`` and the metrics are per-layer self times and counts per
pass.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import jsonschema

import checks
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_SAMPLES = 40
TAIL_BEYOND = 10
# op_tail_ms is the latency with ceil(x * passes) samples above it, x
# blocks of one operation's samples from the top: x = b - 1/2 puts it in
# the middle of the samples of the b-th slowest operation of a pass, the
# percentile 1 - x / K for K operations per pass whatever the number of
# passes, and never on the jump between two operations' latencies.  On
# screen_cli the two slowest operations, subsystem and subsystem --all on
# the dense 4 x 3 pattern, run the same screen, so x = 1 is the middle of
# their samples.  min_passes keeps TAIL_BEYOND samples beyond the tail.
TAIL_BLOCKS = {"numeric_frames": 1.5, "degenerate_frames": 1.5,
               "symbolic_generic": 3.5, "screen_cli": 1.0}
SETUP_REPEATS = 7
# Per-operation deadline in seconds; an operation that reaches it counts
# as failed.  On screen_cli it stands for the fault of
# super_essential_subsystem on the dense 5 x 4 pattern, which does not
# finish within 90 s; every other CLI operation there takes under 0.3 s.
DEADLINE = {"screen_cli": 1.0}
DEFAULT_DEADLINE = 60.0


def _pin_interpreter():
    """Re-execute with a fixed hash seed: set iteration order inside
    diffres (symbol sets, pattern rows) then repeats from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, str(Path(__file__).resolve())]
                 + sys.argv[1:])


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation that ran out of time."""


def _alarm(signum, frame):
    raise Deadline


def _timed(call, deadline):
    """(result, wall seconds, None), or (None, wall seconds, reason) when
    the operation reached the deadline or raised."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            out = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return None, time.perf_counter() - t0, f"deadline of {deadline} s"
    except Exception as exc:  # a failed operation, counted and reported
        return None, time.perf_counter() - t0, traceback.format_exc()
    return out, time.perf_counter() - t0, None


# ---------------------------------------------------------------------------
# diffres and its inputs
# ---------------------------------------------------------------------------


def _import_diffres():
    """A fresh import of diffres from this checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "diffres" or m.startswith("diffres.")]:
        del sys.modules[name]
    import diffres
    import diffres.cli  # noqa: F401  (the CLI is a workload of its own)
    if ROOT / "src" not in Path(diffres.__file__).resolve().parents:
        raise ImportError(f"diffres imported from {diffres.__file__}, "
                          f"not from {ROOT / 'src'}")
    return diffres


def _system(d, spec):
    def coeff(a):
        return d.Poly.var(d.sym(a)) if isinstance(a, str) else a
    polys = [d.linear_poly(d.Poly.var(d.sym(free)),
                           {j: {k: coeff(a) for k, a in op.items()}
                            for j, op in row.items()})
             for free, row in zip(spec.free, spec.rows)]
    return d.LinearSystem(polys, params=spec.n - 1)


def _terms(poly):
    return {tuple((s.name, s.order, e) for s, e in mono): c
            for mono, c in poly.terms.items()}


class Op:
    """One timed operation: ``call`` runs diffres, ``answer`` turns its
    result into plain data, ``check`` lists what is wrong with an answer."""

    def __init__(self, label, call, answer, check):
        self.label, self.call, self.answer, self.check = (
            label, call, answer, check)


def _eliminate_op(d, spec, rng):
    system = _system(d, spec)

    def answer(report):
        return {"branch": report.branch, "members": list(report.members),
                "co_order": report.co_order,
                "lowest_degree": report.lowest_degree,
                "terms": _terms(report.output)}
    return Op(spec.label, lambda: d.eliminate(system), answer,
              lambda ans: checks.check_eliminant(spec, ans, rng))


def _cli_op(d, spec, command, extra, path, validator, rng):
    argv = [command.split()[0], str(path), "--format", "json"] + extra

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = d.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(ans):
        code, stdout, stderr = ans
        payload = None
        if code == 0:
            payload = json.loads(stdout)
            problems = [f"{command}: schema: {e.message}"
                        for e in validator.iter_errors(payload)]
            if problems:
                return problems
        elif "error" not in json.loads(stderr.splitlines()[-1]):
            return [f"{command}: refusal without a JSON error line"]
        return checks.check_cli(spec, command, code, payload, rng)
    return Op(f"{spec.label} {command}", call, lambda ans: ans, check)


def build_ops(d, workload, generated, tmp, validator, rng):
    if workload != "screen_cli":
        return [_eliminate_op(d, spec, rng) for spec in generated]
    tmp.mkdir(parents=True, exist_ok=True)
    paths = {}
    for spec, _, _ in generated:
        if spec.label not in paths:
            paths[spec.label] = tmp / f"{spec.label}.sys"
            paths[spec.label].write_text(spec.text())
    return [_cli_op(d, spec, command, extra, paths[spec.label], validator,
                    rng)
            for spec, command, extra in generated]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace):
    rng = random.Random(f"checks/{seed}")
    generated = WORKLOADS[workload](seed)
    schema = json.loads((ROOT / "src" / "diffres" / "schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    tmp = OUT / f"inputs-{workload}-{os.getpid()}"

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        d = _import_diffres()
        ops = build_ops(d, workload, generated, tmp, validator, rng)
        setup_times.append(time.perf_counter() - t0)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(d)
    deadline = DEADLINE.get(workload, DEFAULT_DEADLINE)
    gc.collect()
    gc.freeze()

    errors = []
    attempted = failed = 0

    def one(op):
        nonlocal attempted, failed
        gc.collect()
        out, elapsed, why = _timed(op.call, deadline)
        attempted += 1
        if tracer is not None:
            tracer.end_operation(why is None)
        if why is not None:
            failed += 1
            print(f"failed: {op.label} after {elapsed:.3f} s: {why}",
                  file=sys.stderr)
            return None, elapsed
        return op.answer(out), elapsed

    # warm-up pass: every output gets the independent checks
    reference = []
    for op in ops:
        ans, _ = one(op)
        reference.append(ans)
        if ans is not None:
            errors += [f"{op.label}: {e}" for e in op.check(ans)]
    if tracer is not None:
        tracer.clear()

    blocks = TAIL_BLOCKS[workload]
    min_passes = math.ceil(TAIL_BEYOND / blocks)
    pass_times, latencies = [], []
    per_op = [[] for _ in ops]
    started = time.perf_counter()
    while True:
        spent = 0.0
        for op, ref, times in zip(ops, reference, per_op):
            ans, elapsed = one(op)
            spent += elapsed
            times.append(elapsed)
            if ans is None:
                continue
            latencies.append(elapsed)
            if ans != ref:
                errors.append(f"{op.label}: output differs from the "
                              f"checked warm-up output")
        pass_times.append(spent)
        used = time.perf_counter() - started
        if (len(pass_times) >= min_passes and len(latencies) >= MIN_SAMPLES
                and used + statistics.median(pass_times) > seconds):
            break

    shutil.rmtree(tmp, ignore_errors=True)
    latencies.sort()
    beyond = math.ceil(blocks * len(pass_times))
    detail = {
        "workload": workload, "seed": seed, "trace": trace,
        "operations_per_pass": len(ops), "passes": len(pass_times),
        "pass_times_s": pass_times, "setup_times_s": setup_times,
        "samples": len(latencies),
        "tail_percentile": 100 * (1 - beyond / len(latencies)),
        "errors": errors[:50],
        "op_median_ms": {op.label: 1000 * statistics.median(times)
                         for op, times in zip(ops, per_op)},
    }
    if tracer is None:
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(latencies),
                          "unit": "ms"},
            "op_tail_ms": {"value": 1000 * latencies[-beyond - 1],
                           "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    else:
        metrics = tracer.per_layer(len(pass_times))
        detail["traced_pass_s"] = statistics.median(pass_times)
        detail["spans"] = len(tracer.start)
        tracer.dump(OUT / f"trace-{workload}.json")
    detail["metrics"] = metrics
    (OUT / f"result-{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for e in errors[:20]:
        print(f"incorrect: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _pin_interpreter()
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _alarm)
    OUT.mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, OSError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
