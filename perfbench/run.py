"""Benchmark of qcfeff's time to a verified verdict.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs a workload's qcfeff commands one after another (closed
loop) through ``qcfeff.cli.main`` in one fresh process, then checks every
report against figures computed without qcfeff (see ``checks``).  Rounds
repeat while the next one is expected to end less than half a round past
S seconds; a round that has started always finishes, so every run
attempts whole rounds of the same operations.
One operation is one CLI command plus its checks.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s``
(a fresh interpreter importing every qcfeff module, median of ten
taken before and after the rounds), ``verdict_s`` (first command start to last
verdict, median over rounds) and ``peak_rss_mb`` (peak resident memory
of the round's process).  With ``--trace 1`` each round runs twice at
once, in two processes, one untraced and one traced (see ``spans``); the
two must write byte-identical reports, and the run prints the per-layer
metrics of the traced rounds.  Operations are counted and checked on the
untraced twin; a traced report that differs from it makes the result
incorrect.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402

THREADS = 1
BUDGET_S = 170.0
SETUP_REPEATS = 5


def _exact(seed):
    return [
        ["cohomology", "--n", "1"],
        ["cohomology", "--n", "3"],
        ["inclusions", "--n", "1", "--seeds", "20", "--negative-controls"],
        ["inclusions", "--n", "2", "--seeds", "5"],
    ]


def _model(seed):
    s = str(seed % 1_000_000)
    return [
        ["model", "--n", "2", "--samples", "4", "--seed", s],
        ["model", "--n", "1", "--rescale-seed", "7", "--seed", s],
        ["model", "--metric", "heisenberg", "--n", "2", "--seed", s],
        ["random-metrics", "--dim", "4", "--count", "10", "--seed", s],
        ["random-metrics", "--dim", "2"],
    ]


WORKLOADS = {
    "exact-suites": _exact,
    "model-geometry": _model,
}

# Commands whose correct outcome is a non-zero exit: the Schouten step
# divides by m - 2, so dimension 2 is outside the supported range.
REFUSALS = (["random-metrics", "--dim", "2"],)


def _env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _deadline_left(t_start):
    return BUDGET_S - (time.perf_counter() - t_start)


def measure_setup(t_start, repeats):
    """Wall times of fresh interpreters importing every qcfeff module."""
    code = (
        "import sys, importlib, pkgutil; sys.path.insert(0, %r); import qcfeff; "
        "[importlib.import_module('qcfeff.' + m.name) for m in pkgutil.iter_modules(qcfeff.__path__) "
        "if m.name != '__main__']" % os.path.join(ROOT, "src")
    )
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                       timeout=_deadline_left(t_start))
        times.append(time.perf_counter() - t)
    return times


def start_round(commands, outdir, trace):
    """Start one child process that runs every command of a round."""
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    spec = os.path.join(outdir, "spec.json")
    with open(spec, "w") as fh:
        json.dump({"root": ROOT, "outdir": outdir, "trace": trace, "commands": commands}, fh)
    with open(os.path.join(outdir, "stderr.txt"), "w") as err:
        return subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec],
            env=_env(), stdout=subprocess.DEVNULL, stderr=err,
        )


def finish_round(proc, outdir, t_start):
    """Wait for a round's process; returns its round.json."""
    proc.wait(timeout=max(_deadline_left(t_start), 1.0))
    if proc.returncode != 0:
        with open(os.path.join(outdir, "stderr.txt")) as fh:
            raise RuntimeError("round process failed:\n" + fh.read()[-3000:])
    with open(os.path.join(outdir, "round.json")) as fh:
        return json.load(fh)


def run_rounds(commands, dirs, t_start):
    """Run one round per (outdir, trace) pair concurrently; returns their results."""
    procs = [start_round(commands, outdir, trace) for outdir, trace in dirs]
    try:
        return [finish_round(p, outdir, t_start) for p, (outdir, _) in zip(procs, dirs)]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()


def check_round(commands, outdir, result):
    """[(argv, problems, expected_failure)] for each operation of a round."""
    ops = []
    for i, argv in enumerate(commands):
        path = os.path.join(outdir, "%d.json" % i)
        report = None
        if os.path.exists(path):
            with open(path) as fh:
                report = json.load(fh)
        rc = result["codes"][i]
        if argv in REFUSALS:
            problems = checks.check_refusal(argv, rc, report)
        else:
            problems = checks.CHECKERS[argv[0]](argv, rc, report)
        ops.append((argv, problems, argv in REFUSALS))
    return ops


def _same_reports(n, dir_a, dir_b):
    for i in range(n):
        pa, pb = os.path.join(dir_a, "%d.json" % i), os.path.join(dir_b, "%d.json" % i)
        if os.path.exists(pa) != os.path.exists(pb):
            return False
        if os.path.exists(pa):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                if fa.read() != fb.read():
                    return False
    return True


def _report_bytes(n, outdir):
    return sum(
        os.path.getsize(os.path.join(outdir, "%d.json" % i))
        for i in range(n)
        if os.path.exists(os.path.join(outdir, "%d.json" % i))
    )


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": THREADS,
        "integer_backend": _integer_backend(),
    }


def _integer_backend():
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        return "int"
    return "gmpy2"


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"], [w["name"] for w in bench["workloads"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    if not os.path.exists(os.path.join(ROOT, "src", "qcfeff", "cli.py")):
        _log("no qcfeff sources under %s" % os.path.join(ROOT, "src"))
        return 2
    end_to_end, per_layer, names = _declared()
    if args.workload not in WORKLOADS or args.workload not in names:
        _log("unknown workload %r" % args.workload)
        return 2

    commands = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    _log("environment: %s" % json.dumps(environment(), sort_keys=True))
    _log("commands: %s" % json.dumps([" ".join(c) for c in commands]))

    # The machine's speed drifts over tens of seconds, so half of the
    # set-up samples are taken before the rounds and half after them.
    # The first import may compile bytecode and is not counted.
    setup = [] if trace else measure_setup(t_start, SETUP_REPEATS + 1)[1:]
    plain, layers = [], []
    ops = []
    faithful = True
    rounds = 0
    t_rounds = time.perf_counter()
    while True:
        base = os.path.join(OUT, args.workload, "round%d" % rounds)
        dirs = [(os.path.join(base, "plain"), False)]
        if trace:
            dirs.append((os.path.join(base, "traced"), True))
        results = run_rounds(commands, dirs, t_start)
        r0 = results[0]
        ops += check_round(commands, dirs[0][0], r0)
        plain.append(r0)
        if trace:
            r1 = results[1]
            if not _same_reports(len(commands), dirs[0][0], dirs[1][0]):
                faithful = False
                _log("traced reports differ from untraced ones in %s" % base)
            r1["layers"]["cli.report_bytes"] = _report_bytes(len(commands), dirs[1][0])
            r1["layers"]["trace.overhead_s"] = r1["verdict_s"] - r0["verdict_s"]
            layers.append(r1["layers"])
            big = r1["largest_kernel"]
            if big:
                _log("largest kernel_basis call: `%s`, %d rows x %d columns, nullity %d, %.2f s"
                     % (" ".join(commands[big[0]]), big[1], big[2], big[3], big[4]))
            _log("traced round: %d spans over %d wrapped callables" % (r1["spans"], r1["wrapped"]))
        for i, argv in enumerate(commands):
            _log("  %-60s exit %s  %.2f s" % (" ".join(argv), r0["codes"][i], r0["command_s"][i]))
        _log("round %d: verdict %.2f s wall, %.2f s CPU" % (rounds, r0["verdict_s"], r0["cpu_s"]))
        rounds += 1
        # No round starts that would end more than half a round past --seconds,
        # so a run lasts about --seconds whatever the length of its rounds.
        elapsed = time.perf_counter() - t_rounds
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break

    if not trace:
        setup += measure_setup(t_start, SETUP_REPEATS)
    failed = [(a, p, x) for a, p, x in ops if p]
    for a, p, x in failed:
        _log("FAILED%s: %s: %s" % (" (known fault)" if x else "", " ".join(a), "; ".join(p)))
    correct = faithful and all(x for _, _, x in failed)

    if trace:
        values = {name: statistics.median(lm[name] for lm in layers) for name in layers[0]}
        declared = per_layer
    else:
        values = {
            "setup_s": statistics.median(setup),
            "verdict_s": statistics.median(r["verdict_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        declared = end_to_end
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        _log("measured metrics and BENCHMARK.json disagree: %s" % sorted(set(units) ^ set(values)))
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
