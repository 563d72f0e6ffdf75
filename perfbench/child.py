"""Run one round of a workload's qcfeff commands in this process.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds ``root`` (the checkout), ``outdir``, ``trace`` and
``commands`` (argument lists for ``qcfeff.cli.main``).  Each command
writes its report to ``outdir/<i>.json``.  The round's timings, exit
codes and peak resident memory go to ``outdir/round.json``; a traced
round also writes ``outdir/trace.jsonl`` and its per-layer figures.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _import_qcfeff(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qcfeff
    import qcfeff.cli
    import qcfeff.models

    where = os.path.dirname(os.path.abspath(qcfeff.__file__))
    if where != os.path.join(os.path.abspath(src), "qcfeff"):
        raise SystemExit("qcfeff was imported from %s, not from the checkout" % where)
    return qcfeff


def _run(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refusals
        return exc.code if isinstance(exc.code, int) else 1


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    qcfeff = _import_qcfeff(spec["root"])
    recorder = None
    if spec["trace"]:
        import spans  # beside this script, so on sys.path

        recorder = spans.Recorder()
        recorder.install(qcfeff)
    cli = qcfeff.cli
    outdir = spec["outdir"]
    codes, seconds = [], []
    t0 = time.perf_counter()
    c0 = time.process_time()
    for i, argv in enumerate(spec["commands"]):
        if recorder is not None:
            recorder.command = i
        t = time.perf_counter()
        codes.append(_run(cli, argv + ["--out", os.path.join(outdir, "%d.json" % i)]))
        seconds.append(time.perf_counter() - t)
    verdict_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    result = {
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        "command_s": seconds,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        recorder.write(os.path.join(outdir, "trace.jsonl"))
        result["layers"] = spans.layer_metrics(recorder.spans)
        result["largest_kernel"] = spans.largest_kernel(recorder.spans)
        result["spans"] = len(recorder.spans)
        result["wrapped"] = len(recorder.wrapped)
    with open(os.path.join(outdir, "round.json"), "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main(sys.argv[1])
