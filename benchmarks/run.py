"""Benchmark of the qconic command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload {hilbert,generic,contact,sweep} \
        --seed N --seconds S --trace {0,1}

Run from any directory; the benchmark imports qconic from the ``src``
directory next to ``benchmarks`` and from nowhere else.  One process, no
pool: every item is one ``qconic.cli.main`` call (``analyze --json`` on an
arrangement file, or one ``verify a --jobs 1`` k-range) with the number
field cache emptied first, as a fresh ``qconic`` invocation has it.

A run with ``--trace 0`` visits the items in passes, the first in the
seed's order and the rest slowest item first, until no item would end
within ``--seconds`` (the first pass always completes).  Each item time is corrected for the host's speed, sampled
while the item runs (see ``hostspeed.py``), and the end-to-end metrics
are built from the median corrected time of each item.  With ``--trace 1``
untraced and traced passes alternate, without speed sampling, and the
metrics are the per-layer ones from the traced passes, plus the tracing
overhead.  Every output is checked by the correctness gate, and the run
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, per-item
times, spans) is written to ``benchmarks/.out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
OUT_DIR = os.path.join(BENCH_DIR, ".out")

#: set-up is timed this many times per run; the median is reported
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = (("wall_s", "s"), ("slowest_item_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402
import gate  # noqa: E402
import hostspeed  # noqa: E402


def import_qconic():
    """Import qconic from this checkout's ``src``; exit nonzero without it."""
    if not os.path.isfile(os.path.join(SRC, "qconic", "__init__.py")):
        raise SystemExit(f"qconic sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import qconic
    if os.path.dirname(os.path.dirname(os.path.abspath(qconic.__file__))) != SRC:
        raise SystemExit(f"imported qconic from {qconic.__file__}, not from {SRC}")
    return qconic


def work_dir(workload: str, seed: int) -> str:
    return os.path.join(WORK_DIR, f"{workload}-{seed}")


def prepare(workload: str, seed: int) -> list:
    """Generate the workload's items and write their input documents."""
    items = workloads.items_for(workload, seed)
    workloads.write_inputs(items, work_dir(workload, seed))
    return items


def time_setup(workload: str, seed: int) -> float:
    """Interpreter start, ``import qconic`` and input generation, timed
    from outside in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantize the measurement; the child bounds itself instead
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    rc = proc.wait()
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"set-up process failed with exit code {rc}")
    return elapsed


def call_cli(argv, sampler=None):
    """One ``qconic.cli.main`` call with the caches a fresh process has:
    (seconds, exit code, stdout, stderr).  With a ``hostspeed.Sampler``
    the host's speed is sampled during the call, and the seconds leave
    out the time spent in the samples."""
    from qconic import cli, numberfield
    numberfield._FIELD_CACHE.clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            elapsed = time.perf_counter() - start
            if sampler is not None:
                sampler.stop()
                elapsed -= sampler.spent
    return elapsed, rc, out.getvalue(), err.getvalue()


def run_item(item, workdir: str, sampler=None):
    """One item through the gate: (seconds, exit code, stdout, problems)."""
    start = time.perf_counter()
    try:
        elapsed, rc, out, err = call_cli(item.argv(workdir), sampler)
    except Exception as exc:  # an item that raises is a failed item
        return time.perf_counter() - start, None, "", [f"raised {exc!r}"]
    problems = gate.check(item, rc, out)
    if err:
        problems.append("stderr: " + err.strip())
    return elapsed, rc, out, problems


def run_pass(items, workdir: str, pass_no: int, recorder=None) -> dict:
    times, failures = {}, {}
    for item in items:
        if recorder is not None:
            recorder.begin_item(pass_no, item.item_id)
        elapsed, _rc, _out, problems = run_item(item, workdir)
        times[item.item_id] = elapsed
        if problems:
            failures[item.item_id] = problems
    return {"pass": pass_no, "traced": recorder is not None, "times": times,
            "failures": failures, "wall_s": sum(times.values())}


def measure(items, workdir: str, seconds: float) -> dict:
    """Visit the items in passes, sampling the host's speed during each,
    until no item would end within ``seconds``; an item that would not is
    skipped, and the first pass always completes.  Passes after the first
    visit the slowest items first, so the items that weigh most in
    ``wall_s`` are repeated most.  Returns each item's runs, in order, by
    item id."""
    sampler = hostspeed.Sampler()
    runs = {item.item_id: [] for item in items}
    start = time.perf_counter()
    order = items
    for pass_no in itertools.count():
        ran = False
        for item in order:
            past = runs[item.item_id]
            if past and time.perf_counter() - start + past[-1]["wall_s"] > seconds:
                continue
            elapsed, _rc, _out, problems = run_item(item, workdir, sampler)
            speed = sampler.speed_factor()
            past.append({"pass": pass_no, "wall_s": elapsed, "speed": speed,
                         "corrected_s": elapsed * speed, "problems": problems})
            ran = True
        if not ran:
            return runs
        order = sorted(items, key=lambda it: -runs[it.item_id][0]["wall_s"])


def measure_traced(items, workdir: str, seconds: float):
    """Repeat an untraced then a traced pass until the next pair would end
    after ``seconds``.  Returns (passes, recorder)."""
    from spans import Recorder
    recorder = Recorder()
    passes = []
    start = time.perf_counter()
    cycles = 0
    while True:
        passes.append(run_pass(items, workdir, len(passes)))
        recorder.install()
        try:
            passes.append(run_pass(items, workdir, len(passes), recorder))
        finally:
            recorder.uninstall()
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            return passes, recorder


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    from qconic import rationals
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qconic")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "have_gmpy2": rationals.HAVE_GMPY2,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def git_sha() -> str | None:
    """HEAD commit read from ``.git`` (None outside a git checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def item_medians(runs, key: str) -> dict:
    return {item_id: statistics.median(r[key] for r in rs) for item_id, rs in runs.items()}


def end_to_end(runs, setup_times) -> dict:
    corrected = item_medians(runs, "corrected_s")
    return {
        "wall_s": sum(corrected.values()),
        "slowest_item_s": max(corrected.values()),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes, recorder) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [recorder.pass_metrics(p["pass"]) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                   / statistics.median(p["wall_s"] for p in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import qconic and write the inputs, then exit "
                             "(the process timed as set-up)")
    args = parser.parse_args(argv)

    if args.setup_only:
        signal.alarm(SETUP_TIMEOUT_S)
        import_qconic()
        prepare(args.workload, args.seed)
        return 0
    import_qconic()
    setup_times = [] if args.trace else [time_setup(args.workload, args.seed)
                                         for _ in range(SETUP_REPEATS)]
    items = prepare(args.workload, args.seed)
    workdir = work_dir(args.workload, args.seed)
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"environment": env, "setup_times": setup_times}
    if args.trace:
        from spans import PER_LAYER
        passes, recorder = measure_traced(items, workdir, args.seconds)
        failures = [(p["pass"], item_id, problems) for p in passes
                    for item_id, problems in sorted(p["failures"].items())]
        attempted = sum(len(p["times"]) for p in passes)
        values = per_layer(passes, recorder)
        units = dict(PER_LAYER)
        record.update(passes=passes, trace=recorder.dump())
        summary = f"passes: {len(passes)}"
    else:
        runs = measure(items, workdir, args.seconds)
        failures = [(r["pass"], item_id, r["problems"]) for item_id, rs in runs.items()
                    for r in rs if r["problems"]]
        attempted = sum(len(rs) for rs in runs.values())
        values = end_to_end(runs, setup_times)
        units = dict(END_TO_END)
        record.update(runs=runs)
        measured = item_medians(runs, "wall_s")
        summary = (f"passes: {max(len(rs) for rs in runs.values())}"
                   f"  uncorrected wall_s: {sum(measured.values())}"
                   f"  slowest_item_s: {max(measured.values())}")
    failed = len(failures)
    if not args.trace:
        values["ok_ratio"] = (attempted - failed) / attempted
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record.update(metrics=metrics, attempted=attempted, failed=failed)

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print("environment: " + json.dumps(env, sort_keys=True))
    for pass_no, item_id, problems in failures:
        print(f"FAILED pass {pass_no} {item_id}: {'; '.join(problems)}")
    print(f"{summary}  items attempted: {attempted}  failed: {failed}"
          f"  fail_ratio: {failed / attempted}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
