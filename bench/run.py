"""wbk benchmark: a closed loop of in-process `wbk` commands on seeded inputs.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 bench/run.py --workload verify --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload verify --seed 1 --seconds 36 --trace 1
    python3 bench/run.py --steady 10 --workload lattice --seed 100
    python3 bench/run.py --record-digests

One client, one process, one thread.  Set-up imports wbk from `src/` and
writes the workload's JSON inputs under `bench/.work/`; each job is then one
`wbk.cli.main(argv)` call with stdout and stderr captured, checked by
`oracle.check`.  Jobs run in whole blocks (see gen.py) until `--seconds`
have passed, so a run ends at the first block boundary after that.

`--trace 0` prints the end-to-end metrics.  `setup_s` is the median over
several fresh processes, each timed from launch until its inputs are
ready; nothing inside a job pays for interpreter start or `import wbk`.

`--trace 1` imports wbk through the outside-in tracer (tracing.py) and
prints the per-layer metrics for the traced import plus one window (the
first block).  The window runs untraced and traced in turn until
`--seconds` have passed; self times are medians over traced windows, and
`trace.overhead` is traced over untraced window time, minus 1.  Counts
depend only on the seed.  `cli.output_changed` counts jobs of the seed-0
window whose stdout differs from the digests in `digests.json`, recorded
with `--record-digests`.  The spans of the traced import and first window
are written to `bench/.work/trace-<workload>.jsonl.gz`.

`--steady N` runs N fresh benchmark processes on seeds seed..seed+N-1 and
prints, for each metric, the median, the quartiles and their distance as a
share of the median, next to `host.loop_ms` of every run.

The last line of a measuring run is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import gen
import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, ".work")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_PROBES = 5
DIGEST_SEED = 0
# seconds one block takes on a 2-core x86 VM; sets how many blocks set-up
# writes (a run cycles through them again if it needs more)
BLOCK_SECONDS = {"verify": 4.7, "lattice": 3.7, "search": 7.0}
E2E = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_cli(tracer=None):
    """Import wbk from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    if tracer is not None:
        sys.meta_path.insert(0, tracing.TracedImport(tracer, SRC))
    import wbk.cli

    if not os.path.abspath(wbk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported wbk from {wbk.__file__}, not from {SRC}")
    return wbk.cli


def block_count(workload: str, seconds: float) -> int:
    return int(seconds / BLOCK_SECONDS[workload]) + 2


@contextlib.contextmanager
def workdir(name: str):
    path = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_job(cli, argv):
    """One in-process command: wall time, CPU time, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
    return dt, dc, code, out.getvalue(), err.getvalue()


class Tally:
    """Job wall and CPU times, bytes written and oracle failures."""

    def __init__(self):
        self.times: list = []
        self.cpu: list = []
        self.failed = 0
        self.bytes_out = 0

    def run(self, cli, job):
        dt, dc, code, out, err = run_job(cli, job.argv)
        self.times.append(dt)
        self.cpu.append(dc)
        self.bytes_out += len(out.encode())
        reason = oracle.check(job, code, out, err)
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {' '.join(job.argv)}: {reason}", file=sys.stderr)
        return out


def host_loop_ms(reps: int = 5) -> list:
    """A fixed pure-Python loop, timed; tracks the host's speed, not wbk's."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        out.append((time.perf_counter() - t0) * 1000)
    return out


def tail(times: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(times)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def measure_setup(args) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with exit code {proc.returncode}")
        times.append(dt)
    return statistics.median(times)


def probe(args) -> int:
    import_cli()
    with workdir(f"probe-{args.workload}") as wd:
        gen.build(args.workload, args.seed, wd, block_count(args.workload, args.seconds))
        print("ready", flush=True)
    return 0


def report(rows: list, attempted: int, failed: int, metrics: dict) -> None:
    for name, value, unit, note in rows:
        print(f"{name} {value:.6g} {unit}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def end_to_end(args) -> int:
    setup_s = measure_setup(args)
    cli = import_cli()
    with workdir(args.workload) as wd:
        blocks = gen.build(args.workload, args.seed, wd, block_count(args.workload, args.seconds))
        gc.freeze()
        loops = host_loop_ms()
        tally = Tally()
        t0 = time.perf_counter()
        done = 0
        while done == 0 or time.perf_counter() - t0 < args.seconds:
            for job in blocks[done % len(blocks)]:
                tally.run(cli, job)
            done += 1
        loops += host_loop_ms()
    times = tally.times
    tail_s, pct = tail(times)
    n = len(times)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": n / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f" (median of {SETUP_PROBES} fresh processes)",
        "jobs_per_s": f" ({n} jobs in {done} blocks)",
        "job_tail_s": f" (p{pct:.1f}: 10 of {n} jobs beyond it)",
    }
    rows = [(name, values[name], unit, notes.get(name, "")) for name, unit in E2E]
    rows.append(("error_rate", tally.failed / n, "fraction", f" ({tally.failed} of {n} jobs failed)"))
    rows.append(("host.loop_ms", statistics.median(loops), "ms", " (not a wbk metric)"))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    report(rows, n, tally.failed, metrics)
    return 0


def digests(cli, jobs: list, tally: Tally) -> list:
    return [hashlib.sha256(tally.run(cli, job).encode()).hexdigest() for job in jobs]


def traced(args) -> int:
    tracer = tracing.Tracer()
    cli = import_cli(tracer)
    tracer.sweep()
    imported = tracer.take()
    tracer.uninstall()
    tally = Tally()
    with workdir(args.workload) as wd, workdir(f"{args.workload}-reference") as ref:
        window = gen.build(args.workload, args.seed, wd, 1)[0]
        reference = gen.build(args.workload, DIGEST_SEED, ref, 1)[0]
        gc.freeze()
        loops = host_loop_ms()
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)[args.workload]
        got = digests(cli, reference, tally)
        changed = sum(a != b for a, b in zip(got, recorded)) + abs(len(got) - len(recorded))
        plain, traced_s, cpu, wait, per_run = [], [], [], [], []
        t0 = time.perf_counter()
        while not per_run or time.perf_counter() - t0 < args.seconds:
            tracer.uninstall()
            start = len(tally.times)
            for job in window:
                tally.run(cli, job)
            plain.append(sum(tally.times[start:]))
            cpu.append(sum(tally.cpu[start:]))
            wait.append(plain[-1] - cpu[-1])
            tracer.install()
            start, bytes0 = len(tally.times), tally.bytes_out
            for i, job in enumerate(window):
                tracer.job = i
                tally.run(cli, job)
            traced_s.append(sum(tally.times[start:]))
            spans = tracing.Spans()
            spans.extend(imported)
            spans.extend(tracer.take())
            per_run.append(tracing.layer_metrics(tracer, spans, tally.bytes_out - bytes0))
            if len(per_run) == 1:
                first = spans
        tracer.uninstall()
        loops += host_loop_ms()
    metrics = dict(per_run[0])
    for key in metrics:
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(m[key] for m in per_run)
    metrics["proc.cpu_s"] = statistics.median(cpu)
    metrics["proc.wait_s"] = statistics.median(wait)
    metrics["host.loop_ms"] = statistics.median(loops)
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain) - 1
    metrics["cli.output_changed"] = changed
    write_spans(args, tracer, first)
    rows = [(name, value, PER_LAYER_UNITS[name], "") for name, value in metrics.items()]
    out = {name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in metrics.items()}
    print(f"window: {len(window)} jobs, run {len(plain)} times untraced and {len(per_run)} times traced")
    report(rows, len(tally.times), tally.failed, out)
    return 0


PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in tracing.LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "braces.triples": "count",
    "solutions.braid_triples": "count",
    "io.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "ideals.is_ideal_calls": "count",
    "ideals.found": "count",
    "ideals.yield": "ratio",
    "ideals.quotients": "count",
    "series.steps": "count",
    "series.quotients": "count",
    "tables.group_homs": "count",
    "compose.brace_homs": "count",
    "compose.hom_yield": "ratio",
    "proc.cpu_s": "s",
    "proc.wait_s": "s",
    "host.loop_ms": "ms",
    "trace.overhead": "ratio",
    "cli.output_changed": "count",
}


def write_spans(args, tracer, spans) -> None:
    """The traced import and first traced window as gzipped JSON lines: a
    header, then one span per line."""
    header = {"workload": args.workload, "seed": args.seed,
              "columns": ["name", "layer", "parent", "job", "start", "end", "work"]}
    rows = zip(spans.name, spans.parent, spans.job, spans.start, spans.end, spans.work)
    with gzip.open(os.path.join(WORK, f"trace-{args.workload}.jsonl.gz"), "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for n, p, j, s, e, w in rows:
            fh.write(json.dumps([tracer.names[n], tracer.layers[n], p, j, s, e, w]) + "\n")


def record_digests(args) -> int:
    cli = import_cli()
    out = {}
    for workload in gen.WORKLOADS:
        with workdir(f"digests-{workload}") as wd:
            tally = Tally()
            out[workload] = digests(cli, gen.build(workload, DIGEST_SEED, wd, 1)[0], tally)
            if tally.failed:
                raise SystemExit(f"error: {tally.failed} {workload} jobs failed; digests not recorded")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"recorded {sum(map(len, out.values()))} digests in {DIGESTS}")
    return 0


def steady(args) -> int:
    values: dict = {}
    loops, bad = [], 0
    for seed in range(args.seed, args.seed + args.steady):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            bad += 1
            continue
        result = json.loads(lines[-1])
        bad += not result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        loop = [float(line.split()[1]) for line in lines if line.startswith("host.loop_ms ")]
        loops += loop
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.5g}" for k, m in list(result["metrics"].items())[:6])
              + (f" host.loop_ms={loop[0]:.4g}" if loop else ""), flush=True)
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"{name:24} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    if loops:
        print(f"host.loop_ms per run: {' '.join(f'{v:.3g}' for v in loops)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N", help="repeat N fresh runs and print spreads")
    p.add_argument("--record-digests", action="store_true", help="record the seed-0 window's stdout digests")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wbk", "__init__.py")):
        print(f"error: no wbk sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args)
    if args.workload is None:
        p.error("--workload is required")
    if args.probe:
        return probe(args)
    if args.steady:
        return steady(args)
    return traced(args) if args.trace else end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
