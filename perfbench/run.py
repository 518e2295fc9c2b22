"""The mukailat benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout that holds `src/mukailat`.  One process,
one closed-loop client, no worker threads (the CLI workload starts one
child process at a time and waits for it).

--trace 0 runs the workload for --seconds of wall time (at least MIN_OPS
operations) and reports the end-to-end metrics, scaled to a nominal host
speed by a yardstick timed at the same moments (see Yardstick).  --trace 1 runs the
workload's fixed traced prefix twice on the same inputs, first untraced and
then with the tracer installed, and reports the per-layer metrics and the
tracing overhead.  Either way every output is checked, a result file is
written under perfbench/out/, and the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from spans import Tracer, layer_metrics, merge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_OPS = 100          # at least ten samples beyond p90
EXHAUSTED_SHARE = 0.01  # inputs that may exhaust the witness search
HARD_CAP_S = 150       # stop measuring past this, whatever the count
SETUP_REPEATS = 7      # timed set-up children, after one untimed warm one
YARDSTICK_EVERY_S = 0.25
# The yardstick's median time over 200 bursts on a shared 2.1 GHz Xeon.  It
# only fixes the scale: a scaled time is what the measured time would be on
# a host where the yardstick takes this long.
YARDSTICK_NOMINAL_S = 0.006


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout's git repository, read from .git directly."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_child(name, env):
    """One cold set-up in a fresh interpreter (see child.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "setup", name],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class Yardstick:
    """The host's speed at a moment.  The machine the benchmark was built on
    is shared, and its speed moves between states up to 1.6x apart, for
    seconds within a run or for whole runs.  A fixed burst of pure-Python
    arithmetic, run in a separate interpreter (`child.py ref`) while this
    process waits, takes longer in the same proportion, so the ratio of an
    operation's time to the burst's time nearby stays put."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), "ref"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.sample()  # the first burst runs cold

    def sample(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def scale(self, seconds, *samples):
        """seconds at the nominal speed, given yardstick samples around it"""
        return seconds * YARDSTICK_NOMINAL_S / statistics.mean(samples)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the child has already ended
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Digest:
    """sha256 over the first MIN_OPS records, so equal seeds give equal
    digests however many operations a run completes."""

    def __init__(self):
        self.h = hashlib.sha256()
        self.n = 0

    def add(self, record):
        if self.n < MIN_OPS:
            self.h.update(repr(record).encode())
            self.n += 1

    def hexdigest(self):
        return self.h.hexdigest()


def run_ops(wl, inputs, count=None, seconds=None, call=None,
            between=None, after=None):
    """The closed loop.  Times only `call` (default wl.run); generation,
    checks, `between(elapsed, inp)` before the call and `after()` after it
    run outside the timed region.  Stops after `count` operations, or once
    `seconds` of wall time have passed and MIN_OPS are done, and in any
    case after HARD_CAP_S.  An operation that raises or fails its check is
    an error; only the others give a latency.  An input on which the
    library's witness search is exhausted (workloads.Exhausted) is not an
    operation of the workload: it is recorded and the next input is drawn
    (see exhausted_error for the limit on how often that may happen)."""
    call = call or wl.run
    start = time.perf_counter()
    lat, lat_ops, errors, exhausted, lost_s = [], [], [], [], 0.0
    attempted = 0
    din, dout = Digest(), Digest()
    for index, inp in enumerate(inputs):
        now = time.perf_counter()
        if count is not None and attempted >= count:
            break
        if count is None and attempted >= MIN_OPS and now - start >= seconds:
            break
        if now - start >= HARD_CAP_S:
            break
        if between:
            between(now - start, inp)
        din.add(wl.key(inp))
        t0 = time.perf_counter()
        try:
            out = call(inp)
            elapsed = time.perf_counter() - t0
            failure = None
        except Exception as exc:  # sorted out below, outside the timing
            elapsed = time.perf_counter() - t0
            failure = exc
        if after:
            after()
        if failure is None:
            try:
                record = wl.check(inp, out)
            except Exception as exc:  # wrong output, or one that cannot be read
                failure = exc
        # the time of lost operations counts, their number does not
        if isinstance(failure, workloads.Exhausted):
            lost_s += elapsed
            exhausted.append(f"input {index}: {failure}")
            dout.add(("exhausted",))
            continue
        attempted += 1
        if failure is not None:
            lost_s += elapsed
            errors.append(f"input {index}: {type(failure).__name__}: "
                          f"{failure}")
            dout.add(("failed", type(failure).__name__))
            continue
        dout.add(record)
        lat.append(elapsed)
        lat_ops.append(index)
    if len(lat) < 2:
        sys.exit(f"{wl.name}: {len(lat)} of {attempted} operations "
                 f"succeeded; errors: {errors[:5]}")
    return {"latencies": lat, "latency_ops": lat_ops,
            "attempted": attempted, "errors": errors,
            "exhausted": exhausted, "lost_s": lost_s,
            "inputs_redrawn": wl.redrawn,
            "inputs_sha256": din.hexdigest(),
            "outputs_sha256": dout.hexdigest(),
            "wall_s": time.perf_counter() - start}


def exhausted_error(res):
    """An error when more than EXHAUSTED_SHARE of the inputs exhausted the
    witness search.  About 1 in 2000 sampled elements does on a healthy
    tree; a change that lets the search give up on more of them, and so
    answer faster, makes the run incorrect instead."""
    seen = res["attempted"] + len(res["exhausted"])
    if len(res["exhausted"]) > EXHAUSTED_SHARE * seen:
        return (f"{len(res['exhausted'])} of {seen} inputs exhausted the "
                f"witness search, more than {EXHAUSTED_SHARE:.0%}")
    return None


def end_to_end(wl, args):
    env = workloads.child_env(ROOT)
    setup_child(wl.name, env)  # compiles bytecode; not timed
    wl.setup()
    with Yardstick() as ys:
        setups, marks = [], []  # marks: (op index it preceded, yardstick s)

        def timed_setup():
            before = ys.sample()
            s = setup_child(wl.name, env)
            s["scaled_s"] = ys.scale(s["setup_s"], before, ys.sample())
            setups.append(s)

        def between(elapsed, _inp):
            if not marks or elapsed - between.last >= YARDSTICK_EVERY_S:
                marks.append((between.ops, ys.sample()))
                between.last = elapsed
            # spread over the window, so that the median sees the host at
            # several moments rather than in one burst
            if (len(setups) < SETUP_REPEATS
                    and elapsed >= len(setups) * args.seconds / SETUP_REPEATS):
                timed_setup()
            between.ops += 1
        between.ops = 0

        res = run_ops(wl, wl.inputs(args.seed), seconds=args.seconds,
                      between=between)
        marks.append((between.ops, ys.sample()))
        while len(setups) < SETUP_REPEATS:
            timed_setup()
    error = exhausted_error(res)
    if error:
        res["errors"].append(error)
    # an operation's time is scaled by the mean of the yardstick samples
    # taken just before and just after it
    mark_ops = [op for op, _ in marks]
    lat = res["latencies"]
    scaled = []
    for op, t in zip(res["latency_ops"], lat):
        i = bisect.bisect_right(mark_ops, op)
        scaled.append(ys.scale(t, marks[i - 1][1], marks[i][1]))
    host = statistics.median(ys.scale(1.0, y) for _, y in marks)
    metrics = {
        "setup_s": (statistics.median(s["scaled_s"] for s in setups), "s"),
        "ops_per_s": (len(lat) / (sum(scaled) + res["lost_s"] * host),
                      "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(scaled, n=10)[-1] * 1e3,
                           "ms"),
        "peak_rss_mib": (wl.peak_rss_kib() / 1024, "MiB"),
    }
    extra = {
        "samples": len(lat),
        "failed_ratio": len(res["errors"]) / res["attempted"],
        "unscaled": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": len(lat) / (sum(lat) + res["lost_s"]),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        },
        "yardstick_s": [y for _, y in marks],
        "latencies_ms": [round(x * 1e3, 3) for x in lat],
        "scaled_latencies_ms": [round(x * 1e3, 3) for x in scaled],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "scaled_setup_samples_s": [s["scaled_s"] for s in setups],
        "import_samples_s": [s["import_s"] for s in setups],
    }
    return res, metrics, extra


def traced(wl, args):
    """The traced prefix.  Each input runs untraced, then at once traced,
    so that the overhead compares the same work at nearly the same moment
    of a host whose speed drifts.  The wrappers are installed just before
    each traced operation and removed just after it, outside its timing,
    so that neither the untraced twin nor the output checks are traced."""
    wl.setup()
    os.makedirs(OUT, exist_ok=True)
    span_path = os.path.join(OUT, f"spans-{wl.name}")
    if wl.name == "cli-cold":
        os.makedirs(span_path, exist_ok=True)
        for f in os.listdir(span_path):
            os.remove(os.path.join(span_path, f))
    tracer = Tracer()
    plain, plain_errors = [], []

    def untraced_twin(_elapsed, inp):
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
            elapsed = time.perf_counter() - t0
            wl.check(inp, out)
            plain.append(elapsed)
        except workloads.Exhausted:  # its traced twin is set apart too
            pass
        except Exception as exc:  # counted with the run's failures
            plain_errors.append(f"untraced: {type(exc).__name__}: {exc}")
        tracer.install()

    res = run_ops(wl, wl.traced_inputs(args.seed), count=wl.trace_ops,
                  call=lambda inp: wl.traced_run(tracer, inp),
                  between=untraced_twin, after=tracer.uninstall)
    if wl.name == "cli-cold":
        counters, import_s, run_s = {}, 0.0, 0.0
        for f in sorted(os.listdir(span_path)):
            if f.endswith(".json"):
                with open(os.path.join(span_path, f)) as fh:
                    part = json.load(fh)
                counters = merge(counters, part)
                import_s += part["import_s"]
                run_s += part["run_s"]
    else:
        tracer.write_spans(span_path + ".spans")
        counters, import_s, run_s = tracer.counters(), 0.0, 0.0
    metrics = layer_metrics(counters)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.run.busy_s"] = (run_s, "s")
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(res["latencies"]) / sum(res["latencies"])
    metrics["trace.ops"] = (len(res["latencies"]), "count")
    metrics["trace.spans"] = (counters["spans"], "count")
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate - 1, "ratio")
    res["attempted"] += len(plain) + len(plain_errors)
    res["errors"] += plain_errors
    return res, metrics, {"spans_file": os.path.relpath(span_path, ROOT),
                          "ops_per_s_untraced": plain_rate,
                          "ops_per_s_traced": traced_rate}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mukailat", "__init__.py")):
        sys.exit(f"no mukailat sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    if args.workload not in workloads.NAMES:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    env = environment()
    wl = workloads.make(args.workload, ROOT, OUT)
    import mukailat
    if not os.path.abspath(mukailat.__file__).startswith(SRC + os.sep):
        sys.exit(f"mukailat imported from {mukailat.__file__}, not {SRC}")

    if args.trace:
        res, metrics, extra = traced(wl, args)
    else:
        res, metrics, extra = end_to_end(wl, args)
    attempted = res["attempted"]
    failed = len(res["errors"])
    metrics_json = {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "attempted": attempted, "failed": failed,
        "inputs_sha256": res["inputs_sha256"],
        "inputs_redrawn": res["inputs_redrawn"],
        "outputs_sha256": res["outputs_sha256"],
        "errors": res["errors"][:20],
        "exhausted_count": len(res["exhausted"]),
        "exhausted": res["exhausted"][:20], "wall_s": res["wall_s"],
        **extra,
        "metrics": metrics_json,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, "
          f"{len(res['exhausted'])} inputs set apart, "
          f"inputs {res['inputs_sha256'][:16]} "
          f"outputs {res['outputs_sha256'][:16]}")
    print(f"# {json.dumps(env)}")
    for key in ("samples", "failed_ratio", "unscaled"):
        if key in extra:
            print(f"# {key:<40} {extra[key]}")
    for k, (v, u) in metrics.items():
        print(f"# {k:<40} {v:.6g} {u}")
    for err in res["errors"][:5]:
        print(f"# error: {err}")
    for note in res["exhausted"][:5]:
        print(f"# set apart: {note}")
    print(json.dumps({
        "correct": not res["errors"], "attempted": attempted,
        "failed": failed, "metrics": metrics_json,
    }))


if __name__ == "__main__":
    main()
