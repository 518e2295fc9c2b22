"""Child processes of the benchmark.

  python3 perfbench/child.py setup <workload>
      Time, in a fresh interpreter, the import of mukailat plus the
      workload's set-up (lattices, vperp models, one warm-up operation per
      model so that lazy caches are filled); print {"setup_s": ...}.

  python3 perfbench/child.py ref
      The yardstick of host speed.  For each line read from standard input,
      run a fixed burst of pure-Python integer and rational arithmetic and
      print its time in seconds.  It never imports mukailat, so nothing the
      library does to its own process can change the burst.

  python3 perfbench/child.py cli <counters.json> <mukailat argv...>
      The traced CLI: import mukailat.cli, install the tracer, call
      cli.run(argv) and print the report exactly as `python -m
      mukailat.cli` does; write the tracer's counters and spans next to
      <counters.json>.

In `setup`, only `sys` and `time` are loaded before the clock starts, so
the import is measured cold.  Run from the root of the checkout.
"""

import sys
import time


def _setup(name):
    t0 = time.perf_counter()
    import mukailat  # noqa: F401
    if name == "cli-cold":
        import mukailat.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import os

    import workloads  # the benchmark's own code: not part of the set-up

    wl = workloads.make(name, os.getcwd(), os.path.join("perfbench", "out"))
    t1 = time.perf_counter()
    wl.setup()
    setup_s = time.perf_counter() - t1
    print('{"setup_s": %r, "import_s": %r}' % (import_s + setup_s, import_s))


def _burst():
    """Integer matrix powers, then a rational matrix squared until its
    entries have about 200 bits: the same kinds of work as the library's
    exact linear algebra, whose hot path multiplies matrices of Fractions.
    About 6 ms on a 2.1 GHz Xeon."""
    from fractions import Fraction

    n = 12
    a = [[(i * 7 + j * 13) % 17 - 8 for j in range(n)] for i in range(n)]
    cols = list(zip(*a))
    m = a
    for _ in range(5):
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols]
             for row in m]
    q = [[Fraction((i + 2 * j) % 7 - 3, (i * j) % 5 + 1) for j in range(5)]
         for i in range(5)]
    for _ in range(5):
        qc = list(zip(*q))
        q = [[sum(x * y for x, y in zip(row, col)) for col in qc]
             for row in q]
    return m, q


def _ref():
    for _ in sys.stdin:
        t0 = time.perf_counter()
        _burst()
        print(repr(time.perf_counter() - t0), flush=True)


def _cli(counters_path, argv):
    t0 = time.perf_counter()
    from mukailat import cli
    import_s = time.perf_counter() - t0
    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    t1 = time.perf_counter()
    report, status = tracer.operation(cli.run, argv)
    run_s = time.perf_counter() - t1
    tracer.uninstall()
    print(json.dumps(report, indent=2))
    counters = tracer.counters()
    counters.update(import_s=import_s, run_s=run_s)
    with open(counters_path, "w") as fh:
        json.dump(counters, fh)
    tracer.write_spans(counters_path[:-len(".json")] + ".spans")
    sys.exit(status)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2])
    elif sys.argv[1] == "ref":
        _ref()
    else:
        _cli(sys.argv[2], sys.argv[3:])
