"""Benchmark of cesarops: one workload per run, in one single-threaded process.

Run from the root of a checkout::

    python3 bench/run.py --workload verify-p2 --seed 1 --seconds 15 --trace 0

The workloads are ``verify-p2``, ``integral-route``, ``moments-classify``
and ``besov-quad`` (see ``bench/README.md``).  A timed run (``--trace 0``)
measures the median of several fresh set-ups, runs one untimed warm-up
operation, then whole rounds of the workload's operations until
``--seconds`` have passed, and checks every output afterwards.  Its times
are scaled to a fixed machine speed sampled alongside them (see
``bench/speed.py``); the raw seconds go to the result file.  A traced
run (``--trace 1``) runs exactly one round with spans at every public
cesarops function, so its counts repeat exactly, and writes the spans to
``bench/results``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one thread everywhere: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("verify-p2", "integral-route", "moments-classify", "besov-quad")
#: fresh interpreters started per timed run; setup_s is their median
SETUP_REPEATS = 10
#: machine-speed samples each fresh interpreter takes after its set-up
SETUP_SPEED_SAMPLES = 5


def monotonic():
    """CLOCK_MONOTONIC: one clock for this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fresh_setup_seconds(args, sampler):
    """Seconds from starting a fresh interpreter to the workload's inputs
    being ready: imports, catalog parsing and input construction.  The
    fresh interpreter then samples the machine's speed into ``sampler``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    ready, kernel_s = map(float, proc.stdout.split()[-2:])
    sampler.samples.append(kernel_s)
    return ready - start


def run_rounds(ops, seconds, span=None, sampler=None):
    """Whole rounds of ``ops`` until ``seconds`` have passed (at least one).

    Returns ``(results, walls, scales)``: per operation ``(op, seconds,
    output, scale)``, with a raised exception as the output, and per round
    the summed seconds of its operations and the factor to seconds at the
    nominal machine speed, from the samples ``sampler`` took during that
    round (1 without a sampler).  The time of the timer-driven samples is
    taken out of each operation's seconds.
    """
    results, walls, scales = [], [], []
    start = time.perf_counter()
    while True:
        first = len(sampler.samples) if sampler is not None else 0
        wall, done = 0.0, []
        for op in ops:
            stolen = sampler.stolen if sampler is not None else 0.0
            t0 = time.perf_counter()
            try:
                out = op.run() if span is None else span("bench.op", op.run)
            except Exception as exc:  # the op failed: count it, keep going
                traceback.print_exc()
                out = exc
            dt = time.perf_counter() - t0
            if sampler is not None:
                dt -= sampler.stolen - stolen
            wall += dt
            done.append((op, dt, out))
        scale = sampler.scale(first) if sampler is not None else 1.0
        results += [entry + (scale,) for entry in done]
        walls.append(wall)
        scales.append(scale)
        if time.perf_counter() - start >= seconds:
            return results, walls, scales


def check_results(results):
    """Returns ``(failed, wrong)``: operations that raised or whose output
    failed its check, and those of them that returned a wrong output."""
    failed = wrong = 0
    for op, _, out, _ in results:
        if isinstance(out, Exception):
            failed += 1
            continue
        try:
            problems = op.check(out)
        except Exception as exc:  # a malformed output breaks its check
            problems = ["check raised %r" % (exc,)]
        if problems:
            failed += 1
            wrong += 1
            print("bench: %s: %s" % (op.label, "; ".join(problems[:3])),
                  file=sys.stderr)
    return failed, wrong


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cesarops")):
        sys.exit("bench: no cesarops sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import speed
    import workloads

    workload = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        ready = monotonic()
        probe = speed.Sampler()
        for _ in range(SETUP_SPEED_SAMPLES):
            probe.sample()
        print(repr(ready), repr(statistics.median(probe.samples)))
        return 0

    # half of the fresh set-ups before the timed rounds and half after:
    # the machine's speed drifts, and two moments 15 s apart see more of it
    setup_speed, round_speed = speed.Sampler(), speed.Sampler()
    setups = [fresh_setup_seconds(args, setup_speed)
              for _ in range(0 if args.trace else SETUP_REPEATS // 2)]
    workload.warmup()
    gc.collect()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            results, walls, _ = run_rounds(workload.ops, 0.0, tracer.span)
        finally:
            tracer.uninstall()
    else:
        round_speed.start()
        try:
            results, walls, scales = run_rounds(workload.ops, args.seconds,
                                                sampler=round_speed)
        finally:
            round_speed.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setups += [fresh_setup_seconds(args, setup_speed)
                   for _ in range(SETUP_REPEATS - len(setups))]

    failed, wrong = check_results(results)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    if tracer is None:
        # each time scaled by the machine speed sampled while it was taken:
        # set-ups by their own interpreters, operations by their round
        measured = {"setup_s": statistics.median(setups),
                    "wall_s": statistics.median(walls),
                    "op_p50_s": statistics.median(
                        [dt for _, dt, _, _ in results])}
        scaled = {"setup_s": measured["setup_s"] * setup_speed.scale(),
                  "wall_s": statistics.median(
                      [w * k for w, k in zip(walls, scales)]),
                  "op_p50_s": statistics.median(
                      [dt * k for _, dt, _, k in results])}
        metrics = {name: {"value": value, "unit": "s"}
                   for name, value in scaled.items()}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        extra = {"round_walls": walls, "round_scales": scales,
                 "setup_scale": setup_speed.scale(), "measured_s": measured,
                 "speed_samples": len(round_speed.samples)}
    else:
        metrics = tracer.layer_metrics()
        tracer.save(stem + ".npz")
        extra = {"traced_wall_s": walls[0],
                 "layer_shares": tracer.layer_shares(walls[0])}
    result = {"correct": wrong == 0, "attempted": len(results),
              "failed": failed, "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, **extra), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
