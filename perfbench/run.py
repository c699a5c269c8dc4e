"""Layered benchmark of carom: one workload per run, closed loop, no threads.

    python3 perfbench/run.py --workload lockstep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: carom is imported from ``src/`` there and
nowhere else.  With ``--trace 0`` the run times whole ops with nothing
patched and prints the end-to-end metrics; with ``--trace 1`` it runs a
seed-determined op list twice, untraced and then with spans around every
traced carom function, checks that both passes agree, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
``--self-test`` checks the benchmark itself.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from reference import HERE, load_expected, load_specs
from tracing import Tracer
from workloads import OUT_DIR, WORKLOADS, headroom_digits

ROOT = HERE.parent
MODULES = ("ternary", "encoding", "machine", "gadgets", "geometry", "table",
           "simulate", "cli")
SETUP_REPEATS = 9
#: End-to-end times are reported at this host speed, in ns per iteration of
#: the probe loop (a host whose 50,000-iteration reference loop takes 25 ms).
#: On a shared 2-core VM the host's speed drifts by up to a factor of two
#: within minutes; scaling each op by the speed probed around it keeps that
#: drift out of the metrics.
REFERENCE_SPEED = 500.0
PROBE_ITERATIONS = 1_000
SEGMENT_NS = 100_000_000
LEVELS = (1, 2, 3, 4)
AUDIT_KS = (2, 3, 4)


def import_carom():
    """Import carom afresh from ``<checkout>/src``.  Earlier imports of it
    are dropped first, so each set-up pays for its own."""
    for name in [n for n in sys.modules if n == "carom" or n.startswith("carom.")]:
        del sys.modules[name]
    api = SimpleNamespace(**{m: importlib.import_module(f"carom.{m}") for m in MODULES})
    where = Path(sys.modules["carom"].__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise ImportError(f"carom imported from {where}, not from {ROOT / 'src'}")
    return api


def loop_ns(iterations):
    """Time a fixed pure-Python loop of the kind of work carom does: small
    tuples, lists and dicts, made and dropped, with the garbage collection
    that follows.  This is the benchmark's measure of host speed."""
    start = time.perf_counter_ns()
    keep = []
    for i in range(iterations):
        keep.append({"key": (i, i + 1), "row": [i] * 3})
        if len(keep) > 512:
            keep.clear()
    return time.perf_counter_ns() - start


def probe_speed():
    """Host speed now, in ns per loop iteration: the fastest of three
    short loops (about 2 ms in all)."""
    return min(loop_ns(PROBE_ITERATIONS) for _ in range(3)) / PROBE_ITERATIONS


def ref_loop_ms():
    """Host drift probe: median of five timings of a 50,000-iteration loop."""
    return statistics.median(loop_ns(50_000) for _ in range(5)) / 1e6


def at_reference_speed(ns, speed):
    """Scale a time measured while the host ran at ``speed`` ns per loop
    iteration to the reference speed."""
    return ns * REFERENCE_SPEED / speed


def set_up(workload, repeats):
    """Median of ``repeats`` set-ups (import plus the workload's table
    compilation), in seconds at reference speed and in wall seconds; the
    api and state of the last one are used."""
    scaled, wall = [], []
    for _ in range(repeats):
        before = probe_speed()
        start = time.perf_counter_ns()
        api = import_carom()
        state = workload.setup(api)
        elapsed = time.perf_counter_ns() - start
        speed = (before + probe_speed()) / 2
        scaled.append(at_reference_speed(elapsed, speed) / 1e9)
        wall.append(elapsed / 1e9)
    return statistics.median(scaled), statistics.median(wall), api, state


class OpResult:
    __slots__ = ("op", "ns", "speed", "summary", "errors", "values")

    def __init__(self, op, ns, summary, errors, values):
        self.op, self.ns, self.summary = op, ns, summary
        self.errors, self.values = errors, values
        self.speed = REFERENCE_SPEED

    @property
    def scaled_ns(self):
        return at_reference_speed(self.ns, self.speed)


def run_ops(workload, ops, state, api, tracer=None):
    """Run ``ops`` one at a time; only the call itself is timed.  Host
    speed is probed between segments of at least SEGMENT_NS of op time, and
    each op gets the mean speed of the probes around its segment."""
    results, segment, busy = [], [], 0
    clock = time.perf_counter_ns
    before = probe_speed()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op, tracer.tag, tracer.active = index, op.tag, True
        start = clock()
        try:
            out, raised = workload.run(op, state, api), None
        except Exception as err:  # a failed op is counted, not fatal
            out, raised = None, err
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        if raised is not None:
            summary, errors, values = None, [f"{op.kind} raised {raised!r}"], []
        else:
            try:
                summary, errors, values = workload.check(op, out, state, api)
            except Exception as err:
                summary, errors, values = None, [f"check raised {err!r}"], []
        result = OpResult(op, elapsed, summary, errors, values)
        results.append(result)
        segment.append(result)
        busy += elapsed
        if busy >= SEGMENT_NS or index == len(ops) - 1:
            after = probe_speed()
            for r in segment:
                r.speed = (before + after) / 2
            segment, busy, before = [], 0, after
    return results


def timed_loop(workload, state, api, rng, seconds):
    """Whole cycles until ``seconds`` have passed (at least one)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results += run_ops(workload, workload.cycle(rng), state, api)
    return results


def failures(results):
    return [r for r in results if r.errors]


def report_failures(results, limit=5):
    for r in failures(results)[:limit]:
        print(f"FAILED {r.op.kind} {r.op.machine} {r.op.tape}: {r.errors[0]}",
              file=sys.stderr)


def end_to_end(workload, seed, seconds):
    host_before = ref_loop_ms()
    setup_s, setup_wall_s, api, state = set_up(workload, SETUP_REPEATS)
    results = timed_loop(workload, state, api, random.Random(seed), seconds)
    host_after = ref_loop_ms()
    n = len(results)
    failed = len(failures(results))
    lat_ms = sorted(r.scaled_ns / 1e6 for r in results)
    wall_ms = sorted(r.ns / 1e6 for r in results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (n / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {"setup_s": setup_wall_s, "throughput_ops_s": n / (sum(wall_ms) / 1e3),
            "latency_p50_ms": statistics.median(wall_ms)}
    report_failures(results)
    print(f"workload {workload.name}, seed {seed}: {n} ops in "
          f"{sum(wall_ms) / 1e3:.2f} s busy (closed loop, one client, no threads); "
          f"times at the reference host speed, wall-clock in brackets")
    for name, (value, unit) in metrics.items():
        extra = f" [{wall[name]:.6g}]" if name in wall else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    if n >= 100:
        p90 = statistics.quantiles(lat_ms, n=10)[-1]
        print(f"latency_p90_ms {p90:.6g} ms (n={n})")
    else:
        print(f"latency_p90_ms n/a (n={n} < 100)")
    print(f"error_rate {failed / n:.6g} ({failed}/{n})")
    speeds = [r.speed for r in results]
    print(f"host.ref_loop_ms before {host_before:.2f} after {host_after:.2f}; "
          f"probed speed {min(speeds):.1f}-{max(speeds):.1f} ns/iteration "
          f"(reference {REFERENCE_SPEED:g})")
    return n, failed, failed == 0, metrics


def ternary_op_ns(values, rng, budget_s=0.2):
    """Replay add, mul and compare on a seeded sample of the run's own
    exact values; ns per operation."""
    if len(values) < 2:
        return 0.0
    sample = rng.sample(values, min(256, len(values)))
    pairs = [(a, sample[(i * 7 + 3) % len(sample)]) for i, a in enumerate(sample)]
    reps = 0
    start = time.perf_counter_ns()
    while reps == 0 or time.perf_counter_ns() - start < budget_s * 1e9:
        for a, b in pairs:
            a + b
            a * b
            a < b
        reps += 1
    return (time.perf_counter_ns() - start) / (reps * len(pairs) * 3)


def layer_metrics(tracer, extra):
    out = {}
    s = lambda layer, tags=None: tracer.total(tracer.self_ns, layer, tags) / 1e9
    c = lambda layer: tracer.total(tracer.calls, layer)
    w = lambda name, tags=None: tracer.total(tracer.work, name, tags)

    def put(name, value, unit):
        out[name] = (value, unit)

    put("ternary.op_ns", extra["ternary_ns"], "ns")
    for layer in ("encoding.head_of", "encoding.decode", "encoding.cantor_blocks_at",
                  "gadgets.transfer_apply", "geometry.walls_clash",
                  "table.corridor_apply"):
        put(f"{layer}.calls", c(layer), "count")
        put(f"{layer}.self_s", s(layer), "s")
    for layer in ("encoding.block_of", "machine.run_machine",
                  "machine.check_reversible", "table.compile_table",
                  "table.load_table", "cli.main", "simulate.verify_equivalence"):
        put(f"{layer}.self_s", s(layer), "s")
    put("machine.step.calls", c("machine.step"), "count")
    for layer, count in (("table.verify_layout", "pairs"), ("table.to_json", "bytes"),
                         ("simulate.run_symbolic", "steps")):
        put(f"{layer}.{count}", w(f"{layer}.{count}"), "count")
        put(f"{layer}.self_s", s(layer), "s")
    sweeps = [("", None)] + [(f".k{k}", {f"k{k}"}) for k in LEVELS]
    for suffix, tags in sweeps:
        for layer in ("gadgets.walls", "table.scene_walls"):
            put(f"{layer}.walls{suffix}", w(f"{layer}.walls", tags), "count")
            put(f"{layer}.self_s{suffix}", s(layer, tags), "s")
        tracer_s = s("simulate.run_numeric", tags)
        bounces = w("simulate.run_numeric.bounces", tags)
        put(f"simulate.run_numeric.self_s{suffix}", tracer_s, "s")
        put(f"simulate.bounces{suffix}", bounces, "count")
        put(f"simulate.bounce_us{suffix}", tracer_s / bounces * 1e6 if bounces else 0.0, "us")
    for suffix, tags in [("", None)] + [(f".K{K}", {f"K{K}"}) for K in AUDIT_KS]:
        put(f"gadgets.check_separation.pairs{suffix}",
            w("gadgets.check_separation.pairs", tags), "count")
        put(f"gadgets.check_separation.self_s{suffix}",
            s("gadgets.check_separation", tags), "s")
    put("simulate.headroom_digits", extra["headroom"], "digits")
    put("trace.untraced_ops_s", extra["untraced_ops_s"], "1/s")
    put("trace.traced_ops_s", extra["traced_ops_s"], "1/s")
    put("trace.overhead_pct", extra["overhead_pct"], "%")
    put("trace.spans", tracer.span_count, "count")
    put("host.ref_loop_ms", extra["host_ms"], "ms")
    return out


def traced_cycles(workload, seconds):
    """Cycles in a traced run: half the run for each pass at seed speed."""
    return max(1, round(seconds / (2 * workload.cycle_seconds)))


def per_layer(workload, seed, seconds):
    host_before = ref_loop_ms()
    _, _, api, state = set_up(workload, 1)
    rng = random.Random(seed)
    ops = [op for _ in range(traced_cycles(workload, seconds))
           for op in workload.cycle(rng)]
    plain = run_ops(workload, ops, state, api)

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(api)
        tracer.active = False
        traced = run_ops(workload, ops, state, api, tracer)
    finally:
        tracer.uninstall()
    host_after = ref_loop_ms()

    mismatches = sum(a.summary != b.summary for a, b in zip(plain, traced))
    results = plain + traced
    failed = len(failures(results)) + mismatches
    report_failures(results)
    plain_s = sum(r.scaled_ns for r in plain) / 1e9
    traced_s = sum(r.scaled_ns for r in traced) / 1e9
    deviations = [float(r.summary[-1]) for r in plain
                  if r.op.kind == "numeric" and r.summary is not None]
    values = [v for r in plain for v in r.values]
    extra = {
        "ternary_ns": ternary_op_ns(values, random.Random(seed)),
        "headroom": min((headroom_digits(d) for d in deviations), default=0.0),
        "untraced_ops_s": len(plain) / plain_s,
        "traced_ops_s": len(traced) / traced_s,
        "overhead_pct": (traced_s / plain_s - 1) * 100,
        "host_ms": (host_before + host_after) / 2,
    }
    metrics = layer_metrics(tracer, extra)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"spans-{workload.name}"
    tracer.write(stem)
    print(f"workload {workload.name}, seed {seed}, traced: {len(ops)} ops per pass, "
          f"{tracer.span_count} spans written to {stem}.bin")
    print(f"outputs of the traced and untraced passes: "
          f"{'identical' if not mismatches else f'{mismatches} ops differ'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"host.ref_loop_ms before {host_before:.2f} after {host_after:.2f}")
    return len(results), failed, failed == 0, metrics


def run_all(args):
    """Every workload, each in a fresh process, one after another.  Prints
    each one's lines, then one JSON object with the metrics of all four
    under ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{metric}": value
                                 for metric, value in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself and exit")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "carom" / "__init__.py").is_file():
        print(f"error: no carom sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload](load_specs(), load_expected())
    measure = per_layer if args.trace else end_to_end
    attempted, failed, correct, metrics = measure(workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
