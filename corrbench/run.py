"""corrdet benchmark: run one workload and print its metrics.

    python3 corrbench/run.py --workload theta-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a corrdet checkout; the program is imported from
its ``src``.  Each run is one fresh process with numpy's BLAS pinned to
one thread.  It builds the workload's inputs, runs whole rounds of its
operations in a closed loop from this single caller, checks every
output and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb);
with --trace 1 they are the per-module ones, and the spans go to
corrbench/out/<workload>/trace.json.  Exits non-zero, printing no
result, when the workload cannot run or does not finish in 175 s.

A run makes one round, and more while another round still fits in the
run length.  wall_s is the first round's time scaled to a fixed host
speed (see SpeedProbe), so that the estimator is the same however many
rounds a run makes.  With tracing, untraced and traced rounds alternate
(at least one of each); the per-layer numbers come from the traced
rounds and trace.overhead_s is the difference of the median traced and
untraced rounds, scaled alike.  setup_s is scaled like wall_s.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# before numpy is first imported: OpenBLAS reads its thread count when it loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import namedtuple  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
DEADLINE_S = 175
# one round: seconds, (start, end), per-op seconds, outputs by op name
# (None where it failed), per-layer metrics of a traced round
Round = namedtuple("Round", "seconds span op_s outputs layers")


def _deadline(signum, frame):
    print(f"the workload did not finish in {DEADLINE_S} s", file=sys.stderr)
    os._exit(3)


class SpeedProbe:
    """Samples the host's speed while the operations run.

    The host's speed swings by up to 1.8x within seconds: the same fixed
    loop runs 1300 to 2400 times a second.  A raw time therefore
    measures the host as much as the program.  Every 10 ms of CPU time a
    signal handler runs a fixed pure-Python loop of PROBE_STEPS steps
    twice and times the second pass: the first refills the caches that
    the program's own work evicted, so the probe reads the host and not
    the program's memory use.  Each stretch of time up to a probe is
    scaled by REFERENCE_S / that probe's time, which gives the time the
    work would take on a host where the probe takes REFERENCE_S
    throughout (this host at its fastest).  The probes cost about 0.5%
    of the run.
    """

    PROBE_STEPS = 400
    REFERENCE_S = 2.0e-5
    INTERVAL_S = 0.01

    def __init__(self):
        self.stamps, self.probe_s = [], []

    def _sample(self, signum, frame):
        clock = time.perf_counter
        for _ in range(2):
            t0 = clock()
            acc = 0
            for i in range(self.PROBE_STEPS):
                acc += i * i
        self.stamps.append(t0)
        self.probe_s.append(clock() - t0)

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """Seconds from t0 to t1 at the reference speed.  The tail after
        the last probe takes that probe's speed; a stretch with no probe
        in it takes the run's median speed."""
        lo, hi = bisect.bisect_left(self.stamps, t0), bisect.bisect_left(self.stamps, t1)
        if lo == hi:
            return (t1 - t0) * self.REFERENCE_S / statistics.median(self.probe_s)
        total, prev = 0.0, t0
        for k in range(lo, hi):
            total += (self.stamps[k] - prev) * self.REFERENCE_S / self.probe_s[k]
            prev = self.stamps[k]
        return total + (t1 - prev) * self.REFERENCE_S / self.probe_s[hi - 1]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_round(ops, tracer=None):
    """Run every operation once and return the Round."""
    for op in ops:
        op.out.unlink(missing_ok=True)
    times, oks = [], []
    t_round = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        with tracer.op_span(op.name) if tracer else nullcontext():
            try:
                ok = op.run()
            except Exception as exc:  # a crash is a failed operation, reported below
                ok = False
                op.error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        oks.append(ok)
        if not ok and op.error is None:
            op.error = "non-zero exit status"
    t_end = time.perf_counter()
    outputs = {op.name: op.out.read_text() if ok else None for op, ok in zip(ops, oks)}
    layers = layer_metrics(tracer, outputs) if tracer else None
    return Round(t_end - t_round, (t_round, t_end), times, outputs, layers)


def main(argv=None):
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    probe = SpeedProbe()
    probe.start()
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "corrdet" / "__init__.py").is_file():
        print(f"no corrdet sources under {src}; run from a corrdet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import corrdet  # noqa: F401  -- part of the timed set-up

    if not Path(corrdet.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"corrdet was imported from {corrdet.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    outdir = HERE / "out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, outdir)
    setup_span = (START, time.perf_counter())

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced = [], []
    t_first = time.perf_counter()
    while True:
        use_trace = bool(tracer) and len(traced) < len(plain)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(ops, tracer))
            finally:
                tracer.uninstall()
            if len(traced) == 1:
                spans = tracer.span_records()
        else:
            plain.append(run_round(ops))
        if tracer and not traced:
            continue
        elapsed = time.perf_counter() - t_first
        longest = max(r.seconds for r in plain + traced)
        if elapsed + longest > args.seconds:
            break
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = plain + traced
    correct, problems = check_rounds(ops, rounds)
    result = {
        "correct": correct,
        "attempted": len(rounds) * len(ops),
        "failed": sum(text is None for r in rounds for text in r.outputs.values()),
    }
    if tracer:
        metrics = dict(traced[0].layers)
        for name in TIMED_LAYER_METRICS:
            metrics[name] = statistics.median(r.layers[name] for r in traced)
        metrics["trace.overhead_s"] = (statistics.median(probe.scaled(*r.span) for r in traced)
                                       - statistics.median(probe.scaled(*r.span) for r in plain))
        result["metrics"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in metrics.items()}
        write_json(outdir / "trace.json", {
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": spans,
            "metrics": metrics,
        })
    else:
        result["metrics"] = {
            "wall_s": {"value": probe.scaled(*plain[0].span), "unit": "s"},
            "setup_s": {"value": probe.scaled(*setup_span), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    write_json(outdir / ("run-trace.json" if tracer else "run.json"), {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "setup_unscaled_s": setup_span[1] - setup_span[0],
        "round_s": [r.seconds for r in rounds],
        "round_scaled_s": [probe.scaled(*r.span) for r in rounds],
        "probe_median_s": statistics.median(probe.probe_s),
        "op_s": {op.name: [r.op_s[i] for r in plain] for i, op in enumerate(ops)},
        "errors": {op.name: op.error for op in ops if op.error},
        "problems": problems,
        "result": result,
    })
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def check_rounds(ops, rounds):
    """Check the first round's outputs with the oracles; every later round
    must reproduce them byte for byte."""
    import checks

    first = rounds[0].outputs
    problems = []
    for op in ops:
        text = first[op.name]
        for r in rounds[1:]:
            if r.outputs[op.name] != text:
                problems.append(f"{op.name}: output differs between rounds")
        if text is None:
            if not op.may_fail:
                problems.append(f"{op.name}: failed ({op.error})")
            continue
        try:
            found = getattr(checks, op.check)(op.spec, text, first)
        except Exception as exc:  # unreadable output is a failed check
            found = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        problems.extend(f"{op.name}: {p}" for p in found)
    return not problems, problems


# -- per-layer metrics ----------------------------------------------------------

LAYER_UNITS = {
    "cgf.calls": "count", "cgf.points": "count", "cgf.self_s": "s",
    "design.inverse_probes": "count", "design.self_s": "s",
    "exponents.sup_calls": "count", "exponents.objective_evals": "count",
    "exponents.self_s": "s",
    "optim.golden_iters": "count", "optim.bracket_evals": "count",
    "joint.hull_builds": "count", "joint.hull_points": "count", "joint.hull_s": "s",
    "joint.self_s": "s",
    "extended.transform_calls": "count", "extended.quad_calls": "count",
    "extended.transform_s": "s",
    "kernels.samples": "count", "kernels.kernel_s": "s", "kernels.samples_per_s": "1/s",
    "montecarlo.rel_stderr_sqrt_s": "sqrt_s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
TIMED_LAYER_METRICS = [k for k, u in LAYER_UNITS.items()
                       if u in ("s", "1/s", "sqrt_s") and k != "trace.overhead_s"]


def layer_metrics(tr, outputs):
    cgf_names = ("cgf_eval", "cgf_deriv", "mgf_complex")
    kernel_s = tr.get("md_weights", "total_s")
    samples = tr.get("md_weights", "points")
    return {
        "cgf.calls": sum(tr.get(n, "calls") for n in cgf_names),
        "cgf.points": sum(tr.get(n, "points") for n in cgf_names),
        "cgf.self_s": tr.layer_self_s("cgf"),
        "design.inverse_probes": tr.derivs_by_layer["design"],
        "design.self_s": tr.layer_self_s("design"),
        "exponents.sup_calls": tr.get("md_exponent", "calls"),
        "exponents.objective_evals": tr.get("md_objective", "calls"),
        "exponents.self_s": tr.layer_self_s("exponents"),
        "optim.golden_iters": tr.get("golden_max", "extra"),
        "optim.bracket_evals": tr.get("expand_bracket_max", "extra"),
        "joint.hull_builds": tr.get("lower_hull", "calls"),
        "joint.hull_points": tr.get("lower_hull", "points"),
        "joint.hull_s": tr.get("lower_hull", "total_s"),
        "joint.self_s": tr.layer_self_s("joint"),
        "extended.transform_calls": tr.get("c_alpha_energy", "calls") + tr.get("c_alpha_abs", "calls"),
        "extended.quad_calls": tr.get("quad", "calls"),
        "extended.transform_s": tr.get("c_alpha_energy", "total_s") + tr.get("c_alpha_abs", "total_s"),
        "kernels.samples": samples,
        "kernels.kernel_s": kernel_s,
        "kernels.samples_per_s": samples / kernel_s if kernel_s > 0 else 0.0,
        "montecarlo.rel_stderr_sqrt_s": _rel_stderr_sqrt_s(tr, outputs),
        "cli.self_s": tr.layer_self_s("cli"),
    }


def _rel_stderr_sqrt_s(tr, outputs):
    """Largest relative stderr x sqrt(kernel seconds) over the estimates:
    the n-th md_weights call of a simulate operation made its n-th row."""
    per_op = {}
    for op, seconds, _ in tr.kernel_calls:
        per_op.setdefault(op, []).append(seconds)
    worst = 0.0
    for op, secs in per_op.items():
        text = outputs.get(op)
        if not text:
            continue
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        for (_, prob, stderr, _), s in zip(rows, secs):
            if float(prob) > 0:
                worst = max(worst, float(stderr) / float(prob) * s ** 0.5)
    return worst


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))


if __name__ == "__main__":
    sys.exit(main())
