"""End-to-end and per-layer benchmark of certified opsplit solves.

Run from the repository root:

    python3 perfbench/run.py                       # all workloads, untraced
    python3 perfbench/run.py --workload lrr-d40 --seed 0 --seconds 40 --trace 0

Every solve goes through the ``opsplit solve`` contract: argv into
``opsplit.cli.main`` in this process, then the exit code, the trace CSV and
the summary JSON, which the correctness gate reads.  One caller runs the
workload's solves back to back (a closed loop) on one CPU, with BLAS pinned
to one thread.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a run with spans around opsplit's public functions.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads OpenBLAS; child processes inherit the pin.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# ---------------------------------------------------------------------------
# Workloads: each is the list of `opsplit solve` argv (without output paths)
# of one pass, built from the seed S.
# ---------------------------------------------------------------------------

SPLITTERS = ("fbhf", "ppg", "condat-vu", "afbas-pd")
QP_OPTS = ["--tol", "1e-8", "--max-iters", "5000"]
LRR_OPTS = ["--beta", "300", "--tol", "1e-3", "--sigma", "0.9",
            "--max-iters", "3000"]


def _argv(algorithm, problem, opts):
    return ["solve", "--algorithm", algorithm, "--problem", problem] + opts


def _qp(seed, i):
    return "qp:seed=%d,p=2,n=5,m=3" % (seed + i)


WORKLOADS = {
    # SVD-bound, dim 12,800; retained certificates set the peak RSS.
    "lrr-d40": lambda s: [_argv("padmm-ebb", "lrr:seed=%d,d=40,n=40" % s,
                                LRR_OPTS)],
    # Same solver at dim 13: interpreter and BlockPoint overhead, no SVDs.
    "qp-padmm": lambda s: [_argv("padmm-ebb", _qp(s, i), QP_OPTS)
                           for i in range(10)],
    # The only workload through hpe_core.run and the splitters.
    "qp-splitters": lambda s: [_argv(a, _qp(s, i), QP_OPTS)
                               for i in range(10) for a in SPLITTERS],
}

# Scheme builders the CLI runs for each splitter, looked up by name.
SCHEME_BUILDERS = {"fbhf": "fbhf_from_qp", "ppg": "ppg_from_qp",
                   "condat-vu": "condat_vu_from_qp",
                   "afbas-pd": "afbas_pd_from_qp"}

# Acceptance thresholds of the correctness gate.
DIST_TO_REF_MAX = 1e-6       # the acceptance battery's reference distance
SLACK_MIN = -1e-9            # the criterion-invariance gate

MIN_PASSES = 3
SETUP_S_PER_ROUND = 0.15     # set-up samples taken in each round
IMPORT_EVERY_S = 3.0         # one fresh-interpreter import sample this often


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# One solve through the CLI contract, and its correctness gate
# ---------------------------------------------------------------------------


class Solver:
    """Runs solves through ``cli.main`` and checks what each one wrote."""

    def __init__(self, cli, workdir: pathlib.Path):
        self.cli = cli
        self.trace = workdir / "trace.csv"
        self.summary = workdir / "summary.json"
        self.attempted = 0
        self.failures = []

    def solve(self, argv, call=None):
        """Return (seconds, iterations, trace rows); rows is None on failure."""
        for p in (self.trace, self.summary):
            p.unlink(missing_ok=True)
        full = argv + ["--trace", str(self.trace), "--summary", str(self.summary)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = call(self.cli.main, full) if call else self.cli.main(full)
            except Exception:  # a crashing solve is a failed solve; go on
                traceback.print_exc()
                rc = "exception"
            dt = time.perf_counter() - t0
        self.attempted += 1
        problem = " ".join(argv[2:5])
        if rc != 0:
            last_line = (sink.getvalue().strip().splitlines() or [""])[-1]
            return self._fail(problem, "exit %s: %s" % (rc, last_line), dt)
        try:
            summary = json.loads(self.summary.read_text())
            with open(self.trace, newline="") as fh:
                rows = [{k: float(v) for k, v in r.items()}
                        for r in csv.DictReader(fh)]
        except (OSError, ValueError) as exc:
            return self._fail(problem, "unreadable output: %s" % exc, dt)
        why = self._check(argv, summary, rows)
        if why:
            return self._fail(problem, why, dt)
        return dt, int(summary["iterations"]), rows

    def _fail(self, problem, why, dt):
        self.failures.append("%s: %s" % (problem, why))
        return dt, 0, None

    @staticmethod
    def _check(argv, summary, rows):
        if not summary.get("converged"):
            return "not converged (%s)" % summary.get("termination")
        if not rows:
            return "empty trace"
        slack = min(r["criterion_slack"] for r in rows)
        if not slack >= SLACK_MIN:
            return "criterion_slack %.3e < %.0e" % (slack, SLACK_MIN)
        last = rows[-1]
        if _opt(argv, "--problem").startswith("qp"):
            if not last["dist_to_ref"] <= DIST_TO_REF_MAX:
                return "dist_to_ref %.3e > %.0e" % (last["dist_to_ref"],
                                                    DIST_TO_REF_MAX)
            return None
        tol = float(_opt(argv, "--tol"))
        pkkt = (summary.get("final") or {}).get("pkkt")
        if pkkt is None or not pkkt <= tol:
            return "final pkkt %s > tol %g" % (pkkt, tol)
        if not last["feas_norm"] <= tol:
            return "final feas_norm %.3e > tol %g" % (last["feas_norm"], tol)
        return None


def run_pass(solver, argvs, call=None):
    """One pass over the workload: (solve seconds, iterations, trace rows)."""
    total_s, iters, traces = 0.0, 0, []
    for argv in argvs:
        dt, k, rows = solver.solve(argv, call)
        total_s += dt
        iters += k
        traces.append(rows)
    return total_s, iters, traces


def run_passes(seconds, one_pass):
    """Repeat ``one_pass`` while the next pass still fits in ``seconds``."""
    start = time.perf_counter()
    results = []
    while len(results) < MIN_PASSES or (
            (time.perf_counter() - start) * (1 + 1 / len(results)) <= seconds):
        results.append(one_pass(len(results)))
    return results


# ---------------------------------------------------------------------------
# Measurements outside the solve loop
# ---------------------------------------------------------------------------


def _python(code, *flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)


IMPORT_CODE = ("import time; t = time.perf_counter(); import opsplit.cli; "
               "print(repr(time.perf_counter() - t))")


LINOPS_IMPORT = re.compile(
    r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*opsplit\.linops$")


def import_seconds():
    """Time to import opsplit.cli in a fresh interpreter."""
    return float(_python(IMPORT_CODE).stdout)


def linops_import_seconds():
    """Cumulative import time of opsplit.linops (``-X importtime``)."""
    err = _python("import opsplit.cli", "-X", "importtime").stderr
    for line in err.splitlines():
        m = LINOPS_IMPORT.match(line)
        if m:
            return int(m.group(1)) * 1e-6
    return 0.0


def setup_builder(cli, argvs):
    """A callable that builds a pass's instances and scheme operators."""
    from opsplit import splitters

    def build_all():
        for argv in argvs:
            _, inst = cli.build_problem(cli.parse_descriptor(
                _opt(argv, "--problem")))
            builder = getattr(splitters, SCHEME_BUILDERS.get(
                _opt(argv, "--algorithm"), ""), None)
            if builder is not None:
                builder(inst)

    return build_all


def time_calls(fn, seconds):
    """Durations of back-to-back calls of ``fn`` for about ``seconds``."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import numpy
    import scipy
    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = "%s %s" % (cfg["Build Dependencies"]["blas"]["name"],
                          cfg["Build Dependencies"]["blas"]["version"])
    except (TypeError, KeyError):
        pass
    return ("python %s, numpy %s, scipy %s, BLAS %s, OPENBLAS_NUM_THREADS=%s, "
            "nproc %d" % (platform.python_version(), numpy.__version__,
                          scipy.__version__, blas,
                          os.environ["OPENBLAS_NUM_THREADS"], os.cpu_count()))


# ---------------------------------------------------------------------------
# Machine-speed probe
# ---------------------------------------------------------------------------
#
# The CPUs are shared with other guests: the same pass takes up to twice as
# long a few minutes later, and import and set-up slow down with it (CPU
# time tracks wall time).  Every round therefore also times a fixed probe,
# and each timing metric is reported at the probe's reference speed: measured
# seconds * PROBE_REF_S / the probe seconds around the measurement.  The probe
# is this file's code, so no change to opsplit moves it.  The measured seconds
# are printed as well.

PROBE_REF_S = 0.2
PROBE_LOOPS = 25_000         # small-vector interpreter work, as in the QP loops
PROBE_SVDS = 200             # 40x40 LAPACK work, as in the LRR proxes


def probe_seconds():
    """Wall time of a fixed mix of interpreter and dense linear-algebra work."""
    import numpy as np
    rng = np.random.default_rng(0)
    v, a = rng.standard_normal(13), rng.standard_normal((40, 40))
    t0 = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        u = v * 1.0001 + 0.5
        math.sqrt(float(np.dot(u, u)))
        v = u[::-1] * 0.5
    for _ in range(PROBE_SVDS):
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        (u * s) @ vt
    return time.perf_counter() - t0


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def untraced_run(cli, argvs, seconds, solver):
    """The end-to-end metrics: (metrics, lines).

    A round is one solve pass, one probe, set-up samples and, every few
    seconds, an import sample.  A pass is scaled by the mean of the probes
    before and after it, the other samples by the probe before them.
    """
    build_all = setup_builder(cli, argvs)
    build_all()
    import_seconds()  # fills the bytecode and file caches
    probes = [probe_seconds()]
    raw = {"solve_s": [], "setup_s": [], "import_s": []}
    scaled = {"solve_s": [], "setup_s": [], "import_s": []}
    last_import = [-IMPORT_EVERY_S]

    def record(name, value, probe):
        raw[name].append(value)
        scaled[name].append(value * PROBE_REF_S / probe)

    def one_round(_):
        pass_s, iters, _ = run_pass(solver, argvs)
        probes.append(probe_seconds())
        record("solve_s", pass_s, (probes[-2] + probes[-1]) / 2)
        record("setup_s", statistics.median(
            time_calls(build_all, SETUP_S_PER_ROUND)), probes[-1])
        if time.perf_counter() - last_import[0] >= IMPORT_EVERY_S:
            last_import[0] = time.perf_counter()
            record("import_s", import_seconds(), probes[-1])
        return iters

    passes = run_passes(seconds, one_round)
    iters = passes[0]
    med = {name: statistics.median(xs) for name, xs in scaled.items()}
    metrics = {
        "solve_s": (med["solve_s"], "s"),
        "setup_s": (med["setup_s"], "s"),
        "import_s": (med["import_s"], "s"),
        "iters": (iters, "count"),
        "ms_per_iter": (1e3 * med["solve_s"] / iters if iters else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = ["probe: median %.4f s over %d samples; times below are scaled to "
             "a probe of %.2f s" % (statistics.median(probes), len(probes),
                                    PROBE_REF_S)]
    lines += ["%s: median of %d, quartiles %.4g .. %.4g s; measured median "
              "%.4g s" % (name, len(scaled[name]), *_quartiles(scaled[name]),
                          statistics.median(raw[name])) for name in scaled]
    if len(set(passes)) > 1:
        lines.append("iteration counts differ between passes: %s"
                     % sorted(set(passes)))
    return metrics, lines


# ---------------------------------------------------------------------------
# Per-layer tracing
# ---------------------------------------------------------------------------


def _cert_bytes(result):
    """Computed bytes of the certificates a solver result retains."""
    seen, total = set(), 0
    records = getattr(getattr(result, "trace", None), "records", [])
    certs = [getattr(r, "cert", None) for r in records]
    for c in certs + list(getattr(result, "certs", [])):
        if c is not None and id(c) not in seen:
            seen.add(id(c))
            total += c.y.data.nbytes + c.v.data.nbytes
    return total + sum(e.nbytes for e in getattr(result, "eps_blocks", []))


def layer_targets(cert_sink):
    from layer_trace import Target

    def keep_cert(result):
        cert_sink.append(_cert_bytes(result))

    L, H, S, P, X = ("opsplit.linops", "opsplit.hpe_core", "opsplit.splitters",
                     "opsplit.padmm_ebb", "opsplit.prox_problems")
    return [
        Target("linops.metric_apply", L, "Metric.apply"),
        Target("linops.metric_solve", L, "Metric.solve"),
        Target("linops.block_access", L, "BlockPoint.block", count_only=True),
        Target("linops.block_access", L, "BlockPoint.set_block", count_only=True),
        Target("hpe_core.check_criterion", H, "check_criterion"),
        Target("hpe_core.extragradient_step", H, "extragradient_step"),
        Target("hpe_core.validate_metric_update", H, "validate_metric_update"),
        Target("hpe_core.run", H, "run", on_return=keep_cert),
        Target("hpe_core.export", H, "IterTrace.to_csv"),
        Target("hpe_core.export", H, "write_summary"),
        Target("hpe_core.export", H, "ergodic_series"),
        Target("splitters.fbhf.step", S, "fbhf_step"),
        Target("splitters.ppg.step", S, "ppg_step"),
        Target("splitters.condat-vu.step", S, "condat_vu_step"),
        Target("splitters.afbas-pd.step", S, "afbas_pd_step"),
    ] + [Target("splitters.build", S, b) for b in SCHEME_BUILDERS.values()] + [
        Target("padmm_ebb.block_sweep", P, "block_sweep"),
        Target("padmm_ebb.theta_range", P, "theta_range"),
        Target("padmm_ebb.pkkt_residual", P, "pkkt_residual"),
        Target("padmm_ebb.U_apply", P, "UOperator.apply"),
        Target("padmm_ebb.bb_update", P, "bb_metric_update"),
        Target("padmm_ebb.run", P, "run_padmm", on_return=keep_cert),
        Target("prox_problems.prox", X, "ProxFn.evaluate"),
        Target("prox_problems.value", X, "ProxFn.value"),
        Target("prox_problems.build", X, "gen_qp"),
        Target("prox_problems.build", X, "build_lrr"),
        Target("prox_problems.svd", "numpy.linalg", "svd", count_only=True),
        Target("prox_problems.svd", "scipy.linalg", "svd", count_only=True),
    ]


# per-layer metric -> (kind, span or counter name, unit)
#   self_s: median over traced passes of the span's self time per pass
#   per_iter: calls per solver iteration, over all traced passes
LAYER_METRICS = {
    "linops.metric_apply_per_iter": ("per_iter", "linops.metric_apply"),
    "linops.metric_solve_per_iter": ("per_iter", "linops.metric_solve"),
    "linops.metric_s": ("self_s", ("linops.metric_apply", "linops.metric_solve")),
    "linops.block_access_per_iter": ("per_iter", "linops.block_access"),
    "hpe_core.check_criterion_s": ("self_s", "hpe_core.check_criterion"),
    "hpe_core.check_criterion_per_iter": ("per_iter", "hpe_core.check_criterion"),
    "hpe_core.extragradient_step_s": ("self_s", "hpe_core.extragradient_step"),
    "hpe_core.extragradient_step_per_iter": ("per_iter",
                                             "hpe_core.extragradient_step"),
    "hpe_core.validate_metric_update_s": ("self_s",
                                          "hpe_core.validate_metric_update"),
    "hpe_core.run_self_s": ("self_s", "hpe_core.run"),
    "hpe_core.export_s": ("self_s", "hpe_core.export"),
    "splitters.fbhf.step_s": ("self_s", "splitters.fbhf.step"),
    "splitters.ppg.step_s": ("self_s", "splitters.ppg.step"),
    "splitters.condat-vu.step_s": ("self_s", "splitters.condat-vu.step"),
    "splitters.afbas-pd.step_s": ("self_s", "splitters.afbas-pd.step"),
    "splitters.build_s": ("self_s", "splitters.build"),
    "padmm_ebb.block_sweep_s": ("self_s", "padmm_ebb.block_sweep"),
    "padmm_ebb.theta_range_s": ("self_s", "padmm_ebb.theta_range"),
    "padmm_ebb.pkkt_residual_s": ("self_s", "padmm_ebb.pkkt_residual"),
    "padmm_ebb.U_apply_s": ("self_s", "padmm_ebb.U_apply"),
    "padmm_ebb.bb_update_s": ("self_s", "padmm_ebb.bb_update"),
    "padmm_ebb.run_self_s": ("self_s", "padmm_ebb.run"),
    "padmm_ebb.U_apply_per_iter": ("per_iter", "padmm_ebb.U_apply"),
    "padmm_ebb.sweeps_per_iter": ("per_iter", "padmm_ebb.block_sweep"),
    "prox_problems.prox_s": ("self_s", "prox_problems.prox"),
    "prox_problems.prox_per_iter": ("per_iter", "prox_problems.prox"),
    "prox_problems.svd_per_iter": ("per_iter", "prox_problems.svd"),
    "prox_problems.value_s": ("self_s", "prox_problems.value"),
    "prox_problems.build_s": ("self_s", "prox_problems.build"),
}


def objective_finite_frac(traces):
    """Finite rows of the ``objective`` trace column over rows that have it."""
    vals = [r["objective"] for rows in traces if rows for r in rows
            if "objective" in r]
    return sum(map(math.isfinite, vals)) / len(vals) if vals else 0.0


def traced_run(cli, argvs, seconds, solver, workload, seed):
    """Alternate untraced and traced passes; return (metrics, lines)."""
    from layer_trace import Tracer

    certs = []
    targets = layer_targets(certs)
    tracer = Tracer()
    base, traced, totals, traces, linops_import = [], [], [], [], []
    last_import, kept = [-IMPORT_EVERY_S], [0]

    def one_round(_):
        base.append(run_pass(solver, argvs)[0])
        tracer.install(targets)
        try:
            tracer.take_totals()
            dt, k, tr = run_pass(solver, argvs,
                                 call=lambda main, a: tracer.call("cli.solve", main, a))
        finally:
            tracer.uninstall()
        traced.append(dt)
        totals.append(tracer.take_totals())
        traces.extend(tr)
        if len(traced) == 1:
            kept[0] = len(tracer.spans)
        del tracer.spans[kept[0]:]  # the first traced pass shows every call
        if time.perf_counter() - last_import[0] >= IMPORT_EVERY_S:
            last_import[0] = time.perf_counter()
            linops_import.append(linops_import_seconds())
        return k

    iters = sum(run_passes(seconds, one_round))
    metrics = {}
    for name, (kind, span) in LAYER_METRICS.items():
        spans = span if isinstance(span, tuple) else (span,)
        if kind == "self_s":
            metrics[name] = (statistics.median(
                sum(t[0].get(s, 0.0) for s in spans) for t in totals), "s")
        else:
            calls = sum(t[1].get(s, 0) for t in totals for s in spans)
            metrics[name] = (calls / iters if iters else 0.0, "count/iter")
    metrics["linops.import_s"] = (statistics.median(linops_import), "s")
    metrics["hpe_core.cert_mb"] = (max(certs, default=0) / 2 ** 20, "MB")
    metrics["prox_problems.objective_finite_frac"] = (
        objective_finite_frac(traces), "ratio")
    b, t = statistics.median(base), statistics.median(traced)
    metrics["tracing.base_solve_s"] = (b, "s")
    metrics["tracing.traced_solve_s"] = (t, "s")
    metrics["tracing.overhead_s"] = (t - b, "s")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / ("spans-%s-seed%d.csv.gz" % (workload, seed))
    tracer.write_spans(span_file)
    lines = ["traced %d passes (each after an untraced one); the first "
             "pass's %d spans -> %s"
             % (len(traced), len(tracer.spans), span_file.relative_to(ROOT)),
             "tracing overhead %.4f s on a base of %.4f s per pass (%.1f%%)"
             % (t - b, b, 100.0 * (t - b) / b)]
    if tracer.absent:
        lines.append("absent targets (reported as 0): "
                     + ", ".join(tracer.absent))
    return metrics, lines


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace):
    if not (SRC / "opsplit" / "cli.py").is_file():
        sys.exit("perfbench: %s not found; run from an opsplit checkout"
                 % (SRC / "opsplit"))
    sys.path.insert(0, str(SRC))
    from opsplit import cli

    # One CPU for the run and the interpreters it starts, so that a probe
    # and the timing it scales see the same CPU's load.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    argvs = WORKLOADS[workload](seed)
    workdir = OUT / ("work-%s-%d" % (workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    solver = Solver(cli, workdir)
    start = time.perf_counter()
    try:
        if trace:
            metrics, lines = traced_run(cli, argvs, seconds, solver, workload, seed)
        else:
            metrics, lines = untraced_run(cli, argvs, seconds, solver)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(solver.failures)
    print("workload %s, seed %d, %s run of %.1f s: %d solves per pass, "
          "closed loop, 1 caller" % (workload, seed,
                                     "traced" if trace else "untraced",
                                     time.perf_counter() - start, len(argvs)))
    print("  " + environment())
    for line in lines:
        print("  " + line)
    for f in solver.failures:
        print("  FAILED " + f)
    printed = dict(metrics)
    if not trace:  # no JSON metric: a metric that reads 0 has no relative bound
        printed["fail_rate"] = (failed / solver.attempted, "ratio")
    for name, (value, unit) in printed.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    return {"correct": failed == 0, "attempted": solver.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(seed, seconds, trace):
    """Each workload in a fresh process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            sys.exit("perfbench: workload %s exited %d\n%s"
                     % (workload, out.returncode, out.stderr))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, k)] = v
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
