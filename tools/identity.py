"""Check that a change leaves every solve bitwise unchanged.

Run from a checkout:

    python3 tools/identity.py --against REV [--rel TOL]

The same battery of CLI solves (argv into ``opsplit.cli.main``) runs on the
files of ``REV`` (unpacked from ``git archive``) and on this checkout, one
process per tree.  Each run is compared on its exit code, its last line of
standard error, its trace CSV bytes without the ``time_s`` column and its
summary JSON without ``wall_time_s``.  One verdict line per run, then one
digest over every compared output; any mismatch exits 1.

With ``--rel TOL`` (for changes that must reorder rounding) exit codes,
stderr lines, trace headers and row counts and the summaries' iteration
counts must still match exactly; every other numeric trace column and
summary leaf passes while its largest relative deviation |a - b| /
max(|a|, |b|) is at most TOL.  A run over TOL is named with each column or
leaf over it and its deviation, and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
QP = "qp:seed=%d,p=2,n=5,m=3"
QP_OPTS = ["--tol", "1e-8", "--max-iters", "5000"]
LRR = "lrr:seed=%d,d=40,n=40"
LRR_OPTS = ["--beta", "300", "--tol", "1e-3", "--sigma", "0.9",
            "--max-iters", "3000"]
ALGORITHMS = ("padmm-ebb", "condat-vu", "ppg", "fbhf", "afbas-pd")
# summary leaves that only an exact match passes, in every mode
EXACT_LEAVES = ("iterations", "abort.iteration")


def _solve(algorithm, problem, *options):
    return ["--algorithm", algorithm, "--problem", problem, *options]


# (name, argv after "solve", without --trace and --summary)
BATTERY = (
    [("%s.qp%d" % (a, s), _solve(a, QP % s, *QP_OPTS))
     for a in ALGORITHMS for s in range(10)]
    + [("padmm-ebb.qp%d.full" % s,
        _solve("padmm-ebb", QP % s, *QP_OPTS, "--full-trace"))
       for s in range(10)]
    + [("padmm-ebb.qp%d.theta0" % s,
        _solve("padmm-ebb", QP % s, *QP_OPTS, "--theta", "0"))
       for s in range(10)]
    # other sigmas: every splitter's step or scales and its root move
    + [("%s.qp%d.sigma05" % (a, s), _solve(a, QP % s, *QP_OPTS, "--sigma",
                                           "0.5"))
       for a in ("condat-vu", "afbas-pd", "fbhf", "ppg") for s in range(3)]
    + [("%s.qp%d.sigma099" % (a, s), _solve(a, QP % s, *QP_OPTS, "--sigma",
                                            "0.99"))
       for a in ("fbhf", "ppg") for s in range(3)]
    + [("padmm-ebb.lrr%d%s" % (s, suffix),
        _solve("padmm-ebb", LRR % s, *LRR_OPTS, *extra))
       for s in range(3) for suffix, extra in (("", ()),
                                               (".full", ("--full-trace",)))]
    # d != n: the graphs over the columns and over the rows differ in size
    + [("padmm-ebb.lrr-rect", _solve("padmm-ebb", "lrr:seed=1,d=16,n=10",
                                     *LRR_OPTS))]
    + [("padmm-ebb.qp0.max-iters", _solve("padmm-ebb", QP % 0, "--tol",
                                          "1e-12", "--max-iters", "50")),
       # xi0 = 0: a constant schedule, whose Xi must stay exactly 1
       ("padmm-ebb.qp0.xi0", _solve("padmm-ebb", QP % 0, *QP_OPTS, "--xi0",
                                    "0")),
       # one column: L_Z = 0, so the Z block adds nothing to eps
       ("padmm-ebb.lrr-col", _solve("padmm-ebb", "lrr:seed=0,d=3,n=1")),
       ("padmm-ebb.abort", _solve("padmm-ebb", "qp:seed=1", "--beta", "100",
                                  "--sigma", "0.5", "--max-iters", "3")),
       ("padmm-ebb.beta-nan", _solve("padmm-ebb", "qp:seed=1", "--beta",
                                     "nan")),
       # the first metric fails: 1 / eta_0 underflows, 1 / beta overflows
       ("padmm-ebb.beta-huge", _solve("padmm-ebb", "qp:seed=1", "--beta",
                                      "1e308")),
       ("padmm-ebb.beta-tiny", _solve("padmm-ebb", "qp:seed=1", "--beta",
                                      "1e-320"))])


def collect(outdir, battery=BATTERY):
    """Run ``battery`` through the CLI of the importable ``opsplit``; write
    each run's trace and summary to ``outdir`` and the exit codes and last
    stderr lines to ``outdir/runs.json``."""
    from opsplit.cli import main

    outdir = pathlib.Path(outdir)
    runs = []
    for name, argv in battery:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["solve", *argv,
                         "--trace", str(outdir / (name + ".csv")),
                         "--summary", str(outdir / (name + ".json"))])
        lines = err.getvalue().strip().splitlines()
        runs.append({"name": name, "exit": code,
                     "stderr": lines[-1] if lines else ""})
    (outdir / "runs.json").write_text(json.dumps(runs, indent=1))


def _trace(path):
    """Header and rows of a trace CSV as lists of cells, time_s dropped."""
    if not path.exists():
        return None
    rows = [line.split(",") for line in
            path.read_bytes().decode().split("\r\n") if line]
    keep = [i for i, name in enumerate(rows[0]) if name != "time_s"]
    return [[row[i] for i in keep] for row in rows]


def _summary(path):
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    data.pop("wall_time_s", None)
    return data


def _leaves(data, prefix=""):
    if isinstance(data, dict):
        for key, val in data.items():
            yield from _leaves(val, prefix + key + ".")
    else:
        yield prefix[:-1], json.dumps(data)


def load(outdir):
    """Each run of ``collect``'s output as name -> comparable record."""
    outdir = pathlib.Path(outdir)
    records = {}
    for run in json.loads((outdir / "runs.json").read_text()):
        name = run["name"]
        records[name] = dict(run, trace=_trace(outdir / (name + ".csv")),
                             summary=_summary(outdir / (name + ".json")))
    return records


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def deviation(x, y):
    """|a - b| / max(|a|, |b|) of two trace cells or summary leaves read as
    numbers a and b: 0 when they are equal (two NaNs and equal infinities
    included), inf when they differ and either is no number."""
    if x == y:
        return 0.0
    a, b = _number(x), _number(y)
    if a is None or b is None:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    dev = abs(a - b) / max(abs(a), abs(b))
    return math.inf if math.isnan(dev) else dev


def deviations(a, b):
    """What differs between two records of one run, in order, as (group,
    name, largest relative deviation) triples; name is None for the groups
    "exit", "stderr" and "trace shape", and the deviation inf wherever only
    an exact match counts."""
    out = [(key, None, math.inf) for key in ("exit", "stderr")
           if a[key] != b[key]]
    ta, tb = a["trace"], b["trace"]
    if ta != tb:
        if ta and tb and len(ta) == len(tb) and ta[0] == tb[0]:
            cols = {}
            for row_a, row_b in zip(ta[1:], tb[1:]):
                for j, (x, y) in enumerate(zip(row_a, row_b)):
                    if x != y:
                        cols[j] = max(cols.get(j, 0.0), deviation(x, y))
            out += [("trace columns", ta[0][j], cols[j]) for j in sorted(cols)]
        else:
            out.append(("trace shape", None, math.inf))
    la, lb = (dict(_leaves(r["summary"] or {})) for r in (a, b))
    out += [("summary", key, math.inf if key in EXACT_LEAVES
             else deviation(la.get(key), lb.get(key)))
            for key in sorted(la.keys() | lb.keys())
            if la.get(key) != lb.get(key)]
    return out


def differences(a, b, rel=None):
    """What differs between two records of one run, as short phrases: every
    difference, or with ``rel`` only what deviates by more than ``rel``, each
    trace column and summary leaf with its largest relative deviation."""
    groups = {}
    for group, name, dev in deviations(a, b):
        if rel is None or dev > rel:
            names = groups.setdefault(group, [])
            if name is not None:
                names.append(name if rel is None or dev == math.inf
                             else "%s %.2e" % (name, dev))
    return [" ".join([group, ", ".join(names)]).strip()
            for group, names in groups.items()]


def digest(records):
    h = hashlib.sha256()
    for name in sorted(records):
        h.update(json.dumps(records[name], sort_keys=True).encode())
    return h.hexdigest()


def compare(dir_a, dir_b, out=sys.stdout, rel=None):
    """Print one verdict per run and the digest; True when every run is
    identical or, with ``rel``, within ``rel`` of it."""
    ra, rb = load(dir_a), load(dir_b)
    names = list(ra) + [name for name in rb if name not in ra]
    verdicts = []
    for name in names:
        a, b = ra.get(name), rb.get(name)
        diff = differences(a, b, rel) if a and b else ["missing on one side"]
        iters = "/".join(str(r["summary"]["iterations"])
                         if r and r["summary"] else "-" for r in (a, b))
        detail = ": " + "; ".join(diff) if diff else ""
        verdicts.append("DIFFERS" if diff else
                        "identical" if a == b else "within")
        if verdicts[-1] == "within":
            detail = ": largest deviation %.2e" % max(
                dev for *_, dev in deviations(a, b))
        print("%-9s %-24s iters %s%s" % (verdicts[-1], name, iters, detail),
              file=out)
    da, db = digest(ra), digest(rb)
    within = ("" if rel is None else ", %d within %g"
              % (verdicts.count("within"), rel))
    print("%d runs, %d identical%s; digest %s"
          % (len(names), verdicts.count("identical"), within,
             da if da == db else da + " vs " + db), file=out)
    return "DIFFERS" not in verdicts


def _collect_tree(tree, outdir):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree) / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, str(pathlib.Path(__file__).resolve()),
                    "--collect", str(outdir)], env=env, cwd=tree, check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REV",
                       help="git revision to compare this checkout with")
    group.add_argument("--collect", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--rel", metavar="TOL", type=float, default=None,
                        help="pass numeric columns and leaves whose largest "
                             "relative deviation is at most TOL")
    args = parser.parse_args(argv)
    if args.rel is not None and not (math.isfinite(args.rel)
                                     and args.rel >= 0):
        parser.error("--rel must be finite and nonnegative")
    if args.collect:
        collect(args.collect)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        archive = subprocess.run(["git", "archive", args.against], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "base", filter="data")
        for tree, out in ((tmp / "base", tmp / "out-base"),
                          (ROOT, tmp / "out-head")):
            out.mkdir()
            _collect_tree(tree, out)
        return 0 if compare(tmp / "out-base", tmp / "out-head",
                            rel=args.rel) else 1


if __name__ == "__main__":
    sys.exit(main())
