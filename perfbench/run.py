"""End-to-end benchmark of the horobary p-barycenter maps.

Run from the repository root:

    python3 perfbench/run.py --workload extend-p --seed 1 --seconds 20 --trace 0

It imports the library from ``src/`` of the same checkout, builds seeded
inputs, times whole rounds of operations through the library's public
calls in this one single-threaded process until ``--seconds`` have passed,
checks every output (see checks.py), and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
tracer of tracing.py is installed and the metrics are the per-layer ones.
Each run also writes ``perfbench/results/<workload>-seed<n>-trace<t>.json``
and, when traced, the spans to ``trace-<workload>-seed<n>.json`` beside it.

The workloads, their inputs and why each was chosen are in README.md.
"""

import os

# set before numpy loads: BLAS and OpenMP run one thread, so wall time and
# CPU time measure the same single-threaded work
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

LIBRARY = ("hyperboloid", "measures", "sampling", "barycenter", "moebius", "extension", "cli")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    + "; ".join(f"import horobary.{m}" for m in LIBRARY)
    + "; print(time.perf_counter() - t)"
)
# set-up is repeated this many times per run and its median reported
SETUP_REPS = 3

# extend-inf keeps one named fault: in dim 3 at grid >= 128 the p = inf
# active-set polish uses up its iterations and minimize reports
# converged=False.  Which points fail depends on the point, so the failing
# inputs are fixed and do not depend on --seed: one map per grid from
# default_rng([FAULT_SEED, grid]) and the points
# random_space_point(default_rng([FAULT_SEED, grid, k]), 3) for the k below,
# each of which ends the polish at a gradient of 1e-3 or more.  Round r takes
# the r-th point of each list, so every round has exactly two failures.
FAULT_SEED = 7
FAULT_POINTS = {
    128: (4, 10, 16, 20, 21, 22, 24, 27, 30, 35, 48, 51, 52, 53, 58, 65, 67, 71, 76, 80,
          81, 85, 88, 91, 95, 98, 101, 103, 106, 114, 120, 121, 124, 133, 134, 136, 138,
          141, 142, 143),
    256: (0, 1, 4, 7, 8, 13, 15, 16, 17, 18, 19, 20, 24, 27, 28, 32, 34, 35, 36, 37, 40,
          41, 43, 46, 47, 48, 50, 53, 55, 56, 58, 59, 60, 64, 65, 66, 68, 69, 70, 72),
}

# op_tail_ms is the 90th percentile of operation time, which falls inside the
# slowest group of operations of every round and has about ten or more
# samples beyond it.  Higher percentiles read the stalls of the shared host more than
# the program (see README.md).  verify times fewer than 40 operations, too
# few for a tail, so it reports its median there.
TAIL_PERCENTILE = {"extend-p": 90, "extend-inf": 90, "project": 90, "verify": 50}


class Op:
    """One timed call, and the check of its output made after timing."""

    def __init__(self, label, call, check=None, failed=None):
        self.label = label
        self.call = call
        self.check = check  # output -> (check name, defect, tolerance)
        self.failed = failed  # output -> True when the named fault struck


def _import_library():
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        modules = {m: importlib.import_module(f"horobary.{m}") for m in LIBRARY}
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import horobary from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    where = Path(modules["cli"].__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: imported horobary from {where}, not from {SRC}")
    return modules, elapsed


def _probe_import():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# workloads

class Workload:
    def __init__(self, lib, checks, seed, workdir):
        self.lib = lib
        self.checks = checks
        self.seed = seed
        self.workdir = workdir
        np = lib["np"]
        self.rng_maps = np.random.default_rng([seed, 0])
        self.rng_points = np.random.default_rng([seed, 1])

    def build_grids(self, configs):
        origin = self.lib["hyperboloid"].origin
        uniform = self.lib["measures"].uniform_boundary_grid
        self.grids = {(d, n): uniform(n, origin(d)) for d, n in configs}

    def context(self, g, grid):
        L = self.lib
        dim = g.shape[0] - 1
        return L["extension"].ExtensionContext(
            L["moebius"].BoundaryMap("lorentz", g),
            self.grids[(dim, grid)],
            L["hyperboloid"].ModelConfig(dim),
        )

    def fresh_context(self, dim, grid):
        g = self.lib["sampling"].random_lorentz(self.rng_maps, dim=dim)
        return g, self.context(g, grid)

    def point(self, dim, radius):
        return self.lib["sampling"].random_space_point(self.rng_points, dim=dim, radius=radius)

    def extension_op(self, label, g, ctx, x, p, check):
        er = self.lib["extension"].extension_result
        return Op(label, lambda: er(ctx, x, p), lambda res: check(g, ctx, x, p, res))

    def check_naturality(self, g, ctx, x, p, res):
        c = self.checks
        return "naturality", c.image_defect(g, x.coords, res.minimizer.coords), c.NATURALITY_TOL


class ExtendP(Workload):
    """extension_result at p in {1, 2, 8, 64}, grids 64 and 256, dims 2 and 3.

    A round takes one fresh map per (dim, grid) and a fresh point per
    operation: two points at grid 64 for each one at grid 256, so that the
    median falls inside the grid-64 operations and the tail inside the
    grid-256 ones, never on the edge between them.
    """

    # (dim, grid, points per p)
    CONFIGS = ((2, 64, 2), (2, 256, 1), (3, 64, 2), (3, 256, 1))
    PS = (1.0, 2.0, 8.0, 64.0)
    # dim 3 stops at radius 1.5: beyond about 2 the Newton iteration now and
    # then stalls at a gradient of about 2e-8 and reports converged=False,
    # and beyond about 2.9 its line search can raise a math domain error
    # (see CHANGES.md)
    RADIUS = {2: 3.0, 3: 1.5}

    def setup(self):
        self.build_grids([(d, n) for d, n, _ in self.CONFIGS])

    def round(self, r):
        ops = []
        for d, n, reps in self.CONFIGS:
            g, ctx = self.fresh_context(d, n)
            for p in self.PS:
                for _ in range(reps):
                    x = self.point(d, self.RADIUS[d])
                    check = self.check_closed_form if p == 1.0 else self.check_gradient
                    ops.append(self.extension_op(f"d{d}-g{n}-p{p:g}", g, ctx, x, p, check))
        return ops

    def check_closed_form(self, g, ctx, x, p, res):
        c, mu = self.checks, ctx.base_measure
        defect = c.closed_form_defect(g, x.coords, mu.coords, mu.weights, res.minimizer.coords)
        return "p1-closed-form", defect, c.CLOSED_FORM_TOL

    def check_gradient(self, g, ctx, x, p, res):
        c, mu = self.checks, ctx.base_measure
        defect = c.gradient_defect(g, x.coords, mu.coords, mu.weights, p, res.minimizer.coords)
        return "energy-gradient", defect, c.GRADIENT_TOL


class ExtendInf(Workload):
    """extension_result at p = inf, grids 64 and 256 in dim 2 and 64 to 256
    in dim 3; the dim-3 operations at grids 128 and 256 are the named fault.

    Dim 2 stops at grid 256: from grid 512 on, the polish of some points
    runs its 100 iterations over a KKT system as large as the grid, and one
    such point (4.9 s at grid 512, 43 s at grid 1024) outweighs a whole run
    (see CHANGES.md).
    """

    CONFIGS = ((2, 64), (2, 256), (3, 64))
    # dim 3 stops at radius 1.5: farther out, the 64-atom grid leaves gaps
    # that move the discrete circumcenter off g x (see CHANGES.md)
    RADIUS = {2: 3.0, 3: 1.5}

    def setup(self):
        self.build_grids(list(self.CONFIGS) + [(3, n) for n in FAULT_POINTS])
        np = self.lib["np"]
        self.fault_maps = {}
        for n in FAULT_POINTS:
            g = self.lib["sampling"].random_lorentz(np.random.default_rng([FAULT_SEED, n]), dim=3)
            self.fault_maps[n] = (g, self.context(g, n))

    def round(self, r):
        np = self.lib["np"]
        ops = []
        for d, n in self.CONFIGS:
            g, ctx = self.fresh_context(d, n)
            x = self.point(d, self.RADIUS[d])
            ops.append(self.extension_op(f"d{d}-g{n}", g, ctx, x, math.inf, self.check_naturality))
        for n, ks in FAULT_POINTS.items():
            g, ctx = self.fault_maps[n]
            rng = np.random.default_rng([FAULT_SEED, n, ks[r % len(ks)]])
            x = self.lib["sampling"].random_space_point(rng, dim=3)
            op = self.extension_op(f"d3-g{n}-fault", g, ctx, x, math.inf, self.check_naturality)
            op.failed = lambda res: not res.converged
            ops.append(op)
        return ops


class Verify(Workload):
    """One in-process `horobary verify` on a fresh seed and output directory."""

    def setup(self):
        self.runs = []

    def round(self, r):
        out = self.workdir / f"verify-{r}"
        argv = ["verify", "--seed", str(self.seed * 10000 + r), "--out", str(out)]
        self.runs.append((argv, out))
        main = self.lib["cli"].main
        return [Op("verify", lambda: main(argv), lambda code: self.check_report(code, out))]

    def check_report(self, code, out):
        bad = code != 0 or bool(self.checks.verify_report_failures(out / "verify.json"))
        return "verify-report", float(bad), 0.0

    def repeat_check(self):
        """Re-run the first operation's seed untimed: the report must come
        out byte-identical."""
        argv, out = self.runs[0]
        again = self.workdir / "verify-repeat"
        code = self.lib["cli"].main(argv[:-1] + [str(again)])
        try:
            same = (out / "verify.json").read_bytes() == (again / "verify.json").read_bytes()
        except FileNotFoundError:
            same = False
        return "verify-repeat", float(code != 0 or not same), 0.0


class Project(Workload):
    """nearest_visual_projection of the pushed metric of x under a fresh
    Lorentz map, from a start 0.3 away from g x, in dims 2 and 3.

    A round projects twice in dim 2 for each time in dim 3, so that the
    median falls inside the dim-2 operations and the tail inside the
    dim-3 ones.
    """

    DIMS = (2, 2, 3)

    def setup(self):
        pass

    def round(self, r):
        L = self.lib
        hyp, mob = L["hyperboloid"], L["moebius"]
        ops = []
        for d in self.DIMS:
            g = L["sampling"].random_lorentz(self.rng_maps, dim=d)
            x = self.point(d, 3.0)
            gx = hyp.SpacePoint(g @ x.coords)
            v = L["sampling"].random_tangent_vector(self.rng_points, gx)
            cfg = L["barycenter"].SolverConfig(initial=hyp.exp_map(gx, 0.3 * v))
            rho = mob.MoebiusMetric(x, mob.BoundaryMap("lorentz", g))

            def call(rho=rho, cfg=cfg):
                return mob.nearest_visual_projection(rho, cfg=cfg)

            def check(z, g=g, x=x):
                c = self.checks
                return "projection", c.image_defect(g, x.coords, z.coords), c.PROJECTION_TOL

            ops.append(Op(f"d{d}", call, check))
        return ops


WORKLOADS = {"extend-p": ExtendP, "extend-inf": ExtendInf, "verify": Verify, "project": Project}


# ---------------------------------------------------------------------------
# measurement

def _percentile(values, q):
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


def run(args):
    modules, import_s = _import_library()
    import numpy as np

    sys.path.insert(0, str(BENCH))
    import checks
    import tracing

    lib = dict(modules, np=np)
    workdir = RESULTS / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _measure(args, lib, checks, tracing, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, lib, checks, tracing, import_s, workdir):
    loadavg = os.getloadavg()
    imports = [import_s] + [_probe_import() for _ in range(SETUP_REPS - 1)]
    builds = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](lib, checks, args.seed, workdir)
        workload.setup()
        builds.append(time.perf_counter() - start)
    setup_s = statistics.median(i + b for i, b in zip(imports, builds))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install({m: lib[m] for m in LIBRARY})

    done = []  # (op, output or None, seconds, cpu seconds, error)
    round_s, round_cpu_s = [], []  # summed over the operations of each round
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < args.seconds:
        first = len(done)
        for op in workload.round(len(round_s)):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = tracer.run_op(op.label, op.call) if tracer else op.call()
                err = None
            except Exception as exc:  # a crash counts as a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            done.append((op, out, time.perf_counter() - t0, time.process_time() - c0, err))
        round_s.append(sum(d[2] for d in done[first:]))
        round_cpu_s.append(sum(d[3] for d in done[first:]))
    timed_s = time.perf_counter() - start
    ops_per_round = len(done) // len(round_s)
    if tracer:
        tracer.uninstall()

    failures, worst, wrong = [], {}, []
    for op, out, _, _, err in done:
        if err is not None or (op.failed is not None and op.failed(out)):
            failures.append(op.label if err is None else f"{op.label}: {err}")
            continue
        if op.check is not None:
            name, defect, tol = op.check(out)
            worst[name] = max(worst.get(name, 0.0), defect)
            if not defect <= tol:
                wrong.append(f"{op.label}: {name} {defect:.3e} > {tol:g}")
    if isinstance(workload, Verify):
        name, defect, tol = workload.repeat_check()
        worst[name] = defect
        if not defect <= tol:
            wrong.append("verify: repeated seed gave a different report")

    # every round times the same mix of operations, so the median round is
    # the steadiest base for throughput and CPU cost
    times = [t for _, _, t, _, _ in done]
    ops_per_s = ops_per_round / statistics.median(round_s)
    if tracer:
        metrics = tracer.layer_metrics()
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
            "op_tail_ms": {
                "value": 1e3 * _percentile(times, TAIL_PERCENTILE[args.workload]),
                "unit": "ms",
            },
            "cpu_ms_per_op": {
                "value": 1e3 * statistics.median(round_cpu_s) / ops_per_round,
                "unit": "ms",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    summary = {
        "correct": not wrong,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": metrics,
    }
    _write_results(args, lib, summary, tracer, {
        "loadavg_at_start": loadavg,
        "rounds": len(round_s),
        "round_s": round_s,
        "timed_s": timed_s,
        "ops_per_s": ops_per_s,
        "setup": {"import_s": imports, "build_s": builds},
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "worst_defects": worst,
        "wrong": wrong,
        "failures": failures,
        "op_ms": [[op.label, 1e3 * t] for op, _, t, _, _ in done],
    })
    for line in wrong:
        print("perfbench: wrong output:", line, file=sys.stderr)
    return summary


def _write_results(args, lib, summary, tracer, details):
    np = lib["np"]
    import scipy

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        },
        **details,
        "result": summary,
    }
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        spans = {"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans,
                 "counts": dict(tracer.counts), "ops": tracer.ops}
        (RESULTS / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    summary = run(args)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
