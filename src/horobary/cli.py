"""Command-line driver: seeded experiment and audit runs with JSON/CSV reports.

Configuration comes from an optional JSON file plus flag overrides; every
run writes its reports atomically and exits 0 only when all checks pass,
2 on malformed configuration, 3 on solver non-convergence.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .barycenter import (
    BUSEMANN_MODE,
    COSH_MODE,
    ObjectiveSpec,
    flow_limit_experiment,
    minimize,
    p_limit_experiment,
)
from .extension import (
    ExtensionContext,
    _argmax_set,
    _audit,
    _derivative_residual,
    _extension_result,
    _lipschitz_rows,
    _main_inequality,
    _mu_x_p,
    _round_trips,
    _sides,
    conjugated_measure,
    extension_result,
    hull_certificate,
)
from .hyperboloid import ModelConfig, SpacePoint, dist, exp_map, origin, tangent_basis
from .measures import (
    DiscreteMeasure,
    measure_from_dict,
    pushforward_qx,
    uniform_boundary_grid,
    write_atomic,
    write_csv,
)
from .moebius import BoundaryMap, cross_ratio_deviation, map_from_dict, probe_quadruples
from .sampling import random_lorentz, random_space_point

COMMANDS = (
    "barycenter",
    "circumcenter",
    "extend",
    "converge-p",
    "converge-flow",
    "audit",
    "verify",
)
DEFAULT_P_SCHEDULE = (1.0, 2.0, 8.0, 64.0)
DEFAULT_T_SCHEDULE = tuple(float(t) for t in range(1, 11))
CONVERGENCE_TOL = 1e-3
NATURALITY_TOL = 1e-6
GATE_FLOOR = 1e-3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One experiment run: a command plus its model, inputs, and schedules."""

    command: str
    model: ModelConfig = field(default_factory=ModelConfig)
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    grid_n: int = 64
    p_schedule: tuple = DEFAULT_P_SCHEDULE
    t_schedule: tuple = DEFAULT_T_SCHEDULE
    out: str = "reports"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; choose from {COMMANDS}")
        if self.grid_n < 2:
            raise ConfigError("grid_n must be at least 2")
        for name, schedule in (("p_schedule", self.p_schedule), ("t_schedule", self.t_schedule)):
            vals = list(schedule)
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")


CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")


def _config_from_sources(args):
    raw = {}
    if args.config:
        data = _load_json(args.config)
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
        unknown = set(data) - CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw.update(data)
    if args.command:
        if "command" in raw and raw["command"] != args.command:
            raise ConfigError(
                f"config says command {raw['command']!r} but {args.command!r} was given"
            )
        raw["command"] = args.command
    if "command" not in raw:
        raise ConfigError("no command: pass one as an argument or in the config file")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.grid is not None:
        raw["grid_n"] = args.grid
    if args.out is not None:
        raw["out"] = args.out
    model = raw.get("model", {})
    if not isinstance(model, dict):
        raise ConfigError("model must be an object with dim and b")
    try:
        raw["model"] = ModelConfig(int(model.get("dim", 2)), float(model.get("b", 1.0)))
    except ValueError as exc:
        raise ConfigError(f"bad model: {exc}")
    for key in ("p_schedule", "t_schedule"):
        if key in raw:
            raw[key] = tuple(float(v) for v in raw[key])
    if "inputs" in raw and not isinstance(raw["inputs"], dict):
        raise ConfigError("inputs must be an object mapping names to file paths")
    return RunConfig(**raw)


def _config_hash(cfg):
    # where the reports go is not part of what was run
    payload = asdict(cfg)
    del payload["out"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# report plumbing

def _report(cfg, name, summary, header=None, rows=None):
    """Write <name>.json, the run header plus the summary, and <name>.csv
    when there is a table."""
    if header is not None:
        write_csv(os.path.join(cfg.out, f"{name}.csv"), header, rows)
    record = {"command": cfg.command, "config_hash": _config_hash(cfg), "seed": cfg.seed, **summary}
    # numpy scalars and arrays are written as the Python values they hold
    text = json.dumps(record, indent=2, sort_keys=True, default=lambda v: v.tolist())
    write_atomic(os.path.join(cfg.out, f"{name}.json"), text + "\n")


def _columns(prefix, cfg):
    return [f"{prefix}_{i}" for i in range(cfg.model.dim + 1)]


# ---------------------------------------------------------------------------
# shared inputs

def _input(cfg, key, parse):
    """The input file named under inputs[key], read by parse; None when the
    config names none."""
    path = cfg.inputs.get(key)
    if path is None:
        return None
    try:
        return parse(_load_json(path))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _points_from_dict(data):
    rows = data.get("points") if isinstance(data, dict) else None
    if rows is None:
        raise ValueError("expected an object with a 'points' array")
    try:
        return [SpacePoint(np.array(row, float)) for row in rows]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad point row: {exc}") from exc


def _measure_or_random_points(cfg):
    # the input measure, or five seeded random points with equal weights
    mu = _input(cfg, "measure", measure_from_dict)
    if mu is None:
        (rng,) = _case_rngs(cfg, 1)
        mu = DiscreteMeasure.from_atoms(
            [random_space_point(rng, dim=cfg.model.dim) for _ in range(5)]
        )
    return mu


def _tangent_input(cfg):
    # the input measure, or the symmetric tangent measure at the origin
    nu = _input(cfg, "measure", measure_from_dict)
    if nu is None:
        o = origin(cfg.model.dim)
        nu = pushforward_qx(uniform_boundary_grid(cfg.grid_n, o), o)
    if nu.kind != "tangent":
        raise ConfigError(f"{cfg.command} needs a tangent measure")
    return nu


def _case_rngs(cfg, n):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(n)]


def _dump_failure(cfg, payload):
    _report(cfg, "nonconvergence", payload)
    return EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# commands

def _run_barycenter(cfg, scale):
    mu = _measure_or_random_points(cfg)
    schedule = [p for p in cfg.p_schedule if math.isfinite(p)]
    rows = []
    for p in schedule:
        res = minimize(ObjectiveSpec(p, COSH_MODE, mu))
        if not res.converged:
            return _dump_failure(cfg, {"p": p, "grad_norm": res.grad_norm})
        rows.append((p, *res.minimizer.coords, res.value, res.grad_norm, res.iterations))
    header = ["p", *_columns("coord", cfg), "value", "grad_norm", "iterations"]
    summary = {"atoms": len(mu), "schedule": schedule, "pass": True}
    _report(cfg, "barycenter", summary, header, rows)
    return EXIT_OK


def _run_circumcenter(cfg, scale):
    mu = _measure_or_random_points(cfg)
    mode = BUSEMANN_MODE if mu.kind == "tangent" else COSH_MODE
    res = minimize(ObjectiveSpec(math.inf, mode, mu))
    if not res.converged:
        return _dump_failure(cfg, {"grad_norm": res.grad_norm})
    header = [*_columns("coord", cfg), "value", "grad_norm", "iterations"]
    rows = [(*res.minimizer.coords, res.value, res.grad_norm, res.iterations)]
    _report(cfg, "circumcenter", {"atoms": len(mu), "pass": True}, header, rows)
    return EXIT_OK


def _run_extend(cfg, scale):
    f = _input(cfg, "map", map_from_dict)
    if f is None:
        raise ConfigError("extend needs an input boundary map under inputs.map")
    points = _input(cfg, "points", _points_from_dict)
    if points is None:
        (rng,) = _case_rngs(cfg, 1)
        points = [random_space_point(rng, dim=cfg.model.dim) for _ in range(10)]
    ctx = ExtensionContext(f, uniform_boundary_grid(cfg.grid_n, origin(cfg.model.dim)), cfg.model)
    rows = []
    for i, x in enumerate(points):
        res = extension_result(ctx, x, math.inf)
        if not res.converged:
            return _dump_failure(cfg, {"case": i, "point": list(x.coords), "grad_norm": res.grad_norm})
        rows.append((i, *x.coords, *res.minimizer.coords, res.grad_norm))
    header = ["case", *_columns("x", cfg), *_columns("image", cfg), "grad_norm"]
    summary = {"cases": len(points), "grid_n": cfg.grid_n, "pass": True}
    _report(cfg, "extend", summary, header, rows)
    return EXIT_OK


def _run_converge_p(cfg, scale):
    nu = _tangent_input(cfg)
    schedule = [p for p in cfg.p_schedule if math.isfinite(p)]
    table = p_limit_experiment(nu, schedule)
    table.write_csv(os.path.join(cfg.out, "converge_p.csv"))
    final = table.rows[-2][2] if len(table.rows) >= 2 else 0.0
    tol = CONVERGENCE_TOL * scale
    ok = final <= tol
    summary = {"schedule": schedule, "final_distance": final, "tolerance": tol, "pass": ok}
    _report(cfg, "converge_p", summary)
    return EXIT_OK if ok else EXIT_NONCONVERGENCE


def _run_converge_flow(cfg, scale):
    nu = _tangent_input(cfg)
    p = next((q for q in cfg.p_schedule if math.isfinite(q)), 2.0)
    table = flow_limit_experiment(nu, p, list(cfg.t_schedule))
    table.write_csv(os.path.join(cfg.out, "converge_flow.csv"))
    distances = [row[2] for row in table.rows]
    tol = CONVERGENCE_TOL * scale
    ok = distances[-1] <= tol
    tail_monotone = all(b <= a + 1e-12 for a, b in zip(distances[-3:], distances[-2:]))
    summary = {
        "p": p,
        "final_distance": distances[-1],
        "tail_monotone": tail_monotone,
        "tolerance": tol,
        "pass": ok,
    }
    _report(cfg, "converge_flow", summary)
    return EXIT_OK if ok else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# audit battery

def _random_pair_ctx(cfg, rng):
    g = random_lorentz(rng, dim=cfg.model.dim)
    grid = uniform_boundary_grid(cfg.grid_n, origin(cfg.model.dim))
    return ExtensionContext(BoundaryMap("lorentz", g), grid, cfg.model), g


def _gate_suite():
    warped = BoundaryMap("perturbed", np.eye(3), np.array([0.1]))
    deviation = cross_ratio_deviation(warped, probe_quadruples())
    try:
        ExtensionContext(warped, uniform_boundary_grid(8, origin(2)))
        rejected = False
    except ValueError:
        rejected = True
    violation = GATE_FLOOR - deviation if rejected else math.inf
    return {**_audit("gate-rejection", [violation], 0.0), "deviation": deviation}


def _balance_suite(cases):
    return _audit("balance", [case["mu64"][1].residual for case in cases], 1e-8)


def _hull_violation(case):
    ctx, x, y, foots = case["ctx"], case["x"], case["image"], case["foots"]
    bad = hull_certificate(_argmax_set(ctx, x, foots, y)).min_norm
    off = exp_map(y, 0.5 * tangent_basis(y)[0])
    aset = _argmax_set(ctx, x, foots, off)
    cert_off = hull_certificate(aset)
    if cert_off.feasible or cert_off.separator is None:
        return math.inf
    dots = [
        -row[0] * cert_off.separator[0] + row[1:] @ cert_off.separator[1:]
        for row in aset.image_dirs
    ]
    if min(dots) <= 0.0:
        return math.inf
    return bad


def _hull_suite(cases):
    return _audit("hull-certificate", [_hull_violation(case) for case in cases], 1e-9)


def _naturality_suite(cases):
    errs = [dist(case["image"], SpacePoint(case["g"] @ case["x"].coords)) for case in cases]
    return _audit("naturality", errs, NATURALITY_TOL)


def _derivative_suite(cases):
    # the two sides of each central difference are conjugated once for all
    # three exponents, and p = 64 takes mu_x_p from the balance suite
    h = 1e-3
    probes = []
    for case in cases[:2]:
        v = tangent_basis(case["x"])[0]
        probes.append((case, v, _sides(case["ctx"], case["x"], v, h)))
    residuals = []
    for p in (4.0, 16.0, 64.0):
        for case, v, sides in probes:
            ctx, x = case["ctx"], case["x"]
            mu = case["mu64"] if p == 64.0 else _mu_x_p(ctx, x, case["foots"], p)
            residuals.append(_derivative_residual(ctx, x, v, p, h, mu, sides))
    return _audit("derivative-identity", residuals, 1e-4)


def _invariant_suites(cfg, pair_count=8):
    """The audit battery.  Each audited point is conjugated once, and its
    conjugated measure is handed to every suite that reads it."""
    rngs = _case_rngs(cfg, pair_count + 2)
    cases = []
    for rng in rngs[:pair_count]:
        ctx, g = _random_pair_ctx(cfg, rng)
        x = random_space_point(rng, dim=cfg.model.dim)
        foots = conjugated_measure(ctx, x)
        # the hull and naturality suites share one solve per case, and the
        # balance and derivative suites share mu_x_p at p = 64
        image = _extension_result(ctx, x, foots, math.inf).minimizer
        mu64 = _mu_x_p(ctx, x, foots, 64.0)
        cases.append({"ctx": ctx, "g": g, "x": x, "foots": foots, "image": image, "mu64": mu64})
    pair_rng = rngs[pair_count]
    shared_ctx, shared_g = _random_pair_ctx(cfg, rngs[pair_count + 1])
    # the displacement identity behind the inequality audit is exact only up
    # to the balance residual times the cosh-scale of the pair, so the pair
    # ball is kept small enough for the solver tolerance to clear the slack
    pairs = [
        (
            random_space_point(pair_rng, dim=cfg.model.dim, radius=1.5),
            random_space_point(pair_rng, dim=cfg.model.dim, radius=1.5),
        )
        for _ in range(pair_count)
    ]
    go = SpacePoint(shared_g @ origin(cfg.model.dim).coords)
    back = ExtensionContext(
        BoundaryMap("lorentz", np.linalg.inv(shared_g)),
        uniform_boundary_grid(cfg.grid_n, go),
        cfg.model,
    )
    # the inequality, Lipschitz and round-trip audits share one conjugated
    # measure per pair point, the last two also its p = inf solve
    foots = [
        (conjugated_measure(shared_ctx, x), conjugated_measure(shared_ctx, y)) for x, y in pairs
    ]
    images = [
        (
            _extension_result(shared_ctx, x, fx, math.inf).minimizer,
            _extension_result(shared_ctx, y, fy, math.inf).minimizer,
        )
        for (x, y), (fx, fy) in zip(pairs, foots)
    ]
    return [
        _gate_suite(),
        _balance_suite(cases),
        _hull_suite(cases),
        _naturality_suite(cases),
        _derivative_suite(cases),
        _main_inequality(shared_ctx, pairs, foots, 64.0, shared_ctx.model.b),
        _lipschitz_rows(pairs, images, shared_ctx.model.b),
        _round_trips(back, [x for x, _ in pairs], [fx for fx, _ in images]),
    ]


def _run_battery(cfg, scale):
    """audit and verify: the same suites with every tolerance scaled,
    written to <command>.json; verify leaves out the per-pair rows."""
    suites = _invariant_suites(cfg)
    for s in suites:
        s["tolerance"] *= scale
        s["pass"] = s["max_violation"] <= s["tolerance"]
    if cfg.command == "verify":
        suites = [{k: v for k, v in s.items() if k != "rows"} for s in suites]
    ok = all(s["pass"] for s in suites)
    _report(cfg, cfg.command, {"suites": suites, "pass": ok})
    return EXIT_OK if ok else 1


RUNNERS = {
    "barycenter": _run_barycenter,
    "circumcenter": _run_circumcenter,
    "extend": _run_extend,
    "converge-p": _run_converge_p,
    "converge-flow": _run_converge_flow,
    "audit": _run_battery,
    "verify": _run_battery,
}


def run(cfg, tolerance_scale=1.0):
    """Execute one configured run; returns the process exit status."""
    os.makedirs(cfg.out, exist_ok=True)
    return RUNNERS[cfg.command](cfg, tolerance_scale)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="horobary",
        description="seeded experiment and audit runs for boundary-map extensions",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="run this command")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="report directory (default: reports)")
    parser.add_argument("--seed", type=int, help="seed for random cases")
    parser.add_argument("--grid", type=int, help="base grid size")
    parser.add_argument(
        "--tolerance-scale", type=float, default=1.0, help="multiply audit tolerances"
    )
    args = parser.parse_args(argv)
    if args.tolerance_scale <= 0:
        parser.error("--tolerance-scale must be positive")
    try:
        cfg = _config_from_sources(args)
        code = run(cfg, args.tolerance_scale)
    except ConfigError as exc:
        print(f"horobary: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
