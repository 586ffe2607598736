"""Batch driver: configure (family, N, K, bounds), run verification
suites, solve R-matrices, and emit deterministic JSON reports.

Subcommands: build, verify, solve-r, qdet, report-merge.  Reports carry
"schema": 1 and are byte-identical for a fixed config and seed; timing
goes to stderr so it never perturbs the report bytes.  Exit code 0 means
every executed check passed; 2 is a usage error; 3 means the requested
bounds exceed the size guard.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction

import numpy as np

from .exact import TruncSeries, rat_to_str
from .freealg import NCPoly, gen_ijr
from .liealg import (
    InvalidAlgebra,
    build_lie,
    theta_value,
    vector_rep,
    verify_classical_presentation,
    verify_current_presentation,
    verify_extension_split,
    verify_yangian_module,
)
from .rmatrix import (
    NotProportional,
    RMat,
    check_qybe,
    check_unitarity,
    closed_form_r,
    expansion_check,
    proportional_to,
    solve_intertwiner,
)
from .yangian import (
    BoundsTooLarge,
    _check_members,
    central_monomial_certificate,
    closure,
    closure_for_query,
    is_in_ideal,
    pbw_count,
    qdet,
    rtt_relations,
    slice_dimension,
    symmetry_series,
    verify_fixed_point,
    verify_hopf,
    y_from_z,
    z_series,
)

SCHEMA = 1
SUITES = ("classical", "rmatrix", "rtt", "center", "pbw", "hopf",
          "fixedpoint", "qdet", "symmetry")

ZERO = Fraction(0)
ONE = Fraction(1)


class UsageError(ValueError):
    pass


class RunConfig:
    """Validated run parameters shared by the subcommands."""

    __slots__ = ("family", "N", "K", "L", "R_ord", "suite", "seed", "output")

    def __init__(self, family, N, K, L, R_ord, suite, seed, output):
        if family not in ("sl", "so", "sp"):
            raise UsageError("family must be one of sl, so, sp")
        if N is None or N < 2:
            raise UsageError("N >= 2 required")
        try:
            build_lie(family, N)
        except InvalidAlgebra as exc:
            raise UsageError(str(exc))
        if K is None or K < 2:
            raise UsageError("order K >= 2 required")
        if L is not None and L < 1:
            raise UsageError("len bound must be positive")
        if R_ord is not None and R_ord < 2:
            raise UsageError("sumr bound must be >= 2")
        suite = tuple(suite or ())
        for s in suite:
            if s not in SUITES:
                raise UsageError("unknown suite %r (choose from %s)"
                                 % (s, ", ".join(SUITES)))
        if "qdet" in suite and family != "sl":
            raise UsageError("suite qdet applies to sl only")
        if "symmetry" in suite and family == "sl":
            raise UsageError("suite symmetry applies to so/sp only")
        need_bounds = set(suite) - {"classical", "rmatrix"}
        if need_bounds and (L is None or R_ord is None):
            raise UsageError("suites %s need --len and --sumr"
                             % ", ".join(sorted(need_bounds)))
        self.family = family
        self.N = N
        self.K = K
        self.L = L
        self.R_ord = R_ord
        self.suite = suite
        self.seed = seed
        self.output = output

    def to_json(self):
        return {"family": self.family, "N": self.N, "K": self.K,
                "L": self.L, "R_ord": self.R_ord,
                "suite": list(self.suite), "seed": self.seed}


def _emit(report, output):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status(checks):
    return "pass" if all(c.get("status") == "pass" for c in checks) \
        else "fail"


# ---------------------------------------------------------------------------
# verification suites

def _suite_classical(cfg, ctx):
    data = build_lie(cfg.family, cfg.N)
    rep = vector_rep(data)
    return [verify_classical_presentation(data, rep),
            verify_current_presentation(data, rep, 3),
            verify_extension_split(data, rep),
            verify_yangian_module(data, rep)]


def _perturbed_r(R, rng):
    """Seed-derived non-solution: add c u^{-2} to one diagonal entry."""
    nn = R.N * R.N
    e = rng.randrange(nn)
    c = Fraction(rng.randint(1, 5))
    bump = np.zeros((1, nn, nn), dtype=np.int64)
    bump[0, e, e] = 1
    return R + RMat.from_poly(R.N, (ZERO, ZERO, ONE), bump, c), e, c


def _suite_rmatrix(cfg, ctx):
    R = closed_form_r(cfg.family, cfg.N)
    checks = []
    ok = check_qybe(R)
    checks.append({"check": "qybe", "family": cfg.family, "N": cfg.N,
                   "status": "pass" if ok else "fail", "details": {}})
    f = check_unitarity(R)
    checks.append({"check": "unitarity", "family": cfg.family, "N": cfg.N,
                   "status": "pass", "details": {"scalar": f.to_json()}})
    data = build_lie(cfg.family, cfg.N)
    checks.append(expansion_check(R, data, vector_rep(data)))
    rng = random.Random(cfg.seed)
    bad, entry, c = _perturbed_r(R, rng)
    bad_ok = check_qybe(bad)
    checks.append({
        "check": "qybe_negative_control", "family": cfg.family, "N": cfg.N,
        "status": "fail" if bad_ok else "pass",
        "details": {"perturbed_entry": entry, "bump": rat_to_str(c),
                    "qybe_held": bad_ok}})
    return checks


def _random_generator(cfg, rng):
    i = rng.randint(1, cfg.N)
    j = rng.randint(1, cfg.N)
    r = rng.randint(1, min(cfg.K, cfg.R_ord))
    return i, j, r


def _suite_rtt(cfg, ctx):
    pres, cl = ctx["pres"], ctx["cl"]
    rng = random.Random(cfg.seed)
    i, j, r = _random_generator(cfg, rng)
    gen_free = not is_in_ideal(cl, NCPoly.gen(i, j, r))
    fitting = sum(1 for p in pres.relations
                  if p.max_len() <= cl.L and p.max_sum_r() <= cl.R_ord)
    return [{
        "check": "rtt_closure", "family": cfg.family, "N": cfg.N,
        "K": cfg.K, "bounds": [cl.L, cl.R_ord],
        "status": "pass" if gen_free else "fail",
        "details": {"relations": len(pres.relations),
                    "relations_in_bounds": fitting,
                    "closure_rank": cl.rank,
                    "negative_control_generator": [i, j, r],
                    "generator_outside_ideal": gen_free}}]


def _suite_pbw(cfg, ctx):
    pres = ctx["pres"]
    lie = pres.lie
    rep = vector_rep(lie)
    checks = []
    for quotient in (False, True):
        cl = closure_for_query(pres, cfg.L, cfg.R_ord, quotient=quotient)
        sd = slice_dimension(cl, cfg.L, cfg.R_ord)
        pc = pbw_count(lie, rep, cfg.L, cfg.R_ord, quotient=quotient)
        checks.append({
            "check": "pbw_quotient" if quotient else "pbw_extended",
            "family": cfg.family, "N": cfg.N, "K": cfg.K,
            "bounds": [cfg.L, cfg.R_ord],
            "status": "pass" if sd == pc else "fail",
            "details": {"slice_dimension": sd, "pbw_count": pc,
                        "internal_bounds": [cl.L, cl.R_ord]}})
    return checks


def _with_retry(cfg, ctx, run):
    """Run a membership-based check on the run's closure and z-series; on
    failure, retry once at bounds (L+1, R_ord+1) before reporting
    (bound-relative non-membership can be an artifact of too-small
    bounds).  The enlarged closure and its z-series are built at most
    once per run and shared by every suite that retries."""
    checks = run(ctx["cl"], ctx["cs"])
    if _status(checks) == "pass":
        return checks
    if "retry" not in ctx:
        try:
            big = closure(ctx["pres"], cfg.L + 1, cfg.R_ord + 1,
                          quotient_mode=False)
        except BoundsTooLarge:
            ctx["retry"] = None
        else:
            ctx["retry"] = (big, z_series(big.pres, big))
    if ctx["retry"] is None:
        return checks
    retried = run(*ctx["retry"])
    for c in retried:
        c.setdefault("details", {})["retried_at_bounds"] = \
            [cfg.L + 1, cfg.R_ord + 1]
    return retried


def _first_order_image(lie, a, b):
    """gl_N matrix through which t_ab^(1) acts on the t^(s) by commutator
    at leading order: E_ab (sl) or E_ab − θ_ab E_{−b,−a} (so/sp), with
    a, b the 1-based positions of the generator indices."""
    m = np.zeros((lie.N, lie.N), dtype=int)
    m[a - 1, b - 1] += 1
    if lie.family != "sl":
        i, j = lie.indices[a - 1], lie.indices[b - 1]
        m[lie.pos(-j), lie.pos(-i)] -= theta_value(lie.family, i, j)
    return m


def _noncommuting_probe(lie, i, j):
    """Indices of a probe t_ab^(1) whose commutator with t_ij^(2) is
    nonzero at leading order: t_{1,2}^(1) if it qualifies, else the first
    qualifying (a, b) in row-major order.  Falls back to t_{1,2}^(1) when
    t_ij^(2) commutes with every first-order generator at leading order
    (so_N has such t_ij^(2), e.g. t_13^(2) in so_3, which the centrality
    negative control never draws)."""
    x = _first_order_image(lie, i, j)
    default = (1, 1 % lie.N + 1)
    candidates = [default] + [(a, b) for a in range(1, lie.N + 1)
                              for b in range(1, lie.N + 1)]
    for a, b in candidates:
        y = _first_order_image(lie, a, b)
        if (x @ y != y @ x).any():
            return a, b
    return default


def _perturbation_indices(lie, rng):
    """Seeded (i, j) whose t_ij^(2) has a nonzero leading-order image.
    so_N has t_ij with E_ij - θ_ij E_{-j,-i} = 0 (t_13 in so_3), which
    commute with every first-order probe; those are drawn again.  Every
    sl_N draw qualifies, so sl keeps its first draw."""
    while True:
        i = rng.randint(1, lie.N)
        j = rng.randint(1, lie.N)
        if _first_order_image(lie, i, j).any():
            return i, j


def _center_checks(cfg, cl, cs):
    pres = cl.pres
    checks = [cs.report]
    y_from_z(cs, pres.K - 1)
    checks.append({
        "check": "y_recursion", "family": cfg.family, "N": cfg.N,
        "K": pres.K, "status": "pass"
        if cs.report["details"].get("y_recursion_verified_to", -1) >= 0
        else "fail",
        "details": {"verified_to": cs.report["details"]
                    .get("y_recursion_verified_to"),
                    "y1": cs.y[1].to_json() if len(cs.y) > 1 else None}})
    if pres.K >= 3:
        checks.append(central_monomial_certificate(pres, cs))
    checks.append(_centrality_negative_control(cfg, cl, cs))
    return checks


def _centrality_negative_control(cfg, cl, cs):
    """z_2 plus a seeded t_ij^(2) must fail to commute with a probe."""
    pres = cl.pres
    i, j = _perturbation_indices(pres.lie, random.Random(cfg.seed))
    bad = cs.z[2] + NCPoly.gen(i, j, 2)
    t = NCPoly.gen(*_noncommuting_probe(pres.lie, i, j), 1)
    tested, _, failures = _check_members(cl, [("com", bad * t - t * bad)])
    if tested:
        central = not failures
        return {
            "check": "centrality_negative_control", "family": cfg.family,
            "N": cfg.N, "K": pres.K,
            "status": "fail" if central else "pass",
            "details": {"perturbation_generator": [i, j, 2],
                        "perturbed_element_central": central}}
    return {
        "check": "centrality_negative_control", "family": cfg.family,
        "N": cfg.N, "K": pres.K, "status": "pass",
        "details": {"skipped_out_of_bounds": True}}


def _suite_center(cfg, ctx):
    return _with_retry(cfg, ctx, lambda cl, cs: _center_checks(cfg, cl, cs))


def _suite_hopf(cfg, ctx):
    return _with_retry(cfg, ctx, lambda cl, cs: [
        verify_hopf(cl.pres, cl, cs, orders=min(3, cfg.K),
                    max_relations=50)])


def _suite_fixedpoint(cfg, ctx):
    fs = [TruncSeries([ONE, ONE]), TruncSeries([ONE, ONE, ONE])]
    return _with_retry(cfg, ctx, lambda cl, cs: [
        verify_fixed_point(cl.pres, cl, cs, f, orders=2) for f in fs])


def _suite_qdet(cfg, ctx):
    return _with_retry(cfg, ctx, lambda cl, cs: [qdet(cl.pres, cl, cs)[1]])


def _suite_symmetry(cfg, ctx):
    return _with_retry(cfg, ctx, lambda cl, cs: [
        symmetry_series(cl.pres, cl, cs)[1]])


_SUITE_FNS = {
    "classical": _suite_classical,
    "rmatrix": _suite_rmatrix,
    "rtt": _suite_rtt,
    "center": _suite_center,
    "pbw": _suite_pbw,
    "hopf": _suite_hopf,
    "fixedpoint": _suite_fixedpoint,
    "qdet": _suite_qdet,
    "symmetry": _suite_symmetry,
}


def cmd_verify(cfg):
    t0 = time.monotonic()
    ctx = {}
    need_algebra = set(cfg.suite) - {"classical", "rmatrix"}
    if need_algebra:
        ctx["pres"] = rtt_relations(cfg.family, cfg.N, cfg.K)
        if need_algebra - {"pbw"}:
            ctx["cl"] = closure(ctx["pres"], cfg.L, cfg.R_ord)
        if need_algebra - {"pbw", "rtt"}:
            # one z-series per closure, shared by the suites that need it
            ctx["cs"] = z_series(ctx["pres"], ctx["cl"])
    checks = [c for s in SUITES if s in cfg.suite
              for c in _SUITE_FNS[s](cfg, ctx)]
    report = {"schema": SCHEMA, "command": "verify",
              "config": cfg.to_json(), "checks": checks,
              "status": _status(checks)}
    _emit(report, cfg.output)
    print("verify: %s in %.1fs" % (report["status"], time.monotonic() - t0),
          file=sys.stderr)
    return 0 if report["status"] == "pass" else 1


def cmd_build(cfg):
    pres = rtt_relations(cfg.family, cfg.N, cfg.K)
    details = {"relations": len(pres.relations),
               "clear_degree": pres.clear_degree}
    if cfg.L is not None and cfg.R_ord is not None:
        cl = closure(pres, cfg.L, cfg.R_ord)
        details["bounds"] = [cfg.L, cfg.R_ord]
        details["words"] = len(cl.id2word)
        details["closure_rank"] = cl.rank
    report = {"schema": SCHEMA, "command": "build",
              "config": cfg.to_json(), "status": "pass",
              "checks": [{"check": "build", "family": cfg.family,
                          "N": cfg.N, "K": cfg.K, "status": "pass",
                          "details": details}]}
    _emit(report, cfg.output)
    return 0


def cmd_solve_r(cfg):
    data = build_lie(cfg.family, cfg.N)
    rep = vector_rep(data)
    series = solve_intertwiner(data, rep, cfg.K)
    closed = closed_form_r(cfg.family, cfg.N)
    details = {"solution": series.to_json()}
    try:
        g = proportional_to(series, closed)
        details["ratio_to_closed_form"] = [rat_to_str(c) for c in g.coeffs]
        status = "pass"
    except NotProportional as exc:
        details["error"] = str(exc)
        status = "fail"
    report = {"schema": SCHEMA, "command": "solve-r",
              "config": cfg.to_json(), "status": status,
              "checks": [{"check": "solve_r", "family": cfg.family,
                          "N": cfg.N, "K": cfg.K, "status": status,
                          "details": details}]}
    _emit(report, cfg.output)
    return 0 if status == "pass" else 1


def cmd_qdet(cfg):
    if cfg.family != "sl":
        raise UsageError("qdet applies to sl only")
    if cfg.L is None or cfg.R_ord is None:
        raise UsageError("qdet needs --len and --sumr")
    pres = rtt_relations(cfg.family, cfg.N, cfg.K)
    cl = closure(pres, cfg.L, cfg.R_ord)
    cs = z_series(pres, cl)
    qd, rep = qdet(pres, cl, cs)
    rep["details"]["coefficients"] = [p.to_json() for p in qd.coeffs]
    report = {"schema": SCHEMA, "command": "qdet",
              "config": cfg.to_json(), "status": rep["status"],
              "checks": [rep]}
    _emit(report, cfg.output)
    return 0 if rep["status"] == "pass" else 1


def cmd_report_merge(inputs, output):
    reports = []
    for path in inputs:
        with open(path) as fh:
            reports.append(json.load(fh))
    status = "pass" if all(r.get("status") == "pass" for r in reports) \
        else "fail"
    merged = {"schema": SCHEMA, "command": "report-merge",
              "inputs": list(inputs), "reports": reports, "status": status}
    _emit(merged, output)
    return 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# argument handling

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="yangkit",
        description="Exact verification of R-matrix Yangian presentations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, suites=False):
        p.add_argument("--family", choices=("sl", "so", "sp"))
        p.add_argument("--n", type=int, dest="N")
        p.add_argument("--order", type=int, dest="K")
        p.add_argument("--len", type=int, dest="L")
        p.add_argument("--sumr", type=int, dest="R_ord")
        p.add_argument("--seed", type=int)
        p.add_argument("--output")
        p.add_argument("--config", help="JSON file with config fields; "
                       "command-line flags override it")
        if suites:
            p.add_argument("--suite", help="comma-separated subset of: "
                           + ",".join(SUITES))

    add_common(sub.add_parser("build", help="generate relations/closure"))
    add_common(sub.add_parser("verify", help="run verification suites"),
               suites=True)
    add_common(sub.add_parser("solve-r",
                              help="solve the intertwining equation"))
    add_common(sub.add_parser("qdet", help="quantum determinant report"))
    pm = sub.add_parser("report-merge", help="merge JSON reports")
    pm.add_argument("inputs", nargs="+")
    pm.add_argument("--output")
    return parser


_DEFAULTS = {"K": 3, "L": None, "R_ord": None, "seed": 0, "output": None,
             "suite": None}


def _parse_suite(text):
    return [s.strip() for s in text.split(",") if s.strip()]


def _check_file_config(merged):
    """Type-check the fields read from a config file (flags are already
    typed by argparse); bool is rejected where an integer is expected."""
    for key in ("N", "K", "L", "R_ord", "seed"):
        val = merged.get(key)
        if val is not None and type(val) is not int:
            raise UsageError("config field %s must be an integer, got %r"
                             % (key, val))
    if merged["output"] is not None and not isinstance(merged["output"], str):
        raise UsageError("config field output must be a string")
    suite = merged["suite"]
    if isinstance(suite, str):
        merged["suite"] = _parse_suite(suite)
    elif suite is not None and not (isinstance(suite, list) and all(
            isinstance(s, str) for s in suite)):
        raise UsageError("config field suite must be a list of strings or "
                         "a comma-separated string")


def _load_config(args, default_suite):
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError("cannot read config file: %s" % exc)
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        for key in ("family", "N", "K", "L", "R_ord", "suite", "seed",
                    "output"):
            if key in file_cfg:
                merged[key] = file_cfg[key]
        _check_file_config(merged)
    for key in ("family", "N", "K", "L", "R_ord", "seed", "output"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    suite_arg = getattr(args, "suite", None)
    if suite_arg is not None:
        merged["suite"] = _parse_suite(suite_arg)
    suite = merged.get("suite") or default_suite
    if not suite:
        raise UsageError("suite must be nonempty")
    if "family" not in merged or merged.get("family") is None:
        raise UsageError("--family is required")
    if merged.get("N") is None:
        raise UsageError("--n is required")
    return RunConfig(merged["family"], merged["N"], merged["K"],
                     merged["L"], merged["R_ord"], suite,
                     merged.get("seed") or 0, merged.get("output"))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report-merge":
            return cmd_report_merge(args.inputs, args.output)
        # build/solve-r/qdet validate their own inputs; the placeholder
        # suite only satisfies the nonempty-suite invariant
        default = {"build": ["classical"], "verify": None,
                   "solve-r": ["rmatrix"], "qdet": ["classical"]}[args.command]
        if args.command == "verify" and getattr(args, "suite", None) is None \
                and not getattr(args, "config", None):
            default = ["classical", "rmatrix"]
        cfg = _load_config(args, default)
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "solve-r":
            return cmd_solve_r(cfg)
        if args.command == "qdet":
            return cmd_qdet(cfg)
        raise UsageError("unknown command %r" % (args.command,))
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except BoundsTooLarge as exc:
        print("bounds too large: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
