"""Batch driver: configure (family, N, K, bounds), run verification
suites, solve R-matrices, and emit deterministic JSON reports.

Subcommands: build, verify, solve-r, qdet, report-merge.  Reports carry
"schema": 1 and are byte-identical for a fixed config and seed; timing
goes to stderr so it never perturbs the report bytes.  Exit code 0 means
every executed check passed; 2 is a usage error; 3 means the requested
bounds exceed the size guard.
"""

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction

import numpy as np

from .exact import ONE, ZERO, TruncSeries, check_report, rat_to_str
from .freealg import NCPoly
from .liealg import (
    InvalidAlgebra,
    build_lie,
    checked_einsum,
    safe_matmul,
    vector_rep,
    verify_classical_presentation,
    verify_current_presentation,
    verify_extension_split,
    verify_yangian_module,
)
from .rmatrix import (
    NotProportional,
    RMat,
    UnitarityFailure,
    _combine,
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


def _emit(report, output, key="checks"):
    """Set the report's status from its ``key`` list, write the report to
    ``output`` (stdout if None) and return the exit code: 0 on "pass",
    1 on "fail"."""
    report["status"] = _status(report[key])
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["status"] == "pass" else 1


def _status(checks):
    return "pass" if all(c.get("status") == "pass" for c in checks) \
        else "fail"


# ---------------------------------------------------------------------------
# verification suites

def _suite_classical(cfg, ctx):
    data = build_lie(cfg.family, cfg.N)
    rep = vector_rep(data)
    return [verify_classical_presentation(data, rep),
            verify_current_presentation(data, rep),
            verify_extension_split(data, rep),
            verify_yangian_module(data, rep)]


def _perturbed_r(R, rng):
    """Seed-derived non-solution: add c u^{-2} to one diagonal entry e.
    With v the order of D at u = 0, k = max(0, 2 - v) and lcm(D, u^2) =
    u^k D, the sum is s u^k C(u) + c (D / u^(2 - k)) E_ee over u^k D.
    For every library R, D = u or u (u - kappa), so v = 1: s u^k C(u)
    vanishes at u = 0 and the bump does not, so entry (e, e) keeps the
    pole u^2 and u^k D is the lcm of the entry denominators when D is
    R's.  No polynomial gcd is taken."""
    nn = R.N * R.N
    e = rng.randrange(nn)
    c = Fraction(rng.randint(1, 5))
    D = R.den
    k = max(0, 2 - next(i for i, x in enumerate(D) if x))
    bump = np.zeros((nn, nn), dtype=np.int64)
    bump[e, e] = 1
    rows = [[] for _ in range(max(k + len(R.coeffs), len(D) - 2 + k))]
    for m, cm in enumerate(R.coeffs):
        rows[k + m].append((R.scale, cm))
    for j, d in enumerate(D[2 - k:]):
        rows[j].append((c * d, bump))
    C, s = _combine(rows, (nn, nn))
    return RMat(R.N, (ZERO,) * k + D, C, s), e, c


def _suite_rmatrix(cfg, ctx):
    R = closed_form_r(cfg.family, cfg.N)
    checks = [check_report("qybe", check_qybe(R), {}, cfg.family, cfg.N)]
    try:
        num, den = check_unitarity(R)
    except UnitarityFailure as exc:
        ok, details = False, {"error": str(exc)}
    else:
        ok, details = True, {"scalar": {
            "num": [rat_to_str(c) for c in num],
            "den": [rat_to_str(c) for c in den]}}
    checks.append(check_report("unitarity", ok, details, cfg.family, cfg.N))
    data = build_lie(cfg.family, cfg.N)
    checks.append(expansion_check(R, data, vector_rep(data)))
    rng = random.Random(cfg.seed)
    bad, entry, c = _perturbed_r(R, rng)
    bad_ok = check_qybe(bad)
    checks.append(check_report(
        "qybe_negative_control", not bad_ok,
        {"perturbed_entry": entry, "bump": rat_to_str(c),
         "qybe_held": bad_ok}, cfg.family, cfg.N))
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
    # t_ij^(r) fits the closure (r <= R_ord), so it is always tested
    _, _, outside = _check_members(cl, [("gen", NCPoly.gen(i, j, r))])
    gen_free = bool(outside)
    fitting = sum(1 for n, s in pres.relation_bounds
                  if n <= cl.L and s <= cl.R_ord)
    return [check_report(
        "rtt_closure", gen_free,
        {"relations": len(pres.relations),
         "relations_in_bounds": fitting,
         "closure_rank": cl.rank,
         "negative_control_generator": [i, j, r],
         "generator_outside_ideal": gen_free},
        cfg.family, cfg.N, cfg.K, cl.bounds)]


def _pbw_check(cfg, pres, rep, quotient):
    cl = closure_for_query(pres, cfg.L, cfg.R_ord, quotient=quotient)
    sd = slice_dimension(cl, cfg.L, cfg.R_ord)
    pc = pbw_count(pres.lie, rep, cfg.L, cfg.R_ord, quotient=quotient)
    return check_report(
        "pbw_quotient" if quotient else "pbw_extended", sd == pc,
        {"slice_dimension": sd, "pbw_count": pc,
         "internal_bounds": [cl.L, cl.R_ord]},
        cfg.family, cfg.N, cfg.K, [cfg.L, cfg.R_ord])


def _suite_pbw(cfg, ctx):
    # one closure per check, each freed before the next is built
    pres = ctx["pres"]
    rep = vector_rep(pres.lie)
    return [_pbw_check(cfg, pres, rep, q) for q in (False, True)]


def _with_retry(cfg, ctx, run):
    """Run a membership-based check on the run's z-series; on failure,
    retry once on the z-series of a larger closure before reporting
    (bound-relative non-membership can be an artifact of too-small
    bounds).  The retry closure has order R_ord+1 and length
    max(L+1, 2) + d - 1, d the clearing degree: like closure_for_query,
    it gives the letter-multiples of the degree-d cleared relations the
    extra length their cross-cancellations need.  ``retried_at_bounds``
    reports that closure's bounds.  The enlarged closure's z-series is
    built at most once per run and shared by every suite that retries."""
    checks = run(ctx["cs"])
    if _status(checks) == "pass":
        return checks
    if "retry" not in ctx:
        pres = ctx["pres"]
        try:
            big = closure(pres, max(cfg.L + 1, 2) + pres.clear_degree - 1,
                          cfg.R_ord + 1, quotient_mode=False)
        except BoundsTooLarge:
            ctx["retry"] = None
        else:
            ctx["retry"] = z_series(pres, big)
    if ctx["retry"] is None:
        return checks
    retried = run(ctx["retry"])
    for c in retried:
        c["details"]["retried_at_bounds"] = list(ctx["retry"].cl.bounds)
    return retried


def _first_order_image(lie, a, b):
    """sum_l ρ(X_l)_ab X^l, the element of g through which t_ab^(1) acts
    on the t^(s) by commutator at leading order, as an integer matrix
    over a dropped positive scale (a, b the 1-based index positions)."""
    return checked_einsum("l,nl,nij->ij", lie.basis[:, a - 1, b - 1],
                          lie.ginv, lie.basis)


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
        if (safe_matmul(x, y) != safe_matmul(y, x)).any():
            return a, b
    return default


def _perturbation_indices(lie, rng):
    """Seeded (i, j) whose t_ij^(2) has a nonzero leading-order image.
    so_N has t_ij whose image is 0 (t_13 in so_3), which commute with
    every first-order probe; those are drawn again.  Every
    sl_N draw qualifies, so sl keeps its first draw."""
    while True:
        i = rng.randint(1, lie.N)
        j = rng.randint(1, lie.N)
        if _first_order_image(lie, i, j).any():
            return i, j


def _center_checks(cfg, cs):
    pres = cs.cl.pres
    checks = [cs.report]
    y_from_z(cs, pres.K - 1)
    verified_to = cs.report["details"]["y_recursion_verified_to"]
    checks.append(check_report(
        "y_recursion", verified_to >= 0,
        {"verified_to": verified_to,
         "y1": cs.y[1].to_json() if len(cs.y) > 1 else None},
        cfg.family, cfg.N, pres.K))
    if pres.K >= 3:
        checks.append(central_monomial_certificate(cs))
    checks.append(_centrality_negative_control(cfg, cs))
    return checks


def _centrality_negative_control(cfg, cs):
    """z_2 plus a seeded t_ij^(2) must fail to commute with a probe."""
    cl = cs.cl
    pres = cl.pres
    i, j = _perturbation_indices(pres.lie, random.Random(cfg.seed))
    bad = cs.z[2] + NCPoly.gen(i, j, 2)
    t = NCPoly.gen(*_noncommuting_probe(pres.lie, i, j), 1)
    tested, _, failures = _check_members(cl, [("com", bad * t - t * bad)])
    if tested:
        central = not failures
        ok, details = not central, {"perturbation_generator": [i, j, 2],
                                    "perturbed_element_central": central}
    else:
        ok, details = True, {"skipped_out_of_bounds": True}
    return check_report("centrality_negative_control", ok, details,
                        cfg.family, cfg.N, pres.K)


def _suite_center(cfg, ctx):
    return _with_retry(cfg, ctx, lambda cs: _center_checks(cfg, cs))


def _suite_hopf(cfg, ctx):
    return _with_retry(cfg, ctx, lambda cs: [verify_hopf(cs)])


def _suite_fixedpoint(cfg, ctx):
    fs = [TruncSeries([ONE, ONE]), TruncSeries([ONE, ONE, ONE])]
    return _with_retry(cfg, ctx, lambda cs: [
        verify_fixed_point(cs, f) for f in fs])


def _suite_qdet(cfg, ctx):
    return _with_retry(cfg, ctx, lambda cs: [qdet(cs)[1]])


def _suite_symmetry(cfg, ctx):
    return _with_retry(cfg, ctx, lambda cs: [symmetry_series(cs)[1]])


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
              "config": cfg.to_json(), "checks": checks}
    code = _emit(report, cfg.output)
    print("verify: %s in %.1fs" % (report["status"], time.monotonic() - t0),
          file=sys.stderr)
    return code


def cmd_build(cfg):
    pres = rtt_relations(cfg.family, cfg.N, cfg.K)
    details = {"relations": len(pres.relations),
               "clear_degree": pres.clear_degree}
    if cfg.L is not None and cfg.R_ord is not None:
        cl = closure(pres, cfg.L, cfg.R_ord)
        details["bounds"] = [cfg.L, cfg.R_ord]
        details["words"] = len(cl.id2word)
        details["closure_rank"] = cl.rank
    return _emit({"schema": SCHEMA, "command": "build",
                  "config": cfg.to_json(),
                  "checks": [check_report("build", True, details, cfg.family,
                                          cfg.N, cfg.K)]}, cfg.output)


def cmd_solve_r(cfg):
    data = build_lie(cfg.family, cfg.N)
    rep = vector_rep(data)
    series = solve_intertwiner(data, rep, cfg.K)
    closed = closed_form_r(cfg.family, cfg.N)
    details = {"solution": series.to_json()}
    try:
        g = proportional_to(series, closed.expand(series.order))
    except NotProportional as exc:
        ok, details["error"] = False, str(exc)
    else:
        ok = True
        details["ratio_to_closed_form"] = [rat_to_str(c) for c in g.coeffs]
    return _emit({"schema": SCHEMA, "command": "solve-r",
                  "config": cfg.to_json(),
                  "checks": [check_report("solve_r", ok, details, cfg.family,
                                          cfg.N, cfg.K)]}, cfg.output)


def cmd_qdet(cfg):
    if cfg.family != "sl":
        raise UsageError("qdet applies to sl only")
    if cfg.L is None or cfg.R_ord is None:
        raise UsageError("qdet needs --len and --sumr")
    pres = rtt_relations(cfg.family, cfg.N, cfg.K)
    qd, rep = qdet(z_series(pres, closure(pres, cfg.L, cfg.R_ord)))
    rep["details"]["coefficients"] = [p.to_json() for p in qd.coeffs]
    return _emit({"schema": SCHEMA, "command": "qdet",
                  "config": cfg.to_json(), "checks": [rep]}, cfg.output)


def _read_json_object(path, what):
    """The JSON object in the file at ``path``; UsageError if it cannot
    be read, is not JSON, or holds anything but an object."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (what, exc))
    if not isinstance(obj, dict):
        raise UsageError("%s must hold a JSON object" % what)
    return obj


def cmd_report_merge(inputs, output):
    reports = [_read_json_object(path, "report %s" % path)
               for path in inputs]
    return _emit({"schema": SCHEMA, "command": "report-merge",
                  "inputs": list(inputs), "reports": reports}, output,
                 key="reports")


# ---------------------------------------------------------------------------
# argument handling

@functools.cache
def _parser():
    """The argument parser, built on first use; parse_args leaves it
    unchanged, so every call of main shares it."""
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
        file_cfg = _read_json_object(args.config, "config file")
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
    args = _parser().parse_args(argv)
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
