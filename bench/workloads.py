"""The four benchmark workloads: inputs, one timed pass, output checks.

A workload is a list of CLI commands (``yangkit.cli.main``) or, for
``ideal-query``, a seeded stream of ``normal_form`` queries against a
closure built in set-up.  One *pass* runs the whole list or stream once;
the benchmark repeats passes for the run's duration.

Operations, for ``attempted`` and ``failed``:
* verify workloads: one report check; it fails if its status is not
  ``"pass"``;
* ``ideal-query``: one query; it fails if its verdict or normal form is
  wrong.

Each workload names the spans that carry the work it stresses (``hot``),
so the traced run can report which share of the wall time they account
for, and the layers it never reaches (``bypasses``), where the
prediction for any change is "no change".
"""

import contextlib
import hashlib
import io
import json
import time

import queries

WORKLOADS = {
    "pbw-closure": {
        "why": "bounded ideal closure and PBW slice dimensions: the write "
               "path of the linalg.SparseReducer row reducer",
        "commands": [
            "verify --family sl --n 2 --order 3 --len 4 --sumr 4 "
            "--suite rtt,pbw",
        ],
        "stresses": ["linalg", "yangian.closure",
                     "yangian.slice_dimension"],
        "bypasses": ["exact", "rmatrix", "liealg.verify_*"],
        "hot": ["linalg.*", "yangian.closure", "yangian.slice_dimension"],
    },
    "center-eval": {
        "why": "central-monomial certificate: dense Fraction matrix "
               "products inside exact evaluation modules",
        "commands": [
            "verify --family sl --n 2 --order 4 --len 3 --sumr 4 "
            "--suite center",
        ],
        # The CLI seed picks the centrality negative control's perturbation
        # t_ij^(2).  For (i, j) = (1, 2) it commutes with the probe
        # t_12^(1) in the Yangian, so the control reports "fail" (e.g.
        # --seed 4).  Until that check is fixed this workload runs with
        # the CLI's default seed.
        "cli_seed": 0,
        "stresses": ["yangian.EvalModule",
                     "yangian.central_monomial_certificate",
                     "freealg.substitute_poly"],
        "bypasses": ["exact", "rmatrix", "liealg.verify_*",
                     "linalg.SparseReducer (closure under 1%)"],
        "hot": ["yangian.EvalModule.*"],
    },
    "ideal-query": {
        "why": "normal_form queries on a prebuilt closure: the read path "
               "of the same row reducer; closure build shows in setup_s",
        "closure": {"family": "sl", "N": 2, "K": 4, "bounds": [4, 6]},
        "queries_per_pass": 3000,
        "chunk": 300,  # queries scaled together, 0.1-0.2 s
        "stresses": ["linalg.SparseReducer.reduce", "yangian.normal_form",
                     "setup: yangian.closure, freealg.mat_mul"],
        "bypasses": ["exact", "rmatrix", "liealg.verify_*",
                     "yangian.EvalModule (timed phase)"],
        "hot": ["linalg.SparseReducer.reduce", "yangian.normal_form"],
    },
    "classical": {
        "why": "classical presentations, QYBE/unitarity certificates and "
               "the intertwiner solver: the exact, liealg and rmatrix layers",
        "commands": [
            "verify --family sl --n 3 --suite classical,rmatrix",
            "verify --family sl --n 6 --suite rmatrix",
            "verify --family so --n 5 --suite rmatrix",
            "verify --family sp --n 4 --suite rmatrix",
            "solve-r --family so --n 4 --order 3",
        ],
        "stresses": ["exact.certify_bivariate_identity", "rmatrix",
                     "liealg.verify_*", "cli suite threads (GIL wait)"],
        "bypasses": ["yangian", "freealg", "linalg.SparseReducer "
                     "(closure path)"],
        "hot": ["exact.certify_bivariate_identity"],
    },
}

# report details that depend on --seed (negative-control choices); every
# other detail is compared with the reference
SEED_DETAILS = {"negative_control_generator", "perturbed_entry", "bump",
                "perturbation_generator"}

# ideal-query: a fixed query set whose normal forms are stored as a digest
CANARY_SEED = 1000003
CANARY_QUERIES = 200


class OutputMismatch(AssertionError):
    """A workload output differs from the stored reference."""


def _compact(value):
    """Small JSON values verbatim, large ones as a sha256 digest."""
    text = json.dumps(value, sort_keys=True)
    if len(text) <= 120:
        return value
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


def check_signature(check):
    """The seed-independent content of one report check."""
    details = {k: _compact(v) for k, v in sorted(check["details"].items())
               if k not in SEED_DETAILS}
    return {"check": check["check"], "status": check["status"],
            "details": details}


def expect_equal(what, got, want):
    if got != want:
        raise OutputMismatch("%s: got %s, reference %s"
                             % (what, json.dumps(got, sort_keys=True),
                                json.dumps(want, sort_keys=True)))


LAYER_MODULES = ("exact", "liealg", "rmatrix", "freealg", "linalg",
                 "yangian", "cli")


def clear_caches(yk):
    """Empty every ``functools`` cache in the yangkit modules, so that a
    pass starts from what a fresh process has, not from what earlier
    passes of this process left behind."""
    for name in LAYER_MODULES:
        for obj in vars(getattr(yk, name)).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


# ---------------------------------------------------------------------------
# verify workloads


class VerifyWorkload:
    """CLI commands run in-process; reports captured from stdout."""

    shared_inputs = False
    unit = "commands"

    def __init__(self, spec, yk, seed):
        self.spec = spec
        self.yk = yk
        seed = spec.get("cli_seed", seed)
        self.argvs = [c.split() + ["--seed", str(seed)]
                      for c in spec["commands"]]
        self.reports = None

    @staticmethod
    def setup(yk):
        return None

    def prepare(self, shared):
        pass

    def run_pass(self, clock):
        """Run every command once; returns the (start, end) ``clock()``
        readings of each command."""
        cli = self.yk.cli
        reports = []
        spans = []
        clear_caches(self.yk)
        for argv in self.argvs:
            out = io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            spans.append((t, clock()))
            reports.append((rc, out.getvalue()))
        self.reports = reports
        self.latencies = []
        return spans

    def ops_per_pass(self):
        return sum(len(json.loads(text)["checks"])
                   for _, text in self.reports)

    def check_pass(self, reference):
        """Count failed checks and compare the reports with the reference.

        Returns (attempted, failed).  Raises OutputMismatch when a report
        differs from the reference."""
        attempted = failed = 0
        signatures = []
        for rc, text in self.reports:
            report = json.loads(text)
            checks = report["checks"]
            attempted += len(checks)
            failed += sum(1 for c in checks if c["status"] != "pass")
            signatures.append({"exit": rc, "status": report["status"],
                               "checks": [check_signature(c)
                                          for c in checks]})
        if reference is not None:
            expect_equal("report count", len(signatures),
                         len(reference["reports"]))
            for cmd, got, want in zip(self.spec["commands"], signatures,
                                      reference["reports"]):
                expect_equal(cmd, got, want)
        self.signatures = signatures
        return attempted, failed

    def record(self):
        return {"reports": self.signatures}


# ---------------------------------------------------------------------------
# ideal-query


def build_closure(yk, spec):
    """The shared inputs of ideal-query: relations, closure, z-series."""
    c = spec["closure"]
    pres = yk.rtt_relations(c["family"], c["N"], c["K"])
    cl = yk.closure(pres, *c["bounds"])
    cs = yk.z_series(pres, cl)
    return pres, cl, cs


class QueryWorkload:
    """A closed loop: one caller, the next query after the previous one."""

    shared_inputs = True
    unit = "queries"

    def __init__(self, spec, yk, seed):
        self.spec = spec
        self.yk = yk
        self.seed = seed
        self.shared = None
        self.results = None
        self.first = None

    @staticmethod
    def setup(yk):
        return build_closure(yk, WORKLOADS["ideal-query"])

    def prepare(self, shared):
        self.shared = shared
        pres, cl, cs = shared
        bounds = tuple(self.spec["closure"]["bounds"])
        self.queries = queries.make_queries(
            self.yk, pres, cs.z, bounds, self.seed,
            self.spec["queries_per_pass"])

    def run_pass(self, clock):
        """Answer every query once; returns the (start, end) ``clock()``
        readings of each chunk of ``chunk`` queries.  The latency of each
        query is kept in ``self.latencies``."""
        normal_form = self.yk.normal_form
        cl = self.shared[1]
        chunk = self.spec["chunk"]
        results = []
        latencies = []
        spans = []
        clear_caches(self.yk)
        for start in range(0, len(self.queries), chunk):
            t0 = clock()
            for q in self.queries[start:start + chunk]:
                t = clock()
                results.append(normal_form(cl, q.poly))
                latencies.append(clock() - t)
            spans.append((t0, clock()))
        self.results = results
        self.latencies = latencies
        return spans

    def ops_per_pass(self):
        return len(self.queries)

    def _verdict_failures(self):
        cl = self.shared[1]
        failed = 0
        for q, nf in zip(self.queries, self.results):
            if q.positive:
                ok = not nf
            else:
                want = self.yk.normal_form(
                    cl, queries.word_poly(self.yk, q.word, q.coeff))
                ok = bool(want) and nf == want
            failed += not ok
        return failed

    def check_pass(self, reference):
        """Check verdicts (first pass) or equality with the first pass."""
        if self.first is None:
            failed = self._verdict_failures()
            self.first = self.results
            if reference is not None:
                self.check_shared(reference)
        else:
            failed = sum(1 for a, b in zip(self.results, self.first)
                         if a != b)
        return len(self.queries), failed

    def _shared_signature(self):
        pres, cl, cs = self.shared
        canary = queries.make_queries(
            self.yk, pres, cs.z, tuple(self.spec["closure"]["bounds"]),
            CANARY_SEED, CANARY_QUERIES)
        nfs = [self.yk.normal_form(cl, q.poly) for q in canary]
        return {
            "relations": len(pres.relations),
            "closure_words": len(cl.id2word),
            "closure_rank": cl.rank,
            "closure_nnz": sum(len(r) for r in cl.reducer.basis.values()),
            "z_series": check_signature(cs.report),
            "canary_in_ideal": sum(1 for p in nfs if not p),
            "canary_nf_sha256": queries.nf_digest(nfs),
        }

    def check_shared(self, reference):
        got = self._shared_signature()
        for key, want in reference["shared"].items():
            expect_equal("ideal-query " + key, got.get(key), want)

    def record(self):
        return {"shared": self._shared_signature()}


def make(name, yk, seed):
    spec = WORKLOADS[name]
    cls = QueryWorkload if "closure" in spec else VerifyWorkload
    return cls(spec, yk, seed)
