"""Outside-in span tracer for the yangkit layers.

The benchmark records spans from its own files: it replaces the public
functions of each layer module with timing wrappers for the duration of a
traced pass and restores them afterwards.  Nothing under ``src/`` changes.

Each span measures wall time (``time.perf_counter``) and the CPU time of
its own thread (``time.thread_time``).  Self times leave out the nested
wrapped calls made on the same thread.  ``ThreadPoolExecutor.submit`` does
not copy context, so the span stack is kept per thread; a span that opens
on an empty stack (a CLI suite in a pool thread) has no parent and its
time is not taken out of the caller's span.  ``busy`` is self CPU time;
``wait`` is self wall time minus ``busy``, i.e. time the thread spent
blocked (GIL, futures) or descheduled.

Spans are aggregated by name as they close (self busy, self wall, calls)
instead of being stored one by one, which keeps memory flat over the
~10^5 reducer calls of one closure.
"""

import functools
import threading
import time
from collections import Counter, defaultdict

# layer -> [(module attribute or "Class.method", metric name)]
LAYER_FUNCTIONS = {
    "exact": [("certify_bivariate_identity",
               "exact.certify_bivariate_identity")],
    "liealg": [(n, "liealg." + n) for n in (
        "verify_classical_presentation", "verify_current_presentation",
        "verify_extension_split", "verify_yangian_module", "casimir")],
    "rmatrix": [(n, "rmatrix." + n) for n in (
        "check_qybe", "check_unitarity", "expansion_check",
        "solve_intertwiner")],
    "freealg": [(n, "freealg." + n) for n in (
        "substitute_poly", "mat_mul", "mat_inverse")],
    "linalg": [
        ("SparseReducer.add_return_pivot",
         "linalg.SparseReducer.add_return_pivot"),
        ("SparseReducer.reduce", "linalg.SparseReducer.reduce"),
        ("SparseReducer.add", "linalg.SparseReducer.add"),
        ("rank", "linalg.rank"),
        ("nullspace", "linalg.nullspace"),
        ("rref", "linalg.rref"),
    ],
    "yangian": [
        ("rtt_relations", "yangian.rtt_relations"),
        ("closure", "yangian.closure"),
        ("slice_dimension", "yangian.slice_dimension"),
        ("z_series", "yangian.z_series"),
        ("normal_form", "yangian.normal_form"),
        ("central_monomial_certificate",
         "yangian.central_monomial_certificate"),
        ("EvalModule.__init__", "yangian.EvalModule.init"),
        ("EvalModule.eval", "yangian.EvalModule.eval"),
    ],
    "cli": [("main", "cli.main"), ("_with_retry", "cli._with_retry")],
}

# CLI suites are looked up through cli._SUITE_FNS and run in pool threads
CLI_SUITES = ("classical", "rmatrix", "rtt", "pbw", "center")


def _count_closure(counts, out, args, kwargs, parent):
    counts["yangian.closure.words"] += len(out.id2word)
    counts["yangian.closure.rank"] += out.rank
    counts["yangian.closure.nnz"] += sum(
        len(row) for row in out.reducer.basis.values())
    if parent == "cli._with_retry":
        counts["cli.retries"] += 1


def _count_eval(counts, out, args, kwargs, parent):
    p = args[1]
    counts["yangian.EvalModule.eval.terms"] += len(p.terms)
    counts["yangian.EvalModule.eval.matmuls"] += sum(
        len(w) - 1 for w in p.terms if w)


def _count_substitute(counts, out, args, kwargs, parent):
    counts["freealg.substitute_poly.terms_in"] += len(args[0].terms)
    counts["freealg.substitute_poly.terms_out"] += len(out.terms)


def _count_pivot(counts, out, args, kwargs, parent):
    if out is not None:
        counts["linalg.SparseReducer.add_return_pivot.pivots"] += 1


def _count_normal_form(counts, out, args, kwargs, parent):
    if not out:
        counts["yangian.normal_form.in_ideal"] += 1


def _count_relations(counts, out, args, kwargs, parent):
    counts["yangian.rtt_relations.relations"] += len(out.relations)


def _count_certificate(counts, out, args, kwargs, parent):
    counts["yangian.central_monomial_certificate.modules"] += len(
        out["details"]["modules"])


COUNTERS = {
    "yangian.closure": _count_closure,
    "yangian.EvalModule.eval": _count_eval,
    "freealg.substitute_poly": _count_substitute,
    "linalg.SparseReducer.add_return_pivot": _count_pivot,
    "yangian.normal_form": _count_normal_form,
    "yangian.rtt_relations": _count_relations,
    "yangian.central_monomial_certificate": _count_certificate,
}


class Tracer:
    """Per-thread span stacks, aggregated self times and work counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.busy = defaultdict(float)
        self.wall = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0, 0.0]  # name, child wall, child busy
            stack.append(frame)
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                busy = time.thread_time() - c0
                wall = time.perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += wall
                    parent[2] += busy
                with tracer._lock:
                    tracer.busy[name] += busy - frame[2]
                    tracer.wall[name] += wall - frame[1]
                    tracer.calls[name] += 1
            if count is not None:
                with tracer._lock:
                    count(tracer.counts, out, args, kwargs,
                          parent[0] if parent is not None else None)
            return out
        return span


class Patches:
    """Install tracer wrappers on every binding of the layer functions.

    ``cli`` and ``yangian`` bind names with ``from .x import f``, so each
    function is replaced in every ``yangkit`` module namespace that holds
    it, not only in its defining module.  Methods are replaced on the
    class.  ``restore`` puts every original object back.
    """

    def __init__(self, yangkit_modules, tracer):
        self._saved = []
        mods = dict(yangkit_modules)
        for layer, entries in LAYER_FUNCTIONS.items():
            home = mods[layer]
            for attr, name in entries:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, tracer.wrap(name, orig))
                    continue
                orig = getattr(home, attr)
                wrapped = tracer.wrap(name, orig)
                for mod in mods.values():
                    if getattr(mod, attr, None) is orig:
                        self._set(mod, attr, wrapped)
        table = mods["cli"]._SUITE_FNS
        for suite in CLI_SUITES:
            orig = table[suite]
            self._saved.append((table, suite, orig, True))
            table[suite] = tracer.wrap("cli.suite." + suite, orig)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, orig, is_item in reversed(self._saved):
            if is_item:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._saved = []
