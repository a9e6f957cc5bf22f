"""Wrapper spans around the public functions of each rkpos layer.

`install(tracer)` rebinds every module namespace (and class attribute)
that holds one of the traced callables, so calls made from inside the
package are recorded as well as calls made by the benchmark.  Nothing in
`src/rkpos` is edited; the spans are measured from outside.

A span records its name, start, end and parent.  Counts are recorded at
the same boundaries.  Spans stay in memory until `dump` writes them once
at the end of the run.
"""

import functools
import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

MODULES = ("rkpos", "rkpos.adversary", "rkpos.bounds", "rkpos.cli",
           "rkpos.gamma", "rkpos.molsim", "rkpos.multilinear",
           "rkpos.polygen", "rkpos.tableau", "rkpos.univariate")

# Integer counts that must repeat exactly across two traced runs of one seed.
COUNT_METRICS = (
    "polygen.generate.calls", "polygen.terms",
    "multilinear.vertex_table.calls", "multilinear.vertices",
    "gamma.compute_gamma.calls", "gamma.distinct_restrictions",
    "gamma.gamma_zero_test.calls", "gamma.condition_at.calls",
    "gamma.condition_at.max_den_bits", "univariate.first_negative_cut.calls",
    "bounds.ssp_coefficient.calls", "bounds.ssp_feasible.calls",
    "adversary.calls", "molsim.erk_step.calls", "molsim.q.calls",
    "molsim.cell_steps", "cli.main.calls", "cli.rows", "cli.stdout_bytes",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.nested = []      # an enclosing span has the same name
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.max_den_bits = 0
        self.table_bytes = {}  # vertex_table span -> computed table nbytes

    def count(self, key, amount=1):
        self.counts[key] += amount

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.nested.append(self.active[name] > 0)
            self.ends.append(0.0)
            self.stack.append(idx)
            self.active[name] += 1
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self.active[name] -= 1
                self.stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result
        return span

    def layer_metrics(self):
        """Calls and inclusive time of outermost spans per name; self time
        is each span's duration minus its direct children's, summed."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        calls, busy, self_s = Counter(), Counter(), Counter()
        for i, name in enumerate(self.names):
            self_s[name] += dur[i] - child[i]
            if not self.nested[i]:
                calls[name] += 1
                busy[name] += dur[i]
        per_parent = defaultdict(int)
        for i, nbytes in self.table_bytes.items():
            per_parent[self.parents[i]] += nbytes
        c = self.counts
        tables = calls["multilinear.vertex_table"]
        cuts = calls["univariate.first_negative_cut"]
        certs = c["certificates"]
        out = {}
        for name in ("polygen.generate", "multilinear.vertex_table",
                     "gamma.compute_gamma", "gamma.gamma_zero_test",
                     "gamma.condition_at", "univariate.first_negative_cut",
                     "bounds.ssp_coefficient", "bounds.ssp_feasible",
                     "bounds.radius_abs_monotonicity", "adversary",
                     "molsim.run", "molsim.erk_step", "molsim.q", "cli.main"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update({
            "polygen.terms": c["polygen.terms"],
            "multilinear.vertices": c["multilinear.vertices"],
            # Computed nbytes of the tables built under one parent span
            # (one propagation set), largest over the pass; not measured RSS.
            "multilinear.table_mib": max(per_parent.values(), default=0) / 2**20,
            "multilinear.object_share": _ratio(c["object_tables"], tables),
            # Table builds per polynomial of the compute_gamma results.
            "multilinear.rebuild_ratio": _ratio(tables, c["polys_certified"]),
            "gamma.distinct_restrictions": c["gamma.distinct_restrictions"],
            "gamma.exact_share": _ratio(c["exact_gammas"],
                                        calls["gamma.compute_gamma"]),
            "gamma.condition_at.max_den_bits": self.max_den_bits,
            # Results of compute_gamma, ssp_coefficient and
            # radius_abs_monotonicity per first_negative_cut call.
            "univariate.useful_ratio": _ratio(certs, cuts),
            "molsim.cell_steps": c["molsim.cell_steps"],
            "cli.rows": c["cli.rows"],
            "cli.stdout_bytes": c["cli.stdout_bytes"],
        })
        return out

    def dump(self, path, header):
        """Write every span once; parents are indices into the same lists."""
        t0 = self.starts[0] if self.starts else 0.0
        doc = dict(header)
        doc["spans"] = {
            "name": self.names,
            "parent": self.parents,
            "start_s": [round(s - t0, 9) for s in self.starts],
            "end_s": [round(e - t0, 9) for e in self.ends],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def _rebind(orig, wrapper):
    for modname in MODULES:
        mod = sys.modules[modname]
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def install(tracer):
    """Wrap the public entry points of every layer in spans."""
    import rkpos.adversary as adversary
    import rkpos.bounds as bounds
    import rkpos.cli as cli
    import rkpos.gamma as gamma
    import rkpos.molsim as molsim
    import rkpos.multilinear as multilinear
    import rkpos.polygen as polygen
    import rkpos.univariate as univariate

    t = tracer

    def after_generate(idx, args, kwargs, ps):
        t.count("polygen.terms", sum(len(p.terms) for p in ps.polys.values()))

    def after_table(idx, args, kwargs, result):
        table = result[1]
        t.count("multilinear.vertices", table.shape[1])
        t.count("object_tables", table.dtype == object)
        t.table_bytes[idx] = table.nbytes

    def after_gamma(idx, args, kwargs, cert):
        t.count("certificates")
        t.count("polys_certified", cert.n_polys)
        t.count("gamma.distinct_restrictions", cert.n_distinct_restrictions)
        t.count("exact_gammas", cert.exact is not None)

    def after_condition(idx, args, kwargs, result):
        delta = args[1] if len(args) > 1 else kwargs["delta"]
        bits = Fraction(delta).denominator.bit_length()
        t.max_den_bits = max(t.max_den_bits, bits)

    def after_bound(idx, args, kwargs, result):
        t.count("certificates")

    def after_step(idx, args, kwargs, result):
        problem = args[0] if args else kwargs["p"]
        t.count("molsim.cell_steps", problem.n)

    table_fn = multilinear.MultilinearPoly.vertex_table
    multilinear.MultilinearPoly.vertex_table = t.wrap(
        "multilinear.vertex_table", table_fn, after_table)
    for cls in vars(molsim).values():
        if isinstance(cls, type) and "q" in vars(cls):
            cls.q = t.wrap("molsim.q", vars(cls)["q"])

    plan = [
        ("polygen.generate", polygen.generate, after_generate),
        ("gamma.compute_gamma", gamma.compute_gamma, after_gamma),
        ("gamma.gamma_zero_test", gamma.gamma_zero_test, None),
        ("gamma.condition_at", gamma.condition_at, after_condition),
        ("gamma.region_scan", gamma.region_scan, None),
        ("univariate.first_negative_cut", univariate.first_negative_cut, None),
        ("bounds.ssp_coefficient", bounds.ssp_coefficient, after_bound),
        ("bounds.ssp_feasible", bounds.ssp_feasible, None),
        ("bounds.radius_abs_monotonicity", bounds.radius_abs_monotonicity,
         after_bound),
        ("adversary", adversary.first_step_counterexample, None),
        ("adversary", adversary.negative_entry_counterexample, None),
        ("adversary", adversary.rk4_counterexample, None),
        ("molsim.run", molsim.run, None),
        ("molsim.erk_step", molsim.erk_step, after_step),
        ("molsim.q", molsim.q_advection, None),
        ("cli.main", cli.main, None),
    ]
    for name, fn, after in plan:
        _rebind(fn, t.wrap(name, fn, after))
