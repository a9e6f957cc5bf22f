"""Command-line front end.

Every subcommand writes machine-readable output to stdout (CSV by
default, JSON via --format json) and diagnostics to stderr.  Identical
invocations produce byte-identical output.
"""

import argparse
import csv
import io
import json
import sys
import warnings
from fractions import Fraction

from .adversary import (first_step_counterexample, negative_entry_counterexample,
                        rk4_counterexample)
from .bounds import radius_abs_monotonicity, ssp_coefficient, stability_polynomial
from .errors import CapacityError, InputError, PreconditionError, RkposError, rational
from .gamma import (compute_gamma, gamma_zero_test, region_scan, subset_bits,
                    sweep)
from .molsim import (LIMITERS, MONITORS, SemiDiscreteProblem, advection,
                     check_work, max_step, run, tau0)
from .polygen import BUILTIN_STENCILS, generate, term_count, x_labels
from .tableau import parse_method, tableau_from_json
from .univariate import DEFAULT_TOL, positive_tol

__all__ = ["main"]


def _option(convert):
    """An argparse type that reports convert's InputError as the option's."""
    def parse(text: str) -> Fraction:
        try:
            return convert(text)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _positive_rational(text: str) -> Fraction:
    value = rational(text)
    if value <= 0:
        raise InputError(f"must be positive, got {value}")
    return value


_frac, _positive, _step = _option(rational), _option(positive_tol), _option(_positive_rational)


# 10**600 has fewer digits than the lowest int-to-str limit Python allows
# (640), so each chunk below converts under any limit setting.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _digits(n: int) -> str:
    """Decimal digits of n, also beyond the interpreter's int-to-str limit."""
    if n < 0:
        return "-" + _digits(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _fmt(x) -> str:
    """Exact rationals as p/q; None as empty; everything else via repr-ish str."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _digits(x.numerator)
        return f"{_digits(x.numerator)}/{_digits(x.denominator)}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(rows: list[dict], header: list[str], fmt: str, out) -> None:
    if fmt == "json":
        payload = [{k: _fmt(r.get(k)) for k in header} for r in rows]
        out.write(json.dumps(payload, indent=2, sort_keys=False))
        out.write("\n")
    else:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(r.get(k)) for k in header])


def _method(args):
    if getattr(args, "tableau_file", None):
        try:
            with open(args.tableau_file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read tableau file: {exc}") from exc
        return tableau_from_json(text)
    return parse_method(args.method)


def _stencil(args):
    return BUILTIN_STENCILS[args.stencil]


def _bound_row(res) -> dict:
    return {
        "exact": res.exact,
        "lo": res.lower,
        "hi": "inf" if res.unbounded else res.upper,
        "witness": res.witness,
    }


def _cert_fields(cert) -> dict:
    w = cert.witness
    row = {f"gamma_{k}": v for k, v in _bound_row(cert).items() if k != "witness"}
    if w is not None:
        row.update(witness_poly=w.offset, witness_subset=subset_bits(w.subset, cert.n_vars))
    return row


# Terms `polys` prints, counted by `term_count` before `generate`.  Formatting
# took 10-17 us and about 70 bytes a term (generic 7-stage heat, 9- and
# 10-stage upwind), so the largest admitted output is about 5 MB in about
# 1 s; a dense generic 12-stage upwind file has 531,441 terms (52 MB, 9 s).
PRINT_TERMS = 1 << 16


def cmd_polys(args, out) -> int:
    t, stencil = _method(args), _stencil(args)
    terms = term_count(t, stencil)
    if terms > PRINT_TERMS:
        raise CapacityError(f"polys would print {terms} terms, over the limit of {PRINT_TERMS}")
    ps = generate(t, stencil)
    labels = x_labels(ps) if args.x_labels else None
    rows = [
        {"offset": i, "polynomial": ps.polys[i].format_terms(labels)}
        for i in ps.offsets
    ]
    _emit(rows, ["offset", "polynomial"], args.format, out)
    return 0


def cmd_gamma(args, out) -> int:
    t = _method(args)
    cert = compute_gamma(t, _stencil(args), tol=args.tol)
    row = {"method": t.name, "stencil": args.stencil}
    row.update(_cert_fields(cert))
    row["n_vars"] = cert.n_vars
    _emit([row], ["method", "stencil", "gamma_exact", "gamma_lo", "gamma_hi",
                  "witness_poly", "witness_subset", "n_vars"],
          args.format, out)
    return 0


_SWEEP_HEADER = ["param_alpha", "param_beta", "gamma_exact", "gamma_lo",
                 "gamma_hi", "witness_poly", "witness_subset", "ssp"]


def _sweep_row(r) -> dict:
    row = {"param_alpha": r.alpha, "param_beta": r.beta}
    if r.skipped is not None:
        row["witness_subset"] = f"skipped: {r.skipped}"
        return row
    row.update(_cert_fields(r.cert))
    row["ssp"] = r.ssp
    return row


def cmd_sweep(args, out) -> int:
    rows = sweep(args.family, args.lo, args.hi, args.step,
                 stencil=_stencil(args), tol=args.tol, with_ssp=args.ssp)
    _emit([_sweep_row(r) for r in rows], _SWEEP_HEADER, args.format, out)
    return 0


def cmd_region(args, out) -> int:
    cells = region_scan(spacing=args.spacing, delta=args.delta,
                        lo=args.lo, hi=args.hi)
    rows = [{
        "alpha": c.alpha,
        "beta": c.beta,
        "in_bowtie": c.in_region,
        "condition_at_1": c.condition_holds,
        "gamma_zero": None if c.gamma_positive is None else not c.gamma_positive,
    } for c in cells]
    _emit(rows, ["alpha", "beta", "in_bowtie", "condition_at_1", "gamma_zero"],
          args.format, out)
    return 0


def cmd_ssp(args, out) -> int:
    t = _method(args)
    row = {"method": t.name}
    row.update(_bound_row(ssp_coefficient(t, tol=args.tol)))
    _emit([row], ["method", "exact", "lo", "hi", "witness"], args.format, out)
    return 0


def cmd_rphi(args, out) -> int:
    t = _method(args)
    phi = stability_polynomial(t)
    row = {"method": t.name,
           "phi": " + ".join(f"({c})z^{k}" for k, c in enumerate(phi.coeffs))}
    row.update(_bound_row(radius_abs_monotonicity(t, tol=args.tol)))
    _emit([row], ["method", "phi", "exact", "lo", "hi", "witness"],
          args.format, out)
    return 0


def cmd_adversary(args, out) -> int:
    if args.construction != "first-step" and args.stencil != "upwind":
        raise InputError(f"adversary: --construction {args.construction} "
                         "is upwind only; --stencil needs first-step")
    if args.construction == "rk4":
        if args.method or args.tableau_file:
            raise InputError("adversary: --construction rk4 takes no "
                             "--method or --tableau-file")
        rep = rk4_counterexample(Fraction(1) if args.eps is None else args.eps)
    elif args.eps is not None:
        raise InputError("adversary: --eps needs --construction rk4")
    elif not (args.method or args.tableau_file):
        raise InputError("adversary: --method or --tableau-file required "
                         "unless --construction rk4")
    elif args.construction == "negative-entry":
        rep = negative_entry_counterexample(_method(args))
    else:  # first-step, witness from the zero test
        t = _method(args)
        ps = generate(t, _stencil(args))
        w = gamma_zero_test(ps)
        if w is None:
            raise PreconditionError(
                f"{t.name}: gamma is positive, so there is no zero-gamma "
                "witness for the first-step construction")
        bits = subset_bits(w.subset, len(ps.vars))
        point = {v: w.delta for v, b in zip(ps.vars, bits) if b == "1"}
        rep = first_step_counterexample(t, (w.offset, point), _stencil(args))
    doc = {
        "method": rep.method,
        "description": rep.description,
        "n": rep.n,
        "dx": _fmt(rep.dx),
        "dt": _fmt(rep.dt),
        "u0": [_fmt(v) for v in rep.u0],
        "schedule": [
            {"cell": k, "time": _fmt(tm), "q": _fmt(v)}
            for (k, tm), v in sorted(rep.script.table.items())
        ],
        "stages": [[_fmt(v) for v in st] for st in rep.stages],
        "u1": [_fmt(v) for v in rep.u1],
        "negative_index": rep.negative_index,
        "negative_value": _fmt(rep.negative_value),
        "boundary": rep.boundary,
    }
    out.write(json.dumps(doc, indent=2))
    out.write("\n")
    return 0


def _step_initial_data(n: int):
    # Unit step profile: 1 on the left half of the ring, 0 on the right.
    return tuple(Fraction(1) if k < n // 2 else Fraction(0) for k in range(n))


def cmd_simulate(args, out) -> int:
    t = _method(args)
    stencil = _stencil(args)
    limiter = LIMITERS[args.limiter]
    if args.n < 1:
        raise InputError(f"--n must be at least 1, got {args.n}")
    check_work(args.n, args.steps, t.m)
    dx = args.dx if args.dx is not None else Fraction(1, args.n)
    prob = SemiDiscreteProblem(args.n, dx, stencil,
                               advection(args.speed, limiter), _step_initial_data(args.n))
    certified = None
    if args.dt is not None:
        dt = args.dt
    else:
        cert = compute_gamma(t, stencil, tol=args.tol)
        gamma = cert.exact if cert.exact is not None else cert.lower
        dt = args.cfl_fraction * max_step(gamma, prob)
        certified = f"gamma={_fmt(gamma)} tau0={_fmt(tau0(prob))} dt={_fmt(dt)}"
    with warnings.catch_warnings(record=True) as caught:
        rep = run(prob, t, dt, args.steps, monitors=tuple(args.monitors),
                  mode=args.mode)
    # Issued again once the run is done, so an error is the only stderr
    # line, and shown as one `warning:` line each.
    shown, warnings.formatwarning = warnings.formatwarning, lambda w, *_: f"warning: {w}\n"
    try:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    finally:
        warnings.formatwarning = shown
    if certified is not None:
        print(certified, file=sys.stderr)
    for i in range(rep.steps_run):
        out.write(json.dumps({"step": i + 1, "min": _fmt(rep.mins[i]),
                              "max": _fmt(rep.maxs[i]), "tv": _fmt(rep.tvs[i])}))
        out.write("\n")
    final = {
        "steps_run": rep.steps_run,
        "mode": rep.mode,
        "dt": _fmt(dt),
        "first_violation": None if rep.first_violation is None else {
            "step": rep.first_violation[0],
            "index": rep.first_violation[1],
            "value": _fmt(rep.first_violation[2]),
            "kind": rep.first_violation[3],
        },
    }
    out.write(json.dumps({"final": final}))
    out.write("\n")
    return 0 if rep.first_violation is None else 3


# reproduce: embedded expected values for the published reference results.

_ERK22_TABLE = [
    (Fraction(1, 4), Fraction(0)), (Fraction(1, 2), Fraction(1)),
    (Fraction(3, 4), Fraction(1)), (Fraction(1), Fraction(1)),
    (Fraction(3, 2), Fraction(2, 3)), (Fraction(2), Fraction(1, 2)),
]


def _case2_gamma(a: Fraction) -> Fraction:
    if a < Fraction(3, 8) or a > Fraction(3, 4):
        return Fraction(0)
    if a < Fraction(1, 2):
        return 2 * a
    return Fraction(1)


def _case2_ssp(a: Fraction) -> Fraction:
    if a < Fraction(3, 8) or a > Fraction(3, 4):
        return Fraction(0)
    if a <= Fraction(9, 16):
        return Fraction(8 * a - 3, 2)
    return 3 - 4 * a


def _repro_erk22_table():
    for alpha, want in _ERK22_TABLE:
        got = compute_gamma(parse_method(f"erk22:{alpha}")).exact
        yield f"gamma(erk22:{alpha})", want, got


def _repro_case2_figure():
    for r in sweep("ERK33_CaseII", Fraction(3, 8), Fraction(3, 4), Fraction(1, 16),
                   with_ssp=True):
        yield f"gamma(erk33c2:{r.alpha})", _case2_gamma(r.alpha), r.cert.exact
        yield f"ssp(erk33c2:{r.alpha})", _case2_ssp(r.alpha), r.ssp


def _repro_case1_region():
    cells = region_scan()
    bad = [c for c in cells
           if c.skipped is None and c.in_region and not c.condition_holds]
    yield "bowtie cells failing condition_at(1)", 0, len(bad)
    pt = region_scan(points=[(Fraction(1, 3), Fraction(2, 3))])[0]
    yield "gamma_zero at (1/3, 2/3)", True, not pt.gamma_positive


def _repro_rk4_negative():
    rep = rk4_counterexample(Fraction(1))
    yield "rk4 u1[3] at eps=1", Fraction(-1, 24), rep.u1[3]


def _repro_heat_table():
    t = parse_method("erk22:3/4")
    got = compute_gamma(t, BUILTIN_STENCILS["heat"]).exact
    yield "gamma(erk22:3/4, heat)", Fraction(1, 2), got


_REPRODUCE = {
    "erk22-table": _repro_erk22_table,
    "caseII-figure": _repro_case2_figure,
    "caseI-region": _repro_case1_region,
    "rk4-negative": _repro_rk4_negative,
    "heat-table": _repro_heat_table,
}


def cmd_reproduce(args, out) -> int:
    rows = []
    ok = True
    for check, want, got in _REPRODUCE[args.id]():
        match = want == got
        ok = ok and match
        rows.append({"id": args.id, "check": check, "expected": want,
                     "actual": got, "ok": match})
    _emit(rows, ["id", "check", "expected", "actual", "ok"], args.format, out)
    if not ok:
        diffs = [r["check"] for r in rows if not r["ok"]]
        print(f"reproduce {args.id}: MISMATCH in {', '.join(diffs)}",
              file=sys.stderr)
        return 1
    return 0


def _add_method_args(p, required=True):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--method", help="method shorthand, e.g. erk22:1, rk4, fe")
    g.add_argument("--tableau-file", help="JSON tableau file")


def _add_common(p, stencil=True, tol=True):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if stencil:
        p.add_argument("--stencil", choices=sorted(BUILTIN_STENCILS),
                       default="upwind")
    if tol:
        p.add_argument("--tol", type=_positive, default=DEFAULT_TOL)


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as one `error:` line, exit status 2."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="rkpos",
        description="Positivity analysis of explicit Runge-Kutta methods "
                    "applied to semi-discretized transport problems.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("polys", help="print the solution-propagation polynomials")
    _add_method_args(p)
    _add_common(p, tol=False)
    p.add_argument("--x-labels", action="store_true",
                   help="label variables x_1..x_n in canonical order")
    p.set_defaults(fn=cmd_polys)

    p = sub.add_parser("gamma", help="certify the positivity step-size coefficient")
    _add_method_args(p)
    _add_common(p)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("sweep", help="gamma (and optionally SSP) along a family")
    p.add_argument("--family", required=True,
                   help="ERK22, ERK33_CaseI, ERK33_CaseII, ERK33_CaseIII")
    p.add_argument("--lo", type=_frac, required=True)
    p.add_argument("--hi", type=_frac, required=True)
    p.add_argument("--step", type=_frac, required=True)
    p.add_argument("--ssp", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("region", help="two-parameter third-order region scan")
    p.add_argument("--lo", type=_frac, default=Fraction(1, 2))
    p.add_argument("--hi", type=_frac, default=Fraction(1))
    p.add_argument("--spacing", type=_frac, default=Fraction(1, 32))
    p.add_argument("--delta", type=_frac, default=Fraction(1))
    _add_common(p, stencil=False, tol=False)
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("ssp", help="SSP coefficient")
    _add_method_args(p)
    _add_common(p, stencil=False)
    p.set_defaults(fn=cmd_ssp)

    p = sub.add_parser("rphi", help="stability polynomial and its radius of "
                                    "absolute monotonicity")
    _add_method_args(p)
    _add_common(p, stencil=False)
    p.set_defaults(fn=cmd_rphi)

    p = sub.add_parser("adversary", help="build a verified negativity counterexample")
    _add_method_args(p, required=False)
    _add_common(p, tol=False)
    p.add_argument("--construction",
                   choices=("first-step", "negative-entry", "rk4"),
                   default="negative-entry")
    p.add_argument("--eps", type=_frac, help="rk4 step size ratio (default 1)")
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("simulate", help="method-of-lines run with monitoring")
    _add_method_args(p)
    _add_common(p)
    p.add_argument("--limiter", choices=sorted(LIMITERS), default="minmod")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--dx", type=_frac, default=None)
    p.add_argument("--speed", type=_frac, default=Fraction(1))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dt", type=_step, default=None)
    group.add_argument("--cfl-fraction", type=_step, default=Fraction(1))
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--monitors", nargs="+", choices=MONITORS,
                   default=list(MONITORS))
    p.add_argument("--mode", choices=("rational", "float"), default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("reproduce", help="re-derive a reference result and diff")
    p.add_argument("id", choices=sorted(_REPRODUCE))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_reproduce)

    return ap


# Built once per process: parse_args starts every call from a fresh
# Namespace, so one parser serves any number of `main` calls.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    buf = io.StringIO()
    try:
        code = args.fn(args, buf)
    except RkposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
