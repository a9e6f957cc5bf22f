"""Test oracles: `generate_alt`, the P_i from the Neumann expansion of the
stage equations, independent of `rkpos.polygen.generate` but for the shared
Sum_i P_i = 1 check, and `coded`, polynomials from tag-set-keyed terms."""

from fractions import Fraction

from rkpos.multilinear import MultilinearPoly, VarTag, canonical_order
from rkpos.polygen import PropagationSet, StencilSpec, _check_unity
from rkpos.tableau import ButcherTableau

# Polynomials {frozenset of VarTag -> Fraction} and operators {d -> poly}.
_Poly = dict[frozenset, Fraction]
_LatticeOp = dict[int, _Poly]


def coded(vars, terms) -> MultilinearPoly:
    """The polynomial with terms {frozenset of VarTags: coeff} over `vars`
    in canonical order; repeated sets add up and zero terms are dropped."""
    order = canonical_order(vars)
    pos = {v: i for i, v in enumerate(order)}
    out: dict[int, Fraction] = {}
    for tags, coeff in terms.items():
        code = sum(1 << pos[tag] for tag in tags)
        out[code] = out.get(code, Fraction(0)) + Fraction(coeff)
    return MultilinearPoly(order, {c: v for c, v in out.items() if v != 0})


def _padd(dst: _Poly, src: _Poly, factor: Fraction) -> None:
    for tags, coeff in src.items():
        new = dst.get(tags, Fraction(0)) + coeff * factor
        if new == 0:
            dst.pop(tags, None)
        else:
            dst[tags] = new


def _shift_poly(p: _Poly, s: int) -> _Poly:
    # Relabel a polynomial expressed relative to index k so it is relative to
    # k - s: variable (j, o) becomes (j, o - s).
    if s == 0:
        return p
    return {
        frozenset(VarTag(t.stage, t.offset - s) for t in tags): c for tags, c in p.items()
    }


def _mul_fresh_var(p: _Poly, var: VarTag) -> _Poly:
    out: _Poly = {}
    for tags, coeff in p.items():
        if var in tags:
            raise AssertionError(f"variable {var} is not fresh in this product")
        out[tags | {var}] = coeff
    return out


def _apply_stencil(op: _LatticeOp, stencil: StencilSpec) -> _LatticeOp:
    # (D V)_k = sum_s c_s V_{k-s}; displacement d picks up s, tags shift by -s.
    out: _LatticeOp = {}
    for s, cs in stencil.coeffs.items():
        for d, poly in op.items():
            _padd(out.setdefault(d + s, {}), _shift_poly(poly, s), cs)
    return out


def _finalize(t: ButcherTableau, s: StencilSpec, raw: _LatticeOp) -> PropagationSet:
    tags = canonical_order(tag for poly in raw.values() for tags in poly for tag in tags)
    polys = {d: coded(tags, p) for d, p in raw.items() if p}
    _check_unity(s, [p.terms for p in polys.values()], stacklevel=4)
    return PropagationSet(tableau=t, stencil=s, vars=tags, polys=polys)


def generate_alt(t: ButcherTableau, s: StencilSpec) -> PropagationSet:
    """Independent construction from the closed-form Neumann expansion.

    Builds sum_{i=0}^{m-1} ((A (x) D) Q)^i (e (x) D) and contracts with b and
    the diagonal of stage variables; a cross-check oracle for generate().
    """
    m = t.m
    # term[j] is the j-th stage component of the current Neumann term.
    term: list[_LatticeOp] = []
    base = _apply_stencil({0: {frozenset(): Fraction(1)}}, s)
    for _ in range(m):
        term.append({d: dict(poly) for d, poly in base.items()})
    step: _LatticeOp = {0: {frozenset(): Fraction(1)}}
    for _ in range(m):
        for j in range(m):
            if t.b[j] == 0:
                continue
            var = VarTag(j + 1, 0)
            for d, poly in term[j].items():
                _padd(step.setdefault(d, {}), _mul_fresh_var(poly, var), t.b[j])
        nxt: list[_LatticeOp] = []
        for i in range(m):
            acc: _LatticeOp = {}
            for j in range(i):
                if t.a[i][j] == 0:
                    continue
                var = VarTag(j + 1, 0)
                mult = {
                    d: _mul_fresh_var(poly, var) for d, poly in term[j].items() if poly
                }
                shifted = _apply_stencil(mult, s)
                for d, poly in shifted.items():
                    _padd(acc.setdefault(d, {}), poly, t.a[i][j])
            nxt.append(acc)
        term = nxt
    return _finalize(t, s, step)
