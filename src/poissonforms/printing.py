"""Canonical, parse-stable string rendering for scalars, polynomials,
rational expressions, and differential forms.

Output is deterministic: terms print in descending graded lex order and
form components in ascending degree, so equal values always render to
identical strings.

The annotations name `Poly`, `RatExpr` and `GaussianRational` without
importing them: `ratexpr` and `forms` import this module to render
themselves, so it sits below them and imports nothing of the package.
"""

from __future__ import annotations


def _scalar_factor(c: GaussianRational) -> str:
    """Render c for use as a leading factor in a product."""
    s = str(c)
    if c.re and c.im:
        return f"({s})"
    return s


def _monomial_str(names, exps, c: GaussianRational) -> str:
    vars_part = "*".join(
        name if k == 1 else f"{name}^{k}"
        for name, k in zip(names, exps)
        if k
    )
    if not vars_part:
        return _scalar_factor(c)
    if c == 1:
        return vars_part
    if c == -1:
        return "-" + vars_part
    return f"{_scalar_factor(c)}*{vars_part}"


def _signed_join(terms) -> str:
    """Join rendered terms, at least one, into a sum: a later term's
    leading minus becomes its " - " separator."""
    terms = iter(terms)
    out = [next(terms)]
    for s in terms:
        out.append(" - " + s[1:] if s.startswith("-") else " + " + s)
    return "".join(out)


def poly_str(p: Poly, names) -> str:
    if p.is_zero():
        return "0"
    return _signed_join(_monomial_str(names, exps, c)
                        for exps, c in p.ordered_terms())


def ratexpr_str(r: RatExpr) -> str:
    names = r.chart.names
    if r.is_poly():
        return poly_str(r.num, names)
    num = poly_str(r.num, names)
    den = poly_str(r.den, names)
    if r.num.nterms() > 1 or num.startswith("-"):
        num = f"({num})"
    if r.den.nterms() > 1 or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"


def _coeff_factor(r: RatExpr) -> str:
    s = ratexpr_str(r)
    if r.is_poly() and r.num.nterms() > 1:
        return f"({s})"
    return s


def _form_term_str(names, idxs: tuple, coeff: RatExpr) -> str:
    if not idxs:
        return ratexpr_str(coeff)
    basis = "^".join(f"d[{names[j]}]" for j in idxs)
    if coeff == 1:
        return basis
    if coeff == -1:
        return "-" + basis
    return f"{_coeff_factor(coeff)}*{basis}"


def form_str(form) -> str:
    """Render a differential form; degree parts ascending, index tuples in
    lexicographic order inside each degree."""
    if not form.parts:
        return "0"
    names = form.chart.names
    return _signed_join(
        _form_term_str(names, idxs, coeff) for idxs, coeff in
        sorted(form.parts.items(), key=lambda kv: (len(kv[0]), kv[0])))
