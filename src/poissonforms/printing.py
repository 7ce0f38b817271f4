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
        return _scalar_factor(c) if (c.re and c.im) else str(c)
    if c == 1:
        return vars_part
    if c == -1:
        return "-" + vars_part
    return f"{_scalar_factor(c)}*{vars_part}"


def poly_str(p: Poly, names) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for exps, c in p.ordered_terms():
        s = _monomial_str(names, exps, c)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)


def _needs_parens_as_num(p: Poly) -> bool:
    return p.nterms() > 1


def _needs_parens_as_den(p: Poly, names) -> bool:
    if p.nterms() > 1:
        return True
    return "*" in poly_str(p, names)


def ratexpr_str(r: RatExpr) -> str:
    names = r.chart.names
    if r.den.is_const():
        return poly_str(r.num, names)
    num = poly_str(r.num, names)
    den = poly_str(r.den, names)
    if _needs_parens_as_num(r.num) or num.startswith("-"):
        num = f"({num})"
    if _needs_parens_as_den(r.den, names):
        den = f"({den})"
    return f"{num}/{den}"


def _coeff_factor(r: RatExpr) -> str:
    s = ratexpr_str(r)
    if r.den.is_const() and r.num.nterms() > 1:
        return f"({s})"
    return s


def form_str(form) -> str:
    """Render a differential form; degree parts ascending, index tuples in
    lexicographic order inside each degree."""
    names = form.chart.names
    items = sorted(form.parts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    if not items:
        return "0"
    parts = []
    for idxs, coeff in items:
        if not idxs:
            s = ratexpr_str(coeff)
        else:
            basis = "^".join(f"d[{names[j]}]" for j in idxs)
            if coeff == 1:
                s = basis
            elif coeff == -1:
                s = "-" + basis
            else:
                s = f"{_coeff_factor(coeff)}*{basis}"
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)
