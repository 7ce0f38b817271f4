"""JSON file formats for structures, constants, and reports.

Structure file: {"chart": {"coords", "kind", "pairing"?}, "P": matrix of
expression strings, "Gamma": 3-index array of expression strings}.  Gamma
omitted means zero.  "pairing" maps each holomorphic coordinate to its
conjugate and appears only on complex charts.

Constants file: {"dim", "Rt": [{"A","B","C","D","value"}...], "f", "g"}
with sparse zero-based entries; "value" is {"re", "im"} with exact
rationals written as strings.  Omitted entries are zero.  "dim" is at
most MAX_DIM, because the canonical commands do work that grows with it
before they read a single entry, such as building a chart of `dim`
coordinates.

Dictionaries are built in a fixed field order so serialized output is
byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bracket import PoissonStructure
from .canonical import CanonicalConstants
from .ratexpr import Chart
from .scalars import GaussianRational

MAX_DIM = 32


def _expect_dict(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object")
    return d


def _expect_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be an array")
    return v


def _expect_str(v, what: str) -> str:
    if not isinstance(v, str):
        raise ValueError(f"{what} must be a string")
    return v


# -- exact scalars --------------------------------------------------------


def rational_from_str(text, what: str = "value") -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    try:
        text = _expect_str(text, what)
        if "e" in text.lower():  # Fraction expands 1e999999999 to every digit
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} is not an exact rational: {text!r}") from None


def scalar_to_dict(v: GaussianRational) -> dict:
    return {"re": str(v.re), "im": str(v.im)}


def scalar_from_dict(d, what: str = "value") -> GaussianRational:
    d = _expect_dict(d, what)
    return GaussianRational(rational_from_str(d.get("re", 0), f"{what}.re"),
                            rational_from_str(d.get("im", 0), f"{what}.im"))


# -- charts and structures ------------------------------------------------


def chart_to_dict(chart: Chart) -> dict:
    d = {"coords": list(chart.names), "kind": chart.kind}
    if chart.is_complex():
        d["pairing"] = {chart.names[a]: chart.names[b] for a, b in chart.pairs}
    return d


def chart_from_dict(d) -> Chart:
    d = _expect_dict(d, "chart")
    coords = [_expect_str(c, "coordinate") for c in
              _expect_list(d.get("coords"), "chart.coords")]
    kind = d.get("kind", "real")
    pairs = ()
    if "pairing" in d:
        pairing = _expect_dict(d["pairing"], "chart.pairing")
        for k, v in pairing.items():
            for name in (_expect_str(k, "pairing key"),
                         _expect_str(v, "pairing value")):
                if name not in coords:
                    raise ValueError(
                        f"pairing references unknown coordinate {name!r}")
        pairs = tuple(pairing.items())
    return Chart(coords, kind=kind, pairs=pairs)


def structure_to_dict(s: PoissonStructure) -> dict:
    d = {"chart": chart_to_dict(s.chart), "P": s.P.to_strings()}
    if not s.Gamma.is_zero():
        d["Gamma"] = s.Gamma.to_strings()
    return d


def _expect_array(v, what: str, levels: tuple):
    """v checked as nested arrays, one level per name in `levels` (the
    outermost first), with expression strings or integers as entries."""
    if not levels:
        if type(v) in (str, int):  # not bool, a subclass of int
            return v
        raise ValueError(f"{what} entries must be strings or integers")
    for sub in _expect_list(v, levels[0]):
        _expect_array(sub, what, levels[1:])
    return v


def structure_from_dict(d) -> PoissonStructure:
    d = _expect_dict(d, "structure")
    chart = chart_from_dict(d.get("chart"))
    P = _expect_array(d.get("P"), "P", ("P", "P row"))
    Gamma = d.get("Gamma")
    if Gamma is not None:
        _expect_array(Gamma, "Gamma", ("Gamma", "Gamma slab", "Gamma row"))
    return PoissonStructure(chart, P, Gamma)


# -- canonical constants --------------------------------------------------

_ENTRY_KEYS = {"Rt": ("A", "B", "C", "D"), "f": ("A", "B", "C"), "g": ("A", "B")}


def constants_to_dict(c: CanonicalConstants) -> dict:
    d = {"dim": c.dim}
    for field, keys in _ENTRY_KEYS.items():
        entries = getattr(c, field)
        if entries:
            d[field] = [dict(zip(keys, idx), value=scalar_to_dict(entries[idx]))
                        for idx in sorted(entries)]
    return d


def constants_from_dict(d) -> CanonicalConstants:
    d = _expect_dict(d, "constants")
    dim = d.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("dim must be a positive integer")
    if dim > MAX_DIM:
        raise ValueError(f"dim must be at most {MAX_DIM}")
    parsed = {}
    for field, keys in _ENTRY_KEYS.items():
        entries = []
        for raw in _expect_list(d.get(field, []), field):
            raw = _expect_dict(raw, f"{field} entry")
            idx = tuple(raw.get(k) for k in keys)
            entries.append(idx + (scalar_from_dict(raw.get("value"), f"{field}.value"),))
        parsed[field] = entries
    return CanonicalConstants.from_entries(dim, rt=parsed["Rt"],
                                           f=parsed["f"], g=parsed["g"])


# -- file I/O -------------------------------------------------------------


def dumps(d: dict) -> str:
    return json.dumps(d, indent=2) + "\n"


def _load_json(path: str):
    """The JSON value in a file; nesting too deep for the recursive
    decoder is malformed input, like any other decoding error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def load_structure(path: str) -> PoissonStructure:
    return structure_from_dict(_load_json(path))


def save_structure(s: PoissonStructure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(structure_to_dict(s)))


def load_constants(path: str) -> CanonicalConstants:
    return constants_from_dict(_load_json(path))


def save_constants(c: CanonicalConstants, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(constants_to_dict(c)))
