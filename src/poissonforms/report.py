"""Check results and verification reports.

Reports render deterministically: checks sort by (name, location) and the
same inputs always produce byte-identical text and JSON.

This module owns how a law becomes a check.  A law whose residual must
vanish is recorded by `add_residual`, which keeps `str(residual)` as the
witness; a law over indexed components fails at its first nonzero one,
by `add_first_nonzero`, located by `component`.  The law modules only
compute residuals.
"""

from __future__ import annotations


def component(idx) -> str:
    """The location of the component at index tuple idx."""
    return "component (" + ",".join(map(str, idx)) + ")"


class Check:
    __slots__ = ("name", "status", "residual", "location")

    def __init__(self, name: str, ok: bool, residual: str = "0", location: str = ""):
        self.name = name
        self.status = "pass" if ok else "fail"
        self.residual = residual
        self.location = location

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "residual": self.residual,
            "location": self.location,
        }

    @staticmethod
    def not_applicable(name: str) -> "Check":
        c = Check(name, True, "")
        c.status = "not-applicable"
        return c

    @staticmethod
    def from_dict(d: dict) -> "Check":
        """Inverse of to_dict; ValueError on anything to_dict cannot write."""
        if not isinstance(d, dict):
            raise ValueError("report check is not an object")
        c = Check(d.get("name"), True, d.get("residual", "0"), d.get("location", ""))
        for field in ("name", "residual", "location"):
            if not isinstance(getattr(c, field), str):
                raise ValueError(f"report check field {field!r} is not a string")
        c.status = d.get("status")
        if c.status not in ("pass", "fail", "not-applicable"):
            raise ValueError(f"report check {c.name!r} has status {c.status!r}")
        return c

    def __repr__(self):
        return f"Check({self.name!r}, {self.status})"


class VerificationReport:
    def __init__(self, checks=()):
        self.checks = list(checks)

    def add(self, name: str, ok: bool, residual: str = "0", location: str = ""):
        self.checks.append(Check(name, ok, residual, location))

    def add_residual(self, name: str, residual, location: str = ""):
        """The law holds when the residual, an expression or form, is
        zero; the check keeps its text either way."""
        self.add(name, residual.is_zero(), residual=str(residual),
                 location=location)

    def add_first_nonzero(self, name: str, components):
        """Pass, or fail at the first (index, value) pair of `components`
        whose value is nonzero; later pairs are not computed."""
        bad = next(((idx, v) for idx, v in components if not v.is_zero()), None)
        if bad is None:
            self.add(name, True)
        else:
            self.add(name, False, str(bad[1]), component(bad[0]))

    def add_not_applicable(self, name: str):
        self.checks.append(Check.not_applicable(name))

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def sorted(self) -> "VerificationReport":
        return VerificationReport(sorted(self.checks, key=lambda c: (c.name, c.location)))

    def to_dict(self) -> dict:
        rep = self.sorted()
        failed = len(rep.failures)
        return {
            "checks": [c.to_dict() for c in rep.checks],
            "summary": {
                "total": len(rep.checks),
                "failed": failed,
                "status": "pass" if failed == 0 else "fail",
            },
        }

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        """Inverse of to_dict; a summary, when present, must agree with
        the checks, so an edited or truncated report cannot render green."""
        rep = VerificationReport(Check.from_dict(c) for c in d.get("checks", ()))
        if "summary" in d and d["summary"] != rep.to_dict()["summary"]:
            raise ValueError("report summary disagrees with its checks")
        return rep

    def render_text(self) -> str:
        rep = self.sorted()
        lines = []
        for c in rep.checks:
            if c.status == "not-applicable":
                lines.append(f"[N/A]  {c.name}")
            elif c.ok:
                lines.append(f"[PASS] {c.name}")
            else:
                where = f" at {c.location}" if c.location else ""
                lines.append(f"[FAIL] {c.name}{where} residual={c.residual}")
        failed = len(rep.failures)
        lines.append(f"checks: {len(rep.checks)} failed: {failed} "
                     f"status: {'pass' if failed == 0 else 'fail'}")
        return "\n".join(lines) + "\n"
