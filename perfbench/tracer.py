"""Per-layer tracing of poissonforms from outside the package.

The tracer replaces functions and methods of the package with wrappers
while it is installed, at every binding site: a module-level function is
rebound in every poissonforms module that holds it (``ratexpr`` imports
``poly_gcd`` by name, ``geometry`` and ``canonical`` import
``invert_matrix``), and a method is replaced on its class.  A layer is a
module.  Each wrapped call adds to its layer's call counts and self time
(its duration minus the time of wrapped calls made inside it).

Coarse public boundaries also record spans (name, start, end, parent
span, job), kept in memory and written out when the run ends.  The
arithmetic leaves (GaussianRational and Poly arithmetic, RatExpr
construction and arithmetic, DiffForm arithmetic) only count calls and
accumulate self time: spans there would run to about 450k per job.

The cost of a wrapper outside its own timed window is measured once at
install time and charged to the wrapped call rather than to its caller,
so that leaf-heavy layers do not inflate the self time of their callers.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time

PACKAGE = "poissonforms"

# Arithmetic leaves: only these methods are wrapped on these classes.
LEAF_METHODS = {
    ("scalars", "GaussianRational"): (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "conjugate",
        "norm2", "inverse"),
    ("polynomials", "Poly"): (
        "__add__", "__neg__", "__sub__", "__mul__", "__pow__", "scale",
        "deriv", "homogeneous_part", "conjugate", "monic", "divexact"),
    ("ratexpr", "RatExpr"): (
        "__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
        "diff", "conj", "subst", "eval_at"),
    ("forms", "DiffForm"): (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "scale", "partial_d", "ext_d", "d_holo", "d_antiholo",
        "star", "homogeneous_part", "bidegree_part"),
}
# Module-level functions of the leaf modules that are wrapped; their
# other public helpers are hot inner loops of the leaf methods.
LEAF_FUNCTIONS = {"scalars": (), "polynomials": ("poly_gcd",),
                  "ratexpr": (), "forms": ()}

# Every other module: all public functions and public methods defined in
# it, plus the CLI command handlers.
LAYERS = ("scalars", "polynomials", "ratexpr", "forms", "bracket",
          "geometry", "linalg", "canonical", "complexforms", "onedim",
          "parsing", "printing", "files", "report", "cli")

SPANS = frozenset({
    "cli.main", "bracket.verify_axioms", "geometry.check_integrability",
    "complexforms.verify_complex_axioms", "canonical.build_canonical",
    "bracket.PoissonStructure.bracket", "linalg.invert_matrix",
    "polynomials.poly_gcd", "printing.form_str", "printing.ratexpr_str",
    "files.load_structure", "files.load_constants",
})

JOB = "job"


def _is_span(key: str) -> bool:
    return key in SPANS or key.startswith("cli._cmd_")


def _targets():
    """(layer, key, owner, attribute name, function, is_static) for every
    function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        leaf = layer in LEAF_FUNCTIONS
        for name, val in sorted(vars(mod).items()):
            if isinstance(val, type) and val.__module__ == mod.__name__:
                if leaf:
                    names = LEAF_METHODS.get((layer, name), ())
                else:
                    names = [m for m in val.__dict__ if not m.startswith("_")]
                for m in names:
                    raw = val.__dict__.get(m)
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    if callable(fn) and not isinstance(raw, (property,
                                                             classmethod)):
                        out.append((layer, f"{layer}.{name}.{m}", val, m, fn,
                                    static))
            elif callable(val) and getattr(val, "__module__", None) == mod.__name__:
                if leaf:
                    wanted = name in LEAF_FUNCTIONS[layer]
                elif layer == "cli":
                    wanted = name == "main" or name.startswith("_cmd_")
                else:
                    wanted = not name.startswith("_")
                if wanted:
                    out.append((layer, f"{layer}.{name}", mod, name, val, False))
    return out


class Tracer:
    """Counts, self times and spans for the poissonforms layers.

    Use ``install()`` before the traced jobs and ``uninstall()`` after;
    wrap each job in ``job(name)``.  Counters keep adding up across jobs;
    ``snapshot()`` copies them so a caller can take differences.
    """

    def __init__(self, record_bracket_args: bool = False):
        self.calls = collections.Counter()     # by function key
        self.self_s = collections.Counter()    # by layer, and by span key
        self.incl_s = collections.Counter()    # by span key
        self.gcd_nontrivial = 0
        self.gcd_outer = 0
        self.printed_chars = 0
        self.spans = []          # (job, name, start, end, parent)
        self.bracket_args = []
        self.record_bracket_args = record_bracket_args
        # frames: [child time, layer, span index, function key]
        self._stack = [[0.0, JOB, -1, JOB]]
        self._job = -1
        self._undo = []
        self._out_cost = 0.0

    # -- install -----------------------------------------------------------

    def install(self, only=None) -> None:
        """Wrap every target, or only the function keys in ``only``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets = [t for t in _targets() if only is None or t[1] in only]
        originals = {id(fn): None for *_, fn, _ in targets}
        wrappers = {}
        for layer, key, owner, name, fn, static in targets:
            w = wrappers.get((id(fn), key))
            if w is None:
                w = self._wrap(fn, layer, key)
                wrappers[(id(fn), key)] = w
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, staticmethod(w) if static else w)
            originals[id(fn)] = w
        # rebind functions imported by name into other modules
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for name, val in list(vars(mod).items()):
                w = originals.get(id(val)) if callable(val) else None
                if w is not None and not isinstance(val, type) and val is not w:
                    self._undo.append((mod, name, val))
                    setattr(mod, name, w)
        if only is None and not self._out_cost:
            self._out_cost = self._calibrate()

    def uninstall(self) -> None:
        for owner, name, val in reversed(self._undo):
            setattr(owner, name, val)
        self._undo = []

    def _calibrate(self, n: int = 20000) -> float:
        """Seconds per wrapped call spent outside the wrapper's own timed
        window, measured on a wrapped no-op."""
        probe = Tracer()
        noop = probe._wrap(lambda: None, "probe", "probe")
        clock = time.perf_counter

        def bare():
            return None

        best = None
        for _ in range(5):
            inner_before = probe.self_s["probe"]
            t0 = clock()
            for _ in range(n):
                noop()
            wall = clock() - t0
            inner = probe.self_s["probe"] - inner_before
            t0 = clock()
            for _ in range(n):
                bare()
            plain = clock() - t0
            est = max(0.0, (wall - inner - plain) / n)
            best = est if best is None else min(best, est)
        return best

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, key):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        tracer = self

        if not _is_span(key):
            def leaf(*args, **kwargs):
                frame = [0.0, layer, stack[-1][2], key]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self_s[layer] += dt - frame[0]
                    stack[-1][0] += dt + tracer._out_cost
                    calls[key] += 1
            leaf.__wrapped__ = fn
            return leaf

        spans = self.spans
        incl_s = self.incl_s

        def span(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            frame = [0.0, layer, index, key]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                own = dt - frame[0]
                self_s[layer] += own
                self_s[key] += own
                incl_s[key] += dt
                parent[0] += dt + tracer._out_cost
                calls[key] += 1
                spans[index] = (tracer._job, key, t0, t1, parent[2])
                tracer._after(key, parent, args, result)
        span.__wrapped__ = fn
        return span

    def _after(self, key, parent, args, result):
        """Counts that need the caller, the arguments or the result."""
        if key == "polynomials.poly_gcd":
            if all(f[3] != key for f in self._stack):
                self.gcd_outer += 1
                if result is not None and not result.is_const():
                    self.gcd_nontrivial += 1
        elif key.startswith("printing."):
            if parent[1] != "printing" and isinstance(result, str):
                self.printed_chars += len(result)
        elif key == "bracket.PoissonStructure.bracket":
            if self.record_bracket_args:
                self.bracket_args.append((self._job, args))

    # -- jobs --------------------------------------------------------------

    def job(self, name: str):
        return _JobSpan(self, name)

    def distinct_bracket_args(self) -> int:
        """Distinct (structure, f, g) bracket arguments, counted within
        each job and summed.  Call after uninstall(): hashing forms must
        not reach the wrappers."""
        if self._undo:
            raise RuntimeError("uninstall the tracer first")
        seen = set()
        for job, args in self.bracket_args:
            seen.add((job, id(args[0])) + tuple(args[1:]))
        return len(seen)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "gcd_outer": self.gcd_outer,
                "gcd_nontrivial": self.gcd_nontrivial,
                "printed_chars": self.printed_chars}


class _JobSpan:
    """Root span of one job; its self time is time no layer claimed."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        tr._job += 1
        self.index = len(tr.spans)
        tr.spans.append(None)
        self.frame = [0.0, JOB, self.index, JOB]
        tr._stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = time.perf_counter()
        tr._stack.pop()
        dt = t1 - self.t0
        tr.self_s[JOB] += dt - self.frame[0]
        tr.incl_s[JOB] += dt
        tr.spans[self.index] = (tr._job, f"{JOB}:{self.name}", self.t0, t1, -1)
        return False
