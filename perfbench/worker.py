"""One benchmark run of one workload: a single-threaded worker process.

run.py starts this file in a fresh interpreter for every run, and never
two at a time.  The worker imports poissonforms from the checkout's
``src``, writes the run's inputs, and prints ``ready`` on stdout: that
ends set-up.  With ``--setup-only`` it exits there.  Otherwise it runs
the workload's jobs as a closed loop with one client, each job starting
when the previous verdict is in, and writes its records as JSON to
``--result``.

Untraced runs time every job.  Traced runs make passes over one slot of
each job type, with the tracer installed on every other pass, and report
layer metrics per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0
GOLDEN = os.path.join(HERE, "golden.json")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

# Controls: a workload that must bypass a layer, and the counter that
# proves it.  A later change that breaks one fails the run.
BYPASS = {"flat": "polynomials.poly_gcd",
          "product4": "bracket.PoissonStructure.bracket"}


def import_package():
    """poissonforms from this checkout's src, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "poissonforms", "__init__.py")):
        raise ImportError(f"no poissonforms package under {src}")
    sys.path.insert(0, src)
    import poissonforms
    import poissonforms.cli  # noqa: F401
    if not os.path.abspath(poissonforms.__file__).startswith(src + os.sep):
        raise ImportError(f"poissonforms imported from {poissonforms.__file__}")
    return poissonforms


# -- jobs ------------------------------------------------------------------


def run_job(pf, spec):
    """Take one structure through its battery.  Returns the exit codes
    and the verdict: a report for API jobs, the machine report text of
    the last command for CLI jobs."""
    kind = spec["kind"]
    if kind == "axioms":
        s = pf.load_structure(spec["path"])
        rep = pf.verify_axioms(s, pf.SamplePlan(seed=spec["plan_seed"]))
        return [0 if rep.passed else 1], rep
    if kind == "product":
        c = pf.load_constants(spec["path"])
        ch = spec["chart"]
        chart = pf.Chart(ch["coords"], kind="complex",
                         pairs=[tuple(p) for p in ch["pairs"]])
        s, _ = pf.build_canonical(c, chart)
        rep = pf.check_integrability(s)
        return [0 if rep.passed else 1], rep
    exits, text = [], ""
    for argv in spec["argv"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pf.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        exits.append(code)
        text = out.getvalue()
    return exits, text


def report_text(verdict) -> str:
    """Machine report bytes, in the format ``verify --format machine``
    prints."""
    if isinstance(verdict, str):
        return verdict
    return json.dumps(verdict.to_dict(), indent=2) + "\n"


def judge(spec, exits, verdict, golden, workdir):
    """Compare a verdict with the known answer, and for the default seed
    the report bytes with the golden digest.  Returns (checks decided,
    checks failed, problems)."""
    text = report_text(verdict)
    problems = []
    try:
        checks = json.loads(text)["checks"]
        failing = [c["name"] for c in checks if c["status"] == "fail"]
    except (ValueError, KeyError, TypeError):
        checks, failing = [], []
        problems.append("no machine report")
    expect = spec["expect"]
    if exits != expect["exits"]:
        problems.append(f"exit codes {exits}, expected {expect['exits']}")
    if sorted(set(failing)) != sorted(expect["fails"]):
        problems.append(f"failing laws {sorted(set(failing))}, "
                        f"expected {sorted(expect['fails'])}")
    if golden is not None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != golden.get(spec["slot"]):
            problems.append("machine report differs from the golden digest")
            path = os.path.join(workdir, f"mismatch-{spec['slot']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return len(checks), len(failing), problems


def timed_job(pf, spec):
    """Wall seconds from job start to verdict, with the raw outcome."""
    t0 = time.perf_counter()
    try:
        exits, verdict = run_job(pf, spec)
        raised = None
    except Exception:  # a raising job is a wrong verdict, not a crash
        exits, verdict, raised = None, None, traceback.format_exc()
    return time.perf_counter() - t0, exits, verdict, raised


def record(spec, seconds, exits, verdict, raised, golden, workdir) -> dict:
    rec = {"slot": spec["slot"], "type": spec["type"], "s": seconds,
           "checks": 0, "failed": 0, "problems": []}
    if raised is not None:
        rec["problems"].append("raised: " + raised.strip().splitlines()[-1])
        sys.stderr.write(raised)
    else:
        rec["checks"], rec["failed"], rec["problems"] = judge(
            spec, exits, verdict, golden, workdir)
    for p in rec["problems"]:
        sys.stderr.write(f"wrong verdict in {spec['slot']}: {p}\n")
    return rec


# -- runs ------------------------------------------------------------------


def closed_loop(pf, workload, jobs, seconds, golden, workdir) -> dict:
    controls = tracing.Tracer()
    control = BYPASS.get(workload)
    if control:
        controls.install(only={control})
    records = []
    start = time.perf_counter()
    try:
        while not records or time.perf_counter() - start < seconds:
            spec = jobs[len(records) % len(jobs)]
            seconds_, exits, verdict, raised = timed_job(pf, spec)
            records.append(record(spec, seconds_, exits, verdict, raised,
                                  golden, workdir))
    finally:
        controls.uninstall()
    errors = []
    if control and controls.calls[control]:
        errors.append(f"bypass lost: {workload} made "
                      f"{controls.calls[control]} calls to {control}")
    return {"jobs": records, "errors": errors}


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for key, val in after.items():
        if isinstance(val, dict):
            prev = before.get(key, {})
            out[key] = {k: v - prev.get(k, 0) for k, v in val.items()}
        else:
            out[key] = val - before.get(key, 0)
    return out


def layer_metrics(d: dict, distinct: int, checks: int, failed: int,
                  traced_s: float, base_s: float) -> dict:
    """Per-layer metrics of one pass, from counter differences."""
    calls, own, incl = d["calls"], d["self_s"], d["incl_s"]

    def n(key):
        return calls.get(key, 0)

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    gcd = d["gcd_outer"]
    brackets = n("bracket.PoissonStructure.bracket")
    return {
        "scalars.ops": layer_calls("scalars"),
        "scalars.self_s": own.get("scalars", 0.0),
        "polynomials.mul.calls": n("polynomials.Poly.__mul__"),
        "polynomials.self_s": own.get("polynomials", 0.0),
        "polynomials.gcd.calls": gcd,
        "polynomials.gcd.nontrivial_ratio":
            d["gcd_nontrivial"] / gcd if gcd else 0.0,
        "polynomials.gcd.self_s": own.get("polynomials.poly_gcd", 0.0),
        "ratexpr.built": n("ratexpr.RatExpr.__init__"),
        "ratexpr.diff.calls": n("ratexpr.RatExpr.diff"),
        "ratexpr.self_s": own.get("ratexpr", 0.0),
        "forms.wedge.calls": n("forms.DiffForm.__mul__")
                             + n("forms.DiffForm.__rmul__"),
        "forms.ext_d.calls": n("forms.DiffForm.ext_d"),
        "forms.self_s": own.get("forms", 0.0),
        "bracket.calls": brackets,
        "bracket.distinct_ratio": distinct / brackets if brackets else 0.0,
        "bracket.self_s": own.get("bracket", 0.0),
        "bracket.verify_axioms_s": incl.get("bracket.verify_axioms", 0.0),
        "geometry.integrability_s":
            incl.get("geometry.check_integrability", 0.0),
        "geometry.self_s": own.get("geometry", 0.0),
        "linalg.invert.calls": n("linalg.invert_matrix"),
        "linalg.self_s": own.get("linalg", 0.0),
        "canonical.build_s": incl.get("canonical.build_canonical", 0.0),
        "canonical.self_s": own.get("canonical", 0.0),
        "complexforms.verify_s":
            incl.get("complexforms.verify_complex_axioms", 0.0),
        "complexforms.self_s": own.get("complexforms", 0.0),
        "files.load_s": incl.get("files.load_structure", 0.0)
                        + incl.get("files.load_constants", 0.0),
        "parsing.self_s": own.get("parsing", 0.0),
        "printing.chars": d["printed_chars"],
        "printing.self_s": own.get("printing", 0.0),
        "report.checks": checks,
        "report.failed": failed,
        "cli.self_s": own.get("cli", 0.0),
        "trace.overhead_ratio": traced_s / base_s,
        "trace.unattributed_share":
            own.get(tracing.JOB, 0.0) / incl[tracing.JOB],
    }


def one_pass(jobs) -> list:
    """The first slot of each job type, in cycle order."""
    seen, out = set(), []
    for spec in jobs:
        if spec["type"] not in seen:
            seen.add(spec["type"])
            out.append(spec)
    return out


def traced_run(pf, workload, jobs, seconds, golden, workdir) -> dict:
    """A warm-up pass over one slot of each job type, then traced and
    untraced passes in turn.  Counts come from the first traced pass and
    times are medians over the traced passes; the overhead ratio compares
    them with the untraced passes."""
    specs = one_pass(jobs)
    outcomes = []  # (traced pass index or None, spec, timed outcome)
    tr = tracing.Tracer(record_bracket_args=True)

    def run_pass(k, traced):
        t0 = time.perf_counter()
        for spec in specs:
            if traced:
                with tr.job(spec["slot"]):
                    outcomes.append((k, spec, timed_job(pf, spec)))
            else:
                outcomes.append((None, spec, timed_job(pf, spec)))
        return time.perf_counter() - t0

    run_pass(None, False)
    passes, plain = [], []
    start = time.perf_counter()
    step = 0.0  # the last traced and untraced pair; no pair starts late
    while not plain or time.perf_counter() - start + step <= seconds:
        t0 = time.perf_counter()
        tr.install()
        try:
            before = tr.snapshot()
            wall = run_pass(len(passes), True)
            passes.append((wall, _delta(tr.snapshot(), before)))
        finally:
            tr.uninstall()
        tr.record_bracket_args = False  # distinct arguments: first pass
        plain.append(run_pass(None, False))
        step = time.perf_counter() - t0
    base_s = statistics.median(plain)
    records = []
    per_pass_checks = [[0, 0] for _ in passes]
    for k, spec, (dt, exits, verdict, raised) in outcomes:
        rec = record(spec, dt, exits, verdict, raised, golden, workdir)
        records.append(rec)
        if k is not None:
            per_pass_checks[k][0] += rec["checks"]
            per_pass_checks[k][1] += rec["failed"]
    distinct = tr.distinct_bracket_args()
    rows = [layer_metrics(d, distinct, *per_pass_checks[k], wall, base_s)
            for k, (wall, d) in enumerate(passes)]
    # counts from the first pass; times are the median over passes
    layers = {}
    for name, first in rows[0].items():
        if isinstance(first, int):
            layers[name] = first
        else:
            layers[name] = statistics.median(r[name] for r in rows)
    errors = []
    control = BYPASS.get(workload)
    if control:
        made = sum(d["calls"].get(control, 0) for _, d in passes)
        if made:
            errors.append(f"bypass lost: {workload} made {made} calls to "
                          f"{control}")
    with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"passes": len(passes), "snapshot": tr.snapshot(),
                   "spans": tr.spans}, fh)
    return {"jobs": records, "errors": errors, "per_layer": layers,
            "passes": len(passes)}


def load_golden(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def write_golden(pf, workdir: str) -> dict:
    """Digests of every slot's machine report at the default seed."""
    out = {}
    for workload in inputs.WORKLOADS:
        jobs = inputs.generate(workload, DEFAULT_SEED,
                               os.path.join(workdir, workload))
        out[workload] = {}
        for spec in jobs:
            exits, verdict = run_job(pf, spec)
            text = report_text(verdict)
            out[workload][spec["slot"]] = hashlib.sha256(
                text.encode()).hexdigest()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    pf = import_package()
    if args.write_golden:
        digests = write_golden(pf, args.workdir)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    jobs = inputs.generate(args.workload, args.seed, args.workdir)
    golden = load_golden(args.workload, args.seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    run = traced_run if args.trace else closed_loop
    result = run(pf, args.workload, jobs, args.seconds, golden, args.workdir)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
