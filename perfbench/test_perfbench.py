"""Self-tests of the benchmark: tracer counts, a correctness gate that is
not vacuous, the bypass controls, and BENCHMARK.json against run.py.

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

pf = worker.import_package()


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _traced_job(spec):
    tr = tracing.Tracer(record_bracket_args=True)
    tr.install()
    try:
        with tr.job(spec["slot"]):
            worker.run_job(pf, spec)
    finally:
        tr.uninstall()
    return tr


def _flat_spec(workdir, dim):
    """A Darboux job with the default sample plan."""
    jobs = inputs.generate("flat", 0, workdir)
    spec = next(j for j in jobs if j["type"] == f"darboux{dim}")
    return dict(spec, plan_seed=0)


# -- tracer ----------------------------------------------------------------


def test_tracer_hand_counts(workdir):
    """Darboux-4 and Darboux-2 with the default plan make the bracket
    calls counted by hand: 4*64 pair and 9*512 triple calls plus 13 per
    sample on Darboux-4, 660 of them distinct."""
    tr = _traced_job(_flat_spec(workdir, 4))
    assert tr.calls["bracket.PoissonStructure.bracket"] == 5189
    assert tr.distinct_bracket_args() == 660
    tr = _traced_job(_flat_spec(workdir, 2))
    assert tr.calls["bracket.PoissonStructure.bracket"] == 965


def test_tracer_rebinds_every_binding_site():
    tr = tracing.Tracer()
    tr.install()
    try:
        wrapped = pf.polynomials.poly_gcd
        assert hasattr(wrapped, "__wrapped__")
        assert pf.ratexpr.poly_gcd is wrapped
        assert pf.geometry.invert_matrix is pf.linalg.invert_matrix
        assert pf.canonical.invert_matrix is pf.linalg.invert_matrix
        assert hasattr(pf.linalg.invert_matrix, "__wrapped__")
        assert pf.verify_axioms is pf.bracket.verify_axioms
        assert hasattr(pf.verify_axioms, "__wrapped__")
    finally:
        tr.uninstall()
    assert not hasattr(pf.polynomials.poly_gcd, "__wrapped__")
    assert not hasattr(pf.ratexpr.poly_gcd, "__wrapped__")
    assert not hasattr(pf.verify_axioms, "__wrapped__")


def _traced_counts():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "flat",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def test_traced_counts_repeat_across_runs():
    first = _traced_counts()
    assert first["bracket.calls"] == 5189 + 965
    assert first == _traced_counts()


# -- correctness gate ------------------------------------------------------


def _wrong_rate(records):
    return sum(1 for r in records if r["problems"]) / len(records)


def _run(spec, golden, workdir):
    return worker.record(spec, 0.0, *worker.run_job(pf, spec), None, golden,
                         workdir)


def test_gate_catches_broken_structure_labelled_pass(workdir):
    jobs = inputs.generate("broken", 5, workdir)
    spec = next(j for j in jobs if j["type"] == "darboux2-random")
    assert _wrong_rate([_run(spec, None, workdir)]) == 0
    lie = dict(spec, expect={"exits": [0], "fails": []})
    assert _wrong_rate([_run(lie, None, workdir)]) > 0


def test_gate_catches_one_byte_golden_edit(workdir):
    golden = worker.load_golden("broken", worker.DEFAULT_SEED)
    jobs = inputs.generate("broken", worker.DEFAULT_SEED, workdir)
    spec = jobs[0]
    exits, verdict = worker.run_job(pf, spec)
    ok = worker.record(spec, 0.0, exits, verdict, None, golden, workdir)
    assert _wrong_rate([ok]) == 0
    # one byte of the report changed
    k = verdict.index('"pass"')
    edited = verdict[:k + 1] + "P" + verdict[k + 2:]
    bad = worker.record(spec, 0.0, exits, edited, None, golden, workdir)
    assert _wrong_rate([bad]) > 0
    # one character of the golden digest changed
    digest = golden[spec["slot"]]
    flipped = dict(golden, **{spec["slot"]: ("0" if digest[0] != "0" else "1")
                              + digest[1:]})
    bad = worker.record(spec, 0.0, exits, verdict, None, flipped, workdir)
    assert _wrong_rate([bad]) > 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_default_seed_matches_known_answers_and_goldens(workload, workdir):
    golden = worker.load_golden(workload, worker.DEFAULT_SEED)
    jobs = inputs.generate(workload, worker.DEFAULT_SEED, workdir)
    assert set(golden) == {j["slot"] for j in jobs}
    records = [_run(spec, golden, workdir) for spec in worker.one_pass(jobs)]
    assert _wrong_rate(records) == 0


# -- bypass controls -------------------------------------------------------


def test_bypass_loss_is_reported(workdir):
    """A flat run that reaches poly_gcd says so."""
    struct = os.path.join(workdir, "s.json")
    spec = {"slot": "0-x", "type": "x", "kind": "cli",
            "argv": [["onedim", "build", "--a=1", "--b=0", "--c=1",
                      "--emit", struct]],
            "expect": {"exits": [0], "fails": []}}
    result = worker.closed_loop(pf, "flat", [spec], 0, None, workdir)
    assert any("bypass lost" in e for e in result["errors"])


# -- definitions -----------------------------------------------------------


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert set(run.WORKLOADS) <= set(inputs.WORKLOADS)


def test_tail_mean():
    assert run.tail([1.0] * 3 + [2.0]) == (2.0, 1, 4)
    assert run.tail([3.0, 1.0]) == (3.0, 1, 2)
    times = list(range(100))
    assert run.tail(times) == (87.0, 25, 100)


def test_symplectic_pullback_keeps_darboux():
    for seed in range(20):
        N = inputs._random_symplectic(random.Random(seed))
        assert N[0][0] * N[1][1] - N[0][1] * N[1][0] == 1
    identity = [[1, 0], [0, 1]]
    assert inputs._symplectic_pullback(inputs.GAMMA0, identity) == \
        inputs.GAMMA0
