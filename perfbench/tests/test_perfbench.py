"""Tests of the benchmark itself: smoke-size runs of every workload, the
answer keys, seed semantics and the tracer's patching.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, result = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.END_TO_END.items():
        assert any(line.split()[:1] == [name] and unit in line for line in proc.stdout.splitlines())
    assert "failed_frac" in proc.stdout


def test_traced_smoke_run_reports_every_layer_metric_and_keeps_goldens():
    proc, result = _bench("--workload", "corpus", "--seed", "2", "--seconds", "1", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.per_layer_units()
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["finite_enum.candidates"] >= values["finite_enum.members"] > 0
    assert values["sampler.closures"] >= values["sampler.distinct"] > 0


def test_corrupted_reference_count_fails_the_run(monkeypatch, capsys):
    corrupted = tuple(
        t[:-1] + (t[-1] + 1,) if t[0] == "f2-x5" else t for t in workloads.FINITE_TEMPLATES
    )
    monkeypatch.setattr(workloads, "FINITE_TEMPLATES", corrupted)
    status = run.main(["--workload", "finite-lattice", "--seconds", "0.1", "--smoke"])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert status == 1
    assert result["correct"] is False and result["failed"] >= detail["passes"]
    assert detail["failed_frac"] == result["failed"] / result["attempted"] > 0
    assert all("f2-x5" in f and "reference 10" in f for f in detail["failures"])


def test_corpus_check_rejects_a_wrong_golden_and_a_wrong_assert():
    from futility.cases import parse_case
    from futility.reports import run_command

    corpus = ROOT / "corpus"
    case = corpus / "finite" / "f2-x3.case"
    report = run_command("oracle-compare", parse_case(case.read_text()), {}).to_json()
    assert workloads._check_golden(case.with_suffix(".expected"), case.read_text(), report) is None
    wrong_golden = corpus / "finite" / "f2-cube.expected"
    assert "differs" in workloads._check_golden(wrong_golden, case.read_text(), report)
    flipped = case.read_text().replace('"enumeration_count": 3', '"enumeration_count": 4')
    assert flipped != case.read_text()
    assert "enumeration count" in workloads._check_golden(case.with_suffix(".expected"), flipped, report)


def test_decide_only_answer_key_follows_the_construction():
    rng = random.Random(0)
    shapes = {name: shape for name, _copies, shape in workloads.Q_SHAPES}
    assert workloads._q_modulus(shapes["q8-lin3"], rng, rng)[1] == "Futile"
    assert workloads._q_modulus(shapes["q8-lin4"], rng, rng)[1] == "NotFutile"
    assert workloads._q_modulus(shapes["q8-eis2"], rng, rng)[1] == "NotFutile"
    assert workloads._q_modulus(shapes["q8-two-lin2"], rng, rng)[1] == "NotFutile"
    assert workloads._q_modulus(shapes["q8-reduced"], rng, rng)[1] == "Futile"
    check = partial(workloads._check_verdict, "Futile")
    assert check(json.dumps({"result": {"verdict": "Futile"}})) is None
    assert "NotFutile" in check(json.dumps({"result": {"verdict": "NotFutile"}}))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_draws_the_inputs(workload):
    a = workloads.make_cases(workload, 1, ROOT)
    assert [c.text for c in a] == [c.text for c in workloads.make_cases(workload, 1, ROOT)]
    b = workloads.make_cases(workload, 2, ROOT)
    assert sorted(c.case_id for c in a) == sorted(c.case_id for c in b)
    assert [c.case_id for c in a] != [c.case_id for c in b]
    texts_a = {c.case_id: c.text for c in a}
    changed = sum(texts_a[c.case_id] != c.text for c in b)
    assert (changed == 0) == (workload == "corpus")


def test_benchmark_json_names_every_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_quantile_weights_sum_to_one_and_track_order_statistics():
    assert run.quantile([7.0] * 42, 0.76) == pytest.approx(7.0)
    assert run.quantile(list(range(1, 52)), 0.5) == pytest.approx(26.0)
    assert run.quantile([3.0, 1.0, 2.0], 1.0) == 3.0
    rng = random.Random(5)
    values = [rng.random() for _ in range(51)]
    assert abs(run.quantile(values, 0.8) - sorted(values)[40]) < 0.1


def test_tail_percentile_leaves_ten_cases_beyond():
    assert run.tail_percentile(51) == 80
    assert run.tail_percentile(42) == 76
    assert run.tail_percentile(12) == 100
    for n in range(21, 200):
        rank = -(-run.tail_percentile(n) * n // 100)
        assert n - rank >= 10


def test_tracer_patches_every_binding_and_restores_them():
    import futility
    from futility import algebra, finite_enum, linalg, sampler

    from tracer import Tracer

    original = algebra.element_multiply
    contains = linalg.Subspace.contains
    holders = [m for m in (algebra, sampler, finite_enum, futility) if getattr(m, "element_multiply", None) is original]
    assert len(holders) >= 3
    with Tracer().install():
        for m in holders:
            assert m.element_multiply is not original
            assert m.element_multiply.__wrapped__ is original
        assert linalg.Subspace.contains is not contains
    for m in holders:
        assert m.element_multiply is original
    assert linalg.Subspace.contains is contains
