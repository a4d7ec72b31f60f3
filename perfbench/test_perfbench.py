"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import steady  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import gbgeom  # noqa: E402


def test_generators_are_deterministic_for_a_seed():
    for params in (False, True):
        assert gen.quadric_pairs(7, 6, params) == gen.quadric_pairs(7, 6, params)
        assert gen.quadric_pairs(7, 6, params) != gen.quadric_pairs(8, 6, params)
    system = gen.katsura(3)
    assert gen.membership_targets(7, system, 6, 1, 3) == gen.membership_targets(7, system, 6, 1, 3)
    assert gen.membership_targets(7, system, 6, 1, 3) != gen.membership_targets(8, system, 6, 1, 3)


def test_generated_systems_parse():
    texts = [gen.katsura(3), gen.cyclic(4), workloads.stress_system()]
    texts += gen.quadric_pairs(3, 6, False) + gen.quadric_pairs(3, 6, True)
    texts += list(workloads.pinned_systems().values())
    for text in texts:
        assert gbgeom.parse_system(text).build()
    spec = gbgeom.parse_system(gen.katsura(3))
    for target, _ in gen.membership_targets(3, gen.katsura(3), 4, 1, 3):
        gbgeom.parse_expression(target, spec.context())


def test_katsura2_from_the_formula_is_the_textbook_system():
    textbook = [
        "x^2 + 2*y^2 + 2*z^2 - x",
        "2*x*y + 2*y*z - y",
        "x + 2*y + 2*z - 1",
    ]
    spec = gbgeom.parse_system(gen.katsura(2))
    renamed = [p.replace("u0", "x").replace("u1", "y").replace("u2", "z") for p in spec.polynomials]
    assert len(renamed) == len(textbook)
    for generated, expected in zip(renamed, textbook):
        assert check.same_value(generated, expected, "xyz")


def test_cyclic3_from_the_formula():
    spec = gbgeom.parse_system(gen.cyclic(3))
    expected = ["x0 + x1 + x2", "x0*x1 + x1*x2 + x2*x0", "x0*x1*x2 - 1"]
    for generated, want in zip(spec.polynomials, expected):
        assert check.same_value(generated, want, spec.variables)


def test_normalization_accepts_a_rescaled_basis_and_rejects_a_wrong_one():
    system = gen.katsura(3)
    names = gbgeom.parse_system(system).variables
    reference = workloads.fixed_reference("katsura-3", system)
    ours = [str(g) for g in gbgeom.reduced_basis(gbgeom.parse_system(system).build())]
    assert check.same_basis(ours, reference, names)
    rescaled = [f"(-7/3)*({g})" for g in reversed(reference)]
    assert check.same_basis(rescaled, reference, names)
    wrong = ours[:-1] + [ours[-1].replace("u3^8", "u3^8 + u3", 1)]
    assert not check.same_basis(wrong, reference, names)
    assert not check.same_basis(ours[:-1], reference, names)


def test_normalization_over_parameters():
    vars_, params = "xyz", "ab"
    reference = ["x + a/b*y - a*z", "y^2 - b*y*z + 1/2*b^2*z^2 - 1/2*b^2*z"]
    rescaled = ["(a + 1)*(b*x + a*y - a*b*z)", "2*y^2 - 2*b*y*z + b^2*z^2 - b^2*z"]
    assert check.same_basis(rescaled, reference, vars_, params)
    assert not check.same_basis(["b*x + a*y - b*z", rescaled[1]], reference, vars_, params)
    assert check.same_value("b^(-2) + x", "1/b^2 + x", vars_, params)
    assert not check.same_value("2*x", "x", vars_, params)


def test_division_identity_and_planes():
    divisors = ["x + z^3 + z - 3", "y - z^3 - 1"]
    assert check.division_identity("x + y + z - 4", divisors, ["1", "1"], "0", "xyz")
    assert not check.division_identity("x + y + z - 4", divisors, ["1", "0"], "0", "xyz")
    assert check.same_planes([["1", "0", "-1/2", "3"]], [["2", "0", "-1", "6"]])
    assert not check.same_planes([["1", "0", "-1/2", "3"]], [["2", "0", "-1", "5"]])


def _spin():
    while True:
        time.sleep(0.001)


def test_a_forced_timeout_is_recorded_as_a_failure():
    previous = signal.signal(signal.SIGALRM, run._expire)
    try:
        item = workloads.Item("spin", _spin, lambda r: r, lambda r: True)
        quick = workloads.Item("quick", lambda: 1, lambda r: r, lambda r: r == 1)
        result = run.Run([item, quick], 0.05)
        result.passes(0, 2, random.Random(0))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert result.samples["spin"] == [0.05] and result.spans["spin"] == [None]
    assert result.timeouts == 1 and result.failed == 1
    assert result.dropped == {"spin"}
    assert len(result.samples["quick"]) == 2
    assert result.answers == 3 and result.attempted == 2
    times = run.answer_times(result, result.samples, 2)
    assert len(times) == 4 and times.count(0.05) == 2


def test_wrong_answers_are_counted():
    answers = iter([1, 2, 1])
    unsteady = workloads.Item("unsteady", lambda: next(answers), lambda r: r, lambda r: r == 1)
    wrong = workloads.Item("wrong", lambda: 2, lambda r: r, lambda r: r == 1)
    result = run.Run([unsteady, wrong], 1.0)
    for _ in range(3):
        result.ask(unsteady)
    result.ask(wrong)
    result.ask(wrong)
    assert result.wrong == {"unsteady": 1, "wrong": 0}
    result.verify()
    assert result.wrong == {"unsteady": 1, "wrong": 2}
    assert result.wrong_answers == 3 and result.failed == 2 and result.attempted == 2


def test_tracer_restores_the_program():
    run.forget_gbgeom()
    package = run.fresh_import()
    before = (package.reduced_basis, package.groebner.normal_form, vars(package.Polynomial)["__add__"])
    tracer = tracing.Tracer(package)
    tracer.install()
    try:
        assert package.groebner.normal_form is not before[1]
        polys = package.parse_system(gen.katsura(2)).build()
        basis = tracer.run(lambda: package.reduced_basis(polys))
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert (package.reduced_basis, package.groebner.normal_form,
            vars(package.Polynomial)["__add__"]) == before
    assert len(basis) == 3
    assert totals["groebner.spairs"] > 0
    assert totals["coefficients.ops"] > 0
    assert totals["division.steps"] > 0
    assert 0.9 < totals["trace.accounted_share"] <= 1.0


def test_a_delegating_normal_form_counts_as_one_division():
    run.forget_gbgeom()
    package = run.fresh_import()
    polys = package.parse_system(gen.katsura(2)).build()
    tracer = tracing.Tracer(package)
    tracer.install()
    try:
        tracer.run(lambda: package.groebner.normal_form(polys[0], polys[1:]))
        one = tracer.totals()
        tracer.reset()
        tracer.run(lambda: package.multivariate_divide(polys[0], polys[1:]))
        other = tracer.totals()
    finally:
        tracer.uninstall()
    assert one["division.calls"] == other["division.calls"] == 1
    assert one["division.steps"] == other["division.steps"]


def test_core_batch_leaves_out_slow_items_only():
    slow = workloads.Item("slow", lambda: 1, lambda r: r, lambda r: True, slow=True)
    quick = workloads.Item("quick", lambda: 1, lambda r: r, lambda r: True)
    result = run.Run([slow, quick], 1.0)
    result.samples = {"slow": [0.5, 0.5], "quick": [0.1, 0.3]}
    result.asked = {"slow", "quick"}
    metrics, extra = run.end_to_end(result, 2, 1.0)
    assert metrics["batch_s"][0] == pytest.approx(0.7)
    assert metrics["core_batch_s"][0] == pytest.approx(0.2)
    assert extra["measured_core_batch_s"][0] == pytest.approx(0.2)


def test_times_are_scaled_to_the_speed_during_each_answer():
    meter = speed.Meter()
    # Slow (twice the reference time) until t = 10, at the reference speed after.
    meter.at = [float(t) for t in range(20)]
    meter.samples = [speed.REFERENCE_S * (2 if t < 10 else 1) for t in range(20)]
    assert meter.factor_for(2.5, 3.5) == pytest.approx(0.5)
    assert meter.factor_for(14.5, 15.5) == pytest.approx(1.0)
    # Fewer than NEAREST samples inside: the nearest ones on both sides.
    assert meter.factor_for(8.5, 9.5) == pytest.approx(0.5)
    items = [workloads.Item(name, lambda: 1, lambda r: r, lambda r: True) for name in "ab"]
    result = run.Run(items, 1.0)
    result.samples = {"a": [0.1, 0.3], "b": [0.2, 0.2]}
    result.spans = {"a": [(1.0, 1.1), (15.0, 15.3)], "b": [(2.0, 2.2), (16.0, 16.2)]}
    result.asked = {"a", "b"}
    assert result.scaled(meter) == {"a": [0.05, 0.3], "b": [0.1, 0.2]}
    result.spans["b"][1] = None  # a timeout is charged at the limit as it stands
    assert result.scaled(meter)["b"] == [0.1, 0.2]
    result.spans["b"][1] = (16.0, 16.2)
    metrics, extra = run.end_to_end(result, 2, 2.0, meter)
    assert metrics["batch_s"][0] == pytest.approx(0.175 + 0.15)
    assert meter.factor() == pytest.approx(2 / 3)
    assert metrics["setup_s"][0] == pytest.approx(2.0 * 2 / 3)
    assert extra["measured_batch_s"][0] == pytest.approx(0.4)
    assert extra["measured_setup_s"][0] == pytest.approx(2.0)


def test_the_meter_samples_inside_answers_and_takes_its_time_out():
    def busy():
        end = time.process_time() + 4 * speed.SAMPLE_EVERY_S
        while time.process_time() < end:
            pass
        return 1

    item = workloads.Item("busy", busy, lambda r: r, lambda r: r == 1)
    meter = speed.Meter()
    result = run.Run([item], 10.0, meter=meter)
    start = time.perf_counter()
    result.passes(0, 1, random.Random(0))
    wall = time.perf_counter() - start
    assert len(meter.samples) >= 2
    assert result.samples["busy"][0] == pytest.approx(wall - meter.busy, abs=0.05)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_printed_metrics_match_the_benchmark_spec(capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "paper", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[section]
        }


def test_steady_summary_over_sets():
    def stored(values):
        runs = [{"seed": i, "batch_s": v} for i, v in enumerate(values)]
        return {"paper": {"runs": runs, "spread": {"batch_s": steady.spread(values, 0.25)}}}

    doc = {"sets": {"set1": stored([1.0, 2.0, 3.0, 4.0, 5.0]), "set2": stored([2.0, 4.0, 6.0])}}
    steady.summarize(doc)
    assert doc["sets"]["set1"]["paper"]["spread"]["batch_s"]["spread"] == pytest.approx(1.0)
    assert not doc["sets"]["set1"]["paper"]["spread"]["batch_s"]["within_bound"]
    assert doc["baseline_medians"] == {"paper": {"batch_s": 3.5}}
    assert doc["median_drift"]["set2_vs_set1"]["paper"]["batch_s"] == pytest.approx(1 / 3)
