import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from qgharm import (catalog, cli, core, duality, lp, report, sharpness,
                    structures, suq2)
from qgharm.core import (FiniteQuantumGroup, build_group_algebra,
                         build_kac_paljutkin, verify_axioms)
from qgharm.errors import AxiomFailure, QgharmError
from reference import (_calls_to, _counting, _delta_homomorphism_reference,
                       _s4_table, weighted_space)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_document(capsys):
    code, out, err = run_cli(capsys, "catalog")
    assert code == 0
    doc = json.loads(out)
    assert doc["tool_version"] == "0.1.0"
    assert doc["command"] == "catalog"
    assert doc["elapsed_ms"] is None
    assert len(doc["examples"]) == 7
    assert doc["examples"][0]["name"] == "z2-function"


def test_verify_passes_and_reports_every_axiom(capsys):
    code, out, err = run_cli(capsys, "verify", "--example", "z2-function")
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert "associativity" in names
    assert "pentagon" in names
    assert "plancherel" in names
    assert "biduality" in names
    assert all(c["holds"] for c in doc["checks"])
    assert all(set(c) >= {"name", "claim", "lhs", "rhs", "residual", "holds"}
               for c in doc["checks"])
    assert "all checks hold" in err


def test_output_is_byte_identical_across_reruns(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--example", "z3-function",
                         "--seed", "42")
    _, out2, _ = run_cli(capsys, "verify", "--example", "z3-function",
                         "--seed", "42")
    assert out1 == out2
    assert out1.endswith("\n")
    # verify's checks are exact: its seed is only echoed
    _, out3, _ = run_cli(capsys, "verify", "--example", "z3-function",
                         "--seed", "1")
    assert out3 == out1.replace('"seed": 42', '"seed": 1')
    assert out3 != out1
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    help_of = {command: next(a.help for a in subparsers[command]._actions
                             if a.dest == "seed")
               for command in ("verify", "structures")}
    assert help_of["verify"] == help_of["structures"] == (
        "echoed in the report; has no effect on the result")


def test_young_subcommand(capsys):
    code, out, _ = run_cli(capsys, "young", "--example", "z4-function",
                           "--p", "1.5", "--q", "1.5", "--samples", "25",
                           "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"p": 1.5, "q": 1.5, "samples": 25}
    assert doc["seed"] == 7
    (check,) = doc["checks"]
    assert check["holds"]
    assert check["lhs"] <= 1.0 + 1e-9


def test_hausdorff_young_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hausdorff-young", "--example", "z2-group",
                           "--samples", "25", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    (check,) = doc["checks"]
    assert check["holds"]


@pytest.mark.parametrize("argv", [
    ("hausdorff-young", "--example", "kac-paljutkin", "--p", "1.001"),
    ("hausdorff-young", "--example", "z2-function", "--p", "1.00001"),
    ("young", "--example", "s3-function", "--p", "2", "--q", "1.999"),
])
def test_large_exponents_hold(capsys, argv):
    # p' = 1001, p' = 100001 and r = 4000: the norms' p-th powers used to
    # overflow, and the inequality read as failing with lhs inf
    code, out, err = run_cli(capsys, *argv, "--seed", "42")
    assert code == 0, err
    (check,) = json.loads(out)["checks"]
    assert check["holds"] and 0.9 < check["lhs"] <= check["rhs"]


def test_structures_subcommand_emits_one_block_per_candidate(
        capsys, monkeypatch):
    enumerations = _counting(monkeypatch, structures, "_group_like")
    code, out, _ = run_cli(capsys, "structures", "--example", "z4-function")
    assert code == 0
    # the per-projection checks reuse the equivalence report's list
    assert len(enumerations) == 1
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    for idx in range(3):  # three group-like projections on four points
        assert f"group-like-{idx}-properties" in names
        assert f"group-like-{idx}-biprojection" in names
        assert f"group-like-{idx}-fourier-image" in names
    assert "biprojection-iff-group-like" in names
    assert all(c["holds"] for c in doc["checks"])


def _calls(func, capsys, *argv) -> list:
    """The locals, at entry, of each call of func during one passing CLI
    run, counted as reference._calls_to counts them."""
    (code, _, _), calls = _calls_to(func, lambda: run_cli(capsys, *argv))
    assert code == 0
    return calls


def _stacks(func, stack, capsys, *argv) -> list:
    """The length of the argument named stack of each call of func during
    one passing CLI run."""
    return [len(call[stack]) for call in _calls(func, capsys, *argv)]


def test_structures_certifies_each_biprojection_once(capsys):
    # once per enumerated biprojection and once per group-like projection,
    # 8 of each on KP, one stack per list; the printed checks reuse the
    # equivalence record's
    assert _stacks(structures.biprojection_checks, "hs", capsys,
                   "structures", "--example", "kac-paljutkin") == [8, 8]


def test_structures_certifies_each_group_like_projection_once(capsys):
    # KP has 8 group-like projections and 8 biprojections: once each in the
    # enumeration and in the filter of biprojections that are not
    # group-like, and once per dual image in the Fourier-image check, one
    # stack per list; the printed checks reuse the enumeration's
    # certificates
    assert _stacks(structures._group_like_residuals, "hc", capsys,
                   "structures", "--example", "kac-paljutkin") == [8, 8, 8]


@pytest.mark.parametrize("command", ["structures", "hunt"])
def test_no_certificate_is_evaluated_one_element_at_a_time(capsys, command):
    # every list goes through the certificates as one stack: none of them
    # is called on a stack of one
    for func in (structures.group_like_checks,
                 structures.biprojection_checks,
                 structures.glp_properties_checks,
                 structures.glpbi_checks):
        assert 1 not in _stacks(func, "hs", capsys, command, "--example",
                                "kac-paljutkin"), func.__name__


def test_structures_builds_the_block_choices_once(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "get_example",
                        lambda name: build_kac_paljutkin())
    # the group-like and the biprojection enumerations share the base's list
    assert len(_calls(core.Blocks.choices.func, capsys, "structures",
                      "--example", "kac-paljutkin")) == 1


def test_verify_evaluates_the_homomorphism_law_once(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "get_example",
                        lambda name: build_kac_paljutkin())
    # the n^6 law runs on the base at construction; the dual and the
    # double dual take it from the base's residuals
    assert len(_calls(core._delta_homomorphism, capsys, "verify",
                      "--example", "kac-paljutkin")) == 1


def test_verify_holds_on_the_group_algebra_of_s4(capsys, monkeypatch):
    """n = 24: every check of the document and every gate of build_dual
    holds, and the one-product homomorphism law reads the residual of the
    pairwise products bit for bit."""
    g = build_group_algebra(_s4_table(), "s4-group")
    monkeypatch.setattr(catalog, "get_example", lambda name: g)
    code, out, err = run_cli(capsys, "verify", "--example", "kac-paljutkin")
    assert code == 0, err
    doc = json.loads(out)
    assert len(doc["checks"]) == 22
    assert all(c["holds"] for c in doc["checks"])
    assert (verify_axioms(g).residuals["delta_homomorphism"]
            == _delta_homomorphism_reference(g))


COMMON_KEYS = {"name", "claim", "lhs", "rhs", "residual", "holds"}
PRINTED_EXTRAS = {
    r"group-like-\d+-properties": {"coeffs", "haar_value"},
    r"group-like-\d+-biprojection": {"multiple"},
    r"biprojection-iff-group-like": {"projections_checked"},
    r"best-constant-(young|hy)": {"converged", "restarts_used", "iterations",
                                  "argmax"},
    r"non-group-like-biprojection-hunt": {"candidates", "group_like_hits"},
    r"convolution-unbounded-certificate": {"bound_numerator",
                                           "bound_denominator"},
}
# keys of library records that stay out of the printed document
DETAIL_KEYS = ("residuals", "details", "element", "base_projection",
               "group_like_biprojection", "singular_value_gaps",
               "dual_weight_of_range", "modular_invariance", "ratio", "excess")


@pytest.mark.parametrize("argv, count", [
    (("all", "--example", "kac-paljutkin", "--samples", "5"), 50),
    (("sharpness", "--example", "z2-function", "--restarts", "1",
      "--iters", "3"), 1),
    (("sharpness", "--kind", "hy", "--example", "s3-function",
      "--restarts", "1", "--iters", "3"), 1),
    (("hunt", "--example", "kac-paljutkin"), 1),
    (("suq2", "--n", "2"), 1),
])
def test_printed_checks_have_exactly_their_keys(capsys, argv, count):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == count
    for c in checks:
        name = c["name"].split(":")[-1]
        extras = [keys for pattern, keys in PRINTED_EXTRAS.items()
                  if re.fullmatch(pattern, name)]
        assert set(c) == COMMON_KEYS.union(*extras), c["name"]
    for key in DETAIL_KEYS:
        assert f'"{key}":' not in out, key


@pytest.mark.parametrize("example, seed", [
    ("kac-paljutkin", "1"), ("kac-paljutkin", "2"), ("s3-group", "3")])
def test_young_at_p_q_one_stays_at_one(capsys, example, seed):
    # the eigen route of the L^p kernel lost the small singular values of
    # a 2x2 block, and these runs exited 2 with estimates up to
    # 1.0000016735701454
    code, out, err = run_cli(capsys, "sharpness", "--kind", "young",
                             "--example", example, "--p", "1", "--q", "1",
                             "--restarts", "1", "--iters", "2",
                             "--seed", seed)
    assert code == 0, err
    (check,) = json.loads(out)["checks"]
    assert check["holds"] and check["lhs"] <= 1.0 + 1e-12


def test_sharpness_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sharpness", "--example", "z2-function",
                           "--kind", "hy", "--p", "2.0", "--restarts", "2",
                           "--iters", "100", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    (check,) = doc["checks"]
    assert check["lhs"] == pytest.approx(1.0, abs=1e-9)
    assert check["converged"] is True


def test_suq2_subcommand_exact_strings(capsys):
    code, out, _ = run_cli(capsys, "suq2", "--n", "1", "--mu-num", "1",
                           "--mu-den", "2")
    assert code == 0
    doc = json.loads(out)
    (check,) = doc["checks"]
    assert check["bound_numerator"] == "80"
    assert check["bound_denominator"] == "21"
    assert check["holds"]
    assert doc["params"]["mu"] == "1/2"


# sha256 of the suq2 document's stdout, recorded before the normal form
# was computed one letter at a time
_SUQ2_STDOUT_SHA256 = {
    (1, "1", "2"):
        "204b98985685201ab29abb714ab70852a599099ca893bf538cca31e1da1ff910",
    (1, "-2", "3"):
        "1357fa92258953a0cd769c1b343d1251693da2ace735c19f16310d1756c63426",
    (1, "7", "8"):
        "5f7e62d9c2e43d073f1bd5c73f1f3d0701882d6a6ceaac42fc14ffbb2008d114",
    (1, "3", "7"):
        "f11037157eaa924ae55d2c970d8dc6606cbafb90af194387d1729d95430ea8db",
    (1, "999", "1000"):
        "d50c90365723227273ec8c45d3e07993f2dfd3223d24ea515b98dbbf789bcbf2",
    (2, "1", "2"):
        "c087d8b35de3cbd095ea8a01e571c52144169c1bb456e1626ed7d7195922e8c8",
    (2, "-2", "3"):
        "04de7d746efa8ca12d116660d0a470ebd946b09c49d0a562a530e5de5dedf0fa",
    (2, "7", "8"):
        "061a6d16a9161ab9915bb2c45bca6f84507b12d17a5df12dbe39d0f87118b8c5",
    (2, "3", "7"):
        "624662e0b87e69e4e21daa9bac23a6e806b99556a33a6e7f903e3b46ee7a97d9",
    (2, "999", "1000"):
        "8f751a3d171ac3676f4e2e9c3f2af173ddc37db32f20743d4e3cf013561c0ea1",
    (3, "1", "2"):
        "06f048aed8219e459140064aa0d347e862948bca66b6ba42188f9f4c82164763",
    (3, "-2", "3"):
        "04eb7073576ee23862952d3d8e99401a5835054337ca0dbec0ee1f46fab725a6",
    (3, "7", "8"):
        "6cc45802d7b16bba0e2892243150d085fe55eca1568c7fa3532b57121bd16a69",
    (3, "3", "7"):
        "fdb22ec66fcd8b49bcb15af5b4dd1d775cba1a246c963f2bcfa8809ddb9befc4",
    (3, "999", "1000"):
        "fa4161b2b4ef08b6712c6522473c6410d85ad8d775c1a95aa949590c792b9816",
    (4, "1", "2"):
        "04d02e69bdb833281be8e662bfb8e7cf6e462b00aff3a23218638c26ed6f0141",
    (4, "-2", "3"):
        "975cc7fb00549f050e0db2f02c808d8154ff95811b430434dd5f5121747281d6",
    (4, "7", "8"):
        "47b65cd6ba699ccbe922e8a67e93b040d9d2f432222a40c7471adcce8b7d0082",
    (4, "3", "7"):
        "1aedd85a68f06ecb659c8d5328bd6deff6586698c4a552035aa57c95d89042fb",
    (4, "999", "1000"):
        "2d7d3feb54b34bafef7b0d7a0708657e30a81148c09352016b4a7d4f80fce26a",
}


def test_suq2_documents_are_byte_for_byte_unchanged(capsys):
    for (n, num, den), digest in _SUQ2_STDOUT_SHA256.items():
        code, out, _ = run_cli(capsys, "suq2", "--n", str(n), "--mu-num", num,
                               "--mu-den", den)
        assert code == 0
        got = hashlib.sha256(out.encode()).hexdigest()
        assert got == digest, (n, num, den)


def test_hunt_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hunt", "--example", "z2-function",
                           "--budget", "2", "--iters", "120", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    (check,) = doc["checks"]
    assert check["candidates"] == []
    assert check["group_like_hits"] == 2
    assert "disclaimer" not in check and "near_misses" not in check


def test_hunt_solves_only_the_biprojections(capsys):
    # hunt prints the biprojections that are not group-like: one
    # enumeration, where structures also enumerates the group-like ones
    for command, calls in (("hunt", 1), ("structures", 2)):
        (code, out, _), entered = _calls_to(
            structures._enumerate,
            lambda: run_cli(capsys, command, "--example", "kac-paljutkin"))
        assert code == 0 and json.loads(out)["command"] == command
        assert len(entered) == calls, command


def test_all_subcommand_on_one_example(capsys):
    code, out, _ = run_cli(capsys, "all", "--example", "z2-function",
                           "--samples", "5", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert any(n.startswith("z2-function:") for n in names)
    assert any(n.startswith("suq2:") for n in names)
    # the structures block already holds the exact equivalence check
    assert not any("hunt" in n for n in names)
    assert all(c["holds"] for c in doc["checks"])


def _first_strict_max(ratios):
    """The witness rule of the per-sample loop the CLI used to run."""
    worst, index = 0.0, -1
    for i, ratio in enumerate(ratios):
        if ratio > worst:
            worst, index = ratio, i
    return index, worst


def test_failing_run_names_the_first_worst_sample(capsys, monkeypatch):
    # a dual weight 16 times too large doubles ||F(x)||_4 at p = 4/3, so
    # the run fails; its witness is the first sample of largest ratio
    g = catalog.get_example("s3-function")
    pair = duality.build_dual(g)
    wrong = weighted_space(pair.dual_qg, 16.0 * pair.dual_weight)
    monkeypatch.setattr(lp, "dual_space", lambda _: wrong)
    code, out, _ = run_cli(capsys, "hausdorff-young", "--example",
                           "s3-function", "--samples", "60", "--seed", "5")
    assert code == 2
    (check,) = json.loads(out)["checks"]
    index, worst = _first_strict_max(
        lp.hausdorff_young_check(pair, x, 4.0 / 3.0).details["ratio"]
        for x in cli._seeded_elements(g, 60, 5))
    assert worst > 1.5
    assert check["witness"]["sample_index"] == index
    assert check["witness"]["ratio"] == pytest.approx(worst, rel=1e-12)


def test_a_nan_ratio_or_estimate_fails_the_run(capsys, monkeypatch):
    g = catalog.get_example("z2-function")
    xs = cli._seeded_elements(g, 3, 1)
    xs[1, 0] = math.nan
    entry = cli._sampled_entry(lp.young_check(g, xs, xs[::-1], 4.0 / 3.0,
                                              4.0 / 3.0))
    assert not entry["holds"] and math.isnan(entry["lhs"])
    assert entry["witness"]["sample_index"] == 1
    real = cli.estimate_best_constant_young

    def nan_estimate(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   constant_estimate=math.nan)

    monkeypatch.setattr(cli, "estimate_best_constant_young", nan_estimate)
    code, out, _ = run_cli(capsys, "sharpness", "--example", "z2-function",
                           "--restarts", "1", "--iters", "1")
    assert code == 2
    assert not json.loads(out)["checks"][0]["holds"]


def test_a_nan_residual_is_printed_in_any_position():
    # Python's max skips a NaN that is not first
    for residuals in ({"x": 0.0, "y": math.nan}, {"x": math.nan, "y": 0.0}):
        entry = cli._entry(report.check("a", "b", residuals, 1e-9))
        assert not entry["holds"] and math.isnan(entry["residual"])
    # without one, the printed residual is Python's max, -0.0 included
    for residuals in ({"x": -0.0, "y": 0.0}, {"x": 0.0, "y": -0.0},
                      {"x": 3e-12, "y": 1e-12, "z": 2e-12}):
        entry = cli._entry(report.check("a", "b", residuals, 1e-9))
        assert repr(entry["residual"]) == repr(max(residuals.values()))


def test_reported_ratio_is_the_per_sample_worst_down_to_one_sample(capsys):
    g = catalog.get_example("kac-paljutkin")
    for samples in (1, 20):
        elems = cli._seeded_elements(g, 2 * samples, 8)
        _, want = _first_strict_max(
            lp.young_check(g, elems[2 * i], elems[2 * i + 1], 4.0 / 3.0,
                           4.0 / 3.0).details["ratio"] for i in range(samples))
        code, out, _ = run_cli(capsys, "young", "--example", "kac-paljutkin",
                               "--samples", str(samples), "--seed", "8")
        assert code == 0
        lhs = json.loads(out)["checks"][0]["lhs"]
        assert lhs == pytest.approx(want, rel=1e-12)
    code, out, _ = run_cli(capsys, "hausdorff-young", "--example",
                           "kac-paljutkin", "--samples", "1", "--seed", "8")
    assert code == 0
    (x,) = cli._seeded_elements(g, 1, 8)
    want = lp.hausdorff_young_check(duality.build_dual(g), x,
                                    4.0 / 3.0).details["ratio"]
    assert json.loads(out)["checks"][0]["lhs"] == pytest.approx(want, rel=1e-12)


def test_sampling_and_dual_construction_do_not_scale_with_calls(
        capsys, monkeypatch):
    # young evaluates every sample in one stack
    spectral = _counting(monkeypatch, lp, "spectral_data")
    counts = []
    for samples in ("100", "1000"):
        spectral.clear()
        assert run_cli(capsys, "young", "--example", "s3-group",
                       "--samples", samples)[0] == 0
        counts.append(len(spectral))
    assert counts[0] == counts[1] <= 3

    # one dual and one bidual per quantum group, shared by every command
    fresh = build_kac_paljutkin()
    monkeypatch.setattr(catalog, "get_example", lambda name: fresh)
    bodies = _counting(monkeypatch, duality, "_build_dual")
    for argv in (["verify"], ["hausdorff-young", "--samples", "5"],
                 ["structures"], ["sharpness", "--kind", "hy", "--restarts",
                                  "1", "--iters", "2"]):
        assert run_cli(capsys, *argv, "--example", "kac-paljutkin")[0] == 0
    assert len(bodies) <= 2 and bodies[0] is fresh
    assert duality.build_dual(fresh) is duality.build_dual(fresh)

    # a build that raises is not kept, and g is in no reference cycle: it
    # goes with its last reference, not at the next garbage collection
    bad = FiniteQuantumGroup(mult=fresh.mult, unit=fresh.unit,
                             comult=fresh.comult, counit=fresh.counit,
                             antipode=fresh.antipode, star=fresh.star,
                             haar=fresh.haar + 1e-3)
    for _ in range(2):
        with pytest.raises(AxiomFailure):
            duality.build_dual(bad)
    assert bodies[-2:] == [bad, bad]
    ref = weakref.ref(fresh)
    del fresh, bad
    bodies.clear()
    spectral.clear()
    monkeypatch.undo()
    assert ref() is None


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--example", "z9-function"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run([])
    assert exc.value.code == 1


def test_construction_errors_exit_one(capsys):
    code, out, err = run_cli(capsys, "suq2", "--n", "9")
    assert code == 1
    assert out == ""
    assert "error" in err


def _one_line_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("error, code", [(QgharmError, 1), (AxiomFailure, 2)])
def test_each_error_type_has_its_exit_code(capsys, monkeypatch, error, code):
    def refuse(name):
        raise error(f"refused {name}")
    monkeypatch.setattr(catalog, "get_example", refuse)
    got, out, err = run_cli(capsys, "verify", "--example", "z2-function",
                            "--seed", "7")
    assert got == code
    if error is QgharmError:
        assert out == ""
        assert err == "error: refused z2-function\n"
        return
    doc = json.loads(out)
    assert (doc["command"], doc["example"], doc["seed"]) == (
        "verify", "z2-function", 7)
    [entry] = doc["checks"]
    assert entry["name"] == "construction" and entry["holds"] is False
    assert entry["claim"] == "axioms"
    assert entry["message"] == "refused z2-function"
    assert err == "FAIL construction: refused z2-function\n"


def _break_the_sharpness_ceiling(monkeypatch):
    # every estimate, about 1, is then above 1 + CEILING
    monkeypatch.setattr(sharpness, "CEILING", -1.0)


def _break_the_suq2_identity(monkeypatch):
    monkeypatch.setattr(suq2, "convolve_compact",
                        lambda x, y: suq2.PolyElement())


@pytest.mark.parametrize("argv, claim, message, breaks", [
    (("sharpness", "--kind", "young", "--example", "z2-function",
      "--restarts", "1", "--iters", "2"), "sharp-constant-estimate",
     "estimated young constant", _break_the_sharpness_ceiling),
    (("sharpness", "--kind", "hy", "--example", "s3-function",
      "--restarts", "1", "--iters", "2"), "sharp-constant-estimate",
     "estimated hausdorff-young constant", _break_the_sharpness_ceiling),
    (("suq2", "--n", "2"), "exact-lower-bound",
     "symbolic convolution identity failed", _break_the_suq2_identity),
], ids=["young-ceiling", "hy-ceiling", "suq2-identity"])
def test_an_exit_two_document_names_the_claim_that_failed(
        capsys, monkeypatch, argv, claim, message, breaks):
    breaks(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    [entry] = json.loads(out)["checks"]
    assert (entry["name"], entry["claim"], entry["holds"]) == (
        "construction", claim, False)
    assert entry["message"].startswith(message)
    assert err == f"FAIL construction: {entry['message']}\n"


def test_young_refuses_zero_or_negative_samples(capsys):
    for samples in ("0", "-3"):
        err = _one_line_error(capsys, "young", "--example", "z2-function",
                              "--samples", samples)
        assert "--samples" in err


def test_hausdorff_young_refuses_zero_or_negative_samples(capsys):
    for samples in ("0", "-3"):
        err = _one_line_error(capsys, "hausdorff-young", "--example",
                              "z2-function", "--samples", samples)
        assert "--samples" in err


def test_hunt_refuses_an_empty_budget(capsys):
    for flag in ("--budget", "--iters"):
        for value in ("0", "-1"):
            err = _one_line_error(capsys, "hunt", "--example", "z2-function",
                                  flag, value)
            assert flag in err


def test_sharpness_refuses_an_empty_budget(capsys):
    for flag, value in (("--restarts", "0"), ("--restarts", "-4"),
                        ("--iters", "0"), ("--iters", "-1")):
        for kind in ("young", "hy"):
            err = _one_line_error(capsys, "sharpness", "--example",
                                  "z2-function", "--kind", kind, flag, value)
            assert flag in err


class _WorkStarted(Exception):
    pass


def test_counts_above_their_ceiling_are_refused_before_any_work(
        capsys, monkeypatch):
    def start(name):
        raise _WorkStarted(name)
    monkeypatch.setattr(catalog, "get_example", start)
    example = ("--example", "z2-function")
    for command, flag, ceiling in ((("young", *example), "--samples", 10**6),
                                   (("hausdorff-young", *example),
                                    "--samples", 10**6),
                                   (("all", *example), "--samples", 10**6),
                                   (("sharpness", *example), "--restarts",
                                    10**4)):
        err = _one_line_error(capsys, *command, flag, str(ceiling + 1))
        assert f"{flag} must be at most {ceiling}" in err
        # the ceiling itself passes the check and reaches the example
        with pytest.raises(_WorkStarted):
            cli.run([*command, flag, str(ceiling)])


def test_bad_tolerances_are_usage_errors(capsys):
    for value in ("-1", "0", "nan", "inf", "2", "0.05"):
        for command in (("verify", "--example", "z2-function"),
                        ("structures", "--example", "z2-function"),
                        ("all", "--example", "z2-function")):
            err = _one_line_error(capsys, *command, "--tol", value)
            assert "--tol" in err


def test_suq2_refuses_a_zero_denominator(capsys):
    err = _one_line_error(capsys, "suq2", "--mu-num", "1", "--mu-den", "0")
    assert "--mu-den" in err


def test_suq2_refuses_a_mu_whose_bound_is_above_the_float_range(capsys):
    # |mu| = 10^-200 at n = 1 and 10^-50 at n = 4: the bound is about 10^400
    for n, den in (("1", "1" + "0" * 200), ("4", str(10 ** 50))):
        for num in ("1", "-1"):
            err = _one_line_error(capsys, "suq2", "--n", n, "--mu-num", num,
                                  "--mu-den", den)
            assert "above the float range" in err


def test_negative_seed_flag_is_an_error(capsys):
    for command in (("verify", "--example", "z2-function"),
                    ("young", "--example", "z2-function"),
                    ("hausdorff-young", "--example", "z2-function"),
                    ("structures", "--example", "z2-function"),
                    ("sharpness", "--example", "z2-function"),
                    ("hunt", "--example", "z2-function"),
                    ("all", "--example", "z2-function")):
        err = _one_line_error(capsys, *command, "--seed", "-1")
        assert "--seed must not be negative" in err
    code, out, _ = run_cli(capsys, "young", "--example", "z2-function",
                           "--samples", "5", "--seed", "0")
    assert code == 0 and json.loads(out)["seed"] == 0


# QG_SEED once replaced the default of every --seed. It is no longer read:
# the four tests below keep their claims for the seed that --seed gives,
# and set the variable to show that it changes nothing.


def test_non_integer_qg_seed_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("QG_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.run(["young", "--example", "z2-function", "--seed", "abc"])
    assert exc.value.code == 1
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "young", "--example", "z2-function",
                           "--samples", "5")
    assert code == 0 and json.loads(out)["seed"] == 42


def test_negative_qg_seed_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("QG_SEED", "-3")
    err = _one_line_error(capsys, "young", "--example", "z2-function",
                          "--samples", "5", "--seed", "-3")
    assert "--seed must not be negative" in err
    # an explicit flag is printed as given
    code, out, _ = run_cli(capsys, "young", "--example", "z2-function",
                           "--samples", "5", "--seed", "9")
    assert code == 0 and json.loads(out)["seed"] == 9


def test_the_environment_changes_no_document(capsys, monkeypatch):
    # every seed-1 benchmark job without its seed, and commands that take
    # none or ignore it: QG_SEED, which once set the default seed, leaves
    # every byte, and every seeded document prints the parser's default
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    from workloads import WORKLOADS, make_jobs

    argvs = []
    for workload in WORKLOADS:
        for job in make_jobs(workload, 1):
            argv = list(job.argv)
            if "--seed" in argv:
                del argv[argv.index("--seed"):argv.index("--seed") + 2]
            argvs.append(argv)
    argvs += [["catalog"], ["suq2", "--n", "1"],
              ["structures", "--example", "kac-paljutkin"],
              ["hunt", "--example", "kac-paljutkin"]]
    runs = []
    for value in (None, "7", "abc"):
        if value is None:
            monkeypatch.delenv("QG_SEED", raising=False)
        else:
            monkeypatch.setenv("QG_SEED", value)
        runs.append([run_cli(capsys, *argv) for argv in argvs])
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert all(code == 0 for code, _, _ in runs[0])
    seeds = [json.loads(out)["seed"] for _, out, _ in runs[0]]
    # suq2, the exact workload's command, and catalog take no seed
    assert seeds.count(None) == 6 and seeds.count(42) == len(argvs) - 6


def test_failing_check_exits_two(capsys, monkeypatch):
    def broken(args):
        return cli._document("young", args.example, {}, args.seed, [
            cli._entry(report.check("young-inequality",
                                    "convolution-norm-bound",
                                    {"excess": 0.5}, 1e-9, lhs=1.5, rhs=1.0))])
    monkeypatch.setattr(cli, "_run_young", broken)
    code = cli.run(["young", "--example", "z2-function"])
    captured = capsys.readouterr()
    assert code == 2
    assert "FAIL" in captured.err


def test_qg_seed_environment_default(capsys, monkeypatch):
    monkeypatch.setenv("QG_SEED", "1234")
    _, out, _ = run_cli(capsys, "young", "--example", "z2-function",
                        "--samples", "5")
    assert json.loads(out)["seed"] == 42
    # an explicit flag still wins
    _, out, _ = run_cli(capsys, "young", "--example", "z2-function",
                        "--samples", "5", "--seed", "9")
    assert json.loads(out)["seed"] == 9


def test_installed_entry_point_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "qgharm.cli", "suq2", "--n", "2",
         "--mu-num", "1", "--mu-den", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["checks"][0]["bound_numerator"] == "5376"
    assert doc["checks"][0]["bound_denominator"] == "341"


def test_the_document_digests_are_stable_and_every_job_succeeds():
    # tools/doc_digests.py, the probe that two checkouts print the same
    # documents: 35 workload jobs at one seed and 10 fixed calls
    root = Path(__file__).resolve().parent.parent
    runs = [subprocess.run([sys.executable, str(root / "tools" / "doc_digests.py"),
                            str(root), "1"],
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    rows = [json.loads(line) for line in runs[0].splitlines()]
    assert len(rows) == 45
    assert all(row["exit"] == 0 for row in rows)
    assert runs[1] == runs[0]


def test_one_parser_serves_every_call(capsys, monkeypatch, request):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    request.addfinalizer(cli.build_parser.cache_clear)
    argvs = [["catalog"], ["young", "--example", "z2-function", "--samples",
                           "5"], ["suq2", "--n", "1"]]
    assert cli.run(argvs[0]) == 0
    after_first = len(built)
    with pytest.raises(SystemExit) as exc:
        cli.run(["young", "--example", "z9-function"])
    assert exc.value.code == 1
    for i in range(18):
        assert cli.run(argvs[i % 3]) == 0
    capsys.readouterr()
    assert built.count("qgharm") == 1
    assert len(built) == after_first


def test_a_later_call_starts_from_the_defaults(capsys):
    code, out, _ = run_cli(capsys, "young", "--example", "z2-function",
                           "--p", "1.5", "--q", "1.5", "--samples", "5")
    assert code == 0 and json.loads(out)["params"]["p"] == 1.5
    code, out, _ = run_cli(capsys, "young", "--example", "z2-function",
                           "--samples", "5")
    params = json.loads(out)["params"]
    assert code == 0 and params["p"] == params["q"] == 4.0 / 3.0


def test_help_and_usage_errors_leave_nothing_behind(capsys):
    argv = ["young", "--example", "z2-function", "--samples", "5",
            "--seed", "3"]
    fresh = subprocess.run([sys.executable, "-m", "qgharm.cli", *argv],
                           capture_output=True, text=True)
    assert fresh.returncode == 0
    for before, status in ((["--help"], 0), (["young", "--bogus"], 1)):
        with pytest.raises(SystemExit) as exc:
            cli.run(before)
        assert exc.value.code == status
        capsys.readouterr()
        assert run_cli(capsys, *argv) == (0, fresh.stdout, fresh.stderr)


def test_qg_seed_is_read_at_each_call(capsys, monkeypatch):
    # the default is set afresh at each call: a call after --seed 9 prints 42
    for value in ("5", "6"):
        monkeypatch.setenv("QG_SEED", value)
        for seed_flag, seed in ((["--seed", "9"], 9), ([], 42)):
            _, out, _ = run_cli(capsys, "young", "--example", "z2-function",
                                "--samples", "5", *seed_flag)
            assert json.loads(out)["seed"] == seed


def test_one_process_prints_the_same_bytes_in_any_order(capsys):
    argvs = [(command, "--example", name, *extra)
             for name in catalog.EXAMPLE_NAMES
             for command, *extra in (("verify",),
                                     ("young", "--samples", "5"),
                                     ("hausdorff-young", "--samples", "5"),
                                     ("structures",))]
    runs = []
    for order in (argvs, argvs[::-1]):
        catalog.get_example.cache_clear()
        runs.append({argv: run_cli(capsys, *argv) for argv in order})
    assert all(code == 0 for code, _, _ in runs[0].values())
    assert runs[0] == runs[1]
