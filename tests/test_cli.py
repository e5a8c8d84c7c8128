"""End-to-end CLI behaviour: exit codes, output documents, determinism."""

import argparse
import dataclasses
import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svineq.cli as cli
import svineq.fixtures as fixtures
from svineq.cli import main
from svineq.fixtures import EX_2_2
from svineq.fuzzer import replay
from svineq.inequalities import check
from svineq.serialize import (
    dumps,
    loads_strict,
    matrix_to_json,
    report_from_json,
    witness_from_document,
)

from conftest import draw, mat


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(dumps(matrix_to_json(m)))
    return str(path)


@pytest.fixture
def normal_file(tmp_path):
    (a,) = draw("normal", 3, seed=2)
    return write_matrix(tmp_path, "a.json", a)


@pytest.fixture
def ex22_file(tmp_path):
    return write_matrix(tmp_path, "ex22.json", EX_2_2)


# --- verify --------------------------------------------------------------------


def test_verify_holds_exit_0(normal_file, capsys):
    rc = main(["verify", "thm-2.1", normal_file])
    out = capsys.readouterr().out
    assert rc == 0
    doc = loads_strict(out)
    assert doc["kind"] == "report"
    assert doc["report"]["verdict"] == "holds"


def test_verify_report_matches_in_process_check(normal_file, capsys):
    main(["verify", "thm-2.1", normal_file])
    doc = loads_strict(capsys.readouterr().out)
    (a,) = draw("normal", 3, seed=2)
    assert report_from_json(doc["report"]) == check("thm-2.1", [a])


def test_verify_order_failure_exit_1(ex22_file, capsys):
    rc = main(["verify", "loewner-cartesian", ex22_file])
    doc = loads_strict(capsys.readouterr().out)
    assert rc == 1
    assert doc["report"]["verdict"] == "violated"
    assert doc["report"]["min_margin"] < -1e-6


def test_verify_graded_hypothesis_exit_2(ex22_file, capsys):
    rc = main(["verify", "thm-2.1", ex22_file])
    doc = loads_strict(capsys.readouterr().out)
    assert rc == 2
    assert doc["report"]["verdict"] == "hypothesis_violated"
    assert doc["report"]["hypothesis_residuals"]["normality_defect"] > 1.0


def test_verify_structural_hypothesis_exit_2(tmp_path, capsys):
    (g,) = draw("ginibre", 3, seed=5)
    path = write_matrix(tmp_path, "g.json", g)
    rc = main(["verify", "thm-2.5-plus", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert "hypothesis violated" in captured.err
    assert captured.out == ""


def test_verify_complex_scalar_exit_2(tmp_path, capsys):
    # A 1x1 matrix is Hermitian exactly when it is real: scalar-1.6 rejects
    # a complex scalar as a structural hypothesis violation.
    a = write_matrix(tmp_path, "a.json", mat([[1 + 1j]]))
    b = write_matrix(tmp_path, "b.json", mat([[1]]))
    rc = main(["verify", "scalar-1.6", a, b])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("hypothesis violated: a is not Hermitian")
    assert captured.out == ""


def test_fuzz_complex_scalars_exit_0(capsys):
    rc = main(["fuzz", "--ineq", "scalar-1.6", "--class", "ginibre", "--trials", "3"])
    assert rc == 0
    assert "hypothesis_violated=3 " in capsys.readouterr().out


def test_verify_no_convergence_exit_3(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = write_matrix(tmp_path, "h.json", mat([[1, 0], [0, -2]]))
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    rc = main(["verify", "thm-2.5-plus", path])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: thm-2.5-plus: Eigenvalues did not converge")
    assert captured.out == ""


def test_verify_unknown_id_exit_3(normal_file, capsys):
    rc = main(["verify", "thm-9.9", normal_file])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_verify_arity_mismatch_exit_3(normal_file, capsys):
    rc = main(["verify", "thm-2.8", normal_file])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_verify_missing_file_exit_3(tmp_path, capsys):
    rc = main(["verify", "thm-2.1", str(tmp_path / "absent.json")])
    assert rc == 3
    assert "cannot read" in capsys.readouterr().err


def test_verify_malformed_matrix_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "entries": [[[1,0]]]}')
    rc = main(["verify", "thm-2.1", str(path)])
    assert rc == 3
    assert "bad.json" in capsys.readouterr().err


def test_verify_integer_outside_float_range_exit_3(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}')
    rc = main(["verify", "thm-2.7", str(path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "big.json" in captured.err


def test_verify_deeply_nested_file_exit_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    rc = main(["verify", "thm-2.7", str(path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not valid JSON: ")
    assert "Traceback" not in captured.err


def test_verify_non_utf8_file_exit_3(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "entries": [[[1, 0]]]} \xff')
    rc = main(["verify", "thm-2.7", str(path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_verify_negative_tolerance_exit_3(normal_file, capsys):
    rc = main(["verify", "thm-2.1", normal_file, "--tol-rel", "-1"])
    assert rc == 3


def test_infinite_tolerance_exit_3(normal_file, capsys):
    # An infinite tolerance is a usage error that names the tolerance, not
    # a kernel overflow (verify) or a target that cannot be graded (fuzz).
    assert main(["verify", "thm-2.1", normal_file, "--tol-rel", "inf"]) == 3
    assert "error: tol_rel must be a nonnegative finite number" in capsys.readouterr().err
    assert main(["fuzz", "--ineq", "thm-2.7", "--tol-rel", "inf", "--trials", "1"]) == 3
    assert "error: tol_rel must be a nonnegative finite number" in capsys.readouterr().err


@pytest.mark.parametrize("ineq_id", ["thm-2.7", "thm-2.8"])
def test_fuzz_low_rank_class_reports_no_violation(ineq_id, tmp_path, capsys):
    # Rank-deficient U*V inputs are where a Gram-matrix kernel loses the
    # digits of the small singular values and reports false violations.
    out = tmp_path / "c.json"
    argv = ["fuzz", "--ineq", ineq_id, "--class", "low_rank", "--dims", "2..8", "--trials", "200"]
    assert main([*argv, "--out", str(out)]) == 0
    (result,) = loads_strict(out.read_text())["results"]
    assert result["class"] == "low_rank"
    assert result["trials"] == result["holds"] == 7 * 200
    assert result["violated"] == 0


def test_fuzz_huge_dimension_range_exit_3(capsys):
    # The bounds are checked before the range is built: 10**20 dimensions
    # would not fit in a list.
    assert main(["fuzz", "--ineq", "thm-2.7", "--dims", f"1..{10**20}"]) == 3
    assert f"error: dimension {10**20} outside 1..64" in capsys.readouterr().err


OVERFLOWING_GRAM_INPUTS = {
    "ginibre-1e160": lambda: [draw("ginibre", 3, seed=0, index=i)[0].real * 1e160 for i in range(2)],
    "entries-1e200": lambda: [mat([[1e200, 1e200, 1], [1e200, 1e200, 0], [0, 1, 1e200]])] * 2,
}


@pytest.mark.parametrize("case", OVERFLOWING_GRAM_INPUTS)
def test_verify_overflowing_grams_exit_3(case, tmp_path, capsys):
    # Finite entries this large overflow the Grams A*A + B*B.  A non-finite
    # Gram never reaches the eigensolver; its spectrum is NaN, which is an
    # input error, not a "violated" verdict, and the error names the
    # inequality.
    inputs = OVERFLOWING_GRAM_INPUTS[case]()
    files = [write_matrix(tmp_path, f"{name}.json", m) for name, m in zip("ab", inputs)]
    rc = main(["verify", "thm-2.8", *files])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (
        "error: thm-2.8: inputs overflow the kernel (non-finite margins or residuals)\n"
    )


def test_verify_kernel_overflow_exit_3(tmp_path, capsys):
    # Finite entries near 1e155 overflow the products AB + BA of thm-2.8,
    # so its margins are NaN; check() refuses them instead of printing a
    # verdict graded from a NaN.
    files = [
        write_matrix(tmp_path, f"{name}.json", draw("ginibre", 2, seed=0, index=i)[0] * 1e155)
        for i, name in enumerate("ab")
    ]
    rc = main(["verify", "thm-2.8", *files])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: thm-2.8: inputs overflow the kernel")


def test_verify_large_finite_input_gets_a_verdict(tmp_path, capsys):
    # thm-2.7 at 1e155 takes no product of A with itself, so it is graded.
    path = write_matrix(tmp_path, "a.json", draw("ginibre", 2, seed=0)[0] * 1e155)
    rc = main(["verify", "thm-2.7", path])
    doc = loads_strict(capsys.readouterr().out)
    assert rc == 0
    assert doc["report"]["verdict"] == "holds"
    assert np.isfinite(doc["report"]["min_margin"])


def test_verify_overflow_prints_nothing_from_lapack(tmp_path):
    # The products of this matrix with itself overflow to infinities and
    # NaNs.  LAPACK's SVD would report them on the process's stdout (out of
    # reach of sys.stdout), so the kernel never hands them to it.
    big = [[1e200, 1e200, 1], [1e200, 1e200, 0], [0, 1, 1e200]]
    path = write_matrix(tmp_path, "f.json", np.array(big, dtype=complex))
    proc = subprocess.run(
        [sys.executable, "-m", "svineq", "verify", "thm-2.8", path, path],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1


def test_verify_overflowing_tolerance_names_the_tolerance(tmp_path):
    # 1e308 times the scale of diag(3, 1) overflows the tolerance, not the
    # kernel: the error names the tolerance, and no RuntimeWarning is shown.
    path = write_matrix(tmp_path, "a.json", np.diag([3.0, 1.0]).astype(complex))
    proc = subprocess.run(
        [sys.executable, "-m", "svineq", "verify", "thm-2.1", path, "--tol-rel", "1e308"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: thm-2.1: tolerance overflows")
    assert "tol_rel=1e+308" in proc.stderr
    assert "Warning" not in proc.stderr and "overflow the kernel" not in proc.stderr


def test_verify_out_file_equals_stdout(normal_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    main(["verify", "thm-2.1", normal_file, "--out", str(out_path)])
    assert out_path.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "repro", "fuzz", "search"])
def test_failed_out_write_exits_3_with_empty_stdout(command, normal_file, tmp_path, capsys):
    # The --out file is written before anything is printed, so a write
    # that fails leaves stdout empty: no report, repro lines or summary.
    argv = {
        "verify": ["verify", "thm-2.1", normal_file],
        "repro": ["repro", "ex-2.3"],
        "fuzz": ["fuzz", "--ineq", "thm-2.1", "--dims", "2", "--trials", "2"],
        "search": ["search", "--target", "loewner-cartesian-general", "--seed", "0"],
    }[command]
    out_path = tmp_path / "missing-dir" / "doc.json"
    assert main([*argv, "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
    assert not out_path.exists()


# --- repro ---------------------------------------------------------------------


def run_repro(key, capsys, extra=()):
    rc = main(["repro", key, *extra])
    out = capsys.readouterr().out
    doc = loads_strict(out.rstrip("\n").splitlines()[-1])
    return rc, out, doc


def test_repro_ex22_reproduces(capsys):
    rc, out, doc = run_repro("ex-2.2", capsys)
    assert rc == 0
    assert doc["kind"] == "repro"
    assert doc["reproduced"] is True
    assert doc["cartesian"]["matches_documented"] is True
    assert doc["discrepancies"] == ["left-corrected"]
    checks = {c["name"]: c for c in doc["order_checks"]}
    assert checks["left-as-displayed"]["holds"] is False
    assert checks["right"]["holds"] is False
    assert checks["left-corrected"]["holds"] is True
    assert doc["reports"]["loewner-cartesian"]["verdict"] == "violated"
    assert "DISCREPANCY" in out


def test_repro_ex23_reproduces(capsys):
    rc, out, doc = run_repro("ex-2.3", capsys)
    assert rc == 0
    assert doc["reproduced"] is True
    assert doc["discrepancies"] == ["s2(|A1|+|A2|)"]
    values = {v["name"]: v for v in doc["values"]}
    assert values["s2(A)"]["discrepancy"] is False
    assert abs(values["s2(A)"]["recomputed"] - values["s2(A)"]["claimed"]) < 1e-3
    assert all(v["oracle_abs_err"] <= 1e-9 for v in values.values())
    assert doc["reports"]["thm-2.1"]["verdict"] == "holds"
    # the documented strict relation relies on the unreproduced value, so
    # recomputation shows it failing — that is part of the discrepancy story
    assert doc["claimed_relation"]["recomputed_holds"] is False


@pytest.mark.parametrize("key", ["ex-2.2", "ex-2.3"])
def test_repro_stdout_is_deterministic(key, capsys):
    main(["repro", key])
    first = capsys.readouterr().out
    main(["repro", key])
    assert capsys.readouterr().out == first


def test_repro_out_file_holds_same_document(tmp_path, capsys):
    out_path = tmp_path / "repro.json"
    _, _, doc = run_repro("ex-2.2", capsys, extra=["--out", str(out_path)])
    assert loads_strict(out_path.read_text()) == doc


@pytest.mark.parametrize(
    "key, claim, value, summary",
    [
        (
            "ex-2.2",
            "EX_2_2_CLAIMED_HOLDS",
            True,
            "summary: documented failure of both order inequalities NOT reproduced",
        ),
        ("ex-2.3", "EX_2_3_S2_A", 1.5, "summary: values reproduced — reproduction FAILED"),
    ],
)
def test_repro_changed_claim_is_not_reproduced(key, claim, value, summary, monkeypatch, capsys):
    monkeypatch.setattr(fixtures, claim, value)
    rc, out, doc = run_repro(key, capsys)
    assert rc == 1
    assert doc["reproduced"] is False
    assert summary in out.splitlines()


def test_repro_unknown_fixture_exit_3(capsys):
    assert main(["repro", "ex-9.9"]) == 3


# --- fuzz ----------------------------------------------------------------------


def test_fuzz_single_target(tmp_path, capsys):
    out_path = tmp_path / "campaign.json"
    rc = main(
        [
            "fuzz",
            "--ineq",
            "thm-2.7",
            "--class",
            "ginibre",
            "--dims",
            "2,3",
            "--trials",
            "5",
            "--seed",
            "1",
            "--out",
            str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "thm-2.7 class=ginibre dims=2,3 trials=10" in out
    assert "campaign: 1 target(s), 0 unexpected violation(s)" in out
    doc = loads_strict(out_path.read_text())
    assert doc["kind"] == "campaign"
    (target,) = doc["results"]
    assert target["violated"] == 0 and target["holds"] == 10


def test_fuzz_stdout_document_without_out(capsys):
    rc = main(["fuzz", "--ineq", "thm-2.1", "--dims", "2", "--trials", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert '"kind": "campaign"' in out


def test_fuzz_all_covers_catalog(tmp_path, capsys):
    out_path = tmp_path / "all.json"
    rc = main(
        ["fuzz", "--ineq", "all", "--dims", "2", "--trials", "1", "--seed", "0", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert rc == 0
    doc = loads_strict(out_path.read_text())
    ids = [t["id"] for t in doc["results"]]
    assert len(ids) == 14
    assert "thm-2.1" in ids and "loewner-cartesian" in ids
    assert "loewner-cartesian-general" not in ids


def test_fuzz_comma_list(tmp_path, capsys):
    out_path = tmp_path / "pair.json"
    rc = main(
        [
            "fuzz",
            "--ineq",
            "thm-2.8,cor-2.9",
            "--dims",
            "2",
            "--trials",
            "2",
            "--seed",
            "3",
            "--out",
            str(out_path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert [t["id"] for t in loads_strict(out_path.read_text())["results"]] == [
        "thm-2.8",
        "cor-2.9",
    ]


def test_fuzz_expected_violations_exit_0(capsys):
    rc = main(
        [
            "fuzz",
            "--ineq",
            "loewner-cartesian-general",
            "--class",
            "ginibre",
            "--dims",
            "2",
            "--trials",
            "60",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "(violations expected)" in out
    assert "0 unexpected violation(s)" in out


def test_fuzz_unexpected_violations_exit_1(monkeypatch, capsys):
    config = cli.CampaignConfig(
        targets=(("loewner-cartesian-general", "ginibre"),),
        dims=(2,),
        trials_per_dim=60,
        seed=7,
    )
    result = cli.run_campaign(config)
    assert result.targets[0].violated > 0
    rigged = dataclasses.replace(
        result,
        targets=tuple(dataclasses.replace(t, expected_to_hold=True) for t in result.targets),
    )
    monkeypatch.setattr(cli, "run_campaign", lambda cfg: rigged)
    rc = main(["fuzz", "--ineq", "thm-2.1", "--dims", "2", "--trials", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unexpected violation(s)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--ineq", "all", "--class", "ginibre"],  # class with all
        ["fuzz", "--ineq", "thm-2.1,thm-2.8", "--class", "normal"],  # class with id list
        ["fuzz", "--ineq", "thm-2.1", "--dims", "0"],
        ["fuzz", "--ineq", "thm-2.1", "--dims", "5..2"],
        ["fuzz", "--ineq", "thm-2.1", "--dims", "garbage"],
        ["fuzz", "--ineq", "thm-2.1", "--trials", "0"],
        ["fuzz", "--ineq", "thm-2.1", "--class", "no-such-class"],
        ["fuzz", "--ineq", "no-such-id"],
        ["fuzz", "--ineq", ","],
        ["fuzz", "--ineq", "thm-2.8", "--class", "psd_block2"],  # 3 matrices into arity 2
    ],
)
def test_fuzz_bad_usage_exit_3(argv, capsys):
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err


def test_fuzz_empty_dimension_list_exit_3(capsys):
    assert main(["fuzz", "--ineq", "thm-2.1", "--dims", ","]) == 3
    assert "error: no dimensions in ','" in capsys.readouterr().err


# --- search --------------------------------------------------------------------


def test_search_exhausted_exit_4(capsys):
    rc = main(["search", "--target", "bk-1.1-hermitian-B", "--budget", "0"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "search exhausted" in out


def test_search_finds_witness(tmp_path, capsys):
    out_path = tmp_path / "witness.json"
    rc = main(
        [
            "search",
            "--target",
            "loewner-cartesian-general",
            "--budget",
            "50",
            "--seed",
            "0",
            "--out",
            str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "witness found" in out
    witness = witness_from_document(loads_strict(out_path.read_text()))
    report = replay(witness)
    assert report.verdict.value == "violated"
    assert report.min_margin < -10.0 * report.tol_used
    assert report.min_margin == witness.report.min_margin


def test_search_dims_override(capsys):
    rc = main(
        ["search", "--target", "loewner-cartesian-general", "--budget", "50", "--dims", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "dim=3" in out


def test_search_unknown_target_exit_3(capsys):
    assert main(["search", "--target", "thm-2.1"]) == 3


def test_search_negative_budget_exit_3(capsys):
    rc = main(["search", "--target", "loewner-cartesian-general", "--budget", "-1"])
    assert rc == 3


# --- parser-level behaviour -------------------------------------------------------


def test_no_subcommand_exit_3(capsys):
    assert main([]) == 3


def test_unknown_subcommand_exit_3(capsys):
    assert main(["frobnicate"]) == 3


# --- one parser per process ------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
FUZZ_SMALL = ["fuzz", "--ineq", "all", "--dims", "2,3,5,8", "--trials", "8", "--seed", "0"]
SEARCH_LOEWNER = ["search", "--target", "loewner-cartesian-general", "--seed", "0"]


def run_main(argv, capsys) -> tuple[int, str]:
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_fuzz_tolerance_does_not_carry_to_next_call(capsys):
    first = run_main(FUZZ_SMALL, capsys)
    assert first[1].endswith((GOLDEN / "fuzz-small.json").read_text())
    rc, out = run_main([*FUZZ_SMALL, "--tol-rel", "1e-6"], capsys)
    assert rc == 0 and '"tol_rel": 1e-06' in out
    assert run_main(FUZZ_SMALL, capsys) == first


def test_verify_out_does_not_carry_to_next_call(ex22_file, tmp_path, capsys):
    argv = ["verify", "loewner-cartesian", ex22_file]
    first = run_main(argv, capsys)
    assert first == (1, (GOLDEN / "verify-loewner-cartesian-n2.txt").read_text())
    out_path = tmp_path / "report.json"
    assert run_main([*argv, "--out", str(out_path)], capsys) == first
    out_path.unlink()
    assert run_main(argv, capsys) == first
    assert not out_path.exists()


def test_usage_error_does_not_carry_to_next_call(capsys):
    first = run_main(SEARCH_LOEWNER, capsys)
    assert first[0] == 0
    assert first[1].endswith((GOLDEN / "search-loewner-cartesian-general.json").read_text())
    assert main(["search", "--target", "loewner-cartesian-general", "--budget", "x"]) == 3
    assert "error:" in capsys.readouterr().err
    assert run_main(SEARCH_LOEWNER, capsys) == first


def test_warm_main_leaves_no_argparse_garbage(normal_file, capsys):
    # Building a parser leaves HelpFormatter/_Section reference cycles;
    # once the parser is shared, a call leaves none for the collector.
    calls = [
        SEARCH_LOEWNER,
        ["verify", "thm-2.1", normal_file],
        ["fuzz", "--ineq", "thm-2.1", "--dims", "2", "--trials", "2"],
    ]
    argparse_types = (
        argparse.HelpFormatter,
        argparse.HelpFormatter._Section,
        argparse.Action,
        argparse.ArgumentParser,
    )
    for argv in calls:
        assert main(argv) == 0
    gc.collect()
    saved_flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in calls:
            assert main(argv) == 0
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if isinstance(o, argparse_types)]
    finally:
        gc.set_debug(saved_flags)
        gc.garbage.clear()
    assert leaked == []


def test_warm_search_leaves_no_cyclic_garbage(capsys):
    # json.dumps with indent runs pure-Python generators whose closures
    # are reference cycles; the document writer leaves none, nor does
    # anything else a warm search call does.
    assert main(SEARCH_LOEWNER) == 0
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(10):
            assert main(SEARCH_LOEWNER) == 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _subprocess_env() -> dict:
    # A child interpreter imports the package this suite imported, whether
    # it came from PYTHONPATH or from pytest's own ``pythonpath`` setting.
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_module_invocation_version():
    proc = subprocess.run(
        [sys.executable, "-m", "svineq", "--version"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("svineq ")


def test_console_script_help():
    # The `svineq` script exists only after `pip install`; run the entry point
    # that pyproject.toml declares for it the way the generated wrapper does,
    # and the installed script as well when it is on PATH.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["svineq"]
    module, func = target.split(":")
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'svineq'; sys.exit({func}())"
    )
    commands = [[sys.executable, "-c", wrapper, "--help"]]
    if shutil.which("svineq"):
        commands.append(["svineq", "--help"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0
        assert "verify" in proc.stdout and "search" in proc.stdout


def test_import_loads_no_thread_pool_or_logging():
    # Campaigns fork their grading process with os.fork, so neither
    # concurrent.futures (which loads logging) nor multiprocessing adds
    # to the start-up of every command.
    probe = (
        "import sys, svineq.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'logging', 'multiprocessing')"
        " if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_only_verify_loads_orjson(tmp_path):
    # Only verify decodes matrix files, so orjson adds nothing to the
    # start-up or the memory of fuzz and search.
    path = write_matrix(tmp_path, "a.json", np.eye(2))
    probe = "\n".join(
        [
            "import contextlib, io, sys, svineq.cli as cli",
            "def loaded(*argv):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(list(argv)) == 0",
            "    return 'orjson' in sys.modules",
            "print('orjson' in sys.modules,"
            " loaded('fuzz', '--ineq', 'thm-2.7', '--dims', '2', '--trials', '2'),"
            " loaded('search', '--target', 'loewner-cartesian-general', '--budget', '4'),"
            f" loaded('verify', 'thm-2.1', {path!r}))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False False True\n"
