"""Acceptance gate: the eight shipping criteria, one pass/fail line each.

Each test prints ``[criterion-N] PASS/FAIL <detail>`` straight to the
terminal (capture is suspended for that one line) and then asserts, so a
full run always shows the eight verdict lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from svineq.cli import main
from svineq.fuzzer import replay
from svineq.serialize import loads_strict, witness_from_document, witness_from_json

from conftest import draw, frobenius_norm

C3_IDS = (
    "thm-2.1,thm-2.5-plus,thm-2.5-minus,thm-2.7,thm-2.8,"
    "cor-2.9,bk-1.1,tao-1.2,ak-1.3,ak-1.4,proof-facts-2.1"
)
C3_FLAGS = ["fuzz", "--ineq", C3_IDS, "--dims", "2,3,5,8", "--trials", "1000", "--seed", "42"]
C3_CLASSES = {
    "thm-2.1": "normal",
    "thm-2.5-plus": "hermitian",
    "thm-2.5-minus": "hermitian",
    "thm-2.7": "ginibre",
    "thm-2.8": "ginibre",
    "cor-2.9": "normal_pair_shared_basis",
    "bk-1.1": "psd",
    "tao-1.2": "psd_block2",
    "ak-1.3": "psd_block2",
    "ak-1.4": "dominated_pair",
    "proof-facts-2.1": "normal",
}


@pytest.fixture
def verdict(capfd):
    def report_line(num: int, ok: bool, detail: str) -> None:
        capfd.readouterr()  # drop any CLI chatter accumulated so far
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion-{num}] {status} {detail}", flush=True)
        assert ok, f"criterion {num}: {detail}"

    return report_line


def run_cli(argv) -> tuple[int, float]:
    start = time.perf_counter()
    rc = main(argv)
    return rc, time.perf_counter() - start


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The criterion-3 campaign, run once and shared by criteria 3, 4, 8."""
    out = tmp_path_factory.mktemp("acceptance") / "campaign-run1.json"
    rc, elapsed = run_cli([*C3_FLAGS, "--out", str(out)])
    return rc, out, elapsed


def test_criterion_1_value_reproduction(tmp_path, verdict):
    out = tmp_path / "ex23.json"
    rc, elapsed = run_cli(["repro", "ex-2.3", "--out", str(out)])
    doc = loads_strict(out.read_text())
    values = {v["name"]: v for v in doc["values"]}
    s2 = values["s2(A)"]
    s1 = values["s1(A)"]
    claim_err = abs(s2["recomputed"] - s2["claimed"])
    ok = (
        rc == 0
        and claim_err <= 1e-3
        and s1["oracle_abs_err"] <= 1e-9
        and "s2(|A1|+|A2|)" in doc["discrepancies"]
        and elapsed < 1.0
    )
    verdict(
        1,
        ok,
        f"s2 matches documented value within {claim_err:.2e}, s1 oracle error "
        f"{s1['oracle_abs_err']:.2e}, documented s2(|A1|+|A2|) flagged, {elapsed:.2f}s",
    )


def test_criterion_2_order_failure_reproduction(tmp_path, verdict):
    out = tmp_path / "ex22.json"
    rc, elapsed = run_cli(["repro", "ex-2.2", "--out", str(out)])
    doc = loads_strict(out.read_text())
    checks = {c["name"]: c for c in doc["order_checks"]}
    left, right = checks["left-as-displayed"], checks["right"]
    ok = (
        rc == 0
        and doc["cartesian"]["matches_documented"] is True
        and not left["holds"]
        and left["min_eig"] < -1e-6
        and not right["holds"]
        and right["min_eig"] < -1e-6
        and elapsed < 1.0
    )
    verdict(
        2,
        ok,
        "decomposition exact, both order checks fail with min eigenvalues "
        f"{left['min_eig']:.4f} and {right['min_eig']:.4f}, {elapsed:.2f}s",
    )


def test_criterion_3_catalog_campaign(campaign, verdict):
    rc, out, elapsed = campaign
    doc = loads_strict(out.read_text())
    results = {t["id"]: t for t in doc["results"]}
    classes_ok = {i: results[i]["class"] for i in C3_CLASSES} == C3_CLASSES
    violated = {i: t["violated"] for i, t in results.items() if t["violated"]}
    trials_ok = all(t["trials"] == 4000 for t in results.values())
    ok = (
        rc == 0
        and len(results) == 11
        and classes_ok
        and trials_ok
        and not violated
        and elapsed < 60.0
    )
    verdict(
        3,
        ok,
        f"11 targets x 4000 trials (seed 42), violated={sum(violated.values())}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_document_matches_golden(campaign):
    # Captured before the checkers were stacked; see test_golden.py.
    _, out, _ = campaign
    golden = Path(__file__).resolve().parent / "golden" / "criterion-3.json"
    assert out.read_bytes() == golden.read_bytes()


def test_criterion_4_left_side_identity(campaign, verdict):
    _, out, _ = campaign
    doc = loads_strict(out.read_text())
    (target,) = [t for t in doc["results"] if t["id"] == "thm-2.7"]
    max_abs = target["side_stats"]["left"]["max_abs_margin"]
    ok = max_abs <= 1e-8
    verdict(4, ok, f"thm-2.7 max |left margin| = {max_abs:.2e} over 4000 trials (<= 1e-8)")


def test_criterion_5_counterexample_searches(tmp_path, verdict):
    w1_path = tmp_path / "w1.json"
    w2_path = tmp_path / "w2.json"
    rc1, t1 = run_cli(
        ["search", "--target", "loewner-cartesian-general", "--budget", "10000", "--out", str(w1_path)]
    )
    rc2, t2 = run_cli(
        ["search", "--target", "bk-1.1-hermitian-B", "--budget", "100000", "--out", str(w2_path)]
    )
    elapsed = t1 + t2
    margins = []
    replays_ok = True
    for path in (w1_path, w2_path):
        witness = witness_from_document(loads_strict(path.read_text()))
        rep = replay(witness)
        replays_ok = replays_ok and rep == witness.report
        margins.append((rep.min_margin, -10.0 * rep.tol_used))
    qualifies = all(m < threshold for m, threshold in margins)
    ok = rc1 == 0 and rc2 == 0 and replays_ok and qualifies and elapsed < 120.0
    verdict(
        5,
        ok,
        "both searches found replayable witnesses, margins "
        f"{margins[0][0]:.2e} and {margins[1][0]:.2e} below -10*tol, {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_6_eigensolver_accuracy(verdict):
    start = time.perf_counter()
    worst_recon = 0.0
    worst_unit = 0.0
    count = 0
    for n in (2, 4, 8, 16, 32):
        for i in range(200):
            (m,) = draw("hermitian", n, 1234, count)
            count += 1
            w, v = np.linalg.eigh(m)
            recon = frobenius_norm(v @ np.diag(w) @ v.conj().T - m) / max(1.0, frobenius_norm(m))
            unit = frobenius_norm(v.conj().T @ v - np.eye(n)) / np.sqrt(n)
            worst_recon = max(worst_recon, recon)
            worst_unit = max(worst_unit, unit)
    elapsed = time.perf_counter() - start
    ok = worst_recon <= 1e-10 and worst_unit <= 1e-10 and elapsed < 30.0
    verdict(
        6,
        ok,
        f"1000 decompositions (n up to 32): reconstruction <= {worst_recon:.2e}, "
        f"unitarity <= {worst_unit:.2e}, {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_7_order_constrained_campaign(tmp_path, verdict):
    out = tmp_path / "thm24.json"
    rc, elapsed = run_cli(
        [
            "fuzz",
            "--ineq",
            "thm-2.4",
            "--dims",
            "2,3,5,8",
            "--trials",
            "1000",
            "--seed",
            "42",
            "--out",
            str(out),
        ]
    )
    doc = loads_strict(out.read_text())
    (target,) = doc["results"]
    recorded = rc in (0, 1) and target["id"] == "thm-2.4" and target["trials"] == 4000
    if target["violated"] == 0:
        ok = recorded
        detail = f"4000 trials (normal_order_constrained), zero violated, {elapsed:.1f}s"
    else:
        # A violation is a finding, not a failure — but its witness must
        # replay bit-for-bit or the run cannot be trusted.
        witness = witness_from_json(target["worst_witness"])
        ok = recorded and replay(witness) == witness.report
        detail = (
            f"FINDING: {target['violated']} violation(s) recorded, worst witness "
            f"replays identically={ok}; see {out}"
        )
    verdict(7, ok, detail)


def test_criterion_8_campaign_determinism(campaign, tmp_path, verdict):
    rc1, out1, _ = campaign
    out2 = tmp_path / "campaign-run2.json"
    rc2, elapsed = run_cli([*C3_FLAGS, "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    verdict(
        8,
        ok,
        f"rerun with identical flags is byte-identical: {identical} "
        f"({len(out2.read_bytes())} bytes, {elapsed:.1f}s)",
    )
