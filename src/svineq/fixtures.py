"""The worked examples ex-2.2 and ex-2.3 and their reproduction.

Each example is a matrix with the Cartesian parts, values and order-check
outcomes documented for it in the source material.  ``reproduce``
recomputes them and flags where the documented claims disagree with the
arithmetic.  The recomputed numbers are read from the catalog report the
``repro`` document embeds (``loewner-cartesian`` for ex-2.2, ``thm-2.1``
for ex-2.3); only the as-displayed ex-2.2 comparison, which no report
contains, is computed here.  The examples live in the package, not on
disk: reproduction must not depend on the working directory.
"""

from __future__ import annotations

import math

import numpy as np

from .decomp import cartesian
from .inequalities import InequalityReport, Verdict, check
from .numkernel import DEFAULT_TOL, abs_op, as_matrix, loewner_leq
from .serialize import document, matrix_to_json, report_to_json

FIXTURE_KEYS = ("ex-2.2", "ex-2.3")

# Documented approximate values ("~=") are compared at this threshold,
# matching their 4-decimal precision.
CLAIM_MATCH_TOL = 1e-3

_INV_SQRT2 = 2.0 ** -0.5

EX_2_2 = as_matrix([[2 - 1j, 2j], [2j, 2j]])
EX_2_2_A1 = as_matrix([[2, 0], [0, 0]])
EX_2_2_A2 = as_matrix([[-1, 2], [2, 2]])
# The source displays the middle term of the left comparison as
# |A1 + i*A1|; the splitting it just computed suggests A2 was meant.
# Both readings are recomputed; the documented outcome of every
# comparison is that it fails.
EX_2_2_CLAIMED_HOLDS = False

EX_2_3 = as_matrix([[1 + 1j, 1], [1, 1j]])
EX_2_3_A1 = as_matrix([[1, 1], [1, 0]])
EX_2_3_A2 = as_matrix([[1, 0], [0, 1]])
EX_2_3_S2_A = 1.1756  # documented s2(A)
EX_2_3_S2_ABS = 0.9591  # documented s2(|A1|+|A2|)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _matrix_lines(m) -> list[str]:
    return ["  " + "  ".join(f"{z.real:.6g}{z.imag:+.6g}i" for z in row) for row in m]


def _head(key: str, a, claimed_a1, claimed_a2, thm_2_1: InequalityReport):
    """The matrix, its Hermitian/skew parts and its normality (the
    hypothesis of ``thm_2_1``, the example's thm-2.1 report) as lines and
    document fields; also whether the parts match the documented ones."""
    a1, a2 = (p[0] for p in cartesian(a[None]))
    a1_ok = np.array_equal(a1, claimed_a1)
    a2_ok = np.array_equal(a2, claimed_a2)
    normal = thm_2_1.verdict is not Verdict.HYPOTHESIS_VIOLATED
    defect = thm_2_1.hypothesis_residuals["normality_defect"]
    lines = [f"fixture {key}", "A:", *_matrix_lines(a)]
    for name, part, ok in (("A1 (Hermitian part)", a1, a1_ok), ("A2 (skew part)", a2, a2_ok)):
        lines += [f"{name}:", *_matrix_lines(part)]
        lines.append(f"  matches documented value: {'yes' if ok else 'NO'}")
    lines.append(
        f"normality defect |A*A-AA*|_F = {_fmt(defect)}"
        f" ({'normal' if normal else 'not normal'})"
    )
    fields = {
        "fixture": key,
        "matrix": matrix_to_json(a),
        "cartesian": {
            "a1": matrix_to_json(a1),
            "a2": matrix_to_json(a2),
            "matches_documented": bool(a1_ok and a2_ok),
        },
        "classification": {"normal": normal, "normality_defect": defect},
    }
    return a1, a2, a1_ok and a2_ok, lines, fields


def _reproduce_ex22() -> tuple[list[str], dict, bool]:
    a = EX_2_2
    a1, a2, parts_ok, lines, fields = _head(
        "ex-2.2", a, EX_2_2_A1, EX_2_2_A2, check("thm-2.1", (a,))
    )
    report = check("loewner-cartesian", (a,))
    # (min_eig, scale) of each comparison; only the as-displayed reading
    # is in no report.
    order = {s.label: (s.min_margin, s.scale) for s in report.sides}
    abs_sum, abs_shown = abs_op(np.stack([a1 + a2, a1 + 1j * a1]))
    eigs, scale = loewner_leq((_INV_SQRT2 * abs_sum)[None], abs_shown[None])
    comparisons = (
        ("left-as-displayed", "(1/sqrt2)|A1+A2|", "|A1+i*A1|", (eigs[0, 0], scale[0])),
        ("left-corrected", "(1/sqrt2)|A1+A2|", "|A1+i*A2|", order["left"]),
        ("right", "|A1+i*A2|", "|A1|+|A2|", order["right"]),
    )
    claimed = EX_2_2_CLAIMED_HOLDS
    checks = []
    discrepancies = []
    for name, lhs, rhs, (min_eig, scale) in comparisons:
        min_eig, tol_used = float(min_eig), float(DEFAULT_TOL.effective(scale))
        holds = min_eig >= -tol_used
        checks.append(
            {
                "name": name,
                "lhs": lhs,
                "rhs": rhs,
                "min_eig": min_eig,
                "tol_used": tol_used,
                "holds": holds,
                "claimed_holds": claimed,
                "discrepancy": holds != claimed,
            }
        )
        lines.append(
            f"order check {name}: {lhs} <= {rhs} -> {'holds' if holds else 'VIOLATED'}"
            f" (min eig {_fmt(min_eig)}); documented: {'holds' if claimed else 'VIOLATED'}"
        )
        if holds != claimed:
            discrepancies.append(name)
            lines.append(
                f"DISCREPANCY: {name} recomputes as {'holding' if holds else 'failing'},"
                f" documented as {'holding' if claimed else 'failing'}"
            )
    lines.append(
        "note: the displayed middle term reads |A1+i*A1|; the splitting suggests"
        " |A1+i*A2|, under which the left comparison holds — the documented"
        " failure is reproduced for the as-displayed reading"
    )
    reproduced = (
        parts_ok
        and [c["holds"] for c in checks] == [False, True, False]
        and discrepancies == ["left-corrected"]
    )
    lines.append(
        "summary: documented failure of both order inequalities "
        + ("reproduced (as-displayed reading)" if reproduced else "NOT reproduced")
    )
    doc = document(
        "repro",
        {
            **fields,
            "order_checks": checks,
            "reports": {"loewner-cartesian": report_to_json(report)},
            "discrepancies": discrepancies,
            "reproduced": reproduced,
        },
    )
    return lines, doc, reproduced


def _eig2_hermitian(m) -> tuple[float, float]:
    """Closed-form eigenvalues (descending) of a real-diagonal 2x2 Hermitian
    matrix, used as an oracle independent of the kernel eigensolver."""
    a = np.asarray(m)
    tr = float(a[0, 0].real + a[1, 1].real)
    det = float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real)
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return ((tr + disc) / 2.0, (tr - disc) / 2.0)


def _value(name: str, recomputed: float, oracle: float, claimed: float | None) -> dict:
    return {
        "name": name,
        "recomputed": recomputed,
        "oracle": oracle,
        "oracle_abs_err": abs(recomputed - oracle),
        "claimed": claimed,
        "discrepancy": claimed is not None and abs(recomputed - claimed) > CLAIM_MATCH_TOL,
    }


def _reproduce_ex23() -> tuple[list[str], dict, bool]:
    a = EX_2_3
    theorem = check("thm-2.1", (a,))
    a1, _, parts_ok, lines, fields = _head("ex-2.3", a, EX_2_3_A1, EX_2_3_A2, theorem)

    # Oracle route, independent of the eigensolver: A = A1 + i*I with A1
    # 2x2 Hermitian, so s_k(A) = sqrt(mu_k^2 + 1) and |A1|+|A2| has
    # eigenvalues |mu_k| + 1, over the closed-form eigenvalues mu_k of A1.
    mu = _eig2_hermitian(a1)
    oracle_s_a = sorted((math.sqrt(m * m + 1.0) for m in mu), reverse=True)
    oracle_s_abs = sorted((abs(m) + 1.0 for m in mu), reverse=True)

    # The right side of thm-2.1 compares s(A) with s(|A1|+|A2|).
    right = theorem.side("right")
    s_a, s_abs = right.lhs, right.rhs
    claim_s2, claim_abs2 = EX_2_3_S2_A, EX_2_3_S2_ABS
    values = [
        _value("s1(A)", s_a[0], oracle_s_a[0], None),
        _value("s2(A)", s_a[1], oracle_s_a[1], claim_s2),
        _value("s1(|A1|+|A2|)", s_abs[0], oracle_s_abs[0], None),
        _value("s2(|A1|+|A2|)", s_abs[1], oracle_s_abs[1], claim_abs2),
    ]
    s2_off, abs2_off = values[1]["discrepancy"], values[3]["discrepancy"]

    lines.append(f"s(A) recomputed: {_fmt(s_a[0])} {_fmt(s_a[1])}")
    lines.append(
        f"  oracle sqrt(mu^2+1) over eigenvalues mu of A1: "
        f"{_fmt(oracle_s_a[0])} {_fmt(oracle_s_a[1])}"
    )
    lines.append(
        f"  documented s2(A) ~= {claim_s2}: "
        + ("DISCREPANCY" if s2_off else f"agree (|diff| = {_fmt(abs(s_a[1] - claim_s2))})")
    )
    lines.append(f"s(|A1|+|A2|) recomputed: {_fmt(s_abs[0])} {_fmt(s_abs[1])}")
    lines.append(f"  oracle |mu|+1: {_fmt(oracle_s_abs[0])} {_fmt(oracle_s_abs[1])}")
    if abs2_off:
        lines.append(
            f"DISCREPANCY: documented s2(|A1|+|A2|) ~= {claim_abs2} is not"
            f" reproduced; recomputed {_fmt(s_abs[1])}"
            f" (|diff| = {_fmt(abs(s_abs[1] - claim_abs2))} > {CLAIM_MATCH_TOL})"
        )
    else:
        lines.append(f"  documented s2(|A1|+|A2|) ~= {claim_abs2}: agree")

    relation_holds = s_a[1] > s_abs[1]
    relation = f"not reproduced ({_fmt(s_a[1])} <= {_fmt(s_abs[1])})"
    lines.append(
        "documented relation s2(A) > s2(|A1|+|A2|): "
        + ("reproduced" if relation_holds else relation)
    )
    lines.append(
        f"theorem check thm-2.1: {theorem.verdict.value}"
        f" (min margin {_fmt(theorem.min_margin)})"
    )

    reproduced = (
        parts_ok
        and all(v["oracle_abs_err"] <= 1e-9 for v in values)
        and not s2_off
        and abs2_off
        and theorem.verdict is Verdict.HOLDS
    )
    lines.append(
        "summary: values reproduced"
        + (
            " except the documented s2(|A1|+|A2|), which is flagged"
            if reproduced
            else " — reproduction FAILED"
        )
    )
    doc = document(
        "repro",
        {
            **fields,
            "values": values,
            "claimed_relation": {
                "statement": "s2(A) > s2(|A1|+|A2|)",
                "recomputed_holds": relation_holds,
            },
            "reports": {"thm-2.1": report_to_json(theorem)},
            "discrepancies": [v["name"] for v in values if v["discrepancy"]],
            "reproduced": reproduced,
        },
    )
    return lines, doc, reproduced


def reproduce(key: str) -> tuple[list[str], dict, bool]:
    """Recompute example ``key`` (one of ``FIXTURE_KEYS``) at the default
    tolerance: the lines to print, the ``repro`` document, and whether the
    documented claims reproduced as expected."""
    return {"ex-2.2": _reproduce_ex22, "ex-2.3": _reproduce_ex23}[key]()
