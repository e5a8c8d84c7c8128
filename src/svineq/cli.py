"""Command-line front end.

Four subcommands:

- ``verify INEQ FILE...``: run one checker on matrices from JSON files,
  print the report document, exit by verdict.
- ``repro FIXTURE``: recompute an embedded fixture, compare against its
  documented values, flag discrepancies; human-readable lines followed by
  one compact JSON line.
- ``fuzz``: run a seeded campaign over catalog targets.
- ``search``: look for a counterexample to one of the search targets.

Exit codes are fixed: 0 holds / success, 1 violated (or a fuzz campaign
with unexpected violations, or a fixture that fails to reproduce),
2 hypothesis violated, 3 input or usage error (including input on which
the eigensolver does not converge, ``NoConvergence``), 4 search exhausted.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .decomp import cartesian
from .fixtures import FIXTURE_KEYS, fixture
from .fuzzer import (
    CampaignConfig,
    ConfigInvalid,
    MalformedWitness,
    SEARCH_TARGET_IDS,
    SearchTarget,
    run_campaign,
    search_counterexample,
)
from .inequalities import (
    ArityMismatch,
    CATALOG,
    InequalityReport,
    Tolerance,
    UnknownInequality,
    Verdict,
    catalog_entry,
    check,
)
from .numkernel import (
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidMatrix,
    MAX_DIM,
    NoConvergence,
    NotHermitian,
    NotPSD,
    abs_op,
    loewner_leq,
    singular_values,
)
from .randgen import InvalidSpec
from .serialize import (
    campaign_document,
    document,
    dumps,
    dumps_compact,
    matrix_to_json,
    parse_matrix_text,
    report_document,
    report_to_json,
    witness_document,
)

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_HYPOTHESIS_VIOLATED = 2
EXIT_USAGE = 3
EXIT_EXHAUSTED = 4

_VERDICT_EXIT = {
    Verdict.HOLDS: EXIT_HOLDS,
    Verdict.VIOLATED: EXIT_VIOLATED,
    Verdict.HYPOTHESIS_VIOLATED: EXIT_HYPOTHESIS_VIOLATED,
}

_INV_SQRT2 = 2.0 ** -0.5

# Documented approximate values ("~=") are compared at this threshold,
# matching their 4-decimal precision.
CLAIM_MATCH_TOL = 1e-3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _matrix_lines(m, indent: str = "  ") -> list[str]:
    a = np.asarray(m, dtype=np.complex128)
    return [indent + "  ".join(_fmt_complex(z) for z in row) for row in a]


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise _UsageError(f"empty dimension range {text!r}")
            dims = list(range(lo, hi + 1))
        else:
            dims = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise _UsageError(f"cannot parse dimensions {text!r}") from None
    if not dims:
        raise _UsageError(f"no dimensions in {text!r}")
    for d in dims:
        if not 1 <= d <= MAX_DIM:
            raise _UsageError(f"dimension {d} outside 1..{MAX_DIM}")
    return tuple(dims)


def _write_out(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)


def _tolerance(args) -> Tolerance:
    try:
        return Tolerance(tol_abs=args.tol_abs, tol_rel=args.tol_rel)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# --- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    mats = []
    for name in args.files:
        try:
            text = Path(name).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read {name}: {exc}") from None
        try:
            mats.append(parse_matrix_text(text))
        except InvalidMatrix as exc:
            raise _UsageError(f"{name}: {exc}") from None
    try:
        report = check(args.ineq, mats, tol)
    except (NotHermitian, NotPSD) as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_VIOLATED
    text = dumps(report_document(report, tol))
    sys.stdout.write(text)
    _write_out(args.out, text)
    return _VERDICT_EXIT[report.verdict]


# --- repro -------------------------------------------------------------------


def _order_check(name: str, claim, x, y, tol: Tolerance) -> dict:
    min_eig, tol_used = (float(v[0]) for v in loewner_leq(x[None], y[None], tol))
    holds = min_eig >= -tol_used
    return {
        "name": name,
        "lhs": claim.lhs,
        "rhs": claim.rhs,
        "min_eig": min_eig,
        "tol_used": tol_used,
        "holds": holds,
        "claimed_holds": claim.claimed_holds,
        "discrepancy": holds != claim.claimed_holds,
    }


def _fixture_head(fx, thm_2_1: InequalityReport):
    """The fixture matrix, its Hermitian/skew parts and its normality (the
    hypothesis of ``thm_2_1``, the fixture's thm-2.1 report) as lines and
    document fields; also whether the parts match the documented ones."""
    a = fx.matrix
    a1, a2 = (p[0] for p in cartesian(a[None]))
    a1_ok = np.array_equal(a1, fx.claimed_a1)
    a2_ok = np.array_equal(a2, fx.claimed_a2)
    normal = thm_2_1.verdict is not Verdict.HYPOTHESIS_VIOLATED
    defect = thm_2_1.hypothesis_residuals["normality_defect"]
    lines = [f"fixture {fx.key}", "A:"]
    lines.extend(_matrix_lines(a))
    lines.append("A1 (Hermitian part):")
    lines.extend(_matrix_lines(a1))
    lines.append(f"  matches documented value: {'yes' if a1_ok else 'NO'}")
    lines.append("A2 (skew part):")
    lines.extend(_matrix_lines(a2))
    lines.append(f"  matches documented value: {'yes' if a2_ok else 'NO'}")
    lines.append(
        f"normality defect |A*A-AA*|_F = {_fmt(defect)}"
        f" ({'normal' if normal else 'not normal'})"
    )
    fields = {
        "fixture": fx.key,
        "matrix": matrix_to_json(a),
        "cartesian": {
            "a1": matrix_to_json(a1),
            "a2": matrix_to_json(a2),
            "matches_documented": bool(a1_ok and a2_ok),
        },
        "classification": {"normal": normal, "normality_defect": defect},
    }
    return a1, a2, a1_ok and a2_ok, lines, fields


def _repro_ex22(tol: Tolerance) -> tuple[list[str], dict, int]:
    fx = fixture("ex-2.2")
    a = fx.matrix
    a1, a2, parts_ok, lines, fields = _fixture_head(fx, check("thm-2.1", (a,), tol))

    stack = np.stack([a, a1 + a2, a1 + 1j * a1, a1, a2])
    abs_a, abs_sum, abs_shown, abs_a1, abs_a2 = abs_op(stack)
    lhs_common = _INV_SQRT2 * abs_sum
    targets = {
        "left-as-displayed": (lhs_common, abs_shown),
        "left-corrected": (lhs_common, abs_a),
        "right": (abs_a, abs_a1 + abs_a2),
    }
    checks = []
    discrepancies = []
    for claim in fx.order_claims:
        x, y = targets[claim.name]
        result = _order_check(claim.name, claim, x, y, tol)
        checks.append(result)
        status = "holds" if result["holds"] else "VIOLATED"
        claimed = "holds" if claim.claimed_holds else "VIOLATED"
        lines.append(
            f"order check {claim.name}: {claim.lhs} <= {claim.rhs} -> {status}"
            f" (min eig {_fmt(result['min_eig'])}); documented: {claimed}"
        )
        if result["discrepancy"]:
            discrepancies.append(claim.name)
            lines.append(
                f"DISCREPANCY: {claim.name} recomputes as"
                f" {'holding' if result['holds'] else 'failing'},"
                f" documented as {'holding' if claim.claimed_holds else 'failing'}"
            )
    lines.append(
        "note: the displayed middle term reads |A1+i*A1|; the splitting suggests"
        " |A1+i*A2|, under which the left comparison holds — the documented"
        " failure is reproduced for the as-displayed reading"
    )

    by_name = {c["name"]: c for c in checks}
    reproduced = (
        parts_ok
        and not by_name["left-as-displayed"]["holds"]
        and not by_name["right"]["holds"]
        and by_name["left-corrected"]["holds"]
        and discrepancies == ["left-corrected"]
    )
    lines.append(
        "summary: documented failure of both order inequalities "
        + ("reproduced (as-displayed reading)" if reproduced else "NOT reproduced")
    )
    catalog_report = check("loewner-cartesian", (a,), tol)
    doc = document(
        "repro",
        {
            **fields,
            "order_checks": checks,
            "reports": {"loewner-cartesian": report_to_json(catalog_report)},
            "discrepancies": discrepancies,
            "reproduced": bool(reproduced),
        },
    )
    return lines, doc, EXIT_HOLDS if reproduced else EXIT_VIOLATED


def _eig2_hermitian(m) -> tuple[float, float]:
    """Closed-form eigenvalues (descending) of a real-diagonal 2x2 Hermitian
    matrix, used as an oracle independent of the kernel eigensolver."""
    a = np.asarray(m)
    tr = float(a[0, 0].real + a[1, 1].real)
    det = float((a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real)
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return ((tr + disc) / 2.0, (tr - disc) / 2.0)


def _repro_ex23(tol: Tolerance) -> tuple[list[str], dict, int]:
    fx = fixture("ex-2.3")
    a = fx.matrix
    theorem = check("thm-2.1", (a,), tol)
    a1, a2, parts_ok, lines, fields = _fixture_head(fx, theorem)

    # Oracle route, independent of the eigensolver: A = A1 + i*I with A1
    # 2x2 Hermitian, so s_k(A) = sqrt(mu_k^2 + 1) and |A1|+|A2| has
    # eigenvalues |mu_k| + 1, over the closed-form eigenvalues mu_k of A1.
    mu = _eig2_hermitian(a1)
    oracle_s_a = tuple(sorted((math.sqrt(m * m + 1.0) for m in mu), reverse=True))
    oracle_s_abs = tuple(sorted((abs(m) + 1.0 for m in mu), reverse=True))

    abs_a1, abs_a2 = abs_op(np.stack([a1, a2]))
    s_a, s_abs = singular_values(np.stack([a, abs_a1 + abs_a2])).tolist()
    claimed = {c.name: c.claimed for c in fx.value_claims}

    values = []
    discrepancies = []

    def add_value(name: str, recomputed: float, oracle: float | None):
        claim = claimed.get(name)
        entry = {
            "name": name,
            "recomputed": recomputed,
            "oracle": oracle,
            "oracle_abs_err": None if oracle is None else abs(recomputed - oracle),
            "claimed": claim,
            "discrepancy": claim is not None and abs(recomputed - claim) > CLAIM_MATCH_TOL,
        }
        values.append(entry)
        if entry["discrepancy"]:
            discrepancies.append(name)
        return entry

    add_value("s1(A)", s_a[0], oracle_s_a[0])
    v_s2 = add_value("s2(A)", s_a[1], oracle_s_a[1])
    add_value("s1(|A1|+|A2|)", s_abs[0], oracle_s_abs[0])
    v_abs2 = add_value("s2(|A1|+|A2|)", s_abs[1], oracle_s_abs[1])

    lines.append(f"s(A) recomputed: {_fmt(s_a[0])} {_fmt(s_a[1])}")
    lines.append(
        f"  oracle sqrt(mu^2+1) over eigenvalues mu of A1: "
        f"{_fmt(oracle_s_a[0])} {_fmt(oracle_s_a[1])}"
    )
    lines.append(
        f"  documented s2(A) ~= {claimed['s2(A)']}: "
        + (
            "DISCREPANCY"
            if v_s2["discrepancy"]
            else f"agree (|diff| = {_fmt(abs(s_a[1] - claimed['s2(A)']))})"
        )
    )
    lines.append(f"s(|A1|+|A2|) recomputed: {_fmt(s_abs[0])} {_fmt(s_abs[1])}")
    lines.append(f"  oracle |mu|+1: {_fmt(oracle_s_abs[0])} {_fmt(oracle_s_abs[1])}")
    if v_abs2["discrepancy"]:
        lines.append(
            f"DISCREPANCY: documented s2(|A1|+|A2|) ~= {claimed['s2(|A1|+|A2|)']} is not"
            f" reproduced; recomputed {_fmt(s_abs[1])}"
            f" (|diff| = {_fmt(abs(s_abs[1] - claimed['s2(|A1|+|A2|)']))} > {CLAIM_MATCH_TOL})"
        )
    else:
        lines.append(f"  documented s2(|A1|+|A2|) ~= {claimed['s2(|A1|+|A2|)']}: agree")

    relation_holds = s_a[1] > s_abs[1]
    lines.append(
        f"documented relation s2(A) > s2(|A1|+|A2|): "
        + ("reproduced" if relation_holds else f"not reproduced ({_fmt(s_a[1])} <= {_fmt(s_abs[1])})")
    )

    lines.append(
        f"theorem check thm-2.1: {theorem.verdict.value}"
        f" (min margin {_fmt(theorem.min_margin)})"
    )

    oracle_ok = all(
        v["oracle_abs_err"] is not None and v["oracle_abs_err"] <= 1e-9 for v in values
    )
    reproduced = (
        parts_ok
        and oracle_ok
        and not v_s2["discrepancy"]
        and v_abs2["discrepancy"]
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
                "recomputed_holds": bool(relation_holds),
            },
            "reports": {"thm-2.1": report_to_json(theorem)},
            "discrepancies": discrepancies,
            "reproduced": bool(reproduced),
        },
    )
    return lines, doc, EXIT_HOLDS if reproduced else EXIT_VIOLATED


def cmd_repro(args) -> int:
    runners = {"ex-2.2": _repro_ex22, "ex-2.3": _repro_ex23}
    lines, doc, code = runners[args.fixture](DEFAULT_TOL)
    for line in lines:
        print(line)
    print(dumps_compact(doc))
    _write_out(args.out, dumps(doc))
    return code


# --- fuzz --------------------------------------------------------------------


def _fuzz_targets(args) -> tuple[tuple[str, str], ...]:
    if args.ineq == "all":
        if args.klass:
            raise _UsageError("--class cannot be combined with --ineq all")
        return tuple(
            (entry.ineq_id, entry.canonical_class)
            for entry in CATALOG.values()
            if entry.in_all
        )
    ids = [part.strip() for part in args.ineq.split(",") if part.strip()]
    if not ids:
        raise _UsageError("--ineq needs at least one inequality id")
    if args.klass and len(ids) > 1:
        raise _UsageError("--class applies to a single --ineq id")
    targets = []
    for ineq_id in ids:
        entry = catalog_entry(ineq_id)
        targets.append((entry.ineq_id, args.klass or entry.canonical_class))
    return tuple(targets)


def cmd_fuzz(args) -> int:
    tol = _tolerance(args)
    config = CampaignConfig(
        targets=_fuzz_targets(args),
        dims=_parse_dims(args.dims),
        trials_per_dim=args.trials,
        seed=args.seed,
        tol=tol,
    )
    result = run_campaign(config)
    for t in result.targets:
        mm = "n/a" if t.min_margin is None else _fmt(t.min_margin)
        flag = "" if t.expected_to_hold else " (violations expected)"
        print(
            f"{t.ineq_id} class={t.class_tag} dims={','.join(map(str, t.dims))}"
            f" trials={t.trials} holds={t.holds} violated={t.violated}"
            f" hypothesis_violated={t.hypothesis_violated} min_margin={mm}{flag}"
        )
    unexpected = result.unexpected_violations()
    print(f"campaign: {len(result.targets)} target(s), {unexpected} unexpected violation(s)")
    text = dumps(campaign_document(result))
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_HOLDS if unexpected == 0 else EXIT_VIOLATED


# --- search ------------------------------------------------------------------


def cmd_search(args) -> int:
    dims = _parse_dims(args.dims) if args.dims else None
    target = SearchTarget(target_id=args.target, budget=args.budget, dims=dims)
    witness = search_counterexample(target, args.seed)
    if witness is None:
        print(
            f"search exhausted: no qualifying witness for {args.target}"
            f" within {args.budget} restart(s)"
        )
        return EXIT_EXHAUSTED
    report = witness.report
    print(
        f"witness found: target={args.target} dim={witness.dim} restart={witness.trial}"
        f" min_margin={_fmt(report.min_margin)} (threshold {_fmt(-10.0 * report.tol_used)})"
    )
    text = dumps(witness_document(witness))
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_HOLDS


# --- parser / dispatch ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="svineq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"svineq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check one inequality on matrix files")
    p_verify.add_argument("ineq", help="inequality id (see README for the catalog)")
    p_verify.add_argument("files", nargs="+", help="matrix JSON files")
    p_verify.add_argument("--tol-abs", type=float, default=DEFAULT_TOL.tol_abs)
    p_verify.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.tol_rel)
    p_verify.add_argument("--out", help="also write the report document to this file")
    p_verify.set_defaults(func=cmd_verify)

    p_repro = sub.add_parser("repro", help="reproduce an embedded fixture")
    p_repro.add_argument("fixture", choices=FIXTURE_KEYS)
    p_repro.add_argument("--out", help="also write the JSON document to this file")
    p_repro.set_defaults(func=cmd_repro)

    p_fuzz = sub.add_parser("fuzz", help="run a seeded campaign")
    p_fuzz.add_argument(
        "--ineq",
        required=True,
        help='"all", one id, or a comma-separated id list',
    )
    p_fuzz.add_argument("--class", dest="klass", help="generator class (single --ineq only)")
    p_fuzz.add_argument("--dims", default="2,3,5,8", help='e.g. "2..6" or "2,3,5,8"')
    p_fuzz.add_argument("--trials", type=int, default=100, help="trials per dimension")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--tol-abs", type=float, default=DEFAULT_TOL.tol_abs)
    p_fuzz.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.tol_rel)
    p_fuzz.add_argument("--out", help="write the campaign document to this file")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_search = sub.add_parser("search", help="search for a counterexample")
    p_search.add_argument("--target", required=True, choices=SEARCH_TARGET_IDS)
    p_search.add_argument("--budget", type=int, default=10000, help="random restarts")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--dims", help="override the target's default dimensions")
    p_search.add_argument("--out", help="write the witness document to this file")
    p_search.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        UnknownInequality,
        ArityMismatch,
        DimensionMismatch,
        InvalidMatrix,
        ConfigInvalid,
        MalformedWitness,
        InvalidSpec,
        NoConvergence,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
