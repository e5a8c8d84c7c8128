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
import functools
import sys
from pathlib import Path

from . import __version__
from .fixtures import FIXTURE_KEYS, _fmt, reproduce
from .fuzzer import (
    CampaignConfig,
    SEARCH_TARGET_IDS,
    WITNESS_FACTOR,
    SearchTarget,
    run_campaign,
    search_counterexample,
)
from .inequalities import Tolerance, Verdict, catalog_entry, catalog_ids, check
from .numkernel import DEFAULT_TOL, InvalidMatrix, MAX_DIM, NoConvergence, NotHermitian
from .serialize import (
    campaign_document,
    dumps,
    dumps_compact,
    parse_matrix_text,
    report_document,
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


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_dims(text: str) -> tuple[int, ...]:
    """The dimensions ``text`` lists; ``fuzzer._validate_dims`` checks them."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = map(int, text.split("..", 1))
            # A range outside 1..MAX_DIM stands for its bounds, so that the
            # check names one of them before a list that long is built.
            dims = range(lo, hi + 1) if 1 <= lo and hi <= MAX_DIM else (lo, hi)
        else:
            dims = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise _UsageError(f"cannot parse dimensions {text!r}") from None
    if not dims:
        raise _UsageError(f"no dimensions in {text!r}")
    return tuple(dims)


def _write_out(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)


def _out_or_stdout(path: str | None, lines: list[str], text: str) -> None:
    """Print ``lines``, then write ``text`` to the file ``path`` or, without
    one, to stdout.  The file is written first, so that a failed write
    prints nothing."""
    _write_out(path, text)
    for line in lines:
        print(line)
    if not path:
        sys.stdout.write(text)


# --- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    tol = Tolerance(tol_rel=args.tol_rel)
    mats = []
    for name in args.files:
        try:
            text = Path(name).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read {name}: {exc}") from None
        try:
            mats.append(parse_matrix_text(text))
        except InvalidMatrix as exc:
            raise _UsageError(f"{name}: {exc}") from None
    try:
        report = check(args.ineq, mats, tol)
    except NotHermitian as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_VIOLATED
    text = dumps(report_document(report, tol))
    _write_out(args.out, text)
    sys.stdout.write(text)
    return _VERDICT_EXIT[report.verdict]


# --- repro -------------------------------------------------------------------


def cmd_repro(args) -> int:
    lines, doc, reproduced = reproduce(args.fixture)
    _write_out(args.out, dumps(doc))
    for line in [*lines, dumps_compact(doc)]:
        print(line)
    return EXIT_HOLDS if reproduced else EXIT_VIOLATED


# --- fuzz --------------------------------------------------------------------


def _fuzz_targets(args) -> tuple[tuple[str, str], ...]:
    if args.ineq == "all":
        if args.klass:
            raise _UsageError("--class cannot be combined with --ineq all")
        return tuple((i, catalog_entry(i).canonical_class) for i in catalog_ids())
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
    tol = Tolerance(tol_rel=args.tol_rel)
    config = CampaignConfig(
        targets=_fuzz_targets(args),
        dims=_parse_dims(args.dims),
        trials_per_dim=args.trials,
        seed=args.seed,
        tol=tol,
    )
    result = run_campaign(config)
    lines = []
    for t in result.targets:
        mm = "n/a" if t.min_margin is None else _fmt(t.min_margin)
        flag = "" if t.expected_to_hold else " (violations expected)"
        lines.append(
            f"{t.ineq_id} class={t.class_tag} dims={','.join(map(str, t.dims))}"
            f" trials={t.trials} holds={t.holds} violated={t.violated}"
            f" hypothesis_violated={t.hypothesis_violated} min_margin={mm}{flag}"
        )
    unexpected = result.unexpected_violations()
    lines.append(f"campaign: {len(result.targets)} target(s), {unexpected} unexpected violation(s)")
    _out_or_stdout(args.out, lines, dumps(campaign_document(result)))
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
    found = (
        f"witness found: target={args.target} dim={witness.dim} restart={witness.trial}"
        f" min_margin={_fmt(report.min_margin)}"
        f" (threshold {_fmt(-WITNESS_FACTOR * report.tol_used)})"
    )
    _out_or_stdout(args.out, [found], dumps(witness_document(witness)))
    return EXIT_HOLDS


# --- parser / dispatch ---------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``svineq`` parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged and gives each call a fresh
    namespace, so repeated ``main`` calls in one process share it.
    """
    parser = _Parser(prog="svineq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"svineq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check one inequality on matrix files")
    p_verify.add_argument("ineq", help="inequality id (see README for the catalog)")
    p_verify.add_argument("files", nargs="+", help="matrix JSON files")
    p_verify.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.tol_rel)
    p_verify.add_argument("--out", help="also write the report document to this file")

    p_repro = sub.add_parser("repro", help="reproduce an embedded fixture")
    p_repro.add_argument("fixture", choices=FIXTURE_KEYS)
    p_repro.add_argument("--out", help="also write the JSON document to this file")

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
    p_fuzz.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.tol_rel)
    p_fuzz.add_argument("--out", help="write the campaign document to this file")

    p_search = sub.add_parser("search", help="search for a counterexample")
    p_search.add_argument("--target", required=True, choices=SEARCH_TARGET_IDS)
    p_search.add_argument("--budget", type=int, default=10000, help="random restarts")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--dims", help="override the target's default dimensions")
    p_search.add_argument("--out", help="write the witness document to this file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError, NoConvergence) as exc:
        # Usage errors and every error of the package but NoConvergence are
        # ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
