"""JSON schemas for matrices, reports, witnesses, and campaign results.

Matrix interchange uses explicit [re, im] pairs — no complex-string
parsing, no NaN/Inf.  Report documents mirror the in-memory dataclasses
field by field and round-trip losslessly (Python's float formatting is
shortest-roundtrip).  Every document carries ``"schema": 1`` and the tool
version.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

import numpy as np

from . import __version__
from .fuzzer import (
    CampaignConfig,
    CampaignResult,
    MalformedWitness,
    MarginHistogram,
    SideStats,
    TargetResult,
    Witness,
)
from .inequalities import (
    IndexMargin,
    InequalityReport,
    MarginSide,
    Verdict,
)
from .numkernel import InvalidMatrix, Tolerance, as_matrix

SCHEMA_VERSION = 1


def document(kind: str, body: dict[str, Any]) -> dict[str, Any]:
    doc = {"schema": SCHEMA_VERSION, "tool": "svineq", "version": __version__, "kind": kind}
    doc.update(body)
    return doc


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def dumps_compact(doc: dict[str, Any]) -> str:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token!r} is not allowed")


def loads_strict(text: str) -> Any:
    return json.loads(text, parse_constant=_reject_constant)


# --- matrices ----------------------------------------------------------------


def matrix_to_json(m) -> dict[str, Any]:
    a = np.asarray(m, dtype=np.complex128)
    return {"n": int(a.shape[0]), "entries": np.stack([a.real, a.imag], -1).tolist()}


def _flat_numbers(entries: list, n: int) -> list:
    """The 2n² numbers of ``entries``: row-major, each real part before its
    imaginary part.

    Rows, pairs and numbers are checked a whole level at a time at C speed
    (``type(True)`` is ``bool``, so booleans fail the number test).  Only a
    malformed matrix is walked pair by pair, to raise InvalidMatrix naming
    the first offending row or pair.
    """
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {n}:
        pairs = list(chain.from_iterable(entries))
        if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}:
            nums = list(chain.from_iterable(pairs))
            if set(map(type, nums)) <= {int, float}:
                return nums
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise InvalidMatrix(f"each row must hold exactly {n} [re, im] pairs")
        for pair in row:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise InvalidMatrix(f"entry {pair!r} is not an [re, im] pair")
    # Only subclasses of list, int or float, which json.loads never builds,
    # get here.
    return list(chain.from_iterable(chain.from_iterable(entries)))


def matrix_from_json(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise InvalidMatrix("matrix document must be a JSON object")
    if "n" not in doc or "entries" not in doc:
        raise InvalidMatrix('matrix document needs "n" and "entries" fields')
    n = doc["n"]
    entries = doc["entries"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidMatrix('"n" must be an integer')
    if not isinstance(entries, list) or len(entries) != n:
        raise InvalidMatrix(f'"entries" must be a list of {n} rows')
    try:
        z = np.array(_flat_numbers(entries, n), dtype=np.float64).view(np.complex128)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise InvalidMatrix(f"matrix has an entry outside float range ({exc})") from exc
    # n = 0 hands over the empty vector, so as_matrix reports its shape.
    return as_matrix(z.reshape(n, n) if n else z)


def parse_matrix_text(text: str) -> np.ndarray:
    try:
        doc = loads_strict(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidMatrix(f"not valid JSON: {exc}") from exc
    return matrix_from_json(doc)


# --- strict readers of JSON values ---------------------------------------------
#
# A reader takes a value of one JSON type only: no value is coerced from
# another type, and a bool, though Python's json gives it as an int
# subclass, is not a number (``_finite`` also rejects 1e400, which Python's
# json reads as an infinity).  Each raises ValueError.


def _expect(value, types: tuple, what: str):
    if type(value) not in types:
        raise ValueError(f"expected {what}, got {value!r:.40}")
    return value


def _int(value) -> int:
    return _expect(value, (int,), "an integer")


def _number(value) -> float:
    try:
        return float(_expect(value, (int, float), "a number"))
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError("number outside float range") from None


def _finite(value) -> float:
    if not np.isfinite(number := _number(value)):
        raise ValueError(f"expected a finite number, got {value!r:.40}")
    return number


def _str(value) -> str:
    return _expect(value, (str,), "a string")


def _list(value) -> list:
    return _expect(value, (list,), "a list")


def _object(value) -> dict:
    return _expect(value, (dict,), "an object")


# --- tolerances and reports --------------------------------------------------


def tolerance_to_json(tol: Tolerance) -> dict[str, float]:
    return {"tol_rel": tol.tol_rel}


def tolerance_from_json(doc) -> Tolerance:
    return Tolerance(tol_rel=_number(_object(doc)["tol_rel"]))


def _side_to_json(side: MarginSide) -> dict[str, Any]:
    return {
        "label": side.label,
        "kind": side.kind,
        "scale": side.scale,
        "min_margin": side.min_margin,
        "per_index": [
            {"j": e.j, "lhs": e.lhs, "rhs": e.rhs, "margin": e.margin} for e in side.entries
        ],
    }


def _side_from_json(doc) -> MarginSide:
    doc = _object(doc)
    entries = tuple(
        IndexMargin(j=_int(e["j"]), lhs=_finite(e["lhs"]), rhs=_finite(e["rhs"]), margin=_finite(e["margin"]))
        for e in map(_object, _list(doc["per_index"]))
    )
    return MarginSide(
        label=_str(doc["label"]),
        kind=_str(doc["kind"]),
        entries=entries,
        scale=_finite(doc["scale"]),
        min_margin=_finite(doc["min_margin"]),
    )


def report_to_json(report: InequalityReport) -> dict[str, Any]:
    return {
        "id": report.ineq_id,
        "dims": list(report.dims),
        "verdict": report.verdict.value,
        "min_margin": report.min_margin,
        "tol_used": report.tol_used,
        "hypothesis_residuals": dict(report.hypothesis_residuals),
        "skipped": list(report.skipped),
        "sides": [_side_to_json(s) for s in report.sides],
    }


def report_from_json(doc) -> InequalityReport:
    doc = _object(doc)
    return InequalityReport(
        ineq_id=_str(doc["id"]),
        dims=tuple(map(_int, _list(doc["dims"]))),
        verdict=Verdict(_str(doc["verdict"])),
        min_margin=None if doc["min_margin"] is None else _finite(doc["min_margin"]),
        tol_used=_finite(doc["tol_used"]),
        sides=tuple(map(_side_from_json, _list(doc["sides"]))),
        skipped=tuple(map(_str, _list(doc["skipped"]))),
        hypothesis_residuals={
            k: _finite(v) for k, v in _object(doc["hypothesis_residuals"]).items()
        },
    )


# --- witnesses ---------------------------------------------------------------


def witness_to_json(witness: Witness) -> dict[str, Any]:
    return {
        "ineq_id": witness.ineq_id,
        "class": witness.class_tag,
        "dim": witness.dim,
        "seed": witness.seed,
        "trial": witness.trial,
        "tol": tolerance_to_json(witness.tol),
        "inputs": [matrix_to_json(m) for m in witness.inputs],
        "report": report_to_json(witness.report),
    }


def witness_from_json(doc) -> Witness:
    if not isinstance(doc, dict):
        raise MalformedWitness("witness document must be a JSON object")
    required = ("ineq_id", "class", "dim", "seed", "trial", "tol", "inputs", "report")
    missing = [k for k in required if k not in doc]
    if missing:
        raise MalformedWitness(f"witness document missing fields: {missing}")
    try:
        inputs = tuple(map(matrix_from_json, _list(doc["inputs"])))
        witness = Witness(
            ineq_id=_str(doc["ineq_id"]),
            class_tag=_str(doc["class"]),
            dim=_int(doc["dim"]),
            seed=_int(doc["seed"]),
            trial=_int(doc["trial"]),
            tol=tolerance_from_json(doc["tol"]),
            inputs=inputs,
            report=report_from_json(doc["report"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedWitness(f"cannot parse witness: {exc}") from exc
    report, n = witness.report, witness.dim
    if (report.ineq_id != witness.ineq_id or report.dims != (n,) * len(inputs)
            or any(m.shape[0] != n for m in inputs)
            or any([e.j for e in s.entries] != [*range(1, len(s.entries) + 1)] for s in report.sides)):
        raise MalformedWitness("the report's id, dims or per-index j disagree with the witness")
    return witness


def witness_document(witness: Witness) -> dict[str, Any]:
    return document("witness", witness_to_json(witness))


def witness_from_document(doc) -> Witness:
    if not isinstance(doc, dict) or doc.get("kind") != "witness":
        raise MalformedWitness('expected a document with "kind": "witness"')
    if type(doc.get("schema")) is not int or doc["schema"] != SCHEMA_VERSION:
        raise MalformedWitness(f'a witness document needs "schema": {SCHEMA_VERSION}')
    return witness_from_json(doc)


# --- campaigns ---------------------------------------------------------------


def _histogram_to_json(h: MarginHistogram) -> dict[str, Any]:
    return {
        "log10_lo": h._LO,
        "log10_hi": h._HI,
        "counts": list(h.counts),
        "underflow": h.underflow,
        "overflow": h.overflow,
    }


def _side_stats_to_json(stats: dict[str, SideStats]) -> dict[str, Any]:
    return {
        label: {"min_margin": s.min_margin, "max_abs_margin": s.max_abs_margin}
        for label, s in stats.items()
    }


def _target_to_json(t: TargetResult) -> dict[str, Any]:
    return {
        "id": t.ineq_id,
        "class": t.class_tag,
        "dims": list(t.dims),
        "trials": t.trials,
        "holds": t.holds,
        "violated": t.violated,
        "hypothesis_violated": t.hypothesis_violated,
        "expected_to_hold": t.expected_to_hold,
        "min_margin": t.min_margin,
        "histogram": _histogram_to_json(t.histogram),
        "side_stats": _side_stats_to_json(t.side_stats),
        "worst_witness": None if t.worst_witness is None else witness_to_json(t.worst_witness),
    }


def config_to_json(config: CampaignConfig) -> dict[str, Any]:
    return {
        "targets": [[ineq_id, class_tag] for ineq_id, class_tag in config.targets],
        "dims": list(config.dims),
        "trials_per_dim": config.trials_per_dim,
        "seed": config.seed,
        "scale": config.scale,
        "tol": tolerance_to_json(config.tol),
    }


def campaign_document(result: CampaignResult) -> dict[str, Any]:
    return document(
        "campaign",
        {
            "config": config_to_json(result.config),
            "results": [_target_to_json(t) for t in result.targets],
        },
    )


def report_document(report: InequalityReport, tol: Tolerance) -> dict[str, Any]:
    return document("report", {"tol": tolerance_to_json(tol), "report": report_to_json(report)})
