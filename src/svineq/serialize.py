"""JSON schemas for matrices, reports, witnesses, and campaign results.

Matrix interchange uses explicit [re, im] pairs — no complex-string
parsing, no NaN/Inf.  Report documents mirror the in-memory dataclasses
field by field and round-trip losslessly (Python's float formatting is
shortest-roundtrip).  Every document carries ``"schema": 1`` and the tool
version.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any

import numpy as np

from . import __version__
from .fuzzer import MalformedWitness, Witness
from .inequalities import InequalityReport, MarginSide, Verdict
from .numkernel import InvalidMatrix, Tolerance, as_matrix

SCHEMA_VERSION = 1


def document(kind: str, body: dict[str, Any]) -> dict[str, Any]:
    doc = {"schema": SCHEMA_VERSION, "tool": "svineq", "version": __version__, "kind": kind}
    doc.update(body)
    return doc


def dumps(doc: dict[str, Any]) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False)`` and a newline, byte
    for byte, with its ValueError for a non-finite float and its TypeError
    for a value JSON has no form for.

    With ``indent``, ``json.dumps`` skips its C encoder for a pure-Python
    generator per container, whose closures leave reference cycles for the
    garbage collector.  This writer joins each container's items once and
    leaves none.  A document that contains itself raises RecursionError,
    where ``json.dumps`` raises ValueError.
    """
    return _encode(doc, "\n") + "\n"


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# How json.dumps writes a value of each scalar type.  Subclasses of str,
# int and float (np.float64, IntEnum) take their base type's writer.
_WRITERS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _encode(key, "")
    return encode_basestring_ascii(key)


def _encode(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, where
    ``newline`` is a line break and the indent of the line it starts on."""
    write = _WRITERS.get(type(value))
    if write is not None:
        return write(value)
    get, inner = _WRITERS.get, newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [w(v) if (w := get(type(v))) else _encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            _key(k) + ": " + (w(v) if (w := get(type(v))) else _encode(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    for kind in (str, int, float):
        if isinstance(value, kind):
            return _WRITERS[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


def _orjson_reads_as_json(text: str) -> bool:
    """Whether orjson decodes ``text`` to the matrix json gives, wherever
    ``matrix_from_json`` accepts what orjson returns.

    - A matrix document's "n" and "entries" take four quote marks.  A text
      with no others holds no other key, no repeated key and no string,
      where orjson and json part: orjson accepts nesting that json refuses
      with a RecursionError, and refuses lone surrogates that json accepts.
    - orjson 3.8.3 reads a number of more than 768 significant digits as if
      the digits past the 768th were not all zero, so it can round an exact
      tie the wrong way.  A number holds no comma, and one of 767 characters
      or more covers a whole aligned block of 384: where every such block
      holds a comma, no number is that long.

    Both rules were measured on orjson 3.8.3 only, so ``pyproject.toml``
    admits 3.8.x and no later release.
    """
    return text.count('"') == 4 and all(
        "," in text[i : i + 384] for i in range(0, len(text) - 383, 384)
    )


def parse_matrix_text(text: str) -> np.ndarray:
    """The matrix of a JSON matrix file, or InvalidMatrix.

    orjson, about four times faster, decodes a text that it reads as json
    does.  json (``loads_strict``) decodes every other text and every text
    that orjson or ``matrix_from_json`` refuses, so it gives every error.
    Refusals include a RecursionError: orjson's document can be nested
    deeper than ``repr`` can name in an InvalidMatrix message, where json
    stops at its own recursion limit.

    The cyclic collector is paused and left as found: the decode's acyclic
    lists, freed by refcounting, cost 31-32 full passes per 1,500 verify runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if _orjson_reads_as_json(text):
            import orjson  # only verify reads matrix files; other commands never load it

            try:
                return matrix_from_json(orjson.loads(text))
            except (orjson.JSONDecodeError, InvalidMatrix, RecursionError):
                pass
        try:
            doc = loads_strict(text)
        except (ValueError, RecursionError) as exc:
            raise InvalidMatrix(f"not valid JSON: {exc}") from exc
        return matrix_from_json(doc)
    finally:
        if enabled:
            gc.enable()


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


# --- tolerances, reports and witnesses -----------------------------------------
#
# Each kind is one table of (key, attribute, write, read) rows in key order:
# the writer sets ``key`` to ``write(obj.attribute)`` and the reader passes
# ``read(doc[key])`` as ``attribute``, so each key is named once for both.


def _same(value):
    return value


def _tuple_of(read):
    return lambda value: tuple(map(read, _list(value)))


def _write(table, obj) -> dict[str, Any]:
    doc = {}
    for key, attr, write, _ in table:  # a loop: on Python 3.11 faster than a comprehension
        doc[key] = write(getattr(obj, attr))
    return doc


def _read(table, cls, doc, **more):
    """``cls`` from the object ``doc`` and the arguments ``more``; a missing
    key raises KeyError."""
    doc = _object(doc)
    return cls(**{attr: read(doc[key]) for key, attr, _, read in table}, **more)


_TOLERANCE = (("tol_rel", "tol_rel", _same, _number),)
tolerance_to_json = functools.partial(_write, _TOLERANCE)
tolerance_from_json = functools.partial(_read, _TOLERANCE, Tolerance)

# A side's per-index columns follow these keys as the rows of "per_index".
_SIDE = (
    ("label", "label", _same, _str),
    ("kind", "kind", _same, _str),
    ("scale", "scale", _same, _finite),
    ("min_margin", "min_margin", _same, _finite),
)


def _side_to_json(side: MarginSide) -> dict[str, Any]:
    doc = _write(_SIDE, side)
    doc["per_index"] = [
        {"j": j, "lhs": lhs, "rhs": rhs, "margin": margin}
        for j, (lhs, rhs, margin) in enumerate(zip(side.lhs, side.rhs, side.margin), 1)
    ]
    return doc


def _side_from_json(doc) -> MarginSide:
    rows = list(map(_object, _list(_object(doc)["per_index"])))
    if [_int(row["j"]) for row in rows] != [*range(1, len(rows) + 1)]:
        raise ValueError("the per-index j must run 1..m")
    columns = {name: tuple(_finite(row[name]) for row in rows) for name in ("lhs", "rhs", "margin")}
    return _read(_SIDE, MarginSide, doc, **columns)


_REPORT = (
    ("id", "ineq_id", _same, _str),
    ("dims", "dims", list, _tuple_of(_int)),
    ("verdict", "verdict", attrgetter("value"), lambda value: Verdict(_str(value))),
    ("min_margin", "min_margin", _same, _finite),
    ("tol_used", "tol_used", _same, _finite),
    ("hypothesis_residuals", "hypothesis_residuals", dict,
     lambda value: {name: _finite(x) for name, x in _object(value).items()}),
    ("skipped", "skipped", list, _tuple_of(_str)),
    ("sides", "sides", lambda sides: list(map(_side_to_json, sides)), _tuple_of(_side_from_json)),
)
report_to_json = functools.partial(_write, _REPORT)
report_from_json = functools.partial(_read, _REPORT, InequalityReport)

_WITNESS = (
    ("ineq_id", "ineq_id", _same, _str),
    ("class", "class_tag", _same, _str),
    ("dim", "dim", _same, _int),
    ("seed", "seed", _same, _int),
    ("trial", "trial", _same, _int),
    ("tol", "tol", tolerance_to_json, tolerance_from_json),
    ("inputs", "inputs", lambda inputs: list(map(matrix_to_json, inputs)),
     _tuple_of(matrix_from_json)),
    ("report", "report", report_to_json, report_from_json),
)
witness_to_json = functools.partial(_write, _WITNESS)


def witness_from_json(doc) -> Witness:
    if not isinstance(doc, dict):
        raise MalformedWitness("witness document must be a JSON object")
    missing = [key for key, *_ in _WITNESS if key not in doc]
    if missing:
        raise MalformedWitness(f"witness document missing fields: {missing}")
    try:
        witness = _read(_WITNESS, Witness, doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedWitness(f"cannot parse witness: {exc}") from exc
    report, n, inputs = witness.report, witness.dim, witness.inputs
    if (report.ineq_id != witness.ineq_id or report.dims != (n,) * len(inputs)
            or any(m.shape[0] != n for m in inputs)):
        raise MalformedWitness("the report's id or dims disagree with the witness")
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
#
# Campaign documents are written, never read, so their tables have no readers.

_HISTOGRAM = (
    ("log10_lo", "LOG10_LO", _same, None),
    ("log10_hi", "LOG10_HI", _same, None),
    ("counts", "counts", list, None),
    ("underflow", "underflow", _same, None),
    ("overflow", "overflow", _same, None),
)
_SIDE_STATS = (
    ("min_margin", "min_margin", _same, None),
    ("max_abs_margin", "max_abs_margin", _same, None),
)
_TARGET = (
    ("id", "ineq_id", _same, None),
    ("class", "class_tag", _same, None),
    ("dims", "dims", list, None),
    ("trials", "trials", _same, None),
    ("holds", "holds", _same, None),
    ("violated", "violated", _same, None),
    ("hypothesis_violated", "hypothesis_violated", _same, None),
    ("expected_to_hold", "expected_to_hold", _same, None),
    ("min_margin", "min_margin", _same, None),
    ("histogram", "histogram", functools.partial(_write, _HISTOGRAM), None),
    ("side_stats", "side_stats",
     lambda stats: {label: _write(_SIDE_STATS, s) for label, s in stats.items()}, None),
    ("worst_witness", "worst_witness", lambda w: None if w is None else witness_to_json(w), None),
)
_target_to_json = functools.partial(_write, _TARGET)
_CONFIG = (
    ("targets", "targets", lambda targets: list(map(list, targets)), None),
    ("dims", "dims", list, None),
    ("trials_per_dim", "trials_per_dim", _same, None),
    ("seed", "seed", _same, None),
    ("scale", "scale", _same, None),
    ("tol", "tol", tolerance_to_json, None),
)
_CAMPAIGN = (
    ("config", "config", functools.partial(_write, _CONFIG), None),
    ("results", "targets", lambda targets: list(map(_target_to_json, targets)), None),
)


def campaign_document(result) -> dict[str, Any]:
    return document("campaign", _write(_CAMPAIGN, result))


def report_document(report: InequalityReport, tol: Tolerance) -> dict[str, Any]:
    return document("report", {"tol": tolerance_to_json(tol), "report": report_to_json(report)})
