"""JSON schemas: strict parsing, lossless round-trips, deterministic output."""

import contextlib
import gc
import json
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svineq import __version__
from svineq.fuzzer import CampaignConfig, SearchTarget, run_campaign, search_counterexample
from svineq.inequalities import check
from svineq.numkernel import DEFAULT_TOL, InvalidMatrix, Tolerance
from svineq.serialize import (
    SCHEMA_VERSION,
    campaign_document,
    document,
    dumps,
    dumps_compact,
    loads_strict,
    matrix_from_json,
    matrix_to_json,
    parse_matrix_text,
    report_document,
    report_from_json,
    report_to_json,
    tolerance_from_json,
    tolerance_to_json,
    witness_document,
    witness_from_document,
    witness_from_json,
    witness_to_json,
)

from conftest import draw, mat

GOLDEN = Path(__file__).resolve().parent / "golden"

# --- matrices ---------------------------------------------------------------


def test_matrix_round_trip_exact():
    m = mat([[1.5 - 2j, 3e-17], [0, -4j]])
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(m, back)


def test_matrix_json_shape():
    doc = matrix_to_json(mat([[1j]]))
    assert doc == {"n": 1, "entries": [[[0.0, 1.0]]]}


def test_parse_matrix_text_round_trip():
    m = draw("ginibre", 3, seed=8)[0]
    text = dumps(matrix_to_json(m))
    assert np.array_equal(parse_matrix_text(text), m)


DEEP = (
    "not valid JSON: maximum recursion depth exceeded while decoding a JSON array"
    " from a unicode string"
)
# 1,000 nested lists, with a comma every four characters as in a matrix file.
NESTED = "[0, " * 1000 + "0" + ", 0]" * 1000

# Messages as the per-entry decoder gave them; the array decoder must keep
# each one, including which offending entry it names first.
MALFORMED = [
    (  # ragged rows
        '{"n": 2, "entries": [[[1,0],[0,0]],[[0,0]]]}',
        "each row must hold exactly 2 [re, im] pairs",
    ),
    (  # wrong row count
        '{"n": 2, "entries": [[[1,0],[0,0]]]}',
        '"entries" must be a list of 2 rows',
    ),
    (  # triple instead of pair
        '{"n": 1, "entries": [[[1,0,0]]]}',
        "entry [1, 0, 0] is not an [re, im] pair",
    ),
    (  # NaN literal
        '{"n": 1, "entries": [[[NaN,0]]]}',
        "not valid JSON: non-finite JSON token 'NaN' is not allowed",
    ),
    (
        '{"n": 1, "entries": [[[Infinity,0]]]}',
        "not valid JSON: non-finite JSON token 'Infinity' is not allowed",
    ),
    (  # bool masquerading as number
        '{"n": 1, "entries": [[[true,0]]]}',
        "entry [True, 0] is not an [re, im] pair",
    ),
    ('{"n": 1, "entries": [[[1,false]]]}', "entry [1, False] is not an [re, im] pair"),
    ('{"n": 1, "entries": [[null]]}', "entry None is not an [re, im] pair"),
    ('{"n": 1, "entries": [[[null,0]]]}', "entry [None, 0] is not an [re, im] pair"),
    ('{"n": 1, "entries": [[["1.0",0]]]}', "entry ['1.0', 0] is not an [re, im] pair"),
    ('{"n": 1, "entries": [[[1]]]}', "entry [1] is not an [re, im] pair"),
    ('{"n": 1, "entries": [[[[1,0]]]]}', "entry [[1, 0]] is not an [re, im] pair"),
    (  # the first offending entry in row-major order is the one named
        '{"n": 2, "entries": [[[1,0],[0,"x"]],[[0,0],[1,true]]]}',
        "entry [0, 'x'] is not an [re, im] pair",
    ),
    (  # a bad entry in an earlier row wins over a short later row
        '{"n": 2, "entries": [[[1,0],[0,null]],[[0,0]]]}',
        "entry [0, None] is not an [re, im] pair",
    ),
    (  # row given as an object
        '{"n": 1, "entries": [{"0": [1,0]}]}',
        "each row must hold exactly 1 [re, im] pairs",
    ),
    ('{"n": "1", "entries": [[[1,0]]]}', '"n" must be an integer'),
    ('{"n": true, "entries": [[[1,0]]]}', '"n" must be an integer'),
    ('{"entries": [[[1,0]]]}', 'matrix document needs "n" and "entries" fields'),
    ('{"n": 0, "entries": []}', "expected a square matrix, got shape (0,)"),
    ('{"n": 65, "entries": []}', '"entries" must be a list of 65 rows'),
    ('{"n": 1, "entries": [[[1e400,0]]]}', "matrix has non-finite entries"),
    ("[1,2,3]", "matrix document must be a JSON object"),
    ("not json", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[" * 100000 + "]" * 100000, DEEP),  # nested deeper than json's recursion limit
    # orjson reads each of the texts below otherwise than json does.
    (  # orjson reads an integer beyond 64 bits as a float
        '{"n": 123456789012345678901234567890, "entries": []}',
        '"entries" must be a list of 123456789012345678901234567890 rows',
    ),
    (NESTED, DEEP),  # orjson takes any depth
    # A valid matrix beside a value nested too deep for json, under a key
    # of its own or under an "n" that a repeated "n" replaces.
    ('{"n": 1, "entries": [[[1, 0]]], "note": ' + NESTED + "}", DEEP),
    ('{"n": ' + NESTED + ', "n": 1, "entries": [[[1, 0]]]}', DEEP),
    # A pair nested too deep for json, where orjson's document is too deep
    # for the repr that names the offending pair.
    ('{"n": 1, "entries": [[' + NESTED + "]]}", DEEP),
]
# A payload names its case, shortened when it is too long to read.
MALFORMED_IDS = [p if len(p) <= 80 else f"{p[:8]}...({len(p)} chars)" for p, _ in MALFORMED]


@pytest.mark.parametrize("payload, message", MALFORMED, ids=MALFORMED_IDS)
def test_parse_matrix_text_rejects_malformed(payload, message):
    with pytest.raises(InvalidMatrix) as info:
        parse_matrix_text(payload)
    assert str(info.value) == message


def test_parse_matrix_text_rejects_dimension_over_cap():
    row = "[" + ",".join(["[0,0]"] * 65) + "]"
    with pytest.raises(InvalidMatrix) as info:
        parse_matrix_text('{"n": 65, "entries": [' + ",".join([row] * 65) + "]}")
    assert str(info.value) == "dimension 65 outside supported range 1..64"


HUGE_INT = "1" + "0" * 400  # a JSON integer outside float range


@pytest.mark.parametrize("pair", [f"[{HUGE_INT}, 0]", f"[0, -{HUGE_INT}]"], ids=["re", "im"])
def test_parse_matrix_text_rejects_integer_outside_float_range(pair):
    with pytest.raises(InvalidMatrix):
        parse_matrix_text('{"n": 1, "entries": [[' + pair + "]]}")


def test_witness_with_integer_outside_float_range_is_malformed():
    from svineq.fuzzer import MalformedWitness

    w = search_counterexample(
        SearchTarget(target_id="loewner-cartesian-general", budget=20), seed=0
    )
    doc = loads_strict(dumps(witness_document(w)))
    doc["inputs"][0]["entries"][0][0][0] = int(HUGE_INT)
    with pytest.raises(MalformedWitness):
        witness_from_json(doc)


def _assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -1e-310, 1.7e308, -1.7e308]
FINITE_FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)

# JSON spellings of a float that json reads as that float, sign included:
# the shortest repr, 18 and 17 significant digits with a signed exponent of
# at least two digits, and every digit of the exact value (up to 767).
SPELLINGS = [repr, "{:.17e}".format, "{:.16E}".format, lambda x: f"{Decimal(x):E}"]

# (value, spelling) pairs.
SPELLED_FLOATS = st.tuples(FINITE_FLOATS, st.sampled_from(SPELLINGS)).map(
    lambda p: (p[0], p[1](p[0]))
)
SPELLED_INTEGERS = st.integers(-(10**308), 10**308).map(lambda i: (i, str(i)))


@st.composite
def _square(draw_, values):
    """n, the values of n x n entries and a JSON matrix text that spells them."""
    n = draw_(st.integers(1, 5))
    numbers = draw_(st.lists(values, min_size=2 * n * n, max_size=2 * n * n))
    spelled = [s for _, s in numbers]
    pairs = [f"[{re}, {im}]" for re, im in zip(spelled[::2], spelled[1::2])]
    rows = ["[" + ", ".join(pairs[i : i + n]) + "]" for i in range(0, n * n, n)]
    return n, [x for x, _ in numbers], '{"n": %d, "entries": [%s]}' % (n, ", ".join(rows))


@given(_square(SPELLED_FLOATS))
def test_parse_matrix_text_round_trip_is_bitwise(square):
    n, values, text = square
    m = np.array(values, dtype=np.float64).view(np.complex128).reshape(n, n)
    _assert_bitwise_equal(parse_matrix_text(dumps(matrix_to_json(m))), m)
    _assert_bitwise_equal(parse_matrix_text(text), m)


def _reference_decode(entries) -> np.ndarray:
    """The per-entry decoder: one complex() per [re, im] pair."""
    return np.array([[complex(re, im) for re, im in row] for row in entries], dtype=np.complex128)


@given(_square(st.one_of(SPELLED_FLOATS, SPELLED_INTEGERS)))
def test_parse_matrix_text_integer_and_mixed_entries(square):
    n, values, text = square
    pairs = [values[i : i + 2] for i in range(0, len(values), 2)]
    entries = [pairs[i : i + n] for i in range(0, len(pairs), n)]
    want = _reference_decode(entries)
    _assert_bitwise_equal(parse_matrix_text(text), want)
    _assert_bitwise_equal(parse_matrix_text(json.dumps({"n": n, "entries": entries})), want)


def test_parse_matrix_text_rounds_a_long_tie_to_even():
    # 1 + 2**-53, halfway between 1.0 and the next float, written with 774
    # significant digits: it rounds to the even 1.0.
    tie = "1.00000000000000011102230246251565404236316680908203125" + "0" * 720
    m = parse_matrix_text('{"n": 1, "entries": [[[%s, 0]]]}' % tie)
    _assert_bitwise_equal(m, np.array([[1.0 + 0j]]))


def test_parse_matrix_text_keeps_keys_it_does_not_read():
    # json reads a lone surrogate, so it does not spoil a valid matrix.
    m = parse_matrix_text('{"n": 1, "entries": [[[1, 0]]], "note": "\\ud800"}')
    _assert_bitwise_equal(m, np.array([[1.0 + 0j]]))


# An n = 64 matrix text for orjson, and the same text with a string key,
# which json decodes.
N64 = matrix_to_json(draw("ginibre", 64, seed=8)[0])
N64_TEXTS = [json.dumps(N64), json.dumps({**N64, "note": "\ud800"})]


@pytest.mark.parametrize("text", N64_TEXTS, ids=["orjson", "json"])
def test_parse_matrix_text_starts_no_collection(text):
    # The decode builds about 4,160 lists, far past gen0's threshold, so a
    # running collector would start passes inside it, full ones included.
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        parse_matrix_text(text)
    finally:
        gc.callbacks.remove(hook)
        if not enabled:
            gc.disable()
    assert starts == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "text",
    [
        N64_TEXTS[0],
        '{"n": 1, "entries": [[[true,0]]]}',  # InvalidMatrix
        '{"n": 1, "entries": [[' + NESTED + "]]}",  # RecursionError on both routes
    ],
    ids=["accepted", "refused", "deep"],
)
def test_parse_matrix_text_leaves_the_collector_as_found(text, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(InvalidMatrix):
            parse_matrix_text(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_matrix_from_json_takes_float_subclasses_as_floats():
    # json.loads never builds np.float64, but a caller's own document may.
    m = mat([[1.5 - 2j, 3e-17], [0, -4j]])
    doc = matrix_to_json(m)
    doc["entries"] = [[[np.float64(x) for x in pair] for pair in row] for row in doc["entries"]]
    _assert_bitwise_equal(matrix_from_json(doc), m)


def test_parse_matrix_text_negative_zero_integer():
    # JSON "-0" is the integer 0, so it decodes to +0.0, while "-0.0" keeps its sign.
    m = parse_matrix_text('{"n": 1, "entries": [[[-0, -0.0]]]}')
    _assert_bitwise_equal(m, np.array([[complex(0.0, -0.0)]]))


def test_loads_strict_rejects_nan_constants():
    with pytest.raises(ValueError):
        loads_strict("[NaN]")
    with pytest.raises(ValueError):
        loads_strict("[-Infinity]")


# --- tolerances and reports ----------------------------------------------------


def test_tolerance_round_trip():
    t = Tolerance(tol_rel=2e-8)
    assert tolerance_from_json(tolerance_to_json(t)) == t


def test_tolerance_from_json_rejects_overflowing_numbers():
    # JSON has no infinity, but 1e999 reads as one.
    with pytest.raises(ValueError, match="tol_rel must be a nonnegative finite number"):
        tolerance_from_json(loads_strict('{"tol_rel": 1e999}'))


def test_report_round_trip_preserves_everything():
    (a,) = draw("normal", 3, seed=4)
    rep = check("thm-2.1", [a])
    back = report_from_json(report_to_json(rep))
    assert back == rep


def test_report_round_trip_with_skipped_sides():
    rep = check("proof-facts-2.1", [mat([[0, 1], [1, 0]]), mat([[1, 0], [0, -1]])])
    assert rep.skipped == ("sqrt",)
    assert report_from_json(report_to_json(rep)) == rep


def _reports(node) -> list:
    """Every report object inside a parsed document, in document order."""
    if isinstance(node, list):
        return [r for v in node for r in _reports(v)]
    if not isinstance(node, dict):
        return []
    if "verdict" in node and "sides" in node:
        return [node]
    return [r for v in node.values() for r in _reports(v)]


def test_every_golden_report_reads_back_to_the_same_json():
    # Verify documents (n = 64 included), repro reports, search witnesses
    # and campaign worst witnesses; the repro transcripts are plain text.
    read = {}
    for path in sorted(GOLDEN.iterdir()):
        if path.name.startswith("repro-") and path.suffix == ".txt":
            continue
        for rep in _reports(loads_strict(path.read_text())):
            assert dumps(report_to_json(report_from_json(rep))) == dumps(rep), path.name
            read.setdefault(path.name, []).append(rep["dims"])
    assert [64] in read["verify-thm-2.7-n64.txt"]
    assert {"repro-ex-2.2.json", "repro-ex-2.3.json", "edge-campaign.json"} < set(read)
    assert sum(name.startswith("search-") for name in read) == 3
    assert sum(name.startswith("verify-") for name in read) == 6


def _report_doc():
    (a,) = draw("normal", 3, seed=4)
    return report_to_json(check("thm-2.1", [a]))


@pytest.mark.parametrize(
    "js",
    [[2, 1, 3], [0, 1, 2], [1, 2, 4], [1, 1, 2], [2, 3, 4]],
    ids=["swapped", "from-0", "gap", "repeat", "from-2"],
)
def test_report_reader_refuses_j_out_of_sequence(js):
    doc = _report_doc()
    for row, j in zip(doc["sides"][1]["per_index"], js):
        row["j"] = j
    with pytest.raises(ValueError, match="per-index j must run 1..m"):
        report_from_json(doc)


def test_report_reader_refuses_a_null_min_margin():
    doc = _report_doc()
    doc["min_margin"] = None
    with pytest.raises(ValueError, match="expected a number"):
        report_from_json(doc)


def test_report_document_header():
    (a,) = draw("normal", 2, seed=4)
    doc = report_document(check("thm-2.1", [a]), DEFAULT_TOL)
    assert doc["schema"] == SCHEMA_VERSION == 1
    assert doc["tool"] == "svineq"
    assert doc["version"] == __version__
    assert doc["kind"] == "report"
    assert doc["report"]["id"] == "thm-2.1"


def test_document_json_is_deterministic_and_finite():
    body = {"x": 1.0, "y": [1e-300, 2.5]}
    assert dumps(document("demo", body)) == dumps(document("demo", body))
    assert dumps_compact(document("demo", body)).endswith("\n") is False
    with pytest.raises(ValueError):
        dumps({"bad": float("nan")})


# --- the indent-2 writer ------------------------------------------------------


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_dumps_writes_json_dumps_bytes_for_every_golden(path):
    doc = loads_strict(path.read_text())
    assert dumps(doc) == _json_dumps(doc) == path.read_text()


_leaves = st.one_of(
    st.text(),  # non-ASCII, control characters and quotes included
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é\u2028", "\U0001f600"]),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7e308, -1.7e308, 1e-300]),
    st.none(),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.text(), kids, max_size=5),
    ),
    max_leaves=40,
)


@given(doc=_trees)
def test_dumps_writes_json_dumps_bytes(doc):
    assert dumps(doc) == _json_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {1: "int", 2.5: "float", True: "bool", None: "null"},  # keys json.dumps converts
        {"n": 3, "entries": [[[1.0, -0.0]]], "empty": [[], {}, ()]},
    ],
)
def test_dumps_writes_json_dumps_bytes_for_edge_cases(doc):
    assert dumps(doc) == _json_dumps(doc)


@pytest.mark.parametrize(
    "doc, error",
    [
        (float("nan"), ValueError),
        ({"a": [1.0, float("inf")]}, ValueError),
        ([np.float64("-inf")], ValueError),
        ({float("nan"): 1}, ValueError),
        ({"a": np.int64(3)}, TypeError),
        ([np.True_], TypeError),
        ([1, {2}], TypeError),
        ({"a": 1j}, TypeError),
        ({(1, 2): 3}, TypeError),
        (b"bytes", TypeError),
        ([float("nan"), object()], ValueError),  # the first offender in document order
        ([object(), float("nan")], TypeError),
    ],
)
def test_dumps_rejects_what_json_dumps_rejects(doc, error):
    with pytest.raises(error) as ours:
        dumps(doc)
    with pytest.raises(error) as theirs:
        _json_dumps(doc)
    assert str(ours.value) == str(theirs.value)


# --- witnesses -------------------------------------------------------------------


def test_witness_document_round_trip():
    w = search_counterexample(
        SearchTarget(target_id="loewner-cartesian-general", budget=20), seed=0
    )
    assert w is not None
    doc = witness_document(w)
    assert doc["kind"] == "witness"
    back = witness_from_document(loads_strict(dumps(doc)))
    assert back.ineq_id == w.ineq_id
    assert back.trial == w.trial
    assert back.report == w.report
    for x, y in zip(back.inputs, w.inputs):
        assert np.array_equal(x, y)


def test_every_golden_witness_reads_and_writes_back_byte_for_byte():
    # The search documents whole, and each worst witness of a campaign.
    witnesses = []
    for path in sorted(GOLDEN.glob("*.json")):
        doc = loads_strict(path.read_text())
        if doc["kind"] == "witness":
            witness = witness_from_json(doc)
            assert dumps(witness_document(witness)) == path.read_text(), path.name
            witnesses.append(path.name)
        for target in doc.get("results", ()):
            if target["worst_witness"] is not None:
                witness = witness_from_json(target["worst_witness"])
                assert dumps(witness_to_json(witness)) == dumps(target["worst_witness"])
                witnesses.append(path.name)
    assert sorted(witnesses) == [
        "edge-campaign.json",
        "edge-campaign.json",
        "search-bk-1.1-hermitian-B.json",
        "search-loewner-cartesian-general.json",
        "search-thm-2.1-nonnormal.json",
    ]


def test_witness_document_rejects_wrong_kind():
    w = search_counterexample(
        SearchTarget(target_id="loewner-cartesian-general", budget=20), seed=0
    )
    doc = witness_document(w)
    doc["kind"] = "campaign"
    from svineq.fuzzer import MalformedWitness

    with pytest.raises(MalformedWitness):
        witness_from_document(doc)


def test_witness_json_rejects_missing_fields():
    from svineq.fuzzer import MalformedWitness

    with pytest.raises(MalformedWitness):
        witness_from_json({"id": "thm-2.1"})
    with pytest.raises(MalformedWitness, match="must be a JSON object"):
        witness_from_json([])


@pytest.fixture(scope="module")
def witness_text():
    w = search_counterexample(SearchTarget(target_id="thm-2.1-nonnormal", budget=20), seed=0)
    return dumps(witness_document(w))


def _set(doc, path: str, value) -> None:
    *parents, last = (int(k) if k.isdigit() else k for k in path.split("."))
    for key in parents:
        doc = doc[key]
    doc[last] = value


# (field path, JSON text of its replacement): integer fields take JSON
# integers only, number fields finite JSON integers or floats, neither a
# bool; list fields take lists, string fields strings, and the schema is 1.
# The fields also agree: "dim" is every input's "n" and every entry of
# the report's "dims", one per input; the report's "id" is the witness's
# "ineq_id"; and the "j" of each side run 1..m.
MALFORMED_WITNESS_FIELDS = [
    ("dim", "1e400"),
    ("dim", "true"),
    ("dim", "2.0"),
    ("seed", "2.5"),
    ("seed", '"7"'),
    ("trial", "null"),
    ("schema", "99"),
    ("schema", "true"),
    ("schema", "1.0"),
    ("ineq_id", "5"),
    ("class", "null"),
    ("tol", "[]"),
    ("tol.tol_rel", "true"),
    ("tol.tol_rel", '"1e-9"'),
    ("tol.tol_rel", "-1"),
    ("inputs", '{"n": 2}'),
    ("inputs.0", "[]"),
    ("report", "[]"),
    ("report.id", "[]"),
    ("report.dims", '"22"'),
    ("report.dims.0", "1e400"),
    ("report.dims.0", "false"),
    ("report.verdict", "1"),
    ("report.verdict", '"maybe"'),
    ("report.min_margin", "true"),
    ("report.min_margin", "null"),
    ("report.min_margin", "1" + "0" * 400),
    ("report.tol_used", '"0"'),
    ("report.skipped", '"abc"'),
    ("report.skipped", "[1]"),
    ("report.hypothesis_residuals", "[]"),
    ("report.hypothesis_residuals.normality_defect", "true"),
    ("report.sides", "{}"),
    ("report.sides.0", "[]"),
    ("report.sides.0.label", "0"),
    ("report.sides.0.scale", '"x"'),
    ("report.sides.0.per_index", "{}"),
    ("report.sides.0.per_index.0.j", "1.0"),
    ("report.sides.0.per_index.0.margin", "false"),
    ("report.min_margin", "1e400"),
    ("report.tol_used", "-1e400"),
    ("report.hypothesis_residuals.normality_defect", "1e400"),
    ("report.sides.0.scale", "1e400"),
    ("report.sides.0.per_index.0.lhs", "-1e400"),
    ("tol.tol_rel", "1e400"),
    ("dim", "5"),
    ("report.dims", "[7]"),
    ("report.dims", "[]"),
    ("report.dims.0", "5"),
    ("inputs", "[]"),
    ("report.id", '"thm-2.1"'),
    ("report.id", '"bk-1.1"'),
    ("report.sides.0.per_index.0.j", "99"),
    ("report.sides.0.per_index.0.j", "0"),
    ("report.sides.0.per_index.1.j", "1"),
]


@pytest.mark.parametrize("path, text", MALFORMED_WITNESS_FIELDS)
def test_witness_reader_rejects_wrongly_typed_fields(witness_text, path, text):
    from svineq.fuzzer import MalformedWitness

    doc = loads_strict(witness_text)
    _set(doc, path, loads_strict(text))
    with pytest.raises(MalformedWitness):
        witness_from_document(doc)


def test_witness_reader_rejects_a_consistent_but_wrong_dimension(witness_text):
    # "dim" and the report's "dims" edited alike still disagree with the
    # inputs' "n", which replay() would grade.
    from svineq.fuzzer import MalformedWitness

    doc = loads_strict(witness_text)
    assert doc["dim"] == doc["inputs"][0]["n"] != 5
    _set(doc, "dim", 5)
    _set(doc, "report.dims", [5])
    with pytest.raises(MalformedWitness, match="disagree"):
        witness_from_document(doc)


def test_witness_reader_takes_integers_as_numbers(witness_text):
    doc = loads_strict(witness_text)
    _set(doc, "report.sides.0.scale", 3)
    _set(doc, "tol.tol_rel", 0)
    w = witness_from_document(doc)
    assert w.report.sides[0].scale == 3.0 and type(w.report.sides[0].scale) is float
    assert w.tol == Tolerance(tol_rel=0.0)


# --- campaigns ---------------------------------------------------------------------


def _campaign():
    cfg = CampaignConfig(
        targets=(("thm-2.1", "normal"), ("loewner-cartesian-general", "ginibre")),
        dims=(2, 3),
        trials_per_dim=6,
        seed=5,
        tol=DEFAULT_TOL,
    )
    return run_campaign(cfg)


def test_campaign_document_echoes_config():
    doc = campaign_document(_campaign())
    cfg = doc["config"]
    assert cfg["seed"] == 5
    assert cfg["dims"] == [2, 3]
    assert cfg["trials_per_dim"] == 6
    assert cfg["targets"] == [
        ["thm-2.1", "normal"],
        ["loewner-cartesian-general", "ginibre"],
    ]
    assert cfg["tol"] == {"tol_rel": 1e-9}
