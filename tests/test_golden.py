"""Byte-identity gate: campaign, witness and repro documents against stored
goldens.

The documents under ``tests/golden/`` were written by this module before
the checkers were rewritten over stacked operands (the repro outputs
before the one-matrix kernels were removed, the verify reports before the
matrix decoder was vectorised), so they pin the exact bytes a campaign, a
search, a worst witness, a fixture reproduction and a report on matrix
files must keep (``criterion-3.json`` is compared in test_acceptance.py).  They
are written and compared with one BLAS thread, which conftest.py pins,
because the BLAS thread count can change last bits.  Regenerate them only
for a change that is meant to alter the numerics:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# Ahead of svineq, which loads numpy: conftest pins BLAS to one thread, also
# when this file runs as a script.
from conftest import BLAS_THREAD_VARS, draw

from svineq import fuzzer, inequalities, numkernel, randgen
from svineq.cli import main
from svineq.fixtures import EX_2_2
from svineq.fuzzer import CampaignConfig, SEARCH_TARGET_IDS, replay, run_campaign
from svineq.serialize import campaign_document, dumps, matrix_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# One campaign that reaches every way of drawing inputs and every outcome:
# a violated target with a witness, a search-only variant, a structural
# NotHermitian rejection, graded hypothesis violations (repeated draws of a
# one-matrix class), the split parts of a normal draw, a side skipped on
# some trials only (non-commuting Hermitian pairs), and a two-matrix
# native class.  Seven trials per dimension leave a ragged last
# chunk for any chunk size from 2 to 6.
EDGE_CONFIG = CampaignConfig(
    targets=(
        ("loewner-cartesian", "ginibre"),
        ("thm-2.1-nonnormal", "ginibre"),
        ("thm-2.5-plus", "ginibre"),
        ("bk-1.1", "hermitian"),
        ("proof-facts-2.1", "normal"),
        ("proof-facts-2.1", "hermitian"),
        ("ak-1.4", "dominated_pair"),
    ),
    dims=(1, 2, 3, 8),
    trials_per_dim=7,
    seed=0,
)


def _cli_document(argv: list[str], tmp: Path) -> bytes:
    out = tmp / "doc.json"
    if out.exists():
        out.unlink()
    main([*argv, "--out", str(out)])
    return out.read_bytes()


def _cli_stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue().encode()


# (golden name, inequality, input files) for `svineq verify` reports: one
# file each at n = 1, 2, 8 and 64, a file of JSON integers with "-0"
# entries (a Hermitian matrix, so the check runs), and a two-file pair.
INT_HERMITIAN = (
    '{"n": 3, "entries": [[[2, 0], [1, -1], [0, -0]], [[1, 1], [-3, 0], [4, 0.5]],'
    ' [[-0, 0], [4, -0.5], [7, -0]]]}'
)
VERIFY_CASES = (
    ("verify-thm-2.7-n1.txt", "thm-2.7", [draw("ginibre", 1, seed=3)[0]]),
    ("verify-loewner-cartesian-n2.txt", "loewner-cartesian", [EX_2_2]),
    ("verify-thm-2.1-n8.txt", "thm-2.1", [draw("normal", 8, seed=3)[0]]),
    ("verify-thm-2.7-n64.txt", "thm-2.7", [draw("ginibre", 64, seed=3)[0]]),
    ("verify-thm-2.5-plus-int.txt", "thm-2.5-plus", [INT_HERMITIAN]),
    (
        "verify-thm-2.8-pair.txt",
        "thm-2.8",
        [draw("ginibre", 5, seed=3, index=i)[0] for i in (0, 1)],
    ),
)


def verify_report(ineq: str, inputs, tmp: Path) -> bytes:
    paths = []
    for i, m in enumerate(inputs):
        path = tmp / f"in{i}.json"
        path.write_text(m if isinstance(m, str) else dumps(matrix_to_json(m)))
        paths.append(str(path))
    return _cli_stdout(["verify", ineq, *paths])


def edge_campaign_document() -> bytes:
    return dumps(campaign_document(run_campaign(EDGE_CONFIG))).encode()


def documents(tmp: Path):
    """(file name, builder) for every golden document."""
    yield "fuzz-small.json", lambda: _cli_document(
        ["fuzz", "--ineq", "all", "--dims", "2,3,5,8", "--trials", "8", "--seed", "0"], tmp
    )
    yield "fuzz-large.json", lambda: _cli_document(
        ["fuzz", "--ineq", "all", "--dims", "32,64", "--trials", "2", "--seed", "0"], tmp
    )
    yield "edge-campaign.json", edge_campaign_document
    for target in SEARCH_TARGET_IDS:
        yield f"search-{target}.json", lambda t=target: _cli_document(
            ["search", "--target", t, "--seed", "0"], tmp
        )
    for key in ("ex-2.2", "ex-2.3"):
        yield f"repro-{key}.txt", lambda f=key: _cli_stdout(["repro", f])
        yield f"repro-{key}.json", lambda f=key: _cli_document(["repro", f], tmp)
    for name, ineq, inputs in VERIFY_CASES:
        yield name, lambda i=ineq, m=inputs: verify_report(i, m, tmp)


GOLDEN_NAMES = [name for name, _ in documents(Path("."))]


def test_blas_is_pinned_to_one_thread():
    # conftest.py sets one BLAS thread before numpy loads BLAS, which reads
    # the setting only then, so that the tests that call the kernels
    # outside svineq's entry points run as the goldens were written.
    assert all(os.environ[var] == "1" for var in BLAS_THREAD_VARS)
    blas = numkernel._openblas_thread_query()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this test can ask")
    assert blas[0]() == 1


@pytest.mark.parametrize("name", ["fuzz-large.json", "verify-tao-1.2-n64"])
def test_two_blas_threads_leave_documents_byte_identical(name, tmp_path):
    # svineq pins OpenBLAS to one thread while it grades, so a process
    # that starts with two writes the bytes of one thread: the golden
    # campaign, and a tao-1.2 report at n = 64 whose margins change in
    # their last digits when its products run on two threads.
    if numkernel._openblas_thread_query() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS svineq can pin")
    if name == "fuzz-large.json":
        argv = ["fuzz", "--ineq", "all", "--dims", "32,64", "--trials", "2", "--seed", "0",
                "--out", str(tmp_path / name)]
        expected = (GOLDEN / name).read_bytes()
    else:
        expected = verify_report("tao-1.2", draw("psd_block2", 64, seed=0), tmp_path)
        argv = ["verify", "tao-1.2", *(str(tmp_path / f"in{i}.json") for i in range(3))]
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "2")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(fuzzer.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "svineq", *argv], capture_output=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout if name.startswith("verify") else (tmp_path / name).read_bytes()
    assert out == expected


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_document_matches_golden(name, tmp_path):
    build = dict(documents(tmp_path))[name]
    assert build() == (GOLDEN / name).read_bytes()


def test_frobenius_norms_see_only_contiguous_stacks(tmp_path, monkeypatch):
    # numkernel._fro reads each slice through a (k, n*n) view of its stack,
    # which makes the dot calls of np.linalg.norm only for a C-contiguous
    # stack.  Every route to it, through every module that binds it, must
    # hand it one.
    original = numkernel._fro
    calls, strided = [], []

    def contiguous_fro(x):
        calls.append(x.shape)
        if not x.flags.c_contiguous:
            strided.append((x.shape, x.strides))
        return original(x)

    callers = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("svineq.") and getattr(module, "_fro", None) is original
    ]
    assert numkernel in callers and inequalities in callers
    for module in callers:
        monkeypatch.setattr(module, "_fro", contiguous_fro)
    for ineq_id in inequalities.catalog_ids(include_variants=True):
        entry = inequalities.catalog_entry(ineq_id)
        draw = fuzzer._drawer(entry, entry.canonical_class)
        for n in (entry.fixed_dim,) if entry.fixed_dim else (1, 2, 3):
            stream = randgen.prng_stream(0, np.arange(1, dtype=np.uint64))
            mats = draw(n, stream, 1.0)
            inequalities.check(ineq_id, [m[0] for m in mats])
    fuzz = ["fuzz", "--ineq", "all", "--dims", "1,2,3", "--seed", "0"]
    assert main([*fuzz, "--out", str(tmp_path / "fuzz.json")]) == 0
    for target in SEARCH_TARGET_IDS:
        name = f"search-{target}.json"
        assert _cli_document(["search", "--target", target, "--seed", "0"], tmp_path) == (
            GOLDEN / name
        ).read_bytes()
    assert calls and strided == []


@pytest.mark.parametrize("budget", [1, 3, 200, fuzzer.CHUNK_ELEMENTS])
def test_edge_campaign_does_not_depend_on_chunk_size(budget, monkeypatch):
    # Budget 3 stacks three 1x1 trials at a time and single trials above;
    # 200 gives whole blocks at n <= 3 and chunks of 3, 3, 1 at n = 8.
    monkeypatch.setattr(fuzzer, "CHUNK_ELEMENTS", budget)
    result = run_campaign(EDGE_CONFIG)
    document = dumps(campaign_document(result)).encode()
    assert document == (GOLDEN / "edge-campaign.json").read_bytes()
    witnesses = [t.worst_witness for t in result.targets if t.worst_witness is not None]
    assert witnesses
    for w in witnesses:
        assert replay(w) == w.report


if __name__ == "__main__":
    import tempfile

    from test_acceptance import C3_FLAGS

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        # The criterion-3 campaign, compared in test_acceptance.py.
        criterion_3 = ("criterion-3.json", lambda: _cli_document(C3_FLAGS, Path(tmp)))
        for name, build in [*documents(Path(tmp)), criterion_3]:
            (GOLDEN / name).write_bytes(build())
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
