"""The stacked counterexample search against a sequential oracle.

``sequential_search`` is the search loop as it was before candidates were
scored in speculative trees and restarts in lock-step blocks: one restart
after the other, one candidate at a time, each built by the one-matrix
``sequential_build``.  The stacked search must return the same witness
(restart, dimension, report and input bits) or None alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from svineq import fuzzer, randgen
from svineq.fuzzer import (
    SEARCH_TARGET_IDS,
    SearchTarget,
    Witness,
    _search_build,
    search_counterexample,
)
from svineq.inequalities import CatalogEntry, Checked, catalog_entry
from svineq.numkernel import DEFAULT_TOL


def _complex_square(params: np.ndarray, n: int) -> np.ndarray:
    return (params[: n * n] + 1j * params[n * n :]).reshape(n, n)


def sequential_length(target_id: str, n: int) -> int:
    if target_id == "bk-1.1-hermitian-B":
        return 4 * n * n
    return 2 * n * n


def sequential_build(target_id: str, params: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Map a flat real parameter vector to checker inputs.

    The parameterisation preserves the target's hypotheses under
    perturbation: for the relaxed bk comparison, A = G*G stays PSD and
    B = (H+H*)/2 stays Hermitian for any G, H.
    """
    if target_id == "bk-1.1-hermitian-B":
        g = _complex_square(params[: 2 * n * n], n)
        h = _complex_square(params[2 * n * n :], n)
        a = g.conj().T @ g
        return ((a + a.conj().T) / 2.0, (h + h.conj().T) / 2.0)
    return (_complex_square(params, n),)


def sequential_search(target: SearchTarget, seed: int) -> Witness | None:
    """Search for a robust violation of ``target``; None means exhausted.

    Restart ``r`` draws from ``prng_stream(seed, [r])`` and cycles through
    the target's dimensions, so the search is a pure function of
    (target, seed).  Each restart takes up to ``fuzzer.PERTURB_STEPS``
    greedy steps.  Candidates are scored one at a time by the stacked
    checker on a stack of one; only the witness gets a full report.
    """
    entry = catalog_entry(target.target_id)
    dims = target.dims or entry.search_dims
    tol = DEFAULT_TOL

    def score(mats) -> tuple[float, bool, Checked]:
        checked = entry.run([m[None] for m in mats], tol)
        margin = float(checked.min_margin[0])
        return margin, margin < -10.0 * float(checked.tol_used[0]), checked

    for restart in range(target.budget):
        stream = randgen.prng_stream(seed, [restart])
        n = dims[restart % len(dims)]
        length = sequential_length(target.target_id, n)
        params = stream.normals(length)[0]
        found_mats = sequential_build(target.target_id, params, n)
        best, qualifies, found = score(found_mats)
        sigma = 0.5
        for _ in range(0 if qualifies else fuzzer.PERTURB_STEPS):
            candidate = params + sigma * stream.normals(length)[0]
            found_mats = sequential_build(target.target_id, candidate, n)
            margin, qualifies, found = score(found_mats)
            if qualifies:
                break
            if margin < best:
                params, best = candidate, margin
            else:
                sigma *= 0.5
        if qualifies:
            return Witness(
                ineq_id=target.target_id,
                class_tag=f"search:{target.target_id}",
                dim=n,
                seed=seed,
                trial=restart,
                tol=tol,
                inputs=found_mats,
                report=found.report(0),
            )
    return None


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))


def assert_same_witness(got: Witness | None, want: Witness | None) -> None:
    if want is None:
        assert got is None
        return
    assert got is not None
    assert (got.ineq_id, got.class_tag, got.dim, got.seed, got.trial, got.tol) == (
        want.ineq_id,
        want.class_tag,
        want.dim,
        want.seed,
        want.trial,
        want.tol,
    )
    assert got.report == want.report
    assert len(got.inputs) == len(want.inputs)
    for g, w in zip(got.inputs, want.inputs):
        assert_same_bits(g, w)


DIMS = ((2,), (1, 2, 3), (8,))
BUDGETS = (0, 1, 7)
STEPS = (0, 1, 5, 64)


def case(target_id: str, seed: int, monkeypatch) -> SearchTarget:
    """Seeds 0..35 visit every (dims, budget, PERTURB_STEPS) combination;
    the step count is patched into the fuzzer."""
    monkeypatch.setattr(fuzzer, "PERTURB_STEPS", STEPS[(seed // 9) % 4])
    return SearchTarget(target_id, budget=BUDGETS[(seed // 3) % 3], dims=DIMS[seed % 3])


CASES = [("loewner-cartesian-general", s) for s in range(200)] + [
    (t, s) for t in ("bk-1.1-hermitian-B", "thm-2.1-nonnormal") for s in range(36)
]


@pytest.mark.parametrize("target_id,seed", CASES)
def test_search_matches_sequential_oracle(target_id, seed, monkeypatch):
    target = case(target_id, seed, monkeypatch)
    assert_same_witness(search_counterexample(target, seed), sequential_search(target, seed))


# (depth, CHUNK_ELEMENTS): depth 1 scores one step per call as the
# sequential loop does, CHUNK_ELEMENTS 1 caps every restart block at one
# restart, 1 << 20 lets every block grow to the full budget.
SETTINGS = [(1, 1), (1, 1 << 20), (2, fuzzer.CHUNK_ELEMENTS), (5, 1), (7, 1 << 20)]


@pytest.mark.parametrize("depth,chunk", SETTINGS)
@pytest.mark.parametrize("target_id", SEARCH_TARGET_IDS)
def test_search_matches_oracle_at_any_depth_and_block_cap(target_id, depth, chunk, monkeypatch):
    # Every dimension gets the patched depth, n = 8 included.
    monkeypatch.setattr(fuzzer, "_SEARCH_DEPTH", depth)
    monkeypatch.setattr(fuzzer, "_TREE_ELEMENTS", 1 << 20)
    monkeypatch.setattr(fuzzer, "CHUNK_ELEMENTS", chunk)
    for seed in range(12, 36):
        target = case(target_id, seed, monkeypatch)
        assert_same_witness(search_counterexample(target, seed), sequential_search(target, seed))


def test_tree_depth_shrinks_as_n_grows():
    depths = [fuzzer._search_depth(n) for n in range(1, 13)]
    assert depths == [4, 4, 4, 4, 3, 3, 2, 2, 2, 2, 1, 1]
    assert fuzzer._search_depth(fuzzer.MAX_DIM) == 1


@pytest.mark.parametrize("steps", [5, 64])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("target_id", SEARCH_TARGET_IDS)
def test_search_matches_oracle_with_a_depth_per_dimension(target_id, seed, steps, monkeypatch):
    # One search over dimensions whose trees have depths 4, 3, 2 and 1,
    # in restart blocks large enough to hold all four.
    monkeypatch.setattr(fuzzer, "CHUNK_ELEMENTS", 1 << 20)
    monkeypatch.setattr(fuzzer, "PERTURB_STEPS", steps)
    target = SearchTarget(target_id, budget=12, dims=(4, 5, 7, 11))
    assert_same_witness(search_counterexample(target, seed), sequential_search(target, seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("target_id", SEARCH_TARGET_IDS)
def test_search_matches_oracle_with_late_witness(target_id, seed):
    # Default budget and steps on the target's default dimensions: the
    # witness comes from a later restart block.
    target = SearchTarget(target_id, budget=40)
    assert_same_witness(search_counterexample(target, seed), sequential_search(target, seed))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("target_id", SEARCH_TARGET_IDS)
def test_stacked_search_build_matches_one_matrix_build(target_id, n):
    # The builder derived from the hypotheses a target keeps against the
    # hand-written one-matrix builder.
    length = sequential_length(target_id, n)
    params = randgen.prng_stream(17, np.arange(9, dtype=np.uint64)).normals(length)
    params[0] = 0.0
    params[1, ::3] = -0.0
    stacked = _search_build(catalog_entry(target_id), params, n)
    for i, row in enumerate(params):
        single = sequential_build(target_id, row, n)
        assert len(stacked) == len(single)
        for m, s in zip(stacked, single):
            assert m.shape == (len(params), n, n)
            assert_same_bits(m[i], s)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("target_id", SEARCH_TARGET_IDS)
def test_search_build_keeps_the_hypotheses_the_target_keeps(target_id, n):
    entry = catalog_entry(target_id)
    stream = randgen.prng_stream(3, np.arange(64, dtype=np.uint64))
    params = stream.normals(2 * entry.arity * n * n)
    checked = entry.run(_search_build(entry, params, n), DEFAULT_TOL)
    assert checked.hypothesis_ok is None or checked.hypothesis_ok.all()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("steps", [5, 64])
@pytest.mark.parametrize("target_id,n", [("thm-2.1-nonnormal", 2), ("thm-2.1-nonnormal", 3)])
def test_restart_block_finds_the_lowest_witness_of_its_restarts(
    target_id, n, steps, seed, monkeypatch
):
    # Each restart alone, one step per call, against all of them in one
    # lock-step block: restarts hit at their initial point, inside a
    # tree, in a later round, or never, and the block must return the
    # lowest one that hits, with the same witness inputs.
    entry = catalog_entry(target_id)
    restarts = list(range(3, 27))
    monkeypatch.setattr(fuzzer, "_SEARCH_DEPTH", 1)
    alone = [fuzzer._search_restarts(entry, seed, [r], n, steps) for r in restarts]
    monkeypatch.setattr(fuzzer, "_SEARCH_DEPTH", 4)
    block = fuzzer._search_restarts(entry, seed, restarts, n, steps)
    want = next((hit for hit in alone if hit is not None), None)
    if want is None:
        assert block is None
    else:
        assert block[0] == want[0]
        for got_stack, want_stack in zip(block[1], want[1]):
            assert_same_bits(got_stack[block[3]], want_stack[want[3]])


@pytest.mark.parametrize("steps", [0, 1, 5])
@pytest.mark.parametrize("dims", [(1, 2, 3), (3, 2)])
@pytest.mark.parametrize("seed", range(50))
def test_mixed_dimension_blocks_return_the_lowest_witness(dims, steps, seed, monkeypatch):
    # Restarts of one block split into one stack per dimension, and a
    # later stack can hold a lower witness than an earlier one.  Few
    # perturbation steps make failed restarts, and so large blocks, common.
    monkeypatch.setattr(fuzzer, "CHUNK_ELEMENTS", 1 << 20)
    monkeypatch.setattr(fuzzer, "PERTURB_STEPS", steps)
    target = SearchTarget("thm-2.1-nonnormal", budget=40, dims=dims)
    assert_same_witness(search_counterexample(target, seed), sequential_search(target, seed))


@pytest.mark.parametrize(
    "seed,rows",
    [
        # Restart 0 qualifies at its first step: two one-row calls, and
        # the witness is not graded again.
        (24, [1, 1]),
        # Restart 0 fails all 64 steps in rounds of 1, 2, 4, ..., 4 and 1
        # steps; restart 1 qualifies at its initial point.
        (2, [1, 1, 3] + [15] * 15 + [1, 1]),
    ],
)
def test_search_rounds_grow_with_the_walk(seed, rows, monkeypatch):
    seen = []
    run = CatalogEntry.run

    def counting_run(self, mats, tol):
        seen.append(len(mats[0]))
        return run(self, mats, tol)

    monkeypatch.setattr(CatalogEntry, "run", counting_run)
    witness = search_counterexample(SearchTarget("loewner-cartesian-general", 10000), seed)
    assert witness is not None and seen == rows
