"""Campaign runner, histogram aggregation, witness replay, and search."""

import dataclasses
import math
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from svineq import cli, fuzzer, numkernel
from svineq.fuzzer import (
    CHUNK_ELEMENTS,
    CampaignConfig,
    ConfigInvalid,
    MalformedWitness,
    MarginHistogram,
    SEARCH_TARGET_IDS,
    SearchTarget,
    Witness,
    _TargetAggregator,
    _check_chunk,
    replay,
    run_campaign,
    search_counterexample,
)
from svineq.inequalities import (
    CatalogEntry,
    Checked,
    SideBatch,
    Verdict,
    catalog_entry,
    catalog_ids,
    check,
)
from svineq.numkernel import DEFAULT_TOL, NotPSD, Tolerance
from svineq.serialize import _target_to_json, campaign_document, dumps

from conftest import draw, mat


def small_config(**overrides):
    base = dict(
        targets=(("thm-2.1", "normal"),),
        dims=(2, 3),
        trials_per_dim=5,
        seed=0,
        tol=DEFAULT_TOL,
    )
    base.update(overrides)
    return CampaignConfig(**base)


# --- config validation ------------------------------------------------------------


def test_config_rejects_empty_targets():
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(targets=()))


def test_config_rejects_zero_trials():
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(trials_per_dim=0))


def test_config_rejects_bad_dim():
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(dims=(0,)))
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(dims=()))


def test_config_rejects_unknown_inequality():
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(targets=(("nope", "normal"),)))


def test_config_rejects_unknown_class():
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(targets=(("thm-2.1", "weird"),)))


def test_config_rejects_arity_incompatible_class():
    # psd_block2 emits 3 matrices; thm-2.8 takes 2
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(targets=(("thm-2.8", "psd_block2"),)))


def test_config_rejects_bad_seed():
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(seed=-1))
    with pytest.raises(ConfigInvalid):
        run_campaign(small_config(seed=2**64))


LOEWNER = "loewner-cartesian-general"

# bool subclasses int, so each of these used to run as if 1 or 0 was given.
BOOL_CONFIGS = {
    "search-budget": lambda: SearchTarget(LOEWNER, budget=True),
    "search-dims": lambda: SearchTarget(LOEWNER, budget=1, dims=(True,)),
    "search-seed": lambda: search_counterexample(SearchTarget(LOEWNER, budget=1), True),
    "search-numpy-seed": lambda: search_counterexample(SearchTarget(LOEWNER, budget=1), np.True_),
    "campaign-dims": lambda: run_campaign(small_config(dims=(True,))),
    "campaign-trials": lambda: run_campaign(small_config(trials_per_dim=True)),
    "campaign-seed": lambda: run_campaign(small_config(seed=False)),
    "campaign-scale": lambda: run_campaign(small_config(scale=True)),
}


@pytest.mark.parametrize("name", BOOL_CONFIGS)
def test_config_rejects_bools_as_integers(name):
    with pytest.raises(ConfigInvalid):
        BOOL_CONFIGS[name]()


# --- campaign aggregation ----------------------------------------------------------


def test_counts_sum_to_trials_single():
    result = run_campaign(small_config(trials_per_dim=1, dims=(2,)))
    (t,) = result.targets
    assert t.trials == 1
    assert t.holds + t.violated + t.hypothesis_violated == 1


def test_campaign_aggregates_across_dims():
    result = run_campaign(small_config(trials_per_dim=4, dims=(2, 3, 5)))
    (t,) = result.targets
    assert t.trials == 12
    assert t.dims == (2, 3, 5)
    assert t.holds == 12  # theorem with its canonical class
    assert t.histogram.total == 12
    assert "left" in t.side_stats and "right" in t.side_stats


def test_campaign_is_deterministic():
    cfg = small_config(
        targets=(("thm-2.1", "normal"), ("thm-2.7", "ginibre")), trials_per_dim=8
    )
    a, b = run_campaign(cfg), run_campaign(cfg)
    assert dumps(campaign_document(a)) == dumps(campaign_document(b))


def test_scalar_target_overrides_dims():
    result = run_campaign(small_config(targets=(("scalar-1.6", "hermitian"),)))
    (t,) = result.targets
    # the fixed 1x1 dimension replaces the configured dims list
    assert t.dims == (1,)
    assert t.trials == 5


def test_structurally_wrong_class_counts_hypothesis_violations():
    # thm-2.5 needs Hermitian input; ginibre essentially never is
    result = run_campaign(
        small_config(targets=(("thm-2.5-plus", "ginibre"),), trials_per_dim=6)
    )
    (t,) = result.targets
    assert t.hypothesis_violated == t.trials == 12
    assert t.histogram.total == 0  # no sided reports to bin
    assert t.min_margin is None
    assert t.worst_witness is None


@pytest.mark.parametrize("class_tag", ["ginibre", "unitary", "normal"])
def test_complex_scalars_count_as_hypothesis_violations(class_tag):
    # A 1x1 matrix is Hermitian only when it is real: scalar-1.6 rejects
    # complex scalars as thm-2.5-plus rejects non-Hermitian matrices, one
    # trial at a time, and the campaign goes on.
    config = small_config(targets=(("scalar-1.6", class_tag),), trials_per_dim=3)
    (t,) = run_campaign(config).targets
    assert t.hypothesis_violated == t.trials == 3
    assert t.min_margin is None


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "target",
    [("cor-2.9", "normal_pair_shared_basis"), ("thm-2.8", "ginibre"), ("bk-1.1", "psd")],
)
def test_overflowing_campaign_is_config_invalid(target, cpus, graders, forks):
    # At scale 1e160 the products AB + BA overflow: the margins are NaN (NaN
    # margins used to reach the histogram as "cannot convert float NaN to
    # integer"), and so are the spectra of the overflowing Grams.
    # bk-1.1's PSD operands overflow as they are drawn.  Either way the
    # error alone reports it: every warning is an error here, in the forked
    # child too, and none may escape as a bare RuntimeWarning.
    graders(cpus)
    config = small_config(targets=(target,), dims=(2, 3), trials_per_dim=3, scale=1e160)
    with pytest.raises(ConfigInvalid) as info:
        run_campaign(config)
    message = str(info.value)
    assert target[0] in message
    assert "dimension 2" in message
    assert "1e+160" in message
    assert len(forks) == cpus - 1


def test_large_scale_campaign_is_graded():
    # thm-2.7 takes no product of A with itself, so scale 1e160 still
    # gives every trial a verdict.
    config = small_config(
        targets=(("thm-2.7", "ginibre"),), dims=(2,), trials_per_dim=3, scale=1e160
    )
    (t,) = run_campaign(config).targets
    assert t.holds == t.trials == 3
    assert math.isfinite(t.min_margin)


def test_overflowing_tolerance_is_config_invalid():
    config = small_config(targets=(("thm-2.7", "ginibre"),), tol=Tolerance(1e308))
    with pytest.raises(ConfigInvalid, match="tolerance overflows.*tol_rel=1e\\+308"):
        run_campaign(config)


def test_non_hermitian_trial_in_a_chunk_is_rejected_alone():
    # The checker rejects the whole stack; the chunk is then checked trial
    # by trial, so only the non-Hermitian middle trial counts as a
    # hypothesis violation and the other two, trials 5 and 7, are graded
    # as usual.
    entry = catalog_entry("thm-2.5-plus")
    good = [draw("hermitian", 2, seed=3, index=i)[0] for i in range(2)]
    stack = np.stack([good[0], mat([[0, 1], [0, 0]]), good[1]])
    agg = _TargetAggregator()
    _check_chunk(agg, entry, 2, 5, [stack], DEFAULT_TOL)
    assert (agg.trials, agg.hypothesis_violated) == (3, 1)
    margins = [check("thm-2.5-plus", [m]).min_margin for m in good]
    assert agg.floor == min((margins[0], 5), (margins[1], 7))
    t = agg.finish(small_config(), entry, "hermitian", None, (2,))
    assert (t.trials, t.holds, t.hypothesis_violated) == (3, 2, 1)
    assert t.histogram.total == 2
    assert t.min_margin == min(margins)


def _planted_chunk(first, margins, violated, x_min, y_min):
    """Two trials of thm-2.7 at n = 2 from ``first`` on, with planted
    minimum margins, violations and side minima; side x, the second, is
    absent where its minimum is None."""
    k = len(margins)

    def side(label, mins):
        present = None if None not in mins else np.array([m is not None for m in mins])
        mins = np.array([0.0 if m is None else m for m in mins])
        return SideBatch(label, "spectrum", np.zeros((k, 1)), mins[:, None], mins[:, None],
                         np.ones(k), mins, present)

    checked = Checked("thm-2.7", (2,), (side("y", y_min), side("x", x_min)), None, {},
                      np.array(margins), np.full(k, 1e-12), np.array(violated))
    return first, checked


@pytest.mark.parametrize("case", ["0.0 first", "-0.0 first", "equal violations"])
def test_merged_parts_give_the_sequential_fold(case, monkeypatch):
    # Ties keep the earliest trial, as a fold in trial order does: the sign
    # of equal zero minima (the floor, and side y's), and the witness of
    # equal violation margins.  Side x is absent in the first chunk and
    # still comes after side y, its place in the core.  Every split of the
    # chunks between two parts, merged either way, gives the document of
    # the sequential fold.  The witness is drawn again from its trial: a
    # stub stream is the trial number, and trial t's input is (t + 1) I.
    monkeypatch.setattr(fuzzer.randgen, "prng_stream", lambda seed, trials: trials[0])

    def stub_draw(dim, trial, scale):
        return (np.eye(dim, dtype=complex)[None] * (trial + 1),)

    a, b = (0.0, -0.0) if case == "0.0 first" else (-0.0, 0.0)
    bad = case == "equal violations"
    worst = -1.0 if bad else 1.0
    chunks = [
        _planted_chunk(0, [1.0, a], [False, False], [None, None], [2.0, 1.0]),
        _planted_chunk(2, [worst, 3.0], [bad, False], [4.0, 5.0], [3.0, a]),
        _planted_chunk(4, [2.0, b], [False, False], [a, 1.0], [2.0, 2.0]),
        _planted_chunk(6, [worst, 1.0], [bad, False], [b, 5.0], [b, 1.0]),
    ]
    entry = catalog_entry("thm-2.7")

    def folded(indices):
        agg = _TargetAggregator()
        for i in indices:
            first, checked = chunks[i]
            agg.add(first, 2, checked)
        return agg

    def finish(agg):
        return agg.finish(small_config(), entry, "ginibre", stub_draw, (2,))

    def document(agg):
        return dumps(_target_to_json(finish(agg)))

    sequential = finish(folded(range(4)))
    assert list(sequential.side_stats) == ["y", "x"]
    if bad:
        assert sequential.min_margin == -1.0 and sequential.worst_witness.trial == 2
        assert np.array_equal(sequential.worst_witness.inputs[0], 3 * np.eye(2))
    else:
        assert sequential.worst_witness is None
        sides = sequential.side_stats.values()
        for value in (sequential.min_margin, *(side.min_margin for side in sides)):
            assert value == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, a)
    expected = dumps(_target_to_json(sequential))
    for mask in range(16):
        mine = [i for i in range(4) if mask >> i & 1]
        theirs = [i for i in range(4) if not mask >> i & 1]
        for first, second in ((mine, theirs), (theirs, mine)):
            agg = folded(first)
            agg.merge(folded(second))
            assert document(agg) == expected, (first, second)


# --- grading in a forked child ------------------------------------------------------


@pytest.fixture
def graders(monkeypatch, tmp_path):
    """A switch for the CPU count the campaign sees (2 forks a child for a
    campaign of two chunks or more, 1 keeps every chunk on the caller).
    It returns a function giving the processes that graded chunks since,
    of dimension ``dim`` if given, "caller" or "child": each chunk appends
    its grader's pid, dimension and first trial to a file the fork
    inherits.  ``graded_by.log()`` lists (grader, dimension, first trial,
    trials) in the order the chunks were graded."""
    log = tmp_path / "graders"
    caller = os.getpid()
    grade = fuzzer._grade_chunk

    def recording(config, plan, chunk, agg):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b"%d %d %d %d\n" % (os.getpid(), *chunk[1:]))
        finally:
            os.close(fd)
        return grade(config, plan, chunk, agg)

    monkeypatch.setattr(fuzzer, "_grade_chunk", recording)

    def entries():
        lines = log.read_text().splitlines() if log.exists() else []
        return [
            ("caller" if pid == caller else "child", dim, first, k)
            for pid, dim, first, k in (map(int, line.split()) for line in lines)
        ]

    def graded_by(dim=None):
        return {who for who, d, _, _ in entries() if dim is None or d == dim}

    graded_by.log = entries

    def cpus(count):
        log.unlink(missing_ok=True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        return graded_by

    return cpus


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that campaigns fork."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def campaign_bytes(config):
    return dumps(campaign_document(run_campaign(config))).encode()


ALL_TARGETS = tuple((i, catalog_entry(i).canonical_class) for i in catalog_ids())


@pytest.mark.parametrize(
    "targets, trials",
    [
        (ALL_TARGETS, 5),
        ((("thm-2.5-plus", "ginibre"), ("thm-2.7", "ginibre")), 40),
    ],
    ids=["all", "not-hermitian"],
)
def test_worker_leaves_documents_byte_identical(graders, forks, targets, trials):
    # Each process grades chunks of every size, and n = 64 splits each
    # block into chunks of 4 and 1.  thm-2.5-plus on ginibre retries every trial
    # of its chunks alone (NotHermitian), also in the child, and 40 trials
    # at n = 32 make three chunks per block.
    assert CHUNK_ELEMENTS // 64**2 < 5 and CHUNK_ELEMENTS // 32**2 < 40
    config = small_config(targets=targets, dims=(8, 32, 64), trials_per_dim=trials)
    graded_by = graders(1)
    alone = campaign_bytes(config)
    assert graded_by() == {"caller"}
    assert forks == []
    graded_by = graders(2)
    shared = campaign_bytes(config)
    assert graded_by(8) == graded_by(32) == graded_by(64) == {"caller", "child"}
    assert shared == alone
    assert len(forks) == 1
    assert_reaped(forks)


def test_worker_hand_off_under_frequent_thread_switches(graders, forks, monkeypatch):
    # All but scalar-1.6's chunks hold one or two trials, so each process
    # folds hundreds of chunks; a chunk lost, graded twice or merged out of
    # trial order would change the document.
    config = small_config(targets=ALL_TARGETS, dims=(2, 3), trials_per_dim=7)
    monkeypatch.setattr(fuzzer, "CHUNK_ELEMENTS", 8)
    graders(1)
    alone = campaign_bytes(config)
    graded_by = graders(2)
    shared = campaign_bytes(config)
    assert graded_by() == {"caller", "child"}
    assert shared == alone
    assert_reaped(forks)


def test_small_campaign_forks_once_and_keeps_its_bytes(graders, forks, tmp_path):
    # Every chunk of `fuzz --dims 2,3,5,8 --trials 8` holds at most 512
    # matrix entries, and the campaign forks all the same.
    golden = (Path(__file__).parent / "golden" / "fuzz-small.json").read_bytes()
    argv = ["fuzz", "--ineq", "all", "--dims", "2,3,5,8", "--trials", "8", "--seed", "0",
            "--out", str(tmp_path / "fuzz.json")]
    graded_by = graders(1)
    assert cli.main(argv) == 0
    assert (tmp_path / "fuzz.json").read_bytes() == golden
    assert graded_by() == {"caller"}
    assert forks == []
    graded_by = graders(2)
    assert cli.main(argv) == 0
    assert (tmp_path / "fuzz.json").read_bytes() == golden
    assert len(forks) == 1
    assert_reaped(forks)


def test_chunks_are_dealt_by_shape_alternately_the_first_to_the_child(graders, forks):
    # Each process grades half the chunks of every shape (dimension,
    # trials), and the same ones on every run: a tracer in the caller
    # counts the same calls each time.
    config = small_config(targets=ALL_TARGETS, dims=(2, 3, 5, 8), trials_per_dim=8)
    runs = []
    for _ in range(2):
        graded_by = graders(2)
        campaign_bytes(config)
        runs.append(sorted(graded_by.log(), key=lambda e: (e[1], e[3], e[2])))
    assert runs[0] == runs[1]
    assert len({first for _, _, first, _ in runs[0]}) == len(runs[0]) > 50
    assert [who for who, *_ in runs[0]] == ["child", "caller"] * (len(runs[0]) // 2) + [
        "child"
    ] * (len(runs[0]) % 2)
    assert len(forks) == 2
    assert_reaped(forks)


def test_one_chunk_campaign_does_not_fork(graders, forks):
    config = small_config(targets=(("thm-2.7", "ginibre"),), dims=(64,), trials_per_dim=4)
    graded_by = graders(2)
    campaign_bytes(config)
    assert graded_by() == {"caller"}
    assert forks == []


OVERFLOW_TARGETS = (
    ("thm-2.8", "ginibre"),
    ("thm-2.7", "ginibre"),
    ("cor-2.9", "normal_pair_shared_basis"),
)


def test_grading_pins_blas_to_one_thread_and_restores_the_count(monkeypatch):
    blas = numkernel._openblas_thread_query()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this test can ask")
    get, set_ = blas
    seen = []
    run = CatalogEntry.run

    def recording(entry, mats, tol):
        seen.append(get())
        return run(entry, mats, tol)

    monkeypatch.setattr(CatalogEntry, "run", recording)
    target = SearchTarget(target_id="thm-2.1-nonnormal", budget=4)
    overflow = small_config(targets=OVERFLOW_TARGETS, dims=(2,), scale=1e160)
    set_(2)
    try:
        for grade in (
            lambda: check("thm-2.7", [np.eye(3)]),
            lambda: run_campaign(small_config()),
            lambda: search_counterexample(target, seed=0),
            lambda: pytest.raises(ConfigInvalid, run_campaign, overflow),
        ):
            seen.clear()
            grade()
            assert seen and set(seen) == {1}
            assert get() == 2
    finally:
        set_(1)


def test_worker_reports_the_first_target_that_cannot_be_graded(graders, forks):
    # At scale 1e160 thm-2.8 and cor-2.9 overflow and thm-2.7 does not;
    # whichever process grades a chunk first, the error names thm-2.8.
    config = small_config(targets=OVERFLOW_TARGETS, dims=(32,), trials_per_dim=3, scale=1e160)
    messages = []
    for cpus in (1, 2):
        graders(cpus)
        with pytest.raises(ConfigInvalid) as info:
            run_campaign(config)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("thm-2.8 on ginibre at dimension 32 and scale 1e+160")
    assert len(forks) == 1
    assert_reaped(forks)


def test_worker_raises_a_chunk_error_as_one_process_does(graders, forks, monkeypatch):
    # NotPSD is no configuration error: it is raised as the chunk (trials
    # 4, 5) raised it, the child's second.  The child sleeps in each chunk
    # it grades, so the caller ends its own fold first, finds no message
    # and grades every chunk itself.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk

    def failing(agg, entry, dim, first_trial, mats, tol):
        if first_trial == 4:
            raise NotPSD("planted")
        if os.getpid() != caller:
            time.sleep(0.1)
        return check_chunk(agg, entry, dim, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", failing)
    config = small_config(targets=(("thm-2.7", "ginibre"),) * 6, dims=(32,), trials_per_dim=2)
    for cpus in (1, 2):
        graders(cpus)
        with pytest.raises(NotPSD, match="planted"):
            run_campaign(config)
    assert len(forks) == 1
    assert_reaped(forks)


def test_caller_error_does_not_wait_for_the_child(graders, forks, monkeypatch):
    # The child sleeps 0.5 s in each of its four chunks; the caller's
    # first chunk (trials 2, 3) raises.  The caller kills and reaps the
    # child at once, then grades every chunk itself from trial 0 and
    # raises at trials 2, 3 again.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk

    def failing(agg, entry, dim, first_trial, mats, tol):
        if os.getpid() != caller:
            time.sleep(0.5)
        elif first_trial == 0:  # the child's chunk: the caller's error came first
            with pytest.raises(ChildProcessError):
                os.waitpid(forks[0], os.WNOHANG)
        elif first_trial == 2:
            raise NotPSD("planted")
        return check_chunk(agg, entry, dim, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", failing)
    config = small_config(targets=(("thm-2.7", "ginibre"),) * 8, dims=(32,), trials_per_dim=2)
    graded_by = graders(2)
    start = time.monotonic()
    with pytest.raises(NotPSD, match="planted"):
        run_campaign(config)
    assert time.monotonic() - start < 1.0
    assert [e for e in graded_by.log() if e[0] == "caller"] == [
        ("caller", 32, 2, 2), ("caller", 32, 0, 2), ("caller", 32, 2, 2)
    ]
    assert len(forks) == 1
    assert_reaped(forks)


def test_interrupt_on_the_caller_stops_the_campaign_at_once(graders, forks, monkeypatch):
    # A KeyboardInterrupt while the caller grades its own chunks ends the
    # campaign at once: it does not wait for the child, whose error on an
    # earlier chunk would be raised in its place.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk

    def failing(agg, entry, dim, first_trial, mats, tol):
        if os.getpid() != caller:
            time.sleep(0.2)
            raise FloatingPointError("planted")
        if first_trial:
            raise KeyboardInterrupt
        return check_chunk(agg, entry, dim, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", failing)
    config = small_config(targets=(("thm-2.7", "ginibre"),) * 4, dims=(32,), trials_per_dim=2)
    graders(2)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(config)
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.fixture
def messages(monkeypatch):
    """The bytes and the unpickled aggregators of each message a child
    sends the caller."""
    import pickle

    loads = pickle.loads
    seen = []

    def recording(data):
        seen.append((data, loads(data)))
        return seen[-1][1]

    monkeypatch.setattr(pickle, "loads", recording)
    return seen


def test_child_message_larger_than_the_pipe_arrives_whole(graders, forks, messages):
    # A pipe holds 64 KiB and an aggregator takes a few hundred bytes, so
    # the child's fold of 300 of 600 single-trial targets outgrows it.
    config = small_config(targets=(("thm-2.7", "ginibre"),) * 600, dims=(2,), trials_per_dim=1)
    graders(1)
    alone = campaign_bytes(config)
    graded_by = graders(2)
    assert campaign_bytes(config) == alone
    assert graded_by() == {"caller", "child"}
    assert len(messages) == 1 and len(messages[0][0]) > 1 << 16
    assert len(forks) == 1
    assert_reaped(forks)


def _leaves(value):
    """Every value that ``value`` holds, through containers and objects."""
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    elif hasattr(value, "__dict__"):
        value = list(vars(value).values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_child_message_holds_numbers_only(graders, forks, messages):
    # loewner-cartesian fails on ginibre: each target the child folds has
    # a worst witness, kept as (margin, trial, dimension), not as 64 x 64
    # matrices.
    config = small_config(targets=(("loewner-cartesian", "ginibre"),) * 4, dims=(64,),
                          trials_per_dim=4)
    graders(2)
    result = run_campaign(config)
    assert all(t.worst_witness is not None for t in result.targets)
    ((_, aggs),) = messages
    assert sum(agg.violated > 0 for agg in aggs) == 2
    assert {type(leaf) for leaf in _leaves(aggs)} <= {int, float, str}
    assert_reaped(forks)


def test_worst_witness_of_a_stacked_chunk_is_drawn_again_alone(graders, forks, monkeypatch):
    # At n = 32 a chunk holds 16 trials: the witness is a row of a stacked
    # draw, drawn again as a stack of one.  Its inputs are that row bit for
    # bit, its report is check()'s, and the document is the same on one
    # and two CPUs and with one trial per chunk.
    assert CHUNK_ELEMENTS // 32**2 == 16
    entry = catalog_entry("loewner-cartesian")
    config = small_config(targets=(("loewner-cartesian", "ginibre"),), dims=(32,),
                          trials_per_dim=20)
    graders(1)
    result = run_campaign(config)
    w = result.targets[0].worst_witness
    first = w.trial - w.trial % 16
    trials = np.arange(first, min(first + 16, 20), dtype=np.uint64)
    stacked = fuzzer._drawer(entry, "ginibre")(32, fuzzer.randgen.prng_stream(0, trials), 1.0)
    assert len(trials) > 1
    assert [m.tobytes() for m in w.inputs] == [m[w.trial - first].tobytes() for m in stacked]
    assert w.report == check("loewner-cartesian", w.inputs)
    alone = dumps(campaign_document(result)).encode()
    graders(2)
    assert campaign_bytes(config) == alone
    monkeypatch.setattr(fuzzer, "CHUNK_ELEMENTS", 1)
    graders(1)
    assert campaign_bytes(config) == alone
    assert len(forks) == 1
    assert_reaped(forks)


def test_killed_child_leaves_the_document_unchanged(graders, forks, monkeypatch):
    # The child dies with SIGKILL on its second chunk, before it sends
    # anything: the caller grades every chunk itself.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk
    config = small_config(targets=ALL_TARGETS, dims=(32, 64), trials_per_dim=2)
    graders(1)
    alone = campaign_bytes(config)
    calls = []

    def dying(agg, entry, dim, first_trial, mats, tol):
        if os.getpid() != caller:
            calls.append(first_trial)
            if len(calls) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return check_chunk(agg, entry, dim, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", dying)
    graded_by = graders(2)
    assert campaign_bytes(config) == alone
    assert graded_by() == {"caller", "child"}
    assert len(forks) == 1
    assert_reaped(forks)


def test_refused_fork_grades_every_chunk_on_the_caller(graders, monkeypatch):
    # With no process to spare (EAGAIN), the caller grades every chunk
    # itself, each once, and the document is unchanged.
    def refused():
        raise BlockingIOError("planted")

    config = small_config(targets=ALL_TARGETS[:4], dims=(32,), trials_per_dim=4)
    graded_by = graders(1)
    alone = campaign_bytes(config)
    chunks = len(graded_by.log())
    monkeypatch.setattr(os, "fork", refused)
    graded_by = graders(2)
    assert campaign_bytes(config) == alone
    assert graded_by() == {"caller"}
    assert len(graded_by.log()) == chunks == 4


def test_campaign_beside_a_second_thread_does_not_fork(graders, forks):
    # A fork copies only the thread that calls it, so while another
    # thread runs, every chunk is graded on the caller.
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        config = small_config(targets=ALL_TARGETS[:3], dims=(32,), trials_per_dim=4)
        graded_by = graders(2)
        campaign_bytes(config)
        assert graded_by() == {"caller"}
        assert forks == []
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_error_that_does_not_pickle_is_raised_as_itself(graders, forks, monkeypatch):
    # A class defined in a function does not pickle.  Trial 0 is the
    # child's first chunk; whichever process meets it, the campaign raises
    # the error as one process does: the child sends nothing, and the
    # caller grades every chunk itself.
    import pickle

    class Unpicklable(ValueError):
        pass

    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(Unpicklable("planted"))
    check_chunk = fuzzer._check_chunk

    def failing(agg, entry, dim, first_trial, mats, tol):
        if first_trial == 0:
            raise Unpicklable("planted")
        return check_chunk(agg, entry, dim, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", failing)
    config = small_config(targets=ALL_TARGETS, dims=(32,), trials_per_dim=4)
    for cpus in (1, 2):
        graded_by = graders(cpus)
        with pytest.raises(Unpicklable, match="^planted$") as info:
            run_campaign(config)
        assert type(info.value) is Unpicklable
    assert ("child", 0) in {(who, first) for who, _, first, _ in graded_by.log()}
    assert len(forks) == 1
    assert_reaped(forks)


def test_child_error_leaves_the_document_unchanged(graders, forks, monkeypatch):
    # An error only the child meets, on its first chunk, ends the child
    # with nothing sent; the caller grades every chunk itself.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk
    config = small_config(targets=ALL_TARGETS, dims=(32,), trials_per_dim=4)
    graders(1)
    alone = campaign_bytes(config)

    def failing(agg, entry, dim, first_trial, mats, tol):
        if os.getpid() != caller:
            raise NotPSD("planted")
        return check_chunk(agg, entry, dim, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", failing)
    graded_by = graders(2)
    assert campaign_bytes(config) == alone
    firsts = {"caller": [], "child": []}
    for who, _, first, _ in graded_by.log():
        firsts[who].append(first)
    assert firsts["child"] == [0]
    assert firsts["caller"][-len(ALL_TARGETS):] == list(range(0, 4 * len(ALL_TARGETS), 4))
    assert len(forks) == 1
    assert_reaped(forks)


def _planted_error(*args):
    raise NotPSD("planted")


def _planted_interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "owner, where, planted",
    [
        (fuzzer, "_check_chunk", _planted_error),
        (fuzzer, "_check_chunk", _planted_interrupt),
        (_TargetAggregator, "add", _planted_error),
    ],
    ids=["error", "interrupt", "fold"],
)
def test_no_child_outlives_a_stopped_campaign(graders, forks, monkeypatch, owner, where, planted):
    # A chunk error and an interrupt raised while grading, and an error
    # while folding, end the campaign at the caller's first chunk, or at
    # trial 0 when the caller grades every chunk itself, as on one CPU.
    # Each time the child is killed and reaped before the campaign returns.
    monkeypatch.setattr(owner, where, planted)
    raised = []
    for cpus in (1, 2):
        graders(cpus)
        with pytest.raises((NotPSD, KeyboardInterrupt)) as info:
            run_campaign(small_config(targets=ALL_TARGETS, dims=(32,), trials_per_dim=4))
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert len(forks) == 1
    assert_reaped(forks)


def test_violating_target_stores_replayable_worst_witness():
    cfg = small_config(
        targets=(("loewner-cartesian-general", "ginibre"),),
        dims=(2,),
        trials_per_dim=60,
        seed=7,
    )
    result = run_campaign(cfg)
    (t,) = result.targets
    assert t.violated > 0
    assert not t.expected_to_hold
    assert result.unexpected_violations() == 0  # known-false statement
    w = t.worst_witness
    assert w is not None
    assert w.report.verdict is Verdict.VIOLATED
    assert t.min_margin == w.report.min_margin
    rep = replay(w)
    assert rep.verdict is w.report.verdict
    assert rep.min_margin == w.report.min_margin  # bitwise deterministic


def test_worst_witness_at_a_large_scale_warns_of_nothing():
    # At scale 1e150 the normality residual's sum of squares overflows and
    # is taken again by rescaling.  The witness is graded again alone as
    # its chunk was, with overflow warning of nothing (warnings are errors
    # in this suite).
    config = small_config(targets=(("thm-2.1-nonnormal", "ginibre"),), dims=(2, 3),
                          trials_per_dim=20, scale=1e150)
    (t,) = run_campaign(config).targets
    assert t.violated
    assert t.worst_witness.report.min_margin == t.min_margin


def test_expected_to_hold_respects_catalog():
    cfg = small_config(
        targets=(
            ("thm-2.1", "normal"),
            ("loewner-cartesian", "hermitian"),
            ("loewner-cartesian-general", "ginibre"),
        ),
        trials_per_dim=3,
    )
    result = run_campaign(cfg)
    by_id = {t.ineq_id: t for t in result.targets}
    assert by_id["thm-2.1"].expected_to_hold
    assert by_id["loewner-cartesian"].expected_to_hold
    assert not by_id["loewner-cartesian-general"].expected_to_hold


def test_split_cartesian_plan_feeds_commuting_pairs():
    cfg = small_config(targets=(("proof-facts-2.1", "normal"),), trials_per_dim=10)
    result = run_campaign(cfg)
    (t,) = result.targets
    assert t.hypothesis_violated == 0
    assert t.violated == 0
    # the sqrt side ran: both side labels appear in the stats
    assert set(t.side_stats) == {"square", "sqrt"}


def test_histogram_binning():
    h = MarginHistogram()
    h.add(0.0)  # below 1e-12, as is every negative margin: underflow
    h.add(1e-13)
    h.add(-1e-13)
    h.add(-1.0)
    h.add(1.0)
    h.add(1e5)
    assert h.underflow == 4
    assert h.overflow == 1
    assert h.total == 6
    assert sum(h.counts) == 1
    assert h.counts[24] == 1  # log10(1.0) = 0 lands 24 half-decades above 1e-12


# --- search ----------------------------------------------------------------------------


def test_search_target_ids_are_registered():
    assert set(SEARCH_TARGET_IDS) == {
        "bk-1.1-hermitian-B",
        "thm-2.1-nonnormal",
        "loewner-cartesian-general",
    }


def test_search_budget_zero_is_exhausted():
    target = SearchTarget(target_id="thm-2.1-nonnormal", budget=0)
    assert search_counterexample(target, seed=0) is None


def test_search_rejects_bad_target():
    with pytest.raises(ConfigInvalid):
        SearchTarget(target_id="thm-2.1", budget=10)
    with pytest.raises(ConfigInvalid):
        SearchTarget(target_id="loewner-cartesian-general", budget=-1)


def test_search_finds_order_counterexample_and_replays():
    target = SearchTarget(target_id="loewner-cartesian-general", budget=50)
    w = search_counterexample(target, seed=0)
    assert w is not None
    assert w.report.verdict is Verdict.VIOLATED
    assert w.report.min_margin < -10.0 * w.report.tol_used
    rep = replay(w)
    assert rep.verdict is Verdict.VIOLATED
    assert abs(rep.min_margin - w.report.min_margin) <= 1e-12


def test_search_bk_witness_preserves_hypotheses():
    target = SearchTarget(target_id="bk-1.1-hermitian-B", budget=3000)
    w = search_counterexample(target, seed=1)
    assert w is not None
    a, b = w.inputs
    # the parameterisation keeps A PSD and B Hermitian by construction
    assert np.linalg.eigvalsh((a + a.conj().T) / 2).min() >= -1e-10
    assert np.linalg.norm(b - b.conj().T) <= 1e-12
    assert replay(w).verdict is Verdict.VIOLATED


def test_search_is_deterministic():
    target = SearchTarget(target_id="loewner-cartesian-general", budget=20)
    w1 = search_counterexample(target, seed=3)
    w2 = search_counterexample(target, seed=3)
    assert w1 is not None and w2 is not None
    assert w1.trial == w2.trial
    for x, y in zip(w1.inputs, w2.inputs):
        assert np.array_equal(x, y)


# --- replay validation -------------------------------------------------------------------


def _witness_for(ineq_id, inputs):
    report = check(ineq_id, inputs, DEFAULT_TOL)
    return Witness(
        ineq_id=ineq_id,
        class_tag="test",
        dim=inputs[0].shape[0],
        seed=0,
        trial=0,
        tol=DEFAULT_TOL,
        inputs=tuple(np.asarray(m, dtype=np.complex128) for m in inputs),
        report=report,
    )


def test_replay_reproduces_holds_report():
    (a,) = draw("normal", 3, seed=5)
    w = _witness_for("thm-2.1", (a,))
    assert replay(w).verdict is Verdict.HOLDS


def test_replay_rejects_unknown_id():
    (a,) = draw("normal", 2, seed=5)
    w = dataclasses.replace(_witness_for("thm-2.1", (a,)), ineq_id="mystery")
    with pytest.raises(MalformedWitness):
        replay(w)


def test_replay_rejects_tampered_dimensions():
    a, b = draw("normal_pair_shared_basis", 3, seed=5)
    w = _witness_for("cor-2.9", (a, b))
    tampered = dataclasses.replace(w, inputs=(w.inputs[0][:2, :2], w.inputs[1]))
    with pytest.raises(MalformedWitness):
        replay(tampered)


def test_replay_rejects_wrong_arity():
    (a,) = draw("normal", 2, seed=6)
    w = _witness_for("thm-2.1", (a,))
    tampered = dataclasses.replace(w, inputs=(w.inputs[0], w.inputs[0]))
    with pytest.raises(MalformedWitness):
        replay(tampered)


def test_replay_rejects_non_finite_inputs():
    (a,) = draw("normal", 2, seed=7)
    w = _witness_for("thm-2.1", (a,))
    bad = w.inputs[0].copy()
    bad[0, 0] = np.nan
    tampered = dataclasses.replace(w, inputs=(bad,))
    with pytest.raises(MalformedWitness):
        replay(tampered)
