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
from svineq.inequalities import CatalogEntry, Verdict, catalog_entry, catalog_ids, check
from svineq.numkernel import DEFAULT_TOL, NotPSD, Tolerance
from svineq.serialize import campaign_document, dumps

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "target", [("cor-2.9", "normal_pair_shared_basis"), ("thm-2.8", "ginibre")]
)
def test_overflowing_campaign_is_config_invalid(target):
    # At scale 1e160 the products AB + BA overflow: the margins are NaN (NaN
    # margins used to reach the histogram as "cannot convert float NaN to
    # integer"), or the eigensolver raises NoConvergence on the Grams.
    config = small_config(targets=(target,), dims=(2,), trials_per_dim=3, scale=1e160)
    with pytest.raises(ConfigInvalid) as info:
        run_campaign(config)
    message = str(info.value)
    assert target[0] in message
    assert "dimension 2" in message
    assert "1e+160" in message


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
    # by trial, so only the non-Hermitian middle trial is a structural part
    # (a hypothesis violation) and the other two are graded as usual.
    entry = catalog_entry("thm-2.5-plus")
    good = [draw("hermitian", 2, seed=3, index=i)[0] for i in range(2)]
    stack = np.stack([good[0], mat([[0, 1], [0, 0]]), good[1]])
    parts = _check_chunk(entry, 5, [stack], DEFAULT_TOL)
    assert [first for first, _, _ in parts] == [5, 6, 7]
    assert parts[1] == (6, None, None)
    agg = _TargetAggregator(entry, "hermitian", (2,))
    agg.fold(2, parts)
    t = agg.finish(0, DEFAULT_TOL)
    assert (t.trials, t.holds, t.hypothesis_violated) == (3, 2, 1)
    assert t.histogram.total == 2
    assert t.min_margin == min(check("thm-2.5-plus", [m]).min_margin for m in good)


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

    def recording(config, chunk):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b"%d %d %d %d\n" % (os.getpid(), chunk[3], chunk[4], chunk[5]))
        finally:
            os.close(fd)
        return grade(config, chunk)

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
    # All but scalar-1.6's chunks hold one or two trials, so the caller
    # and the child hand hundreds of chunks back and forth; a chunk lost,
    # graded twice or folded out of turn would change the document.
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_worker_raises_a_chunk_error_at_that_chunk_turn(graders, forks, monkeypatch):
    # NotPSD is no configuration error: it reaches the caller as raised, at
    # the turn of the chunk (trials 4, 5) that raised it, so the chunks
    # before it are folded and the ones after it are not.  The child
    # sleeps in each chunk it grades, so it is still grading a later chunk
    # when the error reaches the caller, which must kill it.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk
    add = _TargetAggregator.add
    folded = []

    def failing(entry, first_trial, mats, tol):
        if first_trial == 4:
            raise NotPSD("planted")
        if os.getpid() != caller:
            time.sleep(0.1)
        return check_chunk(entry, first_trial, mats, tol)

    def recording(agg, first_trial, *args):
        folded.append(first_trial)
        return add(agg, first_trial, *args)

    monkeypatch.setattr(fuzzer, "_check_chunk", failing)
    monkeypatch.setattr(_TargetAggregator, "add", recording)
    config = small_config(targets=(("thm-2.7", "ginibre"),) * 6, dims=(32,), trials_per_dim=2)
    for cpus in (1, 2):
        graders(cpus)
        folded.clear()
        with pytest.raises(NotPSD, match="planted"):
            run_campaign(config)
        assert folded == [0, 2]
    assert len(forks) == 1
    assert_reaped(forks)


def test_interrupt_while_grading_ahead_stops_the_campaign_at_once(graders, forks, monkeypatch):
    # The caller grades chunks ahead of their turn while the child is busy.
    # A KeyboardInterrupt there ends the campaign at once: it is not held
    # for that chunk's turn, where the child's error on an earlier chunk
    # would be raised in its place.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk

    def failing(entry, first_trial, mats, tol):
        if os.getpid() != caller:
            time.sleep(0.2)
            raise FloatingPointError("planted")
        if first_trial:
            raise KeyboardInterrupt
        return check_chunk(entry, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", failing)
    config = small_config(targets=(("thm-2.7", "ginibre"),) * 4, dims=(32,), trials_per_dim=2)
    graders(2)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(config)
    assert len(forks) == 1
    assert_reaped(forks)


def test_results_larger_than_the_pipe_arrive_whole(graders, forks, monkeypatch):
    # Where the pipe cannot be enlarged it holds 64 KiB, and a chunk of
    # 1000 trials at n = 2 sends about 120-140 KB, so each result arrives
    # in several reads.
    import fcntl

    def refused(fd, cmd, *args):
        if cmd == fcntl.F_SETPIPE_SZ:
            raise PermissionError("planted")
        return fcntl_fcntl(fd, cmd, *args)

    fcntl_fcntl = fcntl.fcntl
    config = small_config(targets=ALL_TARGETS[:6], dims=(2,), trials_per_dim=1000)
    graders(1)
    alone = campaign_bytes(config)
    monkeypatch.setattr(fcntl, "fcntl", refused)
    graded_by = graders(2)
    assert campaign_bytes(config) == alone
    assert graded_by() == {"caller", "child"}
    assert len(forks) == 1
    assert_reaped(forks)


def test_killed_child_leaves_the_document_unchanged(graders, forks, monkeypatch):
    # The child dies with SIGKILL on its second chunk, after it has sent
    # its first: the caller grades that chunk and every later one dealt
    # to the child.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk
    config = small_config(targets=ALL_TARGETS, dims=(32, 64), trials_per_dim=2)
    graders(1)
    alone = campaign_bytes(config)
    calls = []

    def dying(entry, first_trial, mats, tol):
        if os.getpid() != caller:
            calls.append(first_trial)
            if len(calls) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return check_chunk(entry, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", dying)
    graded_by = graders(2)
    assert campaign_bytes(config) == alone
    assert graded_by() == {"caller", "child"}
    assert len(forks) == 1
    assert_reaped(forks)


def test_refused_fork_grades_every_chunk_on_the_caller(graders, monkeypatch):
    # With no process to spare (EAGAIN), the caller grades every chunk
    # itself and the document is unchanged.
    def refused():
        raise BlockingIOError("planted")

    config = small_config(targets=ALL_TARGETS[:4], dims=(32,), trials_per_dim=4)
    graders(1)
    alone = campaign_bytes(config)
    monkeypatch.setattr(os, "fork", refused)
    graded_by = graders(2)
    assert campaign_bytes(config) == alone
    assert graded_by() == {"caller"}


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


def test_child_error_that_does_not_pickle_arrives_as_runtime_error(graders, forks, monkeypatch):
    # A class defined in a function pickles by reference to a name that
    # does not resolve, so the child sends its repr as a RuntimeError.
    caller = os.getpid()
    check_chunk = fuzzer._check_chunk

    class Unpicklable(ValueError):
        pass

    def failing(entry, first_trial, mats, tol):
        if os.getpid() != caller:
            raise Unpicklable("planted")
        return check_chunk(entry, first_trial, mats, tol)

    monkeypatch.setattr(fuzzer, "_check_chunk", failing)
    graders(2)
    with pytest.raises(RuntimeError, match=r"^Unpicklable\('planted'\)$"):
        run_campaign(small_config(targets=ALL_TARGETS, dims=(32,), trials_per_dim=4))
    assert len(forks) == 1
    assert_reaped(forks)


def _planted_error(*args):
    raise NotPSD("planted")


def _planted_interrupt(*args):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "where, planted",
    [
        ("_check_chunk", _planted_error),
        ("_check_chunk", _planted_interrupt),
        ("_TargetAggregator", type("Closing", (_TargetAggregator,), {"fold": _planted_error})),
    ],
    ids=["error", "interrupt", "close"],
)
def test_no_child_outlives_a_stopped_campaign(graders, forks, monkeypatch, where, planted):
    # A chunk error and an interrupt raised while grading end the campaign
    # inside the chunk generator; an error while folding closes it early,
    # at its first chunk.  Each time the child is killed and reaped before
    # the campaign returns.
    monkeypatch.setattr(fuzzer, where, planted)
    graders(2)
    with pytest.raises((NotPSD, KeyboardInterrupt)):
        run_campaign(small_config(targets=ALL_TARGETS, dims=(32,), trials_per_dim=4))
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
