"""Seeded fuzzing campaigns and randomised counterexample search.

A campaign pairs inequality ids with generator classes and runs a fixed
number of trials per dimension.  Trial ``t`` (numbered globally across
the campaign in deterministic order: targets outermost, then dimensions,
then repetitions) draws its inputs from the row of index t of a stacked
``prng_stream(seed, trials)``, so the result is a pure function of the
config and independent of execution order.  The trials of one (target,
dimension) block are drawn and checked as stacks of at most
``CHUNK_ELEMENTS // n**2`` trials; the chunk size never shows in the
result.  When the process may use two CPUs, the chunks are shared with a
child process forked for the campaign.  Each process grades its own
chunks straight into a fold of numbers (counts, extremes and the trial
numbers they come from), and the child sends its whole fold to the caller
in one message or sends nothing.  The fold does not depend on order, so
the result is the one a single process gives; on any outcome but two
whole folds the caller folds every chunk itself, so errors are those of
one process too.  A violated target's worst witness is drawn again from
the stream of its trial.  Campaigns and searches grade on one BLAS thread
(see ``numkernel.one_blas_thread``), so that the BLAS thread count cannot
change last bits.

Searches target statements that are false (or of unknown truth) in
general: random restarts from an ambient parameterisation that preserves
the statement's hypotheses, followed by greedy entrywise Gaussian
perturbation with step-size halving.  A witness qualifies when its
minimum margin is below ``-WITNESS_FACTOR * tol_used``, well clear of
numerical noise, and every witness replays deterministically through the
same checker.  Candidates are scored as stacks: the next greedy steps of
a restart as the tree of every candidate they could reach, and later
restarts in lock-step blocks.  A restart's rounds take 1, 2, then 4
steps, at most one more than it has taken, and fewer as n grows.  The
witness is the one the restarts give when run one after the other, one
candidate at a time.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import randgen
from .decomp import cartesian
from .inequalities import (
    CATALOG,
    SPLITTABLE_CLASSES,
    ArityMismatch,
    CatalogEntry,
    Checked,
    InequalityReport,
    Tolerance,
    UnknownInequality,
    catalog_entry,
    check,
)
from .numkernel import (
    CHUNK_ELEMENTS,
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidMatrix,
    MAX_DIM,
    NoConvergence,
    NotHermitian,
    ToleranceOverflow,
    _adj,
    _herm,
    _openblas_thread_query,
    one_blas_thread,
)


class ConfigInvalid(ValueError):
    """Campaign or search configuration is unusable."""


class MalformedWitness(ValueError):
    """A stored witness cannot be replayed as-is."""


@dataclass(frozen=True)
class CampaignConfig:
    targets: tuple[tuple[str, str], ...]
    dims: tuple[int, ...]
    trials_per_dim: int
    seed: int
    tol: Tolerance = DEFAULT_TOL
    scale: float = 1.0


@dataclass
class MarginHistogram:
    """Histogram of per-trial minimum margins.

    32 log-spaced bins cover [1e-12, 1e4) at half a decade per bin;
    margins below 1e-12 (including every negative margin) land in the
    underflow bin, margins at or above 1e4 in the overflow bin.
    """

    counts: list[int] = field(default_factory=lambda: [0] * 32)
    underflow: int = 0
    overflow: int = 0

    LOG10_LO = -12.0
    LOG10_HI = 4.0

    def add(self, margin: float) -> None:
        if margin < 1e-12:
            self.underflow += 1
        elif margin >= 1e4:
            self.overflow += 1
        else:
            width = (self.LOG10_HI - self.LOG10_LO) / len(self.counts)
            idx = int((math.log10(margin) - self.LOG10_LO) / width)
            idx = min(max(idx, 0), len(self.counts) - 1)
            self.counts[idx] += 1


@dataclass
class SideStats:
    """Extremes of one margin-side across a target's trials."""

    min_margin: float = math.inf
    max_abs_margin: float = 0.0


@dataclass(frozen=True)
class Witness:
    """A replayable record of one checked input set."""

    ineq_id: str
    class_tag: str
    dim: int
    seed: int
    trial: int
    tol: Tolerance
    inputs: tuple[np.ndarray, ...]
    report: InequalityReport


@dataclass(frozen=True)
class TargetResult:
    """Aggregated outcome of one (inequality, class) target.

    ``min_margin`` is the worst margin among Violated trials when any
    exist (and then matches ``worst_witness``), otherwise the minimum
    margin over all trials that produced margins; None if no trial did.
    """

    ineq_id: str
    class_tag: str
    dims: tuple[int, ...]
    trials: int
    holds: int
    violated: int
    hypothesis_violated: int
    expected_to_hold: bool
    min_margin: float | None
    histogram: MarginHistogram
    side_stats: dict[str, SideStats]
    worst_witness: Witness | None


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    targets: tuple[TargetResult, ...]

    def unexpected_violations(self) -> int:
        return sum(t.violated for t in self.targets if t.expected_to_hold)


def _validate_dims(dims) -> tuple[int, ...]:
    """The one dimension rule of campaigns, searches and the CLI."""
    out = []
    for d in dims:
        if not randgen.is_integer(d) or not 1 <= int(d) <= MAX_DIM:
            raise ConfigInvalid(f"dimension {d!r} outside 1..{MAX_DIM}")
        out.append(int(d))
    if not out:
        raise ConfigInvalid("at least one dimension required")
    return tuple(out)


def _drawer(entry: CatalogEntry, class_tag: str) -> Callable:
    """The function ``draw(dim, stream, scale)`` that turns draws of
    ``class_tag`` from a stacked stream into one (k, n, n) stack per
    checker operand: the Hermitian/skew parts of one normal draw for a
    ``split_cartesian`` checker, one draw of a class that emits the
    checker's arity directly, or ``arity`` draws of a 1-matrix class.
    """
    if class_tag not in randgen.CLASSES:
        raise ConfigInvalid(f"unknown generator class {class_tag!r}")
    class_arity = randgen.CLASSES[class_tag].arity
    sample = functools.partial(randgen.sample, class_tag)
    if entry.split_cartesian and class_tag in SPLITTABLE_CLASSES:
        return lambda *args: cartesian(*sample(*args))
    if class_arity == entry.arity:
        return sample
    if class_arity == 1:
        return lambda *args: tuple(m for _ in range(entry.arity) for m in sample(*args))
    raise ConfigInvalid(
        f"class {class_tag!r} produces {class_arity} matrices but "
        f"{entry.ineq_id} takes {entry.arity}"
    )


def _plan(config: CampaignConfig) -> list[tuple[CatalogEntry, str, Callable, tuple[int, ...]]]:
    if not config.targets:
        raise ConfigInvalid("campaign has no targets")
    if not randgen.is_integer(config.trials_per_dim) or config.trials_per_dim < 1:
        raise ConfigInvalid(f"trials_per_dim must be >= 1, got {config.trials_per_dim!r}")
    randgen._check_u64(config.seed, "seed", ConfigInvalid)
    if not isinstance(config.tol, Tolerance):
        raise ConfigInvalid("tol must be a Tolerance")
    scale = config.scale
    real = randgen.is_integer(scale) or isinstance(scale, float)
    if not (real and math.isfinite(scale) and scale > 0):
        raise ConfigInvalid(f"scale must be a positive finite real, got {config.scale!r}")
    dims = _validate_dims(config.dims)
    jobs = []
    for item in config.targets:
        try:
            ineq_id, class_tag = item
        except (TypeError, ValueError):
            raise ConfigInvalid(f"target {item!r} is not an (inequality, class) pair") from None
        try:
            entry = catalog_entry(ineq_id)
        except UnknownInequality as exc:
            raise ConfigInvalid(str(exc)) from None
        draw = _drawer(entry, class_tag)
        effective_dims = (entry.fixed_dim,) if entry.fixed_dim is not None else dims
        jobs.append((entry, class_tag, draw, effective_dims))
    return jobs


class _TargetAggregator:
    """A fold of some of one target's trials, into a TargetResult: numbers
    only, so that the child's message holds no matrix.

    Counts and histograms add.  Each extreme is kept with the trial it
    comes from, as a ``(value, trial)`` tuple, so that ``min`` keeps the
    earliest trial of equal values (0.0 and -0.0, or equal violation
    margins), as a fold in trial order does: parts merge, in any grouping
    and order, into the result of that fold.
    """

    def __init__(self):
        self.trials = self.violated = self.hypothesis_violated = 0
        self.histogram = MarginHistogram()
        self.floor = (math.inf, math.inf)  # (min margin, trial)
        # position in the core -> (label, (min margin, trial), max |margin|)
        self.sides: dict[int, tuple] = {}
        # (margin, trial, dim) of the worst violated trial; (inf, inf, 0) while none is
        self.worst = (math.inf, math.inf, 0)

    def merge(self, other: _TargetAggregator) -> None:
        self.trials += other.trials
        self.violated += other.violated
        self.hypothesis_violated += other.hypothesis_violated
        mine, theirs = self.histogram, other.histogram
        mine.counts = [a + b for a, b in zip(mine.counts, theirs.counts)]
        mine.underflow += theirs.underflow
        mine.overflow += theirs.overflow
        self.floor = min(self.floor, other.floor)
        for position, (label, low, high) in other.sides.items():
            _, was_low, was_high = self.sides.get(position, (label, low, high))
            self.sides[position] = (label, min(was_low, low), max(was_high, high))
        self.worst = min(self.worst, other.worst)

    def add(self, first_trial: int, dim: int, checked: Checked) -> None:
        part = _TargetAggregator()
        k = part.trials = len(checked)
        hyp = checked.hypothesis_ok
        part.violated = int(np.count_nonzero(checked.violated))
        part.hypothesis_violated = 0 if hyp is None else k - int(np.count_nonzero(hyp))
        margins = checked.min_margin
        i = int(margins.argmin())
        part.floor = (float(margins[i]), first_trial + i)
        for margin in margins.tolist():
            part.histogram.add(margin)
        for position, side in enumerate(checked.sides):
            rows = np.arange(k) if side.present is None else np.flatnonzero(side.present)
            if rows.size == 0:
                continue
            side_min = side.min_margin[rows]
            i = int(side_min.argmin())
            part.sides[position] = (
                side.label,
                (float(side_min[i]), first_trial + int(rows[i])),
                float(np.abs(side.margin[rows]).max()),
            )
        if part.violated:
            i = int(np.where(checked.violated, margins, np.inf).argmin())
            part.worst = (float(margins[i]), first_trial + i, dim)
        self.merge(part)

    def finish(self, config: CampaignConfig, entry: CatalogEntry, class_tag: str,
               draw: Callable, dims: tuple[int, ...]) -> TargetResult:
        """The result for the ``_plan`` row (entry, class_tag, draw, dims); the
        worst witness is drawn again, as a stack of one, from its trial."""
        worst_witness = None
        if self.violated:
            min_margin, trial, dim = self.worst
            stream = randgen.prng_stream(config.seed, [trial])
            with np.errstate(over="ignore", invalid="ignore"):  # as its chunk was
                inputs = tuple(m[0] for m in draw(dim, stream, config.scale))
                worst_witness = _witness(entry, class_tag, dim, config.seed, trial, config.tol,
                                         inputs)
        elif math.isfinite(self.floor[0]):
            # Some trial was graded: every graded margin is finite.
            min_margin = self.floor[0]
        else:
            min_margin = None
        sides = [self.sides[position] for position in sorted(self.sides)]
        return TargetResult(
            ineq_id=entry.ineq_id,
            class_tag=class_tag,
            dims=dims,
            trials=self.trials,
            holds=self.trials - self.violated - self.hypothesis_violated,
            violated=self.violated,
            hypothesis_violated=self.hypothesis_violated,
            expected_to_hold=entry.expected_to_hold(class_tag),
            min_margin=min_margin,
            histogram=self.histogram,
            side_stats={label: SideStats(low[0], high) for label, low, high in sides},
            worst_witness=worst_witness,
        )


def _witness(
    entry: CatalogEntry, class_tag: str, dim: int, seed: int, trial: int, tol: Tolerance,
    inputs, checked: Checked | None = None,
) -> Witness:
    """The witness of ``inputs``, with the report replay() recomputes: that
    of ``checked`` when it graded ``inputs`` as a stack of one, else one
    rebuilt through that path.  Most searches hit alone, at restart 0's
    first point or first step, where grading it again would add a call to
    the one or two one-row calls of the search."""
    if checked is None or len(checked) > 1:
        checked = entry.run([m[None] for m in inputs], tol)
    return Witness(entry.ineq_id, class_tag, dim, seed, trial, tol, inputs, checked.report(0))


def _check_chunk(agg: _TargetAggregator, entry: CatalogEntry, dim: int, first_trial: int,
                 mats, tol: Tolerance) -> None:
    """Check one chunk of trials and fold it into ``agg``.

    A checker rejects a whole stack when one operand is not Hermitian; the
    chunk is then checked trial by trial, and each rejected trial counts
    as a hypothesis violation, while the others are graded as usual.  A
    chunk that yields a non-finite number raises FloatingPointError, so
    that no count comes from a NaN or an infinity.
    """
    try:
        checked = entry.run(mats, tol)
    except NotHermitian:
        if len(mats[0]) > 1:
            for i in range(len(mats[0])):
                _check_chunk(agg, entry, dim, first_trial + i, [m[i : i + 1] for m in mats], tol)
        else:
            agg.trials += 1
            agg.hypothesis_violated += 1
        return
    if not checked.finite():
        raise FloatingPointError("non-finite margins or residuals")
    agg.add(first_trial, dim, checked)


def _grade_chunk(config: CampaignConfig, plan: list, chunk, agg: _TargetAggregator) -> None:
    """Draw the inputs of ``chunk`` (target, dim, first trial, trials) and
    fold them into ``agg``; as in ``check``, overflow warns of nothing."""
    target, dim, first, k = chunk
    entry, _, draw, _ = plan[target]
    stream = randgen.prng_stream(config.seed, np.arange(first, first + k, dtype=np.uint64))
    with np.errstate(over="ignore", invalid="ignore"):
        _check_chunk(agg, entry, dim, first, draw(dim, stream, config.scale), config.tol)


def _fold(config: CampaignConfig, plan: list, chunks: list, indices) -> list:
    """Fold the chunks at ``indices``, ascending, into fresh aggregators,
    one per target.  A chunk that cannot be graded at the configured scale
    and tolerance (the eigensolver does not converge or a number
    overflows) raises ConfigInvalid; any other error propagates as is."""
    aggs = [_TargetAggregator() for _ in plan]
    for i in indices:
        target, dim, _, _ = chunks[i]
        try:
            _grade_chunk(config, plan, chunks[i], aggs[target])
        except (NoConvergence, FloatingPointError, ToleranceOverflow) as exc:
            entry, class_tag, _, _ = plan[target]
            raise ConfigInvalid(
                f"{entry.ineq_id} on {class_tag} at dimension {dim} and scale"
                f" {config.scale!r} cannot be graded: {exc}"
            ) from None
    return aggs


def _graded(config: CampaignConfig, plan: list, chunks: list) -> list:
    """Fold every chunk into one aggregator per target, as one process
    folding them in trial order does, and return the aggregators.

    With two usable CPUs and two chunks or more, a child forked here grades
    half the chunks: sorted by shape (dimension, trials), they are dealt
    alternately, the first to the child, so which process grades a chunk
    depends on the plan alone.  The halves need not cost the same: chunks
    of one shape differ in cost by target, up to 5x at n = 64.  The child
    is an accelerator that gives a whole fold or nothing: only after it
    has folded every chunk dealt to it does it send its aggregators, as
    one pickle, and a chunk that raises ends it with nothing sent.  The
    caller merges that message once its own fold has finished too.  On any
    other outcome (an error in its own chunks, no message or part of one,
    no process to fork) it kills and reaps the child and folds every chunk
    itself, as on one CPU, which raises the first error in trial order as
    it was raised.  The child ignores SIGINT and ends with ``os._exit``;
    the caller kills and reaps it before it returns, also on an interrupt.
    """
    everything = range(len(chunks))
    # Fork only on Linux with numpy's OpenBLAS, whose fork handlers stop its
    # threads, and only while one thread runs: a fork copies no other.
    if not (sys.platform == "linux" and len(chunks) > 1
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1
            and _openblas_thread_query() is not None):
        return _fold(config, plan, chunks, everything)
    dealt = sorted(everything, key=lambda i: (chunks[i][1], chunks[i][3]))
    theirs, mine = sorted(dealt[::2]), sorted(dealt[1::2])
    pid, fds = -1, list(os.pipe())
    try:
        with contextlib.suppress(OSError):  # no process to spare: fold alone
            pid = os.fork()
        if pid == 0:  # the child; the finally ends it, also on an exception
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            message = pickle.dumps(_fold(config, plan, chunks, theirs))
            with open(fds[1], "wb", closefd=False) as pipe:
                pipe.write(message)
        elif pid > 0:
            os.close(fds.pop())  # the write end: the pipe ends with the child
            with contextlib.suppress(Exception):  # else fold alone, below
                aggs = _fold(config, plan, chunks, mine)
                with open(fds[0], "rb", closefd=False) as pipe:
                    parts = pickle.loads(pipe.read())
                for agg, part in zip(aggs, parts):
                    agg.merge(part)
                return aggs
    finally:
        if pid == 0:
            os._exit(0)
        if pid > 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    return _fold(config, plan, chunks, everything)


@one_blas_thread()
def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run every target of ``config`` and aggregate margins and verdicts.

    Raises ConfigInvalid when a chunk cannot be graded at the configured
    scale and tolerance: the eigensolver does not converge or a number
    overflows.
    """
    plan = _plan(config)
    chunks = []
    trial = 0
    for target, (_, _, _, dims) in enumerate(plan):
        for dim in dims:
            size = max(1, CHUNK_ELEMENTS // (dim * dim))
            for start in range(0, config.trials_per_dim, size):
                k = min(size, config.trials_per_dim - start)
                chunks.append((target, dim, trial + start, k))
            trial += config.trials_per_dim
    aggs = _graded(config, plan, chunks)
    results = tuple(agg.finish(config, *row) for agg, row in zip(aggs, plan))
    return CampaignResult(config=config, targets=results)


# --- counterexample search ---------------------------------------------------

SEARCH_TARGET_IDS = tuple(e.ineq_id for e in CATALOG.values() if e.search_dims)


# Greedy perturbation steps each restart of a search runs at most.
PERTURB_STEPS = 64
# A search witness's minimum margin is below -WITNESS_FACTOR * tol_used.
WITNESS_FACTOR = 10.0


@dataclass(frozen=True)
class SearchTarget:
    """A statement to search for counterexamples of.

    ``budget`` counts random restarts; each restart runs up to
    ``PERTURB_STEPS`` greedy perturbation steps.
    """

    target_id: str
    budget: int
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.target_id not in SEARCH_TARGET_IDS:
            raise ConfigInvalid(
                f"unknown search target {self.target_id!r}; known: {SEARCH_TARGET_IDS}"
            )
        if not randgen.is_integer(self.budget) or self.budget < 0:
            raise ConfigInvalid(f"budget must be >= 0, got {self.budget!r}")
        if self.dims is not None:
            object.__setattr__(self, "dims", _validate_dims(self.dims))


def _search_build(entry: CatalogEntry, params: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Map rows of real parameters, shape (k, arity * 2n²), to one (k, n, n)
    stack per checker operand.

    Operand i is a complex matrix G from the i-th 2n² parameters, and the
    hypotheses on it are named after its letter (a, b, c).  The
    parameterisation keeps the hypotheses the target keeps under any
    perturbation: the operand is (G*G + (G*G)*)/2 if its ``_positive``
    hypothesis is kept, (G+G*)/2 if only its ``_hermitian`` one is, and G
    itself otherwise.
    """
    mats = []
    for i in range(entry.arity):
        block = params[:, 2 * i * n * n : 2 * (i + 1) * n * n]
        g = (block[:, : n * n] + 1j * block[:, n * n :]).reshape(-1, n, n)
        letter = "abc"[i]
        if f"{letter}_positive" in entry.hypotheses:
            g = _herm(_adj(g) @ g)
        elif f"{letter}_hermitian" in entry.hypotheses:
            g = _herm(g)
        mats.append(g)
    return tuple(mats)


# The cap on the greedy steps a restart takes per stacked call: the call
# scores the binary tree of the 2**depth - 1 candidates those steps could
# reach.  A deeper tree makes fewer calls but scores more candidates the
# walk does not take, which stops paying once eigensolver work outweighs
# the per-call overhead.  So the cap is the largest depth, up to
# _SEARCH_DEPTH, whose tree holds at most _TREE_ELEMENTS matrix entries:
# 4 for n <= 4, 3 for n = 5, 6, 2 for n = 7..10 and 1 (no tree) from
# n = 11 on.  Timed on a 2-core x86-64 box with one BLAS thread, depths
# 1..4 at n = 2..16 for all three targets.  Below the cap, a round takes
# one more step than the walk has (1, 2, 4): most walks qualify early.
_SEARCH_DEPTH = 4
_TREE_ELEMENTS = 300


def _search_depth(n: int) -> int:
    depth = _SEARCH_DEPTH
    while depth > 1 and (2**depth - 1) * n * n > _TREE_ELEMENTS:
        depth -= 1
    return depth


@functools.cache
def _search_tree(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidate tree of ``depth`` greedy steps, in level order.

    Node k scores p + sigma * z_t, t its level.  Its children are 2k + 1
    (k accepted: p moves to its candidate) and 2k + 2 (k rejected: sigma
    halves).  Returns, per node, where its p comes from (0 for the
    restart's parameters, 1 + j for the candidate of node j) and the factor
    0.5 ** halvings its sigma is scaled by; halving sigma is exact, so node
    sigmas are too.
    """
    source, factor = [0], [1.0]
    for k in range(1, 2**depth - 1):
        parent = (k - 1) // 2
        accepted = k % 2 == 1
        source.append(1 + parent if accepted else source[parent])
        factor.append(factor[parent] * (1.0 if accepted else 0.5))
    return np.array(source), np.array(factor)


def _search_restarts(
    entry: CatalogEntry, seed: int, restarts: list[int], n: int, steps: int
) -> tuple[int, tuple[np.ndarray, ...], Checked, int] | None:
    """Run ``restarts`` (ascending, all of dimension ``n``) in lock step.

    Returns the lowest qualifying restart as (restart, mats, checked, i):
    row ``i`` of the operand stacks ``mats`` is its witness, and
    ``checked`` scored them.  None if no restart qualifies.

    Each restart follows the path it takes on its own: a round draws the
    next ``depth`` perturbations of every active restart in one stream
    call, scores every candidate they could reach as one stack, and walks
    each restart's tree by the greedy rule.  ``depth`` is at most one more
    than the steps taken so far (1, 2, 4, ...) and at most
    ``_search_depth(n)``.  A restart stops at its witness, and restarts
    above the lowest witness so far are dropped.
    """
    length = 2 * entry.arity * n * n

    def score(params: np.ndarray):
        mats = _search_build(entry, params, n)
        checked = entry.run(mats, DEFAULT_TOL)
        return mats, checked, checked.min_margin < -WITNESS_FACTOR * checked.tol_used

    stream = randgen.prng_stream(seed, np.array(restarts, dtype=np.uint64))
    params = stream.normals(length)
    mats, checked, qualifies = score(params)
    best = checked.min_margin.copy()
    sigma = np.full(len(restarts), 0.5)
    hits = np.flatnonzero(qualifies)
    found = None
    if hits.size:
        found = (restarts[hits[0]], mats, checked, hits[0])
    active = np.arange(hits[0] if hits.size else len(restarts))
    taken = 0
    while active.size and taken < steps:
        depth = min(_search_depth(n), steps - taken, taken + 1)
        taken += depth
        # Step t perturbs by the t-th normals(length) draw of its stream row.
        z = stream.normals(length, depth)[active]
        source, factor = _search_tree(depth)
        width = len(source)
        node_sigma = sigma[active][:, None, None] * factor[:, None]
        points = np.empty((len(active), 1 + width, length))
        points[:, 0] = params[active]
        for t in range(depth):
            level = slice(2**t - 1, 2 ** (t + 1) - 1)
            step = node_sigma[:, level] * z[:, t, None, :]
            points[:, 1 + level.start : 1 + level.stop] = points[:, source[level]] + step
        cands = points[:, 1:].reshape(-1, length)
        mats, checked, qualifies = score(cands)
        margins = checked.min_margin
        for row, i in enumerate(active):
            node = 0
            for _ in range(depth):
                k = row * width + node
                if qualifies[k]:
                    break
                if margins[k] < best[i]:
                    params[i], best[i] = cands[k], margins[k]
                    node = 2 * node + 1
                else:
                    sigma[i] *= 0.5
                    node = 2 * node + 2
            else:
                continue
            # The lowest active restart that qualifies in this round.
            found = (restarts[i], mats, checked, k)
            active = active[:row]
            break
    return found


@one_blas_thread()
def search_counterexample(target: SearchTarget, seed: int) -> Witness | None:
    """Search for a robust violation of ``target``; None means exhausted.

    Restart ``r`` draws from the row of index r of a stacked
    ``prng_stream(seed, restarts)`` and cycles through the target's
    dimensions, so the search is a pure function of (target, seed).  A
    restart scores its initial point, then takes 1, 2, 4, ... greedy steps
    per stacked call, up to ``_search_depth(n)``.  Restart 0 runs alone.
    Later restarts run in lock-step blocks of 1, 2, 4, ...: a block holds
    as many restarts as have failed so far, capped so that their largest
    trees together hold at most ``CHUNK_ELEMENTS`` matrix entries at the
    largest n, and it is checked as one stack per dimension.  The lowest
    qualifying restart of a block is the witness the restarts give when
    run one after the other.  Only the witness gets a full report.
    """
    randgen._check_u64(seed, "seed", ConfigInvalid)
    entry = catalog_entry(target.target_id)
    dims = target.dims or entry.search_dims
    cap = max(1, CHUNK_ELEMENTS // max((2 ** _search_depth(n) - 1) * n * n for n in dims))
    start = 0
    while start < target.budget:
        stop = min(target.budget, start + min(max(1, start), cap))
        by_dim: dict[int, list[int]] = {}
        for restart in range(start, stop):
            by_dim.setdefault(dims[restart % len(dims)], []).append(restart)
        found = None
        for n, restarts in by_dim.items():
            if found is not None:
                restarts = [r for r in restarts if r < found[0]]
            if restarts:
                found = _search_restarts(entry, seed, restarts, n, PERTURB_STEPS) or found
        if found is not None:
            restart, mats, checked, i = found
            inputs = tuple(m[i].copy() for m in mats)
            class_tag = f"search:{target.target_id}"
            dim = dims[restart % len(dims)]
            return _witness(entry, class_tag, dim, seed, restart, DEFAULT_TOL, inputs, checked)
        start = stop
    return None


def replay(witness: Witness) -> InequalityReport:
    """Re-run the stored checker on the stored inputs.

    Raises MalformedWitness when the witness cannot be interpreted
    (unknown id, wrong arity, inconsistent dimensions, non-finite
    entries).
    """
    try:
        return check(witness.ineq_id, witness.inputs, witness.tol)
    except (UnknownInequality, ArityMismatch, DimensionMismatch, InvalidMatrix) as exc:
        raise MalformedWitness(str(exc)) from None
