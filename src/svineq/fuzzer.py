"""Seeded fuzzing campaigns and randomised counterexample search.

A campaign pairs inequality ids with generator classes and runs a fixed
number of trials per dimension.  Trial ``t`` (numbered globally across
the campaign in deterministic order: targets outermost, then dimensions,
then repetitions) draws its inputs from ``prng_stream(seed, t)``, so the
result is a pure function of the config and independent of execution
order.  The trials of one (target, dimension) block are drawn and checked
as stacks of at most ``CHUNK_ELEMENTS // n**2`` trials; the chunk size
never shows in the result.  When the process may use two CPUs, chunks of
at least ``THREAD_ELEMENTS`` matrix entries are graded on the calling
thread and one worker thread: numpy releases the GIL in LAPACK calls and
large loops, so one thread's kernels overlap the other's Python.  Unless
BLAS runs one thread, only chunks of matrices at most
``THREADED_BLAS_DIM`` square are shared, since BLAS spreads larger ones
over the CPUs itself.  The caller folds every chunk in trial order, so
the result is the one a single thread gives: byte-identical on one
machine and BLAS configuration, while the BLAS thread count can change
last bits.

Searches target statements that are false (or of unknown truth) in
general: random restarts from an ambient parameterisation that preserves
the statement's hypotheses, followed by greedy entrywise Gaussian
perturbation with step-size halving.  A witness qualifies when its
minimum margin is below ``-10 * tol_used``, well clear of numerical
noise, and every witness replays deterministically through the same
checker.  Candidates are scored as stacks: the next few greedy steps of
a restart (fewer as n grows) as the tree of every candidate they could
reach, and later restarts in lock-step blocks.  The witness is the one
the restarts give when run one after the other, one candidate at a time.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import randgen
from .decomp import cartesian
from .inequalities import (
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
    DEFAULT_TOL,
    DimensionMismatch,
    InvalidMatrix,
    MAX_DIM,
    NoConvergence,
    NotHermitian,
    ToleranceOverflow,
    _adj,
    _herm,
)


# Matrix entries per operand stack a campaign checks at once: bounds the
# memory of one chunk (blocks of 2n x 2n entries and their temporaries).
CHUNK_ELEMENTS = 1 << 14

# Matrix entries (k * n**2) from which a chunk is worth handing to the
# worker thread: below it the hand-off costs more than the overlap saves.
# Timed on a 2-core x86-64 box with one BLAS thread (see CHANGES.md).
THREAD_ELEMENTS = 2048

# Largest dimension whose chunks the worker takes when BLAS may run more
# than one thread.  On the same box with two BLAS threads, the worker made
# campaigns 1.5-1.9x faster up to n = 16 and 1.2x at n = 24; from n = 32
# on, BLAS spreads a chunk's kernels over the CPUs itself, and the worker
# made them slower.
THREADED_BLAS_DIM = 16

# Chunks the graders may run ahead of the one the caller folds next, so at
# most this many graded chunks wait to be folded.
_AHEAD = 2


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

    _LO = -12.0
    _HI = 4.0

    def add(self, margin: float) -> None:
        if margin < 1e-12:
            self.underflow += 1
        elif margin >= 1e4:
            self.overflow += 1
        else:
            width = (self._HI - self._LO) / len(self.counts)
            idx = int((math.log10(margin) - self._LO) / width)
            idx = min(max(idx, 0), len(self.counts) - 1)
            self.counts[idx] += 1

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow


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


def _validate_dims(dims, where: str) -> tuple[int, ...]:
    out = []
    for d in dims:
        if not randgen.is_integer(d) or not 1 <= int(d) <= MAX_DIM:
            raise ConfigInvalid(f"{where}: dimension {d!r} outside 1..{MAX_DIM}")
        out.append(int(d))
    if not out:
        raise ConfigInvalid(f"{where}: at least one dimension required")
    return tuple(out)


def _input_plan(entry: CatalogEntry, class_tag: str) -> str:
    """How to turn one generator draw into checker inputs.

    Returns "split" (draw one normal matrix, use its Hermitian/skew
    parts), "native" (the class emits the checker's arity directly), or
    "repeat" (draw a 1-matrix class ``arity`` times).
    """
    if class_tag not in randgen.CLASS_ARITY:
        raise ConfigInvalid(f"unknown generator class {class_tag!r}")
    if entry.split_cartesian and class_tag in SPLITTABLE_CLASSES:
        return "split"
    class_arity = randgen.CLASS_ARITY[class_tag]
    if class_arity == entry.arity:
        return "native"
    if class_arity == 1:
        return "repeat"
    raise ConfigInvalid(
        f"class {class_tag!r} produces {class_arity} matrices but "
        f"{entry.ineq_id} takes {entry.arity}"
    )


def _build_inputs(
    entry: CatalogEntry, class_tag: str, plan: str, dim: int, stream, scale: float
) -> tuple[np.ndarray, ...]:
    """One (k, n, n) stack per checker operand, drawn from a stacked stream."""
    if plan == "split":
        (m,) = randgen.sample(class_tag, dim, stream, scale)
        return cartesian(m)
    if plan == "native":
        return randgen.sample(class_tag, dim, stream, scale)
    mats = []
    for _ in range(entry.arity):
        mats.extend(randgen.sample(class_tag, dim, stream, scale))
    return tuple(mats)


def _plan(config: CampaignConfig) -> list[tuple[CatalogEntry, str, str, tuple[int, ...]]]:
    if not config.targets:
        raise ConfigInvalid("campaign has no targets")
    if not randgen.is_integer(config.trials_per_dim) or config.trials_per_dim < 1:
        raise ConfigInvalid(f"trials_per_dim must be >= 1, got {config.trials_per_dim!r}")
    if not randgen.is_integer(config.seed) or not 0 <= config.seed < 2**64:
        raise ConfigInvalid(f"seed must be an unsigned 64-bit integer, got {config.seed!r}")
    if not isinstance(config.tol, Tolerance):
        raise ConfigInvalid("tol must be a Tolerance")
    scale = config.scale
    real = randgen.is_integer(scale) or isinstance(scale, float)
    if not (real and math.isfinite(scale) and scale > 0):
        raise ConfigInvalid(f"scale must be a positive finite real, got {config.scale!r}")
    dims = _validate_dims(config.dims, "dims")
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
        plan = _input_plan(entry, class_tag)
        effective_dims = (entry.fixed_dim,) if entry.fixed_dim is not None else dims
        jobs.append((entry, class_tag, plan, effective_dims))
    return jobs


class _TargetAggregator:
    """Folds the chunks of one target, in trial order, into a TargetResult.

    Every fold keeps the first of equal values, as the sequential ``min``
    and strict ``<`` over single trials do, so the result does not depend
    on how the trials were chunked.
    """

    def __init__(self, entry: CatalogEntry, class_tag: str, dims: tuple[int, ...]):
        self.entry = entry
        self.class_tag = class_tag
        self.dims = dims
        self.trials = 0
        self.violated = 0
        self.hypothesis_violated = 0
        self.histogram = MarginHistogram()
        self.side_stats: dict[str, SideStats] = {}
        self.margin_floor = math.inf
        self.worst_violation = math.inf
        self.worst: tuple[int, int, tuple[np.ndarray, ...]] | None = None

    def fold(self, dim: int, parts) -> None:
        """Add the parts of one checked chunk (see ``_check_chunk``)."""
        for first_trial, mats, checked in parts:
            if checked is None:
                # A trial whose checker rejected an operand as not Hermitian.
                self.trials += 1
                self.hypothesis_violated += 1
            else:
                self.add(first_trial, dim, mats, checked)

    def add(self, first_trial: int, dim: int, mats, checked: Checked) -> None:
        k = len(checked)
        hyp = checked.hypothesis_ok
        violated = int(np.count_nonzero(checked.violated))
        hypothesis_violated = 0 if hyp is None else k - int(np.count_nonzero(hyp))
        self.trials += k
        self.violated += violated
        self.hypothesis_violated += hypothesis_violated
        margins = checked.min_margin
        self.margin_floor = min(self.margin_floor, float(margins[margins.argmin()]))
        for margin in margins.tolist():
            self.histogram.add(margin)
        for side in checked.sides:
            present = slice(None) if side.present is None else side.present
            side_min = side.min_margin[present]
            if side_min.size == 0:
                continue
            stats = self.side_stats.setdefault(side.label, SideStats())
            stats.min_margin = min(stats.min_margin, float(side_min[side_min.argmin()]))
            extreme = float(np.abs(side.margin[present]).max())
            stats.max_abs_margin = max(stats.max_abs_margin, extreme)
        if violated:
            i = int(np.where(checked.violated, margins, np.inf).argmin())
            if margins[i] < self.worst_violation:
                self.worst_violation = float(margins[i])
                self.worst = (first_trial + i, dim, tuple(m[i].copy() for m in mats))

    def finish(self, seed: int, tol: Tolerance) -> TargetResult:
        worst_witness = None
        if self.worst is not None:
            trial, dim, inputs = self.worst
            worst_witness = _witness(self.entry, self.class_tag, dim, seed, trial, tol, inputs)
        if self.violated:
            min_margin = self.worst_violation
        elif math.isfinite(self.margin_floor):
            # Some trial was graded: every graded margin is finite.
            min_margin = self.margin_floor
        else:
            min_margin = None
        return TargetResult(
            ineq_id=self.entry.ineq_id,
            class_tag=self.class_tag,
            dims=self.dims,
            trials=self.trials,
            holds=self.trials - self.violated - self.hypothesis_violated,
            violated=self.violated,
            hypothesis_violated=self.hypothesis_violated,
            expected_to_hold=self.entry.expected_to_hold(self.class_tag),
            min_margin=min_margin,
            histogram=self.histogram,
            side_stats=self.side_stats,
            worst_witness=worst_witness,
        )


def _witness(
    entry: CatalogEntry, class_tag: str, dim: int, seed: int, trial: int, tol: Tolerance,
    inputs, checked: Checked | None = None,
) -> Witness:
    """The witness of ``inputs``, with the report replay() recomputes: that
    of ``checked`` when it graded ``inputs`` as a stack of one, else one
    rebuilt through that path.  Most searches hit at restart 0's first
    point, alone, where grading it again would add about a third to the
    search."""
    if checked is None or len(checked) > 1:
        checked = entry.run([m[None] for m in inputs], tol)
    return Witness(entry.ineq_id, class_tag, dim, seed, trial, tol, inputs, checked.report(0))


def _check_chunk(entry: CatalogEntry, first_trial: int, mats, tol: Tolerance) -> list:
    """Check one chunk of trials: its parts (first trial, operand stacks,
    Checked) in trial order.

    A checker rejects a whole stack when one operand is not Hermitian; the
    chunk is then checked trial by trial, and each rejected trial is a part
    (trial, None, None), a hypothesis violation, while the others are
    graded as usual.  A chunk that yields a non-finite number raises
    FloatingPointError, so that no count comes from a NaN or an infinity.
    """
    try:
        checked = entry.run(mats, tol)
    except NotHermitian:
        k = mats[0].shape[0]
        if k == 1:
            return [(first_trial, None, None)]
        return [
            part
            for i in range(k)
            for part in _check_chunk(entry, first_trial + i, [m[i : i + 1] for m in mats], tol)
        ]
    if not checked.finite():
        raise FloatingPointError("non-finite margins or residuals")
    return [(first_trial, mats, checked)]


def _grade_chunk(config: CampaignConfig, chunk) -> list:
    """Draw the inputs of ``chunk`` (entry, class, plan, dim, first trial,
    trials) and check them."""
    entry, class_tag, plan, dim, first, k = chunk
    stream = randgen.prng_stream(config.seed, np.arange(first, first + k, dtype=np.uint64))
    mats = _build_inputs(entry, class_tag, plan, dim, stream, config.scale)
    return _check_chunk(entry, first, mats, config.tol)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_thread_query():
    """The loaded OpenBLAS's own thread-count function; None where no
    OpenBLAS shows in the process's memory map."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn
    return None


def _blas_threads() -> int | None:
    """Threads numpy's BLAS runs; None where it cannot be asked."""
    query = _openblas_thread_query()
    return None if query is None else int(query())


def _shared_chunks(order: list) -> list[bool]:
    """Which chunks the worker may grade.  None on one CPU.  With more,
    the chunks of at least THREAD_ELEMENTS entries, and unless BLAS runs
    one thread, only those whose matrices are at most THREADED_BLAS_DIM
    square."""
    if _usable_cpus() < 2:
        return [False] * len(order)
    max_dim = MAX_DIM if _blas_threads() == 1 else THREADED_BLAS_DIM
    return [k * dim * dim >= THREAD_ELEMENTS and dim <= max_dim for *_, dim, _, k in order]


def _graded(chunks: list, grade, shared: list[bool]):
    """Yield ``grade(chunk)`` for each chunk in order; what grading a chunk
    raised is raised at that chunk's turn.

    Chunks marked ``shared`` up to ``_AHEAD`` past the one whose turn it
    is are queued for one worker thread.  At its turn the caller grades a
    chunk the worker has not begun, and while the worker grades it, grades
    the later queued chunks the worker has not begun.  Close the generator
    to stop the worker early; it has ended when the generator has.
    """
    if not any(shared):
        for chunk in chunks:
            yield grade(chunk)
        return
    # Imported here, as only such campaigns use it: it loads logging, which
    # would add about 6 ms to the start-up of every command.
    from concurrent.futures import Future, ThreadPoolExecutor

    def inline(chunk) -> Future:
        """A finished future holding what ``grade(chunk)`` returned or raised."""
        future = Future()
        try:
            future.set_result(grade(chunk))
        except Exception as exc:
            future.set_exception(exc)
        return future

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="svineq-grader")
    queued: dict[int, Future] = {}
    try:
        for i, chunk in enumerate(chunks):
            for j in range(i, min(i + _AHEAD + 1, len(chunks))):
                if shared[j] and j not in queued:
                    queued[j] = pool.submit(grade, chunks[j])
            future = queued.pop(i, None)
            if future is None or future.cancel():
                yield grade(chunk)
                continue
            for j, later in queued.items():
                if future.done():
                    break
                if later.cancel():
                    queued[j] = inline(chunks[j])
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run every target of ``config`` and aggregate margins and verdicts.

    Raises ConfigInvalid when a chunk cannot be graded at the configured
    scale and tolerance: the eigensolver does not converge or a number
    overflows.
    """
    targets = []
    trial = 0
    for entry, class_tag, plan, dims in _plan(config):
        chunks = []
        for dim in dims:
            size = max(1, CHUNK_ELEMENTS // (dim * dim))
            for start in range(0, config.trials_per_dim, size):
                k = min(size, config.trials_per_dim - start)
                chunks.append((entry, class_tag, plan, dim, trial + start, k))
            trial += config.trials_per_dim
        targets.append((_TargetAggregator(entry, class_tag, dims), chunks))
    order = [chunk for _, chunks in targets for chunk in chunks]
    grade = functools.partial(_grade_chunk, config)
    results = []
    with contextlib.closing(_graded(order, grade, _shared_chunks(order))) as graded:
        for agg, chunks in targets:
            for entry, class_tag, _, dim, _, _ in chunks:
                try:
                    parts = next(graded)
                except (NoConvergence, FloatingPointError, ToleranceOverflow) as exc:
                    raise ConfigInvalid(
                        f"{entry.ineq_id} on {class_tag} at dimension {dim} and scale"
                        f" {config.scale!r} cannot be graded: {exc}"
                    ) from None
                agg.fold(dim, parts)
            results.append(agg.finish(config.seed, config.tol))
    return CampaignResult(config=config, targets=tuple(results))


# --- counterexample search ---------------------------------------------------

_DEFAULT_SEARCH_DIMS = {
    "bk-1.1-hermitian-B": (2, 3),
    "thm-2.1-nonnormal": (2, 3),
    "loewner-cartesian-general": (2,),
}

SEARCH_TARGET_IDS = tuple(_DEFAULT_SEARCH_DIMS)


# Greedy perturbation steps each restart of a search runs at most.
PERTURB_STEPS = 64


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
            object.__setattr__(self, "dims", _validate_dims(self.dims, "search dims"))


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


# Greedy steps a restart takes per stacked call: the call scores the
# binary tree of the 2**depth - 1 candidates those steps could reach.
# A deeper tree makes fewer calls but scores more candidates the walk
# does not take, which stops paying once eigensolver work outweighs the
# per-call overhead.  So the depth is the largest, up to _SEARCH_DEPTH,
# whose tree holds at most _TREE_ELEMENTS matrix entries: 4 for n <= 4,
# 3 for n = 5, 6, 2 for n = 7..10 and 1 (no tree) from n = 11 on.  Timed
# on a 2-core x86-64 box with one BLAS thread, depths 1..4 at n = 2..16
# for all three targets.
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
    restart's parameters, 1 + j for the candidate of node j) and how many
    times its sigma was halved.
    """
    source, halvings = [0], [0]
    for k in range(1, 2**depth - 1):
        parent = (k - 1) // 2
        accepted = k % 2 == 1
        source.append(1 + parent if accepted else source[parent])
        halvings.append(halvings[parent] + (0 if accepted else 1))
    return np.array(source), np.array(halvings)


def _search_restarts(
    entry: CatalogEntry, seed: int, restarts: list[int], n: int, steps: int
) -> tuple[int, tuple[np.ndarray, ...], Checked, int] | None:
    """Run ``restarts`` (ascending, all of dimension ``n``) in lock step.

    Returns the lowest qualifying restart as (restart, mats, checked, i):
    row ``i`` of the operand stacks ``mats`` is its witness, and
    ``checked`` scored them.  None if no restart qualifies.

    Each restart follows the path it takes on its own: a round draws the
    next ``depth`` perturbations of every active restart, scores every
    candidate they could reach as one stack, and walks each restart's
    tree by the greedy rule.  A restart stops at its witness, and
    restarts above the lowest witness so far are dropped.
    """
    length = 2 * entry.arity * n * n

    def score(params: np.ndarray):
        mats = _search_build(entry, params, n)
        checked = entry.run(mats, DEFAULT_TOL)
        return mats, checked, checked.min_margin < -10.0 * checked.tol_used

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
        depth = min(_search_depth(n), steps - taken)
        taken += depth
        # Step t perturbs by the t-th normals(length) draw, as a restart
        # alone draws; halving sigma is exact, so node sigmas are too.
        z = np.stack([stream.normals(length) for _ in range(depth)], axis=-2)[active]
        source, halvings = _search_tree(depth)
        width = len(source)
        node_sigma = sigma[active][:, None, None] * 0.5 ** halvings[:, None]
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


def search_counterexample(target: SearchTarget, seed: int) -> Witness | None:
    """Search for a robust violation of ``target``; None means exhausted.

    Restart ``r`` draws from ``prng_stream(seed, r)`` and cycles through
    the target's dimensions, so the search is a pure function of
    (target, seed).  A restart scores its initial point, then takes
    ``_search_depth(n)`` greedy steps per stacked call.  Restart 0 runs
    alone.  Later restarts run in lock-step blocks of 1, 2, 4, ...: a block
    holds as many restarts as have failed so far, capped so that their
    trees together hold at most ``CHUNK_ELEMENTS`` matrix entries at the
    largest n, and it is checked as one stack per dimension.  The lowest
    qualifying restart of a block is the witness the restarts give when run
    one after the other.  Only the witness gets a full report.
    """
    if not randgen.is_integer(seed) or not 0 <= seed < 2**64:
        raise ConfigInvalid(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    dims = target.dims or _DEFAULT_SEARCH_DIMS[target.target_id]
    entry = catalog_entry(target.target_id)
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
