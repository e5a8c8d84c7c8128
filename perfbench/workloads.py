"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Every workload drives the program through ``svineq.cli.main`` in-process,
one operation at a time (a closed loop with one client).  ``op(i)`` runs
the i-th operation of a sequence that is a pure function of the workload
seed; ``check`` validates what the operation produced.  Checks run
outside the timed region.

Operations repeat their inputs: campaign calls cycle through
``CAMPAIGN_SEEDS`` seeds and verify calls through the input sets written
at set-up.  Each outcome carries the ``key`` of its input, and a run
counts an input once toward ``attempted`` and ``failed``; every repeat
must produce the same output byte for byte.  So a run's failure count is
a function of its seed, not of how many operations its time allowed.

Operations and their counts:

- campaign workloads: one ``svineq fuzz --ineq all`` call; it counts as
  the number of checked trials it runs.
- ``search_seeds``: one ``svineq search`` call; it counts as one search.
- ``verify_files``: one ``svineq verify`` call on files the benchmark
  wrote during set-up; it counts as one verify.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Every id that ``--ineq all`` expands to, with its fixed dimension if any.
CORE_IDS = (
    "scalar-1.6",
    "bk-1.1",
    "tao-1.2",
    "ak-1.3",
    "ak-1.4",
    "thm-2.1",
    "thm-2.4",
    "thm-2.5-plus",
    "thm-2.5-minus",
    "thm-2.7",
    "thm-2.8",
    "cor-2.9",
    "loewner-cartesian",
    "proof-facts-2.1",
)
FIXED_DIM = {"scalar-1.6": 1}

# Distinct campaign seeds per run.  Call i reruns seed i mod CAMPAIGN_SEEDS,
# so from the second cycle on every call is also a determinism check.
CAMPAIGN_SEEDS = 8

# Of the three search targets only loewner-cartesian-general runs.  The
# time of a first-witness search is set by how many restarts fail before
# the witness, and each failed restart of thm-2.1-nonnormal (0.04 s) or
# bk-1.1-hermitian-B (0.3 s per search on average) is long enough that
# the slowest searches of a run, and so op_ms_tail, move with the seed:
# a 1:7 thm-2.1/loewner mix spread 13% across five seeds on a 2-vCPU
# host.  A failed loewner restart costs the same 64 candidates every
# time, so its slow searches form a tight cluster that every run samples
# dozens of times.
SEARCH_TARGET = "loewner-cartesian-general"

VERIFY_DIMS = (2, 8, 64)

VERDICT_EXIT = {"holds": 0, "violated": 1, "hypothesis_violated": 2}


def derive_seed(seed: int, k: int) -> int:
    """The k-th program seed of a workload seed; distinct for k < 1000003."""
    return (seed * 1_000_003 + k) % 2**64


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``svineq`` in-process; returns (exit code, captured stdout)."""
    from svineq import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class Outcome:
    """What one operation produced, and what the checks made of it."""

    # Identity of the input; repeats of one key count once.
    key: tuple
    ops: int
    failed: int = 0
    # Messages of failed output checks; any entry makes the run incorrect.
    errors: list[str] = field(default_factory=list)
    digest: str = ""


class Workload:
    """Base: ``prepare`` writes inputs, ``op`` runs, ``check`` validates."""

    name = ""
    why = ""

    # Distinct inputs a timed run visits at least once.
    cycle = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def prepare(self) -> None:
        """Build inputs; part of set-up time."""

    def warmup(self) -> None:
        """One untimed operation so that lazy initialisation is set-up."""
        self.check(0, self.op(0))

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, raw) -> Outcome:
        raise NotImplementedError

    def trace_ops(self) -> int:
        """Fixed operation count of a traced run."""
        raise NotImplementedError

    def report_lines(self) -> list[str]:
        return []


class Campaign(Workload):
    cycle = CAMPAIGN_SEEDS

    def __init__(self, seed, workdir, tiny, dims: tuple[int, ...], trials: int):
        super().__init__(seed, workdir, tiny)
        self.dims = dims
        self.trials = 1 if tiny else trials
        self.out = workdir / "campaign.json"
        self.expected = self.trials * sum(
            1 if i in FIXED_DIM else len(dims) for i in CORE_IDS
        )
        self.first_digest: dict[int, str] = {}

    def campaign_seed(self, i: int) -> int:
        return derive_seed(self.seed, i % CAMPAIGN_SEEDS)

    def warmup(self):
        # One trial per target is enough to initialise every code path.
        argv = ["fuzz", "--ineq", "all", "--dims", ",".join(map(str, self.dims)),
                "--trials", "1", "--out", str(self.out)]
        run_cli(argv)

    def op(self, i):
        argv = [
            "fuzz", "--ineq", "all",
            "--dims", ",".join(map(str, self.dims)),
            "--trials", str(self.trials),
            "--seed", str(self.campaign_seed(i)),
            "--out", str(self.out),
        ]
        if self.out.exists():
            self.out.unlink()
        rc, _ = run_cli(argv)
        return rc, self.out.read_bytes() if self.out.exists() else b"{}"

    def check(self, i, raw):
        rc, data = raw
        seed = self.campaign_seed(i)
        res = Outcome(key=("campaign seed", seed), ops=self.expected,
                      digest=hashlib.sha256(data).hexdigest())
        results = json.loads(data).get("results", [])
        trials = sum(r["trials"] for r in results)
        unexpected = sum(r["violated"] for r in results if r["expected_to_hold"])
        if [r["id"] for r in results] != list(CORE_IDS):
            res.errors.append(f"seed {seed}: targets {[r['id'] for r in results]}")
        if trials != self.expected:
            res.errors.append(f"seed {seed}: {trials} trials, expected {self.expected}")
        if rc != (1 if unexpected else 0):
            res.errors.append(f"seed {seed}: exit code {rc} with {unexpected} unexpected")
        self.first_digest.setdefault(seed, res.digest)
        # A broken document fails every trial it stands for; otherwise
        # only the unexpected violations fail.
        res.failed = res.ops if res.errors else unexpected
        if unexpected:
            res.errors.append(f"seed {seed}: {unexpected} unexpected violation(s)")
        return res

    def trace_ops(self):
        return 2 if self.tiny else 4

    def report_lines(self):
        return [f"campaign sha256 seed={s} {d}" for s, d in self.first_digest.items()]


class CampaignSmall(Campaign):
    name = "campaign_small"
    why = "all 14 core targets at n=2,3,5,8: per-trial Python overhead outweighs LAPACK work"

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny, dims=(2, 3, 5, 8), trials=8)


class CampaignLarge(Campaign):
    name = "campaign_large"
    why = "the same targets at n=32,64 (blocks up to 128x128): kernel time dominates each trial"

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny, dims=(8,) if tiny else (32, 64), trials=2)


class SearchSeeds(Workload):
    name = "search_seeds"
    why = "first-witness loewner-cartesian-general searches, candidates scored one at a time"

    def op(self, i):
        # Without --out the witness document follows the summary line on
        # stdout, which keeps file system latency out of the timing.
        seed = derive_seed(self.seed, i)
        return run_cli(["search", "--target", SEARCH_TARGET, "--seed", str(seed)])

    def check(self, i, raw):
        from svineq.fuzzer import replay
        from svineq.serialize import witness_from_document

        rc, out = raw
        where = f"search seed {derive_seed(self.seed, i)}"
        res = Outcome(key=(where,), ops=1, digest=hashlib.sha256(out.encode()).hexdigest())
        if rc != 0:
            res.errors.append(f"{where}: exit code {rc} (4 means exhausted)")
        else:
            witness = witness_from_document(json.loads(out.split("\n", 1)[1]))
            report = witness.report
            if replay(witness) != report:
                res.errors.append(f"{where}: witness does not replay equal")
            if not report.min_margin < -10.0 * report.tol_used:
                res.errors.append(f"{where}: margin {report.min_margin} not below -10*tol")
        res.failed = 1 if res.errors else 0
        return res

    def trace_ops(self):
        return 16 if self.tiny else 400


# --- verify_files inputs -----------------------------------------------------


def _ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 2.0**-0.5


def _hermitian(rng, n):
    g = _ginibre(rng, n)
    return (g + g.conj().T) / 2.0


def _psd(rng, n):
    g = _ginibre(rng, n)
    p = g.conj().T @ g
    return (p + p.conj().T) / 2.0


def _unitary(rng, n):
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _with_spectrum(u, diag):
    return (u * diag) @ u.conj().T


def _complex_normals(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 2.0**-0.5


def _rank_deficient(rng, n, r):
    u = _ginibre(rng, n)[:, :r]
    v = _ginibre(rng, n)[:r, :]
    return u @ v


def verify_inputs(ineq_id: str, n: int, rng) -> tuple[np.ndarray, ...]:
    """One input set drawn from the class on which ``ineq_id`` must hold."""
    if ineq_id == "scalar-1.6":
        return tuple(np.array([[complex(x)]]) for x in rng.standard_normal(2))
    if ineq_id == "bk-1.1":
        return (_psd(rng, n), _psd(rng, n))
    if ineq_id in ("tao-1.2", "ak-1.3"):
        p = _psd(rng, 2 * n)
        return (p[:n, :n], p[:n, n:], p[n:, n:])
    if ineq_id == "ak-1.4":
        a = _hermitian(rng, n)
        w, v = np.linalg.eigh(a)
        b = _with_spectrum(v, np.abs(w)) + _psd(rng, n)
        return (a, (b + b.conj().T) / 2.0)
    if ineq_id in ("thm-2.1", "loewner-cartesian"):
        return (_with_spectrum(_unitary(rng, n), _complex_normals(rng, n)),)
    if ineq_id == "thm-2.4":
        d2 = rng.standard_normal(n)
        d1 = -d2 + np.abs(rng.standard_normal(n))
        return (_with_spectrum(_unitary(rng, n), d1 + 1j * d2),)
    if ineq_id in ("thm-2.5-plus", "thm-2.5-minus"):
        return (_hermitian(rng, n),)
    if ineq_id == "thm-2.7":
        return (_ginibre(rng, n),)
    if ineq_id == "thm-2.8":
        return (_ginibre(rng, n), _ginibre(rng, n))
    if ineq_id == "cor-2.9":
        u = _unitary(rng, n)
        return tuple(_with_spectrum(u, _complex_normals(rng, n)) for _ in range(2))
    if ineq_id == "proof-facts-2.1":
        a = _with_spectrum(_unitary(rng, n), _complex_normals(rng, n))
        a1 = (a + a.conj().T) / 2.0
        a2 = (a - a.conj().T) / 2j
        return ((a1 + a1.conj().T) / 2.0, (a2 + a2.conj().T) / 2.0)
    raise ValueError(f"no input class for {ineq_id!r}")


def matrix_text(m: np.ndarray) -> str:
    """The README's matrix file format: {"n": n, "entries": [[[re, im], ...]]}."""
    rows = [
        [[re, im] for re, im in zip(r_re, r_im)]
        for r_re, r_im in zip(m.real.tolist(), m.imag.tolist())
    ]
    return json.dumps({"n": int(m.shape[0]), "entries": rows})


class VerifyFiles(Workload):
    name = "verify_files"
    why = "svineq verify on JSON files at n=2,8,64 incl. rank-deficient U*V: parsing dominates"

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.sets: list[tuple[str, list[str]]] = []

    @property
    def cycle(self):
        return len(self.sets)

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        dims = (2, 8) if self.tiny else VERIFY_DIMS
        cases = []
        for ineq_id in CORE_IDS:
            for n in (FIXED_DIM[ineq_id],) if ineq_id in FIXED_DIM else dims:
                cases.append((ineq_id, verify_inputs(ineq_id, n, rng)))
                if ineq_id in ("thm-2.7", "thm-2.8"):
                    # Rank-deficient products: today's Gram-matrix kernel
                    # loses digits on these, so thm-2.7 can come out
                    # violated.  They stay in and count as failures.
                    for r in sorted({1, n // 2}):
                        mats = tuple(
                            _rank_deficient(rng, n, r) for _ in range(len(cases[-1][1]))
                        )
                        cases.append((ineq_id, mats))
        folder = self.workdir / "verify"
        folder.mkdir(parents=True, exist_ok=True)
        for k, (ineq_id, mats) in enumerate(cases):
            paths = []
            for j, m in enumerate(mats):
                path = folder / f"{k:03d}-{ineq_id}-{j}.json"
                path.write_text(matrix_text(m))
                paths.append(str(path))
            self.sets.append((ineq_id, paths))

    def op(self, i):
        ineq_id, paths = self.sets[i % len(self.sets)]
        return run_cli(["verify", ineq_id, *paths])

    def check(self, i, raw):
        rc, out = raw
        ineq_id, paths = self.sets[i % len(self.sets)]
        where = f"verify {ineq_id} {Path(paths[0]).name}"
        res = Outcome(key=(where,), ops=1, digest=hashlib.sha256(out.encode()).hexdigest())
        if out:
            verdict = json.loads(out)["report"]["verdict"]
        elif rc == VERDICT_EXIT["hypothesis_violated"]:
            verdict = "hypothesis_violated"  # structural rejection prints no report
        else:
            verdict = None
        if rc != VERDICT_EXIT.get(verdict):
            res.errors.append(f"{where}: exit code {rc} with verdict {verdict}")
        # Every input set comes from a class on which its statement holds.
        res.failed = 1 if res.errors or verdict == "violated" else 0
        return res

    def trace_ops(self):
        return len(self.sets) * (1 if self.tiny else 2)


WORKLOADS = {w.name: w for w in (CampaignSmall, CampaignLarge, SearchSeeds, VerifyFiles)}
