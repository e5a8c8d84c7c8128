"""Verification toolkit for singular-value and operator-order inequalities
of dense complex matrices.

The package is organised bottom-up:

- ``numkernel``: matrix primitives over (k, n, n) stacks (Hermitian
  eigendecomposition, operator absolute value, singular spectra, the
  positive-semidefinite order check, block assembly).
- ``decomp``: Hermitian/skew splitting, positive/negative part splitting,
  and graded Hermitian / PSD / normal class tests.
- ``inequalities``: the checker catalog; every checker returns a structured
  report with per-index margins and a three-way verdict.
- ``randgen``: counter-based deterministic random matrix generators.
- ``fuzzer``: seeded fuzzing campaigns over the catalog and randomised
  counterexample search with replayable witnesses.
- ``serialize``: strict JSON documents for reports, campaigns, witnesses
  and matrix files.
- ``fixtures``: the worked examples ex-2.2 and ex-2.3 with their
  documented claims, and their reproduction from the catalog reports.
- ``cli``: the ``svineq`` command line (verify / repro / fuzz / search).
"""

from .numkernel import Tolerance, DEFAULT_TOL
from .inequalities import check, catalog_ids, Verdict, InequalityReport
from .fuzzer import (
    CampaignConfig,
    SearchTarget,
    run_campaign,
    search_counterexample,
    replay,
)

__version__ = "0.1.0"

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "check",
    "catalog_ids",
    "Verdict",
    "InequalityReport",
    "CampaignConfig",
    "SearchTarget",
    "run_campaign",
    "search_counterexample",
    "replay",
    "__version__",
]
