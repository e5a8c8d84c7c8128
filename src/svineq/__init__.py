"""Verification toolkit for singular-value and operator-order inequalities
of dense complex matrices.

The package is organised bottom-up:

- ``numkernel``: matrix primitives over (k, n, n) stacks (functions of
  Hermitian matrices, operator absolute values by SVD, singular spectra
  by SVD or, for Hermitian operands, by eigendecomposition, direct-sum
  spectra, the positive-semidefinite order check, block assembly).
- ``decomp``: Hermitian/skew splitting and the positive part of the
  Jordan splitting.
- ``inequalities``: the checker catalog, which grades every hypothesis;
  each checker returns a report with per-index margins and a verdict.
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
