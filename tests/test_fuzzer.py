"""Campaign runner, histogram aggregation, witness replay, and search."""

import dataclasses

import numpy as np
import pytest

from svineq.fuzzer import (
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
from svineq.inequalities import Verdict, catalog_entry, check
from svineq.numkernel import DEFAULT_TOL, Tolerance
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
@pytest.mark.parametrize("target", [("thm-2.7", "ginibre"), ("thm-2.8", "ginibre")])
def test_overflowing_campaign_is_config_invalid(target):
    # At scale 1e160 the kernels overflow: thm-2.7 yields NaN margins (they
    # used to reach the histogram as "cannot convert float NaN to integer"),
    # thm-2.8's eigensolver raises NoConvergence.
    config = small_config(targets=(target,), dims=(2,), trials_per_dim=3, scale=1e160)
    with pytest.raises(ConfigInvalid) as info:
        run_campaign(config)
    message = str(info.value)
    assert target[0] in message
    assert "dimension 2" in message
    assert "1e+160" in message


def test_non_hermitian_trial_in_a_chunk_is_rejected_alone():
    # The checker rejects the whole stack; the chunk is then checked trial
    # by trial, so only the non-Hermitian middle trial counts as a
    # hypothesis violation and the other two are graded as usual.
    entry = catalog_entry("thm-2.5-plus")
    good = [draw("hermitian", 2, seed=3, index=i)[0] for i in range(2)]
    stack = np.stack([good[0], mat([[0, 1], [0, 0]]), good[1]])
    agg = _TargetAggregator(entry, "hermitian", (2,))
    _check_chunk(agg, 0, 2, [stack], DEFAULT_TOL)
    t = agg.finish(0, DEFAULT_TOL)
    assert (t.trials, t.holds, t.hypothesis_violated) == (3, 2, 1)
    assert t.histogram.total == 2
    assert t.min_margin == min(check("thm-2.5-plus", [m]).min_margin for m in good)


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
