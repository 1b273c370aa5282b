import math

import pytest

import rdelab.covercomb as covercomb
import rdelab.covers as covers
import rdelab.variational as variational
from rdelab import (
    cover_count,
    cycle_growth_rate,
    harness,
    maximal_multi_separated,
    min_subcover_count,
    product_cover,
    product_partitions_finer,
    range_join,
    validate,
    witness_measures,
    word_count,
)
from rdelab.base import plain_sum
from rdelab.harness import (
    CHECK_IDS,
    GenParams,
    Instance,
    SuiteConfig,
    gen_instance,
    run_suite,
)
from rdelab.covers import PositionedPartition
from rdelab.measures import MarkovMeasure
from rdelab.variational import HorizonGuardError

from conftest import alphabet2_bundle


def fresh_tops(cov, nmax):
    """Reference: P-averaged log minimal subcover counts of one fresh
    ``range_join`` per step."""
    weights = cov.bundle.base.weights
    return [
        plain_sum(
            w * math.log(min_subcover_count(range_join(cov, 0, k - 1), omega))
            for omega, w in enumerate(weights)
        )
        for k in range(1, nmax + 1)
    ]


def join_calls(monkeypatch, fn) -> int:
    """The ``join`` and ``range_join`` calls ``fn()`` makes, wherever the
    library binds them."""
    calls = []
    for name in ("join", "range_join"):
        real = getattr(covers, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(None)
            return _real(*args, **kwargs)

        for module in (covers, covercomb, variational, harness):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    try:
        fn()
    finally:
        monkeypatch.undo()
    return len(calls)


GM = [[1, 1], [1, 0]]
FULL = [[1, 1], [1, 1]]


class TestGeneration:
    def test_instances_are_valid(self):
        for seed in (1, 2, 77):
            inst = gen_instance(seed)
            assert validate(inst.bundle).ok
            for mu in inst.measures.values():
                from rdelab import invariance_residual

                assert invariance_residual(mu) <= 1e-12

    def test_same_seed_is_bit_identical(self):
        a = gen_instance(42)
        b = gen_instance(42)
        assert a.bundle.base.weights == b.bundle.base.weights
        assert a.bundle.base.theta == b.bundle.base.theta
        for w in range(a.bundle.base.omega_count):
            assert (a.bundle.adjacency[w] == b.bundle.adjacency[w]).all()
        for name in a.covers:
            assert a.covers[name].sections == b.covers[name].sections
        for name in a.measures:
            for w in range(a.bundle.base.omega_count):
                assert (
                    a.measures[name].transitions[w] == b.measures[name].transitions[w]
                ).all()

    def test_single_symbol_alphabet_degenerates(self):
        inst = gen_instance(5, GenParams(alphabet_max=1))
        assert inst.bundle.alphabet_size == 1
        assert cycle_growth_rate(inst.bundle).integrated == pytest.approx(0.0, abs=1e-12)
        for omega in range(inst.bundle.base.omega_count):
            assert word_count(inst.bundle, omega, 5) == 1

    def test_caps_are_respected(self):
        params = GenParams(omega_max=3, alphabet_max=2, window_max=1)
        for seed in range(6):
            inst = gen_instance(seed, params)
            assert inst.bundle.base.omega_count <= 3
            assert inst.bundle.alphabet_size <= 2
            for cov in inst.covers.values():
                assert cov.length <= 1


class TestSuite:
    def test_default_gate_passes(self):
        report = run_suite(SuiteConfig(seed=7, instances=4, draws=40))
        assert report.ok
        hard = [r for r in report.results if r.kind == "exact"]
        assert hard and all(r.failures == 0 for r in hard)

    def test_only_filter(self):
        report = run_suite(
            SuiteConfig(seed=7, instances=2, draws=10, only=("mass-shift",))
        )
        assert [r.check for r in report.results] == ["mass-shift"]

    def test_planted_invariance_fault_is_caught(self):
        inst = gen_instance(3)
        name = sorted(inst.measures)[0]
        mu = inst.measures[name]
        starts = list(mu.starts)
        bumped = starts[0].copy()
        bumped[0] = min(1.0, bumped[0] + 0.2)
        bumped /= bumped.sum()
        starts[0] = bumped
        broken = MarkovMeasure(
            bundle=mu.bundle,
            transitions=mu.transitions,
            starts=tuple(starts),
            check=False,
        )
        planted = Instance(
            seed=inst.seed,
            params=inst.params,
            bundle=inst.bundle,
            covers=inst.covers,
            measures={name: broken},
        )
        report = run_suite(
            SuiteConfig(seed=7, only=("measure-invariance",)),
            instances=[planted],
        )
        assert not report.ok
        (res,) = report.results
        assert res.failures >= 1
        assert res.failure_bundles[0]["measure"] == name
        assert res.failure_bundles[0]["residual"] > 1e-12

    @pytest.mark.parametrize(
        "error, failed",
        [
            (AssertionError("separated set below floor"), True),
            (HorizonGuardError("horizon over the cap"), False),
        ],
    )
    def test_witness_errors_never_pass(self, monkeypatch, error, failed):
        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(harness, "witness_measures", raising)
        report = run_suite(
            SuiteConfig(seed=7, instances=4, only=("witness-certificates",))
        )
        (res,) = report.results
        assert res.passes == 0
        if failed:
            # a broken construction invariant is a failure, never a pass
            assert res.failures >= 1 and res.skipped == 0 and not report.ok
            assert res.failure_bundles[0]["error"] == str(error)
        else:
            # a tripped guard is counted apart from passes and failures
            assert res.failures == 0 and res.skipped >= 1 and report.ok
            assert res.to_dict()["skipped"] == res.skipped

    def test_join_count_bound_builds_one_join_sequence_per_cover(self, monkeypatch):
        from rdelab.entropy import h_minus_report

        config = SuiteConfig(seed=7, only=("join-count-bound",))
        corpus = [gen_instance(seed) for seed in (1, 2)]
        calls = []
        real_join = covers.join

        def counting(*args, **kwargs):
            calls.append(None)
            return real_join(*args, **kwargs)

        monkeypatch.setattr(covers, "join", counting)
        (res,) = run_suite(config, instances=corpus).results
        monkeypatch.undo()
        n = config.nmax
        pairs = sum(len(inst.measures) * len(inst.covers) for inst in corpus)
        joined_covers = sum(
            not isinstance(cov, PositionedPartition)
            for inst in corpus
            for cov in inst.covers.values()
        )
        cover_pairs = sum(
            len(inst.measures)
            * sum(not isinstance(cov, PositionedPartition) for cov in inst.covers.values())
            for inst in corpus
        )
        assert joined_covers < sum(len(inst.covers) for inst in corpus)
        # N-1 joins per h_minus_report of a non-partition cover, where one
        # range_join per step would take N(N-1)/2 per pair; the complexities
        # build none (a cover's counts come from the bitmask walk, a
        # partition's entropies and counts from cell labels)
        assert len(calls) == cover_pairs * (n - 1)
        # the margins are those of one fresh range_join per step
        worst = min(
            top + harness.TOLERANCE - val * k
            for inst in corpus
            for mu in inst.measures.values()
            for cov in inst.covers.values()
            for (k, val), top in zip(
                h_minus_report(mu, cov, n).sequence, fresh_tops(cov, n)
            )
        )
        assert res.passes == pairs * n and res.failures == 0
        assert res.worst_margin == worst

    # joins built by the one-fiber and the four-fiber call: none, as the
    # counts come from the bitmask walk and the separated sets' and
    # entropies' joined cells from cell labels
    @pytest.mark.parametrize(
        "routine, joins",
        [
            ("cover_count", 0),
            ("maximal_multi_separated", 0),
            ("witness_measures", 0),
        ],
    )
    def test_each_count_builds_its_joins_once_for_all_fibers(
        self, routine, joins, monkeypatch
    ):
        def calls(bundle):
            u = product_cover(bundle, [[(0,), (1,)], [(1,)]])
            parts = list(product_partitions_finer(u))
            run = {
                "cover_count": lambda: cover_count(u, 4),
                "maximal_multi_separated": lambda: maximal_multi_separated(parts, u, 3),
                "witness_measures": lambda: witness_measures(u, 2),
            }[routine]
            return join_calls(monkeypatch, run)

        one = calls(alphabet2_bundle((0,), [FULL]))
        four = calls(alphabet2_bundle((1, 2, 3, 0), [FULL, GM, FULL, GM]))
        assert one == four == joins

    def test_config_caps_validated(self):
        with pytest.raises(ValueError, match="caps"):
            SuiteConfig(params=GenParams(omega_max=9))

    def test_check_catalog_exposed(self):
        assert "separated-bound" in CHECK_IDS
        assert "witness-certificates" in CHECK_IDS

    def test_unknown_check_ids_rejected(self):
        with pytest.raises(ValueError) as err:
            SuiteConfig(only=("mass-shift", "nonexistent", "also-not"))
        text = str(err.value)
        assert text.startswith("unknown check ids 'nonexistent', 'also-not' (valid: ")
        assert all(c in text for c in CHECK_IDS)
        assert "'mass-shift'" not in text
