import glob
import itertools
import math
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import rdelab.base as base_module
import rdelab.covercomb as covercomb
import rdelab.forked as forked
import rdelab.variational as variational
from rdelab import (
    BundleError,
    MarkovMeasure,
    MeasureError,
    PowerIterationError,
    ProbBase,
    SymbolicBundle,
    cover_conditional_entropy,
    cover_count,
    cycle_growth_rate,
    h_minus_report,
    invariance_residual,
    markov_to_word,
    maximize_invariant_entropy,
    parry_measure,
    partition_conditional_entropy,
    presets,
    product_cover,
    pullback,
    range_join,
    stationary_starts,
    topological_cover_entropy,
    witness_measures,
    zero_cylinders,
)
from rdelab.base import admissible_tuples
from rdelab.cli import main
from rdelab.covercomb import maximal_multi_separated, min_subcover_count
from rdelab.covers import CoverError, join_sequence, product_partitions_finer
from rdelab.entropy import VALUE_TOL, EnumerationGuardError, _chain_rule_rate
from rdelab.guards import GUARDS
from rdelab.harness import gen_instance
from rdelab.instances import canonical_json, load_instance
from rdelab.measures import NORM_TOL
from rdelab.variational import HorizonGuardError

from conftest import alphabet2_bundle, diagonal_partition
from test_entropy import hexes, reference_separation_lhs

LN2 = math.log(2)
LN3 = math.log(3)


class TestWitnessConstruction:
    def test_one_step_on_golden_mean(self, gm):
        separated, nu, mu, rep = witness_measures(zero_cylinders(gm), 1)
        # a single refinement (the partition itself); every pulled coordinate
        # word is its own atom
        assert rep.refinement_count == 1
        (counts,) = cover_count(pullback(zero_cylinders(gm), 1), 1)
        assert tuple(len(separated[omega]) for omega in range(2)) == counts
        assert rep.all_ok

    def test_two_step_worked_example(self, gm):
        separated, nu, mu, rep = witness_measures(zero_cylinders(gm), 2)
        assert rep.separated_sizes == (12, 9)
        assert rep.pulled_counts == (12, 9)
        assert rep.full_counts == (36, 27)
        assert rep.horizon == 8 and rep.common_horizon == 3
        assert rep.all_ok
        # the empirical measure is fiberwise uniform over the separated sets
        for omega in range(2):
            core = {w[2:6] for w in nu.weights[omega]}
            assert core == set(separated[omega])
        # averaged-check right-hand sides are frozen from the counting chain
        rhs = {
            (c.refinement, c.block): c.rhs for c in rep.averaged_checks
        }
        logdet = 0.5 * (math.log(36 // 8) + math.log(27 // 8))
        assert rhs[(0, 1)] == pytest.approx((1 / 6) * (logdet - LN2), abs=1e-12)
        assert rhs[(0, 2)] == pytest.approx((2 / 6) * (logdet - 2 * LN2), abs=1e-12)

    @pytest.mark.parametrize("partition", [False, True], ids=["cover", "partition"])
    def test_pulled_counts_are_the_pulled_cover_counts(self, partition):
        # four fibers on one theta-cycle whose counts differ fiber by fiber,
        # so a count read at the wrong fiber shows
        bundle = alphabet2_bundle((1, 2, 3, 0), [FULL, GM, GM, FULL])
        if partition:
            elements = [[(0, 0), (0, 1)], [(1, 0)], [(1, 1)]]
        else:
            elements = [[(0, 0)], [(0, 1), (1, 0)], [(0, 1), (1, 1)]]
        cover = product_cover(bundle, elements, partition=partition)
        moved = 0
        for n in (1, 2):
            *_, rep = witness_measures(cover, n)
            assert rep.pulled_counts == cover_count(pullback(cover, n), n * n)[-1]
            moved += rep.pulled_counts != cover_count(cover, n * n)[-1]
        assert moved == 2

    def test_averaged_measure_entropy_recomputed(self, gm):
        _, _, mu, rep = witness_measures(zero_cylinders(gm), 2)
        for check in rep.averaged_checks:
            joined = range_join(zero_cylinders(gm), 0, check.block - 1)
            again = partition_conditional_entropy(mu, joined)
            assert again == pytest.approx(check.lhs, abs=1e-12)
            assert again >= check.rhs - 1e-9

    def test_average_matches_direct_summation(self, gm):
        # rebuild the skew-product average by hand: push the empirical
        # measure i times, restrict, and accumulate dictionary weights
        _, nu, mu, rep = witness_measures(zero_cylinders(gm), 2)
        span = 6
        horizon = rep.common_horizon
        from rdelab import pushforward as push, restrict

        acc = [dict(), dict()]
        current = nu
        for i in range(span):
            short = restrict(current, horizon)
            for omega in range(2):
                for w, x in short.weights[omega].items():
                    acc[omega][w] = acc[omega].get(w, 0.0) + x / span
            if i < span - 1:
                current = push(current)
        for omega in range(2):
            keys = set(acc[omega]) | set(mu.weights[omega])
            for w in keys:
                assert mu.weight(omega, w) == pytest.approx(
                    acc[omega].get(w, 0.0), abs=1e-12
                )

    def test_two_fixed_points_support(self, id2):
        separated, nu, mu, rep = witness_measures(zero_cylinders(id2), 2)
        assert all(size <= 2 for size in rep.separated_sizes)
        assert mu.support_size(0) == 2
        assert set(mu.weights[0]) == {(0,) * 3, (1,) * 3}
        assert rep.all_ok

    def test_wider_window_cover(self, gm):
        from rdelab import full_word_partition

        pairs = full_word_partition(gm, 0, 2)
        _, _, _, rep = witness_measures(pairs, 1)
        # one-step pull lands on the swapped fiber's pair counts
        assert rep.separated_sizes == (3, 4)
        assert rep.all_ok
        _, _, _, rep2 = witness_measures(pairs, 2)
        assert rep2.horizon == 9 and rep2.all_ok

    def test_overlapping_wide_cover(self, gm):
        overlap = product_cover(
            gm, [[(0, 0), (0, 1), (1, 0)], [(0, 1), (1, 1)], [(1, 1), (1, 0)]]
        )
        _, _, _, rep = witness_measures(overlap, 2)
        assert rep.refinement_count == 2
        assert rep.all_ok
        for omega in (0, 1):
            assert rep.separated_sizes[omega] >= rep.pulled_counts[omega] // 2

    def test_product_form_required(self, gm):
        mixed = pullback(zero_cylinders(gm), 1)
        with pytest.raises(CoverError, match="anchored"):
            witness_measures(mixed, 1)

    def test_horizon_guard(self, gm):
        with pytest.raises(HorizonGuardError):
            witness_measures(zero_cylinders(gm), 5, horizon_cap=24)


GM = [[1, 1], [1, 0]]
FULL = [[1, 1], [1, 1]]
SEARCH_BUNDLES = {
    "golden-mean": alphabet2_bundle((0,), [GM]),
    "full-2-shift": presets.full_shift(2),
    "three-fixed-points": alphabet2_bundle((0, 1, 2), [GM, FULL, [[0, 1], [1, 1]]]),
    "alternating-golden-mean": presets.alternating_golden_mean(),
    "two-cycle-and-fixed-point": alphabet2_bundle((1, 0, 2), [FULL, GM, [[1, 0], [0, 1]]]),
}
# one fiber on three symbols: c is transient (it may stay or leave, and no
# other symbol enters it), a and b form a golden mean
TRANSIENT = SymbolicBundle(
    base=ProbBase(weights=(1.0,), theta=(0,)),
    alphabet=("a", "b", "c"),
    adjacency=(np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=np.int8),),
)


class TestMaximizeInvariantEntropy:
    def test_full_shift_reaches_log_two(self, full2):
        res = maximize_invariant_entropy(zero_cylinders(full2), 300, 0)
        assert res.value >= LN2 - 0.02
        assert res.reference == pytest.approx(LN2, abs=1e-12)

    def test_two_fixed_points_is_flat(self, id2):
        res = maximize_invariant_entropy(zero_cylinders(id2), 50, 0)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    def test_golden_mean_attains_the_spectral_rate(self, gm):
        res = maximize_invariant_entropy(zero_cylinders(gm), 800, 0)
        assert res.value == pytest.approx(0.5 * LN3, abs=1e-12)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(SEARCH_BUNDLES) + ["transient-state"])
    def test_chain_rule_targets_get_the_parry_family(self, name):
        bundle = SEARCH_BUNDLES.get(name, TRANSIENT)
        res = maximize_invariant_entropy(zero_cylinders(bundle), 400, 5)
        parry = parry_measure(bundle)
        assert res.evaluations == 1
        assert abs(res.value - cycle_growth_rate(bundle).integrated) <= VALUE_TOL
        assert res.value == _chain_rule_rate(parry)
        for got, want in zip(
            res.measure.transitions + res.measure.starts, parry.transitions + parry.starts
        ):
            assert got.tobytes() == want.tobytes()
        assert res.reference == topological_cover_entropy(zero_cylinders(bundle), 8).exact_rate

    def test_a_transient_symbol_gets_no_start_mass(self):
        # the search this replaced climbed on rounding noise here: proposals
        # that moved only row c, whose solved start mass was about 1e-12
        res = maximize_invariant_entropy(zero_cylinders(TRANSIENT), 400, 0)
        assert res.value == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=VALUE_TOL)
        assert res.measure.starts[0][2] == 0.0

    def test_deterministic_given_seed(self, gm, monkeypatch):
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        a = maximize_invariant_entropy(diagonal_partition(gm), 120, 3)
        b = maximize_invariant_entropy(diagonal_partition(gm), 120, 3)
        assert a.evaluations == 120
        assert a.value == b.value
        for omega in range(2):
            assert (a.measure.transitions[omega] == b.measure.transitions[omega]).all()

    def test_cover_target_uses_certified_bound(self, gm, monkeypatch):
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        overlap = product_cover(gm, [[(0,), (1,)], [(1,)]])
        res = maximize_invariant_entropy(overlap, 60, 1)
        # one element is the whole space, so every refinement can collapse
        # and both sides of the gap vanish
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.reference == pytest.approx(0.0, abs=1e-12)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    def test_a_failing_proposal_check_still_raises(self, gm, monkeypatch):
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        monkeypatch.setattr(
            variational, "_project_simplex", lambda v: [float("nan")] * len(v)
        )
        with pytest.raises(MeasureError, match="rows must sum to 1"):
            maximize_invariant_entropy(diagonal_partition(gm), 120, 0)


class TestMaximizeReusesUnchangedCycles:
    @pytest.mark.parametrize("name", sorted(SEARCH_BUNDLES))
    def test_same_report_as_solving_every_cycle_afresh(self, name, monkeypatch):
        bundle = SEARCH_BUNDLES[name]
        target = diagonal_partition(bundle)
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        reused = maximize_invariant_entropy(target, 240, 5)

        def fresh(bundle, transitions, previous=None):
            return stationary_starts(bundle, transitions)

        monkeypatch.setattr(variational, "stationary_starts", fresh)
        afresh = maximize_invariant_entropy(target, 240, 5)
        assert reused.evaluations == 240
        assert reused.to_dict() == afresh.to_dict()
        assert reused.measure.flags == afresh.measure.flags


def _climb_target(name):
    """A target ``maximize`` hill-climbs on: the diagonal partition of a
    named bundle, or the ``overlap`` cover of the alternating golden mean."""
    if name == "overlap":
        return product_cover(presets.alternating_golden_mean(), [[(0,), (1,)], [(1,)]])
    return diagonal_partition(SEARCH_BUNDLES.get(name, TRANSIENT))


CLIMB_NAMES = sorted(SEARCH_BUNDLES) + ["transient-state"]


class TestHillClimb:
    """What the hill climb hands back, on the targets it still runs on."""

    @pytest.mark.parametrize("name", CLIMB_NAMES + ["overlap"])
    def test_value_is_the_score_of_its_measure(self, name, monkeypatch):
        target = _climb_target(name)
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        res = maximize_invariant_entropy(target, 120, 5)
        nu = markov_to_word(res.measure, target.stop + 2)
        again = min(
            cover_conditional_entropy(nu, joined) / k
            for k, joined in enumerate(join_sequence(target, 3), start=1)
        )
        assert res.value == again
        assert res.gap == res.reference - res.value

    @pytest.mark.parametrize("name", CLIMB_NAMES + ["overlap"])
    def test_its_measure_passes_the_checking_constructor(self, name, monkeypatch):
        # the best measure is adopted from a restart's arrays unchecked
        target = _climb_target(name)
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        mu = maximize_invariant_entropy(target, 120, 5).measure
        again = MarkovMeasure(mu.bundle, mu.transitions, mu.starts, mu.flags)
        assert invariance_residual(again) <= NORM_TOL
        assert again.bundle is target.bundle

    @pytest.mark.parametrize("name", CLIMB_NAMES)
    def test_never_beats_the_parry_family_on_a_chain_rule_target(self, name, monkeypatch):
        # climbed as if it pinned no coordinate; the chain-rule rate of what
        # it finds stays under the family ``maximize`` answers with there
        bundle = SEARCH_BUNDLES.get(name, TRANSIENT)
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        mu, _, evaluations = variational._hill_climb(zero_cylinders(bundle), 120, 5)
        assert evaluations == 120
        assert _chain_rule_rate(mu) <= _chain_rule_rate(parry_measure(bundle)) + VALUE_TOL

    def test_value_is_an_upper_bound_so_the_gap_can_be_negative(self):
        # the value is the returned measure's certified upper bound at step
        # SCORE_NMAX, the reference the topological one at REFERENCE_NMAX:
        # on the one-fiber golden mean the first lies above the second
        target = diagonal_partition(SEARCH_BUNDLES["golden-mean"])
        res = maximize_invariant_entropy(target, 400, 0)
        bound = h_minus_report(res.measure, target, variational.SCORE_NMAX)
        assert res.value == bound.certified_upper
        assert res.gap == pytest.approx(-0.0474, abs=5e-5)


def _search(target, budget, seed, cpus, monkeypatch):
    """The search with ``cpus`` CPUs available to it."""
    with monkeypatch.context() as m:
        m.setattr(forked, "_cpu_count", lambda: cpus)
        return maximize_invariant_entropy(target, budget, seed)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRestartsInProcesses:
    """Restarts spread over forked children give the serial search's result
    (the pool itself is tested in ``test_forked``)."""

    @pytest.mark.parametrize("budget", [120, 400])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", sorted(SEARCH_BUNDLES) + ["overlap"])
    def test_same_report_as_one_process(self, name, seed, budget, monkeypatch):
        if name == "overlap":
            bundle = presets.alternating_golden_mean()
            target = product_cover(bundle, [[(0,), (1,)], [(1,)]])
        else:
            bundle = SEARCH_BUNDLES[name]
            target = diagonal_partition(bundle)
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        one = _search(target, budget, seed, 1, monkeypatch)
        four = _search(target, budget, seed, 4, monkeypatch)
        assert canonical_json(four.to_dict()) == canonical_json(one.to_dict())
        assert four.measure.flags == one.measure.flags
        assert four.measure.bundle is bundle
        if name == "overlap":
            # every measure scores 0, so the tie goes to restart 0's
            # uniform start, which no proposal beats
            assert [q.tolist() for q in four.measure.transitions] == [
                [[0.5, 0.5], [0.5, 0.5]],
                [[0.5, 0.5], [1.0, 0.0]],
            ]
        for a in four.measure.transitions + four.measure.starts:
            assert not a.flags.writeable
        _assert_no_child_left()

    def test_cli_exits_4_on_a_child_stall(self, monkeypatch):
        parent = os.getpid()
        waited = []

        def solve(bundle, transitions, previous=None):
            """Stalls in a child; the first solve here waits until a child
            has taken a restart."""
            if os.getpid() != parent:
                raise PowerIterationError("stalled in a child", 0.5)
            if not waited:
                waited.append(True)
                time.sleep(0.5)
            return stationary_starts(bundle, transitions, previous=previous)

        monkeypatch.setattr(variational, "stationary_starts", solve)
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
        res = CliRunner().invoke(
            main,
            ["maximize", "demos/instances/alternating_golden_mean.json", "--cover",
             "overlap", "--budget", "400"],
        )
        assert res.exit_code == 4
        assert "guard exceeded: stalled in a child (residual=5.000e-01)" in res.output
        _assert_no_child_left()

    @pytest.mark.skipif(
        forked._cpu_count() < 2 or shutil.which("ps") is None,
        reason="needs two CPUs to fork a restart, and ps to see it",
    )
    def test_an_interrupt_stops_the_children_quietly(self):
        """A child ignores Ctrl-C, and Ctrl-C during a forked search prints
        what it prints without one and leaves no process behind."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(variational.__file__))]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", "from rdelab.cli import main; main()",
             "maximize", "demos/instances/alternating_golden_mean.json",
             "--cover", "overlap", "--budget", "100000"],
            env=env, start_new_session=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

        def group():
            ps = ["ps", "-o", "pid=", "-g", str(proc.pid)]
            return subprocess.run(ps, capture_output=True, text=True).stdout.split()

        try:
            deadline = time.monotonic() + 20
            while len(group()) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.2)  # let the child start ignoring interrupts
            children = [int(pid) for pid in group() if int(pid) != proc.pid]
            for child in children:
                os.kill(child, signal.SIGINT)
            time.sleep(0.2)
            assert len(group()) == 1 + len(children)  # the children ignored it
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
        assert proc.returncode == 1
        assert err == "\nAborted!\n"
        assert group() == []


class TestErrorsSurvivePickling:
    """A forked restart sends its error to the parent pickled."""

    @pytest.mark.parametrize(
        "error",
        [
            cls("stalled", 1.0) if cls is PowerIterationError
            else cls("too many", 0.25, 12) if cls is EnumerationGuardError
            else cls("too big")
            for cls in GUARDS + (MeasureError, BundleError, CoverError)
        ]
        + [EnumerationGuardError("too many")],
        ids=lambda e: type(e).__name__,
    )
    def test_round_trip(self, error):
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert back.args == error.args
        assert back.__dict__ == error.__dict__


def reference_multi_separated(partitions, cover, n):
    """:func:`maximal_multi_separated`'s sets and floor counts from built
    joins, the loop it ran before it read cells from labels: the sets, and
    per fiber the minimal subcover count of the built ``n``-step join of
    ``cover``."""
    base = cover.bundle.base
    joined_parts = [range_join(p, 0, n - 1) for p in partitions]
    joined_cover = range_join(cover, 0, n - 1)
    hs = min(j.start for j in joined_parts + [joined_cover])
    he = max(j.stop for j in joined_parts + [joined_cover])
    out = []
    for omega in range(base.omega_count):
        atom_of = [j.cell_of(omega, (hs, he)) for j in joined_parts]
        used = [set() for _ in joined_parts]
        chosen = []
        for w in admissible_tuples(cover.bundle, omega, hs, he - hs):
            atoms = [atom_of[l][w] for l in range(len(joined_parts))]
            if any(a in used[l] for l, a in enumerate(atoms)):
                continue
            chosen.append(w)
            for l, a in enumerate(atoms):
                used[l].add(a)
        out.append(tuple(chosen))
    counts = tuple(min_subcover_count(joined_cover, w) for w in range(base.omega_count))
    return tuple(out), counts


def reference_averaged_lhs(cover, n, mu):
    """The ``lhs`` of each averaged check of ``witness_measures(cover, n)``,
    whose averaged measure is ``mu``, in report order, from built joins."""
    refinements = list(product_partitions_finer(cover))[:n]
    return [
        partition_conditional_entropy(mu, joined)
        for r in refinements
        for joined in join_sequence(r, n)
    ]


def one_fiber_golden_mean():
    return alphabet2_bundle((0,), [[[1, 1], [1, 0]]])


def witness_cases():
    """Product covers anchored at 0 of the valid demos and of
    ``gen_instance`` seeds 0..59, each with n = 1 and 2, then the one-fiber
    golden mean's zero cylinders and overlap cover at n = 1, 2 and 3, and the
    zero cylinders of two fixed points at n = 3, where theta^n fixes every
    fiber."""
    covers = []
    for path in sorted(glob.glob("demos/instances/*.json")):
        if "broken" not in path:
            covers += [c for _, c in sorted(load_instance(path).covers.items())]
    for seed in range(60):
        covers += [c for _, c in sorted(gen_instance(seed).covers.items())]
    for cov in covers:
        if cov.product_form and cov.start == 0:
            for n in (1, 2):
                yield cov, n
    gm1 = one_fiber_golden_mean()
    for cov in (zero_cylinders(gm1), product_cover(gm1, [[(0,), (1,)], [(1,)]])):
        for n in (1, 2, 3):
            yield cov, n
    yield zero_cylinders(alphabet2_bundle((0, 1), [FULL, GM])), 3


class TestWitnessReadsLabels:
    """The witness and the separated sets build no join and keep the sets,
    entropies and floors of the built joins."""

    def test_witness_equals_the_built_joins(self):
        checked = 0
        for cov, n in witness_cases():
            try:
                separated, nu, mu, report = witness_measures(cov, n)
            except GUARDS:
                continue
            refinements = list(product_partitions_finer(cov))[:n]
            sets, counts = reference_multi_separated(
                [pullback(r, n) for r in refinements], pullback(cov, n), n * n
            )
            assert tuple(separated[w] for w in sorted(separated)) == sets
            assert report.separated_sizes == tuple(map(len, sets))
            assert report.pulled_counts == counts
            assert hexes(c.lhs for c in report.separation_checks) == hexes(
                reference_separation_lhs(cov, n, nu)
            )
            assert hexes(c.lhs for c in report.averaged_checks) == hexes(
                reference_averaged_lhs(cov, n, mu)
            )
            checked += 1
        assert checked >= 400

    def test_separated_sets_equal_the_built_joins(self):
        checked = 0
        for cov, n in witness_cases():
            parts = list(itertools.islice(iter(product_partitions_finer(cov)), 2))
            try:
                sets, counts = reference_multi_separated(parts, cov, n)
            except GUARDS:
                continue
            assert maximal_multi_separated(parts, cov, n) == sets
            # the floor the assert reads
            assert cover_count(cov, n)[n - 1] == counts
            checked += 1
        assert checked >= 400

    def test_word_cap_names_the_unpulled_window(self, monkeypatch):
        # the separated sets' labels list the unpulled joined windows, so a
        # word cap trips on the window from coordinate 0 (fiber w0, 12 words
        # on 4 coordinates), where a pulled-back join listed [2, 6)
        monkeypatch.setattr(base_module, "WORD_CAP", 10)
        with pytest.raises(base_module.WordListSizeError) as err:
            witness_measures(zero_cylinders(presets.alternating_golden_mean()), 2)
        assert str(err.value) == "window [0, 4) of fiber w0 has 12 admissible words (cap 10)"

    def test_the_floor_assert_fires_on_counts_patched_upward(self, monkeypatch):
        gm1 = one_fiber_golden_mean()
        cov = product_cover(gm1, [[(0,), (1,)], [(1,)]])
        parts = list(product_partitions_finer(cov))
        (chosen,) = maximal_multi_separated(parts, cov, 3)
        # only the step-3 counts move, and their floor is then at least
        # len(chosen) + 1
        extra = len(parts) * (len(chosen) + 1)
        real = covercomb.cover_count

        def patched(c, n):
            *rows, last = real(c, n)
            return [*rows, tuple(x + extra for x in last)]

        monkeypatch.setattr(covercomb, "cover_count", patched)
        (count,) = real(cov, 3)[2]
        with pytest.raises(AssertionError) as err:
            maximal_multi_separated(parts, cov, 3)
        assert str(err.value) == (
            f"separated set of size {len(chosen)} below "
            f"floor({count + extra}/{len(parts)}) in fiber 0"
        )
