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

import rdelab.covers as covers
import rdelab.forked as forked
import rdelab.measures as measures
import rdelab.variational as variational
from rdelab import (
    BundleError,
    MeasureError,
    PowerIterationError,
    ProbBase,
    SymbolicBundle,
    cover_count,
    maximize_invariant_entropy,
    partition_conditional_entropy,
    presets,
    product_cover,
    pullback,
    range_join,
    stationary_starts,
    witness_measures,
    zero_cylinders,
)
from rdelab.cli import main
from rdelab.covers import CoverError
from rdelab.entropy import EnumerationGuardError, shannon
from rdelab.guards import GUARDS
from rdelab.instances import canonical_json
from rdelab.variational import HorizonGuardError

from conftest import alphabet2_bundle, rebuilt_pullback

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


class TestMaximizeInvariantEntropy:
    def test_full_shift_reaches_log_two(self, full2):
        res = maximize_invariant_entropy(zero_cylinders(full2), 300, 0)
        assert res.value >= LN2 - 0.02
        assert res.reference == pytest.approx(LN2, abs=1e-12)

    def test_two_fixed_points_is_flat(self, id2):
        res = maximize_invariant_entropy(zero_cylinders(id2), 50, 0)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    def test_golden_mean_closes_most_of_the_gap(self, gm):
        res = maximize_invariant_entropy(zero_cylinders(gm), 800, 0)
        assert res.value >= 0.5 * LN3 - 0.05
        assert res.value <= 0.5 * LN3 + 1e-9

    def test_deterministic_given_seed(self, gm):
        a = maximize_invariant_entropy(zero_cylinders(gm), 120, 3)
        b = maximize_invariant_entropy(zero_cylinders(gm), 120, 3)
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


GM = [[1, 1], [1, 0]]
FULL = [[1, 1], [1, 1]]
SEARCH_BUNDLES = {
    "golden-mean": alphabet2_bundle((0,), [GM]),
    "full-2-shift": presets.full_shift(2),
    "three-fixed-points": alphabet2_bundle((0, 1, 2), [GM, FULL, [[0, 1], [1, 1]]]),
    "alternating-golden-mean": presets.alternating_golden_mean(),
    "two-cycle-and-fixed-point": alphabet2_bundle((1, 0, 2), [FULL, GM, [[1, 0], [0, 1]]]),
}


class TestMaximizeReusesUnchangedCycles:
    @pytest.mark.parametrize("name", sorted(SEARCH_BUNDLES))
    def test_same_report_as_solving_every_cycle_afresh(self, name, monkeypatch):
        bundle = SEARCH_BUNDLES[name]
        target = zero_cylinders(bundle)
        reused = maximize_invariant_entropy(target, 240, 5)

        def fresh(bundle, transitions, previous=None):
            return stationary_starts(bundle, transitions)

        monkeypatch.setattr(variational, "stationary_starts", fresh)
        afresh = maximize_invariant_entropy(target, 240, 5)
        assert reused.to_dict() == afresh.to_dict()
        assert reused.measure.flags == afresh.measure.flags


# one fiber on three symbols: c is transient (it may stay or leave, and no
# other symbol enters it), a and b form a golden mean
TRANSIENT = SymbolicBundle(
    base=ProbBase(weights=(1.0,), theta=(0,)),
    alphabet=("a", "b", "c"),
    adjacency=(np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=np.int8),),
)
SCREEN_BUNDLES = {**SEARCH_BUNDLES, "transient-state": TRANSIENT}


def _unscreened(monkeypatch):
    """Every proposal solved: a ball of infinite radius screens none."""
    monkeypatch.setattr(variational, "_stationary_ball", lambda cycle: ([], math.inf))


class TestScreenedProposals:
    """Proposals whose certified bound lies below the current value are
    rejected without their solve, and the search reports what it reports
    with every proposal solved."""

    @pytest.mark.parametrize("budget", [120, 400])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", sorted(SCREEN_BUNDLES))
    def test_same_report_as_solving_every_proposal(self, name, seed, budget, monkeypatch):
        target = zero_cylinders(SCREEN_BUNDLES[name])
        screened = maximize_invariant_entropy(target, budget, seed)
        with monkeypatch.context() as m:
            _unscreened(m)
            solved = maximize_invariant_entropy(target, budget, seed)
        assert canonical_json(screened.to_dict()) == canonical_json(solved.to_dict())
        assert screened.measure.flags == solved.measure.flags

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "name", ["golden-mean", "alternating-golden-mean", "two-cycle-and-fixed-point"]
    )
    def test_a_ball_off_its_centre_keeps_the_report(self, name, seed, monkeypatch):
        # each estimated start moved by up to 2 delta in L1 toward its
        # fiber's least uncertain row, which lowers the estimated score, and
        # the radius grown by 2 delta: the ball still holds the solved
        # starts, so the screen must still reject only proposals that score
        # at most the current value; one that left out the radius would not
        delta = 1e-3
        target = zero_cylinders(SCREEN_BUNDLES[name])

        def moved(cycle):
            along, radius = measures._stationary_ball(cycle)
            shifted = []
            for p, q in zip(along, cycle):
                corner = np.eye(len(q))[np.argmin([shannon(row) for row in q])]
                shifted.append((1 - delta) * p + delta * corner)
            return shifted, radius + 2 * delta

        with monkeypatch.context() as m:
            m.setattr(variational, "_stationary_ball", moved)
            screened = maximize_invariant_entropy(target, 400, seed)
        _unscreened(monkeypatch)
        solved = maximize_invariant_entropy(target, 400, seed)
        assert canonical_json(screened.to_dict()) == canonical_json(solved.to_dict())

    def test_most_golden_mean_proposals_are_screened_out(self, monkeypatch):
        target = zero_cylinders(SEARCH_BUNDLES["golden-mean"])
        balls, solves = [], []

        def ball(cycle):
            balls.append(cycle)
            return measures._stationary_ball(cycle)

        def solve(bundle, transitions, previous=None):
            solves.append(previous)
            return stationary_starts(bundle, transitions, previous=previous)

        monkeypatch.setattr(forked, "_cpu_count", lambda: 1)  # count every restart here
        monkeypatch.setattr(variational, "_stationary_ball", ball)
        monkeypatch.setattr(variational, "stationary_starts", solve)
        res = maximize_invariant_entropy(target, 400, 0)
        restarts = sum(p is None for p in solves)
        proposals = res.evaluations - restarts
        assert len(balls) == proposals
        # each solve of a proposal passes the accepted measure as ``previous``
        assert len(solves) - restarts < proposals / 2

    def test_a_failing_proposal_check_still_raises(self, monkeypatch):
        target = zero_cylinders(SEARCH_BUNDLES["golden-mean"])
        monkeypatch.setattr(
            variational, "_project_simplex", lambda v: [float("nan")] * len(v)
        )
        with pytest.raises(MeasureError, match="rows must sum to 1"):
            maximize_invariant_entropy(target, 120, 0)


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
            target = zero_cylinders(bundle)
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
        monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
        res = CliRunner().invoke(
            main,
            ["maximize", "demos/instances/full_shift_2.json", "--partition",
             "zero_cyl", "--budget", "400"],
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
             "--partition", "zero_cyl", "--budget", "20000"],
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


class TestWitnessWithFixedFibers:
    """Pulling back through a theta power that fixes every fiber reuses the
    cover's sections; the witness report is the rebuilt sections' report."""

    @pytest.mark.parametrize(
        "bundle",
        [alphabet2_bundle((0,), [GM]), alphabet2_bundle((0, 1), [FULL, GM])],
        ids=["one-fiber-golden-mean", "two-fixed-points"],
    )
    def test_same_report_as_rebuilt_sections(self, bundle, monkeypatch):
        cover = zero_cylinders(bundle)
        reused = witness_measures(cover, 3)[3]
        monkeypatch.setattr(variational, "pullback", rebuilt_pullback)
        monkeypatch.setattr(covers, "pullback", rebuilt_pullback)
        rebuilt = witness_measures(cover, 3)[3]
        assert canonical_json(reused.to_dict()) == canonical_json(rebuilt.to_dict())


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
