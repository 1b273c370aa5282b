import math
import multiprocessing.context
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest
from click.testing import CliRunner

import rdelab.variational as variational
from rdelab import (
    BundleError,
    MeasureError,
    PowerIterationError,
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
from rdelab.entropy import EnumerationGuardError
from rdelab.guards import GUARDS
from rdelab.instances import canonical_json
from rdelab.variational import HorizonGuardError

from conftest import alphabet2_bundle

LN2 = math.log(2)
LN3 = math.log(3)


class TestWitnessConstruction:
    def test_one_step_on_golden_mean(self, gm):
        separated, nu, mu, rep = witness_measures(gm, zero_cylinders(gm), 1)
        # a single refinement (the partition itself); every pulled coordinate
        # word is its own atom
        assert rep.refinement_count == 1
        for omega in range(2):
            assert len(separated[omega]) == cover_count(
                gm, omega, pullback(zero_cylinders(gm), 1), 1
            )
        assert rep.all_ok

    def test_two_step_worked_example(self, gm):
        separated, nu, mu, rep = witness_measures(gm, zero_cylinders(gm), 2)
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

    def test_averaged_measure_entropy_recomputed(self, gm):
        _, _, mu, rep = witness_measures(gm, zero_cylinders(gm), 2)
        for check in rep.averaged_checks:
            joined = range_join(zero_cylinders(gm), 0, check.block - 1)
            again = partition_conditional_entropy(mu, joined)
            assert again == pytest.approx(check.lhs, abs=1e-12)
            assert again >= check.rhs - 1e-9

    def test_average_matches_direct_summation(self, gm):
        # rebuild the skew-product average by hand: push the empirical
        # measure i times, restrict, and accumulate dictionary weights
        _, nu, mu, rep = witness_measures(gm, zero_cylinders(gm), 2)
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
        separated, nu, mu, rep = witness_measures(id2, zero_cylinders(id2), 2)
        assert all(size <= 2 for size in rep.separated_sizes)
        assert mu.support_size(0) == 2
        assert set(mu.weights[0]) == {(0,) * 3, (1,) * 3}
        assert rep.all_ok

    def test_wider_window_cover(self, gm):
        from rdelab import full_word_partition

        pairs = full_word_partition(gm, 0, 2)
        _, _, _, rep = witness_measures(gm, pairs, 1)
        # one-step pull lands on the swapped fiber's pair counts
        assert rep.separated_sizes == (3, 4)
        assert rep.all_ok
        _, _, _, rep2 = witness_measures(gm, pairs, 2)
        assert rep2.horizon == 9 and rep2.all_ok

    def test_overlapping_wide_cover(self, gm):
        overlap = product_cover(
            gm, [[(0, 0), (0, 1), (1, 0)], [(0, 1), (1, 1)], [(1, 1), (1, 0)]]
        )
        _, _, _, rep = witness_measures(gm, overlap, 2)
        assert rep.refinement_count == 2
        assert rep.all_ok
        for omega in (0, 1):
            assert rep.separated_sizes[omega] >= rep.pulled_counts[omega] // 2

    def test_product_form_required(self, gm):
        mixed = pullback(zero_cylinders(gm), 1)
        with pytest.raises(CoverError, match="anchored"):
            witness_measures(gm, mixed, 1)

    def test_horizon_guard(self, gm):
        with pytest.raises(HorizonGuardError):
            witness_measures(gm, zero_cylinders(gm), 5, horizon_cap=24)


class TestMaximizeInvariantEntropy:
    def test_full_shift_reaches_log_two(self, full2):
        res = maximize_invariant_entropy(full2, zero_cylinders(full2), 300, 0)
        assert res.value >= LN2 - 0.02
        assert res.reference == pytest.approx(LN2, abs=1e-12)

    def test_two_fixed_points_is_flat(self, id2):
        res = maximize_invariant_entropy(id2, zero_cylinders(id2), 50, 0)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    def test_golden_mean_closes_most_of_the_gap(self, gm):
        res = maximize_invariant_entropy(gm, zero_cylinders(gm), 800, 0)
        assert res.value >= 0.5 * LN3 - 0.05
        assert res.value <= 0.5 * LN3 + 1e-9

    def test_deterministic_given_seed(self, gm):
        a = maximize_invariant_entropy(gm, zero_cylinders(gm), 120, 3)
        b = maximize_invariant_entropy(gm, zero_cylinders(gm), 120, 3)
        assert a.value == b.value
        for omega in range(2):
            assert (a.measure.transitions[omega] == b.measure.transitions[omega]).all()

    def test_cover_target_uses_certified_bound(self, gm):
        overlap = product_cover(gm, [[(0,), (1,)], [(1,)]])
        res = maximize_invariant_entropy(gm, overlap, 60, 1, nmax=3)
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
        reused = maximize_invariant_entropy(bundle, target, 240, 5)

        def fresh(bundle, transitions, previous=None):
            return stationary_starts(bundle, transitions)

        monkeypatch.setattr(variational, "stationary_starts", fresh)
        afresh = maximize_invariant_entropy(bundle, target, 240, 5)
        assert reused.to_dict() == afresh.to_dict()
        assert reused.measure.flags == afresh.measure.flags


def _search(bundle, target, budget, seed, cpus, monkeypatch, **kw):
    """The search with ``cpus`` CPUs available to it."""
    with monkeypatch.context() as m:
        m.setattr(variational, "_cpu_count", lambda: cpus)
        return maximize_invariant_entropy(bundle, target, budget, seed, **kw)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stalls_in_child(parent):
    """``stationary_starts`` that stalls in every process but ``parent``."""

    def solve(bundle, transitions, previous=None):
        if os.getpid() != parent:
            raise PowerIterationError("stalled in a child", 0.5)
        return stationary_starts(bundle, transitions, previous=previous)

    return solve


class TestRestartsInProcesses:
    """Restarts split over forked children give the serial search's result."""

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
        one = _search(bundle, target, budget, seed, 1, monkeypatch, nmax=3)
        four = _search(bundle, target, budget, seed, 4, monkeypatch, nmax=3)
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

    def test_children_results_in_restart_order_and_read_only(self, gm, monkeypatch):
        mu = stationary_starts(gm, [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]])

        def restart(r, previous):
            return float(r), mu, r + 1

        monkeypatch.setattr(variational, "_cpu_count", lambda: 4)
        results = variational._run_restarts(gm, restart, 8)
        assert [(value, count) for value, _, count in results] == [
            (float(r), r + 1) for r in range(8)
        ]
        for _, got, _ in results:
            assert got.bundle is gm and got.flags == mu.flags
            for a, b in zip(got.transitions + got.starts, mu.transitions + mu.starts):
                assert not a.flags.writeable
                assert a.tobytes() == b.tobytes()
        _assert_no_child_left()

    def test_a_child_failure_reaches_the_caller(self, full2, monkeypatch):
        monkeypatch.setattr(variational, "stationary_starts", _stalls_in_child(os.getpid()))
        with pytest.raises(PowerIterationError) as info:
            _search(full2, zero_cylinders(full2), 400, 0, 2, monkeypatch)
        assert type(info.value) is PowerIterationError
        assert str(info.value) == "stalled in a child (residual=5.000e-01)"
        assert info.value.residual == 0.5
        _assert_no_child_left()

    def test_an_error_that_cannot_be_pickled_arrives_as_runtime_error(
        self, full2, monkeypatch
    ):
        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        parent = os.getpid()

        def solve(bundle, transitions, previous=None):
            if os.getpid() != parent:
                raise Unpicklable("one", "two")
            return stationary_starts(bundle, transitions, previous=previous)

        monkeypatch.setattr(variational, "stationary_starts", solve)
        with pytest.raises(RuntimeError, match="^Unpicklable: one and two$"):
            _search(full2, zero_cylinders(full2), 400, 0, 2, monkeypatch)
        _assert_no_child_left()

    def test_a_child_that_dies_without_a_result(self, full2, monkeypatch):
        parent = os.getpid()

        def solve(bundle, transitions, previous=None):
            if os.getpid() != parent:
                os._exit(3)
            return stationary_starts(bundle, transitions, previous=previous)

        monkeypatch.setattr(variational, "stationary_starts", solve)
        with pytest.raises(RuntimeError, match="exited with code 3 before sending"):
            _search(full2, zero_cylinders(full2), 400, 0, 2, monkeypatch)
        _assert_no_child_left()

    def test_cli_exits_4_on_a_child_stall(self, monkeypatch):
        monkeypatch.setattr(variational, "stationary_starts", _stalls_in_child(os.getpid()))
        monkeypatch.setattr(variational, "_cpu_count", lambda: 2)
        res = CliRunner().invoke(
            main,
            ["maximize", "demos/instances/full_shift_2.json", "--partition",
             "zero_cyl", "--budget", "400"],
        )
        assert res.exit_code == 4
        assert "guard exceeded: stalled in a child (residual=5.000e-01)" in res.output
        _assert_no_child_left()

    @pytest.mark.skipif(
        variational._cpu_count() < 2 or shutil.which("ps") is None,
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

    def test_a_failure_here_stops_the_children(self, full2, monkeypatch):
        parent = os.getpid()

        def solve(bundle, transitions, previous=None):
            if os.getpid() == parent:
                raise MeasureError("failed in the parent")
            return stationary_starts(bundle, transitions, previous=previous)

        monkeypatch.setattr(variational, "stationary_starts", solve)
        with pytest.raises(MeasureError, match="failed in the parent"):
            _search(full2, zero_cylinders(full2), 400, 0, 4, monkeypatch)
        _assert_no_child_left()

    def test_groups_that_cannot_fork_run_here(self, gm, monkeypatch):
        def no_fork(self):
            raise BlockingIOError("no process to spare")

        serial = _search(gm, zero_cylinders(gm), 400, 2, 1, monkeypatch)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_fork)
        forked = _search(gm, zero_cylinders(gm), 400, 2, 4, monkeypatch)
        assert canonical_json(forked.to_dict()) == canonical_json(serial.to_dict())
        _assert_no_child_left()

    def test_one_cpu_while_other_threads_run(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert variational._cpu_count() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


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
