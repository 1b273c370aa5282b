"""The forked task pool, alone and under the property suite."""

import functools
import multiprocessing.context
import os
import threading
import time

import pytest
from click.testing import CliRunner

import rdelab.forked as forked
import rdelab.harness as harness
from rdelab.base import PowerIterationError
from rdelab.cli import main
from rdelab.covercomb import SetCoverSizeError
from rdelab.forked import run_tasks
from rdelab.harness import CHECK_IDS, SuiteConfig, run_suite
from rdelab.instances import canonical_json
from rdelab.measures import MeasureError


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the pool sees."""

    def set_cpus(n):
        monkeypatch.setattr(forked, "_cpu_count", lambda: n)

    return set_cpus


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _task(i, pause=0.0, fail=None, parent=None):
    """Task ``i``: waits ``pause`` seconds, then returns ``(i, pid)``, or
    applies ``fail`` when run outside ``parent`` (anywhere if ``None``)."""
    time.sleep(pause)
    if fail is not None and os.getpid() != parent:
        fail()
    return i, os.getpid()


def _raise(exc):
    def fail():
        raise exc

    return fail


class TestRunTasks:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_results_in_task_order(self, n, cpus):
        cpus(n)
        got = run_tasks([functools.partial(_task, i, 0.1) for i in range(8)])
        assert [i for i, _ in got] == list(range(8))
        pids = {pid for _, pid in got}
        assert os.getpid() in pids
        # each worker takes a task while the others wait out theirs
        assert len(pids) == n
        _assert_no_child_left()

    def test_one_task_forks_nothing(self, cpus, monkeypatch):
        def no_fork(self):
            raise AssertionError("forked")

        cpus(4)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_fork)
        assert run_tasks([functools.partial(_task, 0)]) == [(0, os.getpid())]
        assert run_tasks([]) == []

    def test_a_child_failure_reaches_the_caller(self, cpus):
        cpus(2)
        stall = _raise(PowerIterationError("stalled in a child", 0.5))
        with pytest.raises(PowerIterationError) as info:
            run_tasks([functools.partial(_task, i, 0.3, stall, os.getpid()) for i in range(2)])
        assert type(info.value) is PowerIterationError
        assert str(info.value) == "stalled in a child (residual=5.000e-01)"
        assert info.value.residual == 0.5
        _assert_no_child_left()

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_the_lowest_index_failure_wins(self, n, cpus):
        """Tasks 4 and 5, handed out first, fail at once and task 2 late; a
        serial loop stops at 2."""
        cpus(n)
        tasks = [functools.partial(_task, i, 0.01) for i in range(6)]
        tasks[2] = functools.partial(_task, 2, 0.3, _raise(MeasureError("task 2")))
        for i in (4, 5):
            tasks[i] = functools.partial(_task, i, 0.0, _raise(KeyError(f"task {i}")))
        with pytest.raises(MeasureError, match="^task 2$"):
            run_tasks(tasks)
        _assert_no_child_left()

    def test_an_error_that_cannot_be_pickled_arrives_as_runtime_error(self, cpus):
        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def fail():
            raise Unpicklable("one", "two")

        cpus(2)
        with pytest.raises(RuntimeError, match="^Unpicklable: one and two$"):
            run_tasks([functools.partial(_task, i, 0.3, fail, os.getpid()) for i in range(2)])
        _assert_no_child_left()

    def test_a_child_that_dies_without_a_result(self, cpus):
        cpus(2)
        die = functools.partial(os._exit, 3)
        with pytest.raises(RuntimeError, match="exited with code 3 before sending"):
            run_tasks([functools.partial(_task, i, 0.3, die, os.getpid()) for i in range(2)])
        _assert_no_child_left()

    def test_a_failure_here_waits_for_the_children(self, cpus, tmp_path):
        """Every task here fails; the children's tasks, running meanwhile,
        finish, and every task runs."""
        parent = os.getpid()

        def task(i):
            (tmp_path / str(i)).touch()
            if os.getpid() == parent:
                raise MeasureError(f"failed in the parent at {i}")
            time.sleep(0.05)
            return i

        cpus(4)
        with pytest.raises(MeasureError, match="^failed in the parent at "):
            run_tasks([functools.partial(task, i) for i in range(12)])
        assert sorted(int(p.name) for p in tmp_path.iterdir()) == list(range(12))
        _assert_no_child_left()

    def test_the_last_task_starts_first(self, cpus):
        cpus(2)
        got = run_tasks([functools.partial(time.monotonic) for _ in range(4)])
        assert got[3] == min(got)

    def test_workers_that_cannot_fork_leave_their_tasks_here(self, cpus, monkeypatch):
        def no_fork(self):
            raise BlockingIOError("no process to spare")

        cpus(4)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_fork)
        got = run_tasks([functools.partial(_task, i) for i in range(5)])
        assert got == [(i, os.getpid()) for i in range(5)]
        _assert_no_child_left()

    def test_nested_pools(self, cpus):
        cpus(2)

        def inner(i):
            return [x for x, _ in run_tasks([functools.partial(_task, 10 * i + j, 0.05) for j in range(3)])]

        got = run_tasks([functools.partial(inner, i) for i in range(3)])
        assert got == [[10 * i + j for j in range(3)] for i in range(3)]
        _assert_no_child_left()

    def test_a_stopped_child_stops_its_own_children(self, cpus, tmp_path):
        """An interrupt here stops a child that runs a pool of its own, and
        that child stops its children before it exits."""
        cpus(2)
        parent = os.getpid()

        def sleeper(j):
            (tmp_path / str(os.getpid())).touch()
            time.sleep(60)

        def task(i):
            if os.getpid() != parent:
                return run_tasks([functools.partial(sleeper, j) for j in range(2)])
            deadline = time.monotonic() + 20
            while len(list(tmp_path.iterdir())) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_tasks([functools.partial(task, i) for i in range(2)])
        assert time.monotonic() - start < 30
        pids = [int(p.name) for p in tmp_path.iterdir()]
        assert len(pids) == 2 and parent not in pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        _assert_no_child_left()

    def test_one_cpu_while_other_threads_run(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert forked._cpu_count() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


SMALL = SuiteConfig(seed=3, instances=3, draws=30)


def _with_checks(monkeypatch, **replaced):
    """Replace catalog checks by id, keeping their places."""
    monkeypatch.setattr(
        harness,
        "_CHECKS",
        [(name, replaced.get(name, fn)) for name, fn in harness._CHECKS],
    )


class TestSuiteAcrossProcesses:
    """The suite's checks spread over forked children give the serial report."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_same_report_as_one_process(self, n, cpus):
        cpus(1)
        serial = canonical_json(run_suite(SMALL).to_dict())
        cpus(n)
        assert canonical_json(run_suite(SMALL).to_dict()) == serial
        _assert_no_child_left()

    @pytest.mark.parametrize("n", [2, 4])
    def test_same_file_report_as_one_process(self, n, cpus, tmp_path):
        def verify(name):
            out = tmp_path / name
            res = CliRunner().invoke(
                main,
                ["verify", "--file", "demos/instances/alternating_golden_mean.json",
                 "--draws", "30", "--json", str(out)],
            )
            return res.exit_code, res.output, out.read_bytes()

        cpus(1)
        serial = verify("serial.json")
        cpus(n)
        assert verify("forked.json") == serial
        assert serial[0] == 0
        _assert_no_child_left()

    def test_a_guard_in_a_child_exits_4_with_the_serial_message(self, cpus, monkeypatch):
        """Each of two checks takes a while, so a child takes one of them;
        only the child's raises, and the CLI prints what a serial run that
        raises prints."""
        parent = os.getpid()
        words = dict(harness._CHECKS)["words-vs-counts"]

        def guard(config, corpus, here=True):
            time.sleep(0.3)
            if here or os.getpid() != parent:
                raise SetCoverSizeError("reduced instance too big")
            return words(config, corpus)

        args = ["verify", "--instances", "2", "--only", "words-vs-counts,cover-algebra"]
        _with_checks(monkeypatch, **{"words-vs-counts": guard, "cover-algebra": guard})
        cpus(1)
        serial = CliRunner().invoke(main, args)
        in_child = functools.partial(guard, here=False)
        _with_checks(monkeypatch, **{"words-vs-counts": in_child, "cover-algebra": in_child})
        cpus(2)
        forked_run = CliRunner().invoke(main, args)
        assert serial.exit_code == forked_run.exit_code == 4
        assert forked_run.output == serial.output
        assert "guard exceeded: reduced instance too big" in forked_run.output
        _assert_no_child_left()

    def test_the_lower_catalog_index_wins(self, cpus, monkeypatch):
        def late(config, corpus):
            time.sleep(0.3)
            raise MeasureError("fekete-tail")

        def early(config, corpus):
            raise MeasureError("mass-shift")

        _with_checks(monkeypatch, **{"fekete-tail": late, "mass-shift": early})
        assert CHECK_IDS.index("fekete-tail") < CHECK_IDS.index("mass-shift")
        for n in (1, 2, 4):
            cpus(n)
            with pytest.raises(MeasureError, match="^fekete-tail$"):
                run_suite(SMALL)
        _assert_no_child_left()

    def test_verify_only_one_check_forks_nothing(self, cpus, monkeypatch):
        def no_fork(self):
            raise AssertionError("forked")

        cpus(4)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_fork)
        res = CliRunner().invoke(main, ["verify", "--instances", "2", "--only", "mix-laws"])
        assert res.exit_code == 0, res.output
        assert "mix-concavity" in res.output
