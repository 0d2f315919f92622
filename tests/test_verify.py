import json
import os
import pickle

import pytest

import dirseries.series
import dirseries.verify
from dirseries.matrices import build_mult
from dirseries.poly import ONE
from dirseries.series import dir_from_fn, ord_from_fn
from dirseries.verify import (
    SUITES,
    CheckResult,
    _first_mismatch,
    run_suites,
)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every worker that ``run_suites`` forks, on a
    machine of 2 cores; after the test no child process may be left."""
    started = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(dirseries.verify.os, "cpu_count", lambda: 2)
    yield started
    assert_no_child_left()


def pools(forked):
    """The sizes of the worker pools started, as each test starts at most one."""
    return [len(forked)] if forked else []


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_passes(suite):
    bound = {"abel": 40, "binomf": 60, "oracle": 64}.get(suite)
    records, ok = run_suites([suite], bound=bound)
    assert ok, [r.line() for r in records if not r.ok][:5]
    assert records == sorted(records, key=lambda r: (r.ident, r.n))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["nonsense"])


def test_record_line_format():
    assert CheckResult("abel.identities", 12, True).line() == "PASS abel.identities n=12"
    line = CheckResult("x.y", 3, False, "boom").line()
    assert line.startswith("FAIL x.y n=3") and "boom" in line


@pytest.mark.parametrize(
    "jobs, cpus, items, workers",
    [(64, 4, 10, [4]), (64, 4, 3, [3]), (3, 4, 10, [3]), (64, None, 10, []), (1, 4, 10, [])],
)
def test_jobs_clamped_to_cores_and_items(monkeypatch, forks, jobs, cpus, items, workers):
    # abel to 8 * items - 7 is ``items`` - 1 chunks of 8 indices from n = 2
    # and the chunk of the classical identities
    monkeypatch.setattr(dirseries.verify.os, "cpu_count", lambda: cpus)
    records, ok = run_suites(["abel"], bound=8 * items - 7, jobs=jobs)
    assert pools(forks) == workers
    assert (records, ok) == run_suites(["abel"], bound=8 * items - 7)


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_part_gives_one_exception_record(monkeypatch, forks, jobs):
    pristine = dirseries.verify.abel_check

    def broken(n, family=None):
        if n in (17, 35):  # in two chunks; the workers take the later one first
            raise ValueError(f"n={n}")
        return pristine(n, family)

    monkeypatch.setattr(dirseries.verify, "abel_check", broken)
    timings = []
    records, ok = run_suites(["abel", "binomf"], bound=40, jobs=jobs,
                             on_suite_done=lambda *args: timings.append(args[::2]))
    assert pools(forks) == ([2] if jobs > 1 else [])
    assert not ok
    assert [r for r in records if r.ident.startswith("abel")] == [
        CheckResult("abel.exception", 0, False, "ValueError('n=17')")
    ]
    binomf = [r for r in records if r.ident.startswith("binomf")]
    assert binomf and all(r.ok for r in binomf)
    assert sorted(timings) == [("abel", 1), ("binomf", len(binomf))]


def dying_abel_check(monkeypatch, at: int) -> None:
    """Make the worker that checks abel at n = ``at`` die with exit code 3;
    in the test's own process the check raises instead."""
    pristine, parent = dirseries.verify.abel_check, os.getpid()

    def dying(n, family=None):
        if n == at:
            if os.getpid() == parent:
                raise AssertionError("a worker's part ran in process")
            os._exit(3)
        return pristine(n, family)

    monkeypatch.setattr(dirseries.verify, "abel_check", dying)


def test_dead_worker_gives_one_exception_record(monkeypatch, forks):
    others, _ = run_suites(["binomf", "pow"], bound=40)
    dying_abel_check(monkeypatch, at=17)
    records, ok = run_suites(["abel", "binomf", "pow"], bound=40, jobs=2)
    assert pools(forks) == [2]
    assert not ok
    assert [r for r in records if r.ident.startswith("abel")] == [
        CheckResult("abel.exception", 0, False, "a verify worker ended with exit code 3")
    ]
    assert [r for r in records if not r.ident.startswith("abel")] == others


def test_every_part_left_after_the_workers_die_is_an_error(monkeypatch, forks):
    # each worker dies on its first part; the parts left are not lost
    dying_abel_check(monkeypatch, at=40)
    pristine = dirseries.verify.suite_binomf
    parent = os.getpid()
    monkeypatch.setattr(dirseries.verify, "suite_binomf",
                        lambda bound: pristine(bound) if os.getpid() == parent else os._exit(3))
    timings = []
    records, ok = run_suites(["binomf", "abel"], bound=40, jobs=2,
                             on_suite_done=lambda name, *_: timings.append(name))
    assert pools(forks) == [2]
    assert records == [
        CheckResult(f"{name}.exception", 0, False, "a verify worker ended with exit code 3")
        for name in ("abel", "binomf")
    ]
    assert sorted(timings) == ["abel", "binomf"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("raising", [False, True])
def test_abel_table_is_emptied_when_the_run_returns(monkeypatch, tmp_path, forks, jobs, raising):
    # in process the parts share a table of the call, dropped with it, and
    # the module's table stays empty; the parts that a worker runs share
    # the worker's table, which ends with the worker, so the parent's
    # table stays empty too.  The spy logs from whichever process runs it.
    worker_table = dirseries.verify._ABEL_TERMS
    pristine = dirseries.verify.abel_check
    log = tmp_path / "tables"

    def spy(n, family=None):
        if raising and n == 35:
            raise ValueError(f"n={n}")
        out = pristine(n, family)
        shared = family is dirseries.verify._ABEL_TERMS
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {id(family)} {shared:d} {len(family)}\n")
        return out

    def tables():
        """Per process that ran the spy: its tables' ids, whether they were
        the module's table, and the largest size met."""
        seen = {}
        for line in log.read_text().splitlines():
            pid, table, shared, size = map(int, line.split())
            ids, flags, largest = seen.get(pid, (set(), set(), 0))
            seen[pid] = ids | {table}, flags | {shared}, max(largest, size)
        log.unlink()
        return seen

    monkeypatch.setattr(dirseries.verify, "abel_check", spy)
    records, ok = run_suites(["abel"], 40, jobs)
    assert ok is not raising
    assert pools(forks) == ([2] if jobs > 1 else [])
    seen = tables()
    assert set(seen) == (set(forks) if jobs > 1 else {os.getpid()})
    for ids, flags, largest in seen.values():
        assert len(ids) == 1 and largest  # one filled table per process
        assert flags == {jobs > 1}
    assert not worker_table
    # a suite called on its own has a table of its own too
    if raising:
        with pytest.raises(ValueError):
            dirseries.verify.suite_abel(40)
    else:
        assert all(r.ok for r in dirseries.verify.suite_abel(40))
    ((ids, flags, largest),) = tables().values()
    assert len(ids) == 1 and largest and flags == {False}
    assert not worker_table


def test_classic_abel_cross_checks_the_divisor_sides(monkeypatch):
    # doubled sides keep every divisor-indexed identity true, but they are
    # no longer the classical sides at n = p**m
    pristine = dirseries.verify.abel_check

    def doubled(n, family=None):
        return tuple({i: side * 2 for i, side in sides.items()} for sides in pristine(n, family))

    monkeypatch.setattr(dirseries.verify, "abel_check", doubled)
    records, ok = run_suites(["abel"], bound=8)
    assert not ok
    assert all(r.ok for r in records if r.ident == "abel.identities")
    failed = [r for r in records if not r.ok]
    assert {r.ident for r in failed} == {"abel.classic.p=2", "abel.classic.p=3"}
    assert [r.n for r in failed if r.ident == "abel.classic.p=3"] == [3, 9, 27, 81]
    assert failed[0].line() == (
        "FAIL abel.classic.p=2 n=2  first mismatch at 1: 2*beta + 2*phi != beta + phi"
    )


def test_abel_failure_names_the_identity(monkeypatch):
    pristine = dirseries.verify.abel_check

    def broken(n, family=None):
        left, right = pristine(n, family)
        return ({**left, 3: left[3] + 1} if n == 12 else left), right

    monkeypatch.setattr(dirseries.verify, "abel_check", broken)
    records, ok = run_suites(["abel"], bound=16)
    left, right = pristine(12)
    assert not ok
    assert [r.line() for r in records if not r.ok] == [
        f"FAIL abel.identities n=12  first mismatch at 3: {left[3] + 1} != {right[3]}"
    ]


def test_inverse_relation_failure_names_the_relation_and_n(monkeypatch):
    pristine = dirseries.verify.inverse_pair_check

    def broken(a, beta, trunc):
        forward, (got, want) = pristine(a, beta, trunc)
        return forward, ({**got, ("backward", 7): got["backward", 7] + 1}, want)

    monkeypatch.setattr(dirseries.verify, "inverse_pair_check", broken)
    records, ok = run_suites(["thm2"], bound=16)
    failed = [r for r in records if not r.ok]
    assert [r.ident for r in failed] == [
        f"thm2.inverse-relations.{name}" for name in ("exp", "geom", "random")
    ]
    assert all(r.detail.startswith("first mismatch at ('backward', 7): ") for r in failed)


def test_divisibility_failure_names_the_first_n(monkeypatch):
    # a term without psi at indices 5 and 9 of the first parametric power
    pristine = dirseries.verify.dir_pow_param
    calls = []

    def broken(a):
        p = pristine(a)
        calls.append(a)
        if len(calls) > 1:
            return p
        coeffs = [v + 1 if n in (5, 9) else v for n, v in enumerate(p.coeffs, start=1)]
        return type(p)(p.trunc, tuple(coeffs))

    monkeypatch.setattr(dirseries.verify, "dir_pow_param", broken)
    records, ok = run_suites(["thm2"], bound=16)
    assert [r.line() for r in records if not r.ok] == [
        "FAIL thm2.divisibility n=16  first mismatch at 5: 1 != 0"
    ]


def test_refused_pool_runs_in_process(monkeypatch):
    # os.fork raising, or missing where a platform has none
    refused = []

    def refuse():
        refused.append(True)
        raise OSError("no processes here")

    monkeypatch.setattr(dirseries.verify.os, "cpu_count", lambda: 2)
    names = ["binomf", "abel"]  # more than one work item, so workers are asked for
    in_process = run_suites(names, bound=40)
    monkeypatch.setattr(os, "fork", refuse)
    assert run_suites(names, bound=40, jobs=2) == in_process
    assert refused == [True]
    monkeypatch.delattr(os, "fork")
    assert run_suites(names, bound=40, jobs=2) == in_process
    assert_no_child_left()


def test_pool_refused_at_submit_runs_each_suite_whole(monkeypatch, forks):
    # the first worker starts, the second is refused: the first is reaped
    # (checked by the fixture) and no part goes to it
    counting_fork = os.fork

    def refuse_second():
        if forks:
            raise OSError("no processes here")
        return counting_fork()

    monkeypatch.setattr(os, "fork", refuse_second)
    timings = []
    got = run_suites(["binomf", "abel"], bound=40, jobs=2,
                     on_suite_done=lambda name, seconds, records: timings.append(name))
    assert pools(forks) == [1]
    assert got == run_suites(["binomf", "abel"], bound=40, jobs=1)
    assert timings == ["binomf", "abel"]  # whole suites, in the given order


@pytest.mark.parametrize("run", ["normal", "raising-part", "dead-worker", "raising-callback"])
def test_no_worker_outlives_the_run(monkeypatch, forks, run):
    pristine = dirseries.verify.abel_check
    if run == "raising-part":
        monkeypatch.setattr(dirseries.verify, "abel_check",
                            lambda n, family=None: 1 / 0 if n == 17 else pristine(n, family))
    if run == "dead-worker":
        dying_abel_check(monkeypatch, at=17)

    def done(name, seconds, count):
        if run == "raising-callback":
            raise KeyError(name)

    names = ["abel", "binomf", "pow"]
    if run == "raising-callback":
        with pytest.raises(KeyError):
            run_suites(names, bound=40, jobs=2, on_suite_done=done)
    else:
        records, ok = run_suites(names, bound=40, jobs=2, on_suite_done=done)
        assert ok is (run == "normal")
    assert pools(forks) == [2]
    assert_no_child_left()


def test_corrupted_kernel_is_reported_not_raised():
    pristine = dirseries.series.dirichlet_convolve

    def corrupted(a, b, trunc):
        out = pristine(a, b, trunc)
        if trunc >= 4:
            out[3] = out[3] + ONE
        return out

    dirseries.series.dirichlet_convolve = corrupted
    try:
        records, ok = run_suites(["oracle"], bound=32)
    finally:
        dirseries.series.dirichlet_convolve = pristine
    assert not ok
    failed = [r for r in records if not r.ok]
    assert failed
    assert all(r.detail.startswith("first mismatch at") for r in failed), failed
    records, ok = run_suites(["oracle"], bound=32)
    assert ok


def test_first_mismatch_names_place_and_values():
    a = dir_from_fn(8, lambda n: n)
    b = dir_from_fn(8, lambda n: 7 if n == 5 else n)
    assert _first_mismatch(a, b) == "first mismatch at 5: 5 != 7"
    o = ord_from_fn(4, lambda n: n)
    assert _first_mismatch(o, ord_from_fn(4, lambda n: 1)) == "first mismatch at 0: 0 != 1"
    matrices = build_mult(a, 8), build_mult(b, 8)
    assert _first_mismatch(*matrices) == "first mismatch at (5, 1): 5 != 7"
    dicts = {(2, 1): 3, (1, 4): 1}, {(2, 1): 4}
    assert _first_mismatch(*dicts) == "first mismatch at (1, 4): 1 != absent"
    assert _first_mismatch(3, 4) == "first mismatch at whole value: 3 != 4"


def test_check_results_compare_by_value_and_pickle():
    # the --jobs workers send records to the parent as JSON arrays
    record = CheckResult("abel.identities", 12, False, "first mismatch at 3: 1 != 2")
    assert record == CheckResult("abel.identities", 12, False, "first mismatch at 3: 1 != 2")
    assert record != CheckResult("abel.identities", 12, True, "first mismatch at 3: 1 != 2")
    assert CheckResult("x.y", 3, True) == CheckResult("x.y", 3, True, "")
    back = pickle.loads(pickle.dumps([record, CheckResult("x.y", 3, True)]))
    assert back == [record, CheckResult("x.y", 3, True)]
    assert [type(r) for r in back] == [CheckResult, CheckResult]
    assert back[0].line() == record.line()
    assert CheckResult(*json.loads(json.dumps(record))) == record
