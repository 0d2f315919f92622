import concurrent.futures
import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

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


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by one that records its requested size and
    runs each submitted call in process, so it starts no worker; the
    machine has 2 cores.  Yields the list of requested sizes, then empties
    the worker's Abel table, as a worker's exit would."""
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    # verify imports the pool where it starts one, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(dirseries.verify.os, "cpu_count", lambda: 2)
    yield started
    dirseries.verify._ABEL_TERMS.clear()


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
def test_jobs_clamped_to_cores_and_items(monkeypatch, fake_pool, jobs, cpus, items, workers):
    # abel to 8 * items - 7 is ``items`` - 1 chunks of 8 indices from n = 2
    # and the chunk of the classical identities
    monkeypatch.setattr(dirseries.verify.os, "cpu_count", lambda: cpus)
    records, ok = run_suites(["abel"], bound=8 * items - 7, jobs=jobs)
    assert fake_pool == workers
    assert (records, ok) == run_suites(["abel"], bound=8 * items - 7)


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_part_gives_one_exception_record(monkeypatch, fake_pool, jobs):
    pristine = dirseries.verify.abel_check

    def broken(n, family=None):
        if n in (17, 35):  # in two chunks; the pool takes the later one first
            raise ValueError(f"n={n}")
        return pristine(n, family)

    monkeypatch.setattr(dirseries.verify, "abel_check", broken)
    timings = []
    records, ok = run_suites(["abel", "binomf"], bound=40, jobs=jobs,
                             on_suite_done=lambda *args: timings.append(args[::2]))
    assert fake_pool == ([2] if jobs > 1 else [])
    assert not ok
    assert [r for r in records if r.ident.startswith("abel")] == [
        CheckResult("abel.exception", 0, False, "ValueError('n=17')")
    ]
    binomf = [r for r in records if r.ident.startswith("binomf")]
    assert binomf and all(r.ok for r in binomf)
    assert sorted(timings) == [("abel", 1), ("binomf", len(binomf))]


def test_dead_worker_gives_one_exception_record(monkeypatch, fake_pool):
    died = BrokenProcessPool("a worker died")
    abel_parts = (dirseries.verify._abel_chunk, dirseries.verify._classic_chunk)

    class DyingPool(concurrent.futures.ProcessPoolExecutor):  # the fake pool
        def submit(self, fn, *args):
            if args[0] not in abel_parts:
                return super().submit(fn, *args)
            future = Future()
            future.set_exception(died)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
    binomf, _ = run_suites(["binomf"], bound=40)
    records, ok = run_suites(["abel", "binomf"], bound=40, jobs=2)
    assert fake_pool == [2]
    assert not ok
    assert [r for r in records if r.ident.startswith("abel")] == [
        CheckResult("abel.exception", 0, False, repr(died))
    ]
    assert [r for r in records if not r.ident.startswith("abel")] == binomf


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("raising", [False, True])
def test_abel_table_is_emptied_when_the_run_returns(monkeypatch, fake_pool, jobs, raising):
    # in process the parts share a table of the call, dropped with it, and
    # the worker's table stays empty; the parts that the pool's worker runs
    # share the worker's table
    worker_table = dirseries.verify._ABEL_TERMS
    pristine = dirseries.verify.abel_check
    tables = []

    def spy(n, family=None):
        if raising and n == 35:
            raise ValueError(f"n={n}")
        tables.append(family)
        return pristine(n, family)

    monkeypatch.setattr(dirseries.verify, "abel_check", spy)
    records, ok = run_suites(["abel"], 40, jobs)
    assert ok is not raising
    assert fake_pool == ([2] if jobs > 1 else [])
    assert tables[0] and all(family is tables[0] for family in tables)
    assert (tables[0] is worker_table) == (jobs > 1) == bool(worker_table)
    # a suite called on its own has a table of its own too
    tables.clear()
    filled = dict(worker_table)
    if raising:
        with pytest.raises(ValueError):
            dirseries.verify.suite_abel(40)
    else:
        assert all(r.ok for r in dirseries.verify.suite_abel(40))
    assert tables[0] and all(family is tables[0] for family in tables)
    assert tables[0] is not worker_table and worker_table == filled


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
    refused = []

    def refuse(max_workers):
        refused.append(max_workers)
        raise OSError("no processes here")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(dirseries.verify.os, "cpu_count", lambda: 2)
    names = ["binomf", "abel"]  # more than one work item, so a pool is asked for
    assert run_suites(names, bound=40, jobs=2) == run_suites(names, bound=40)
    assert refused == [2]


def test_pool_refused_at_submit_runs_each_suite_whole(monkeypatch):
    shutdowns = []

    class RefusingPool:
        def __init__(self, max_workers):
            pass

        def submit(self, fn, *args):
            raise OSError("no processes here")

        def shutdown(self, wait=True, cancel_futures=False):
            shutdowns.append(cancel_futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusingPool)
    monkeypatch.setattr(dirseries.verify.os, "cpu_count", lambda: 2)
    timings = []
    got = run_suites(["binomf", "abel"], bound=40, jobs=2,
                     on_suite_done=lambda name, seconds, records: timings.append(name))
    assert shutdowns == [True]
    assert got == run_suites(["binomf", "abel"], bound=40, jobs=1)
    assert timings == ["binomf", "abel"]  # whole suites, in the given order


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
    # the --jobs pool sends records between processes
    record = CheckResult("abel.identities", 12, False, "first mismatch at 3: 1 != 2")
    assert record == CheckResult("abel.identities", 12, False, "first mismatch at 3: 1 != 2")
    assert record != CheckResult("abel.identities", 12, True, "first mismatch at 3: 1 != 2")
    assert CheckResult("x.y", 3, True) == CheckResult("x.y", 3, True, "")
    back = pickle.loads(pickle.dumps([record, CheckResult("x.y", 3, True)]))
    assert back == [record, CheckResult("x.y", 3, True)]
    assert [type(r) for r in back] == [CheckResult, CheckResult]
    assert back[0].line() == record.line()
