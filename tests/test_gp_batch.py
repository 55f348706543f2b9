"""Batched fitness math and the persistent GP process pool.

The batched math answers a whole population in one (P×N) matrix pass;
each row must be bit-exactly the per-tree fitness.  The pool is cached
per worker configuration, survives across inference passes, is rebuilt
after a worker dies, and is forgotten by :func:`shutdown_gp_pools`.
"""

import json
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import DPReverser, ReverserConfig
from repro.core import reverser as reverser_module
from repro.core.gp import GeneticProgrammer, GpConfig, batched_maes
from repro.core.reverser import gp_pool, shutdown_gp_pools

GP = GpConfig(seed=2, generations=8, population_size=100)


def matrix(rows, n, seed, mutate=None):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(rows, n)) * 10.0
    y = rng.normal(size=n) * 5.0
    if mutate:
        mutate(F)
    return F, y


def adversarial(n):
    """Rows covering every branch of the fitness math."""

    def mutate(F):
        F[0, :] = np.nan
        F[1, 2] = np.inf
        F[2, :] = 7.25  # zero-variance: the a=0, b=y_mean branch

    return matrix(9, n, seed=n, mutate=mutate)


class TestMergedPass:
    def test_all_invalid_rows_go_inf(self):
        F, y = matrix(3, 12, seed=1, mutate=lambda F: F.fill(np.nan))
        assert np.isinf(batched_maes(F, y, True)).all()


class TestBatchedMaes:
    @pytest.mark.parametrize("linear_scaling", [False, True])
    @pytest.mark.parametrize("n", [6, 40])  # below / above the trim threshold
    def test_rows_equal_per_tree_fitness(self, linear_scaling, n):
        F, y = adversarial(n)
        engine = GeneticProgrammer(GpConfig(linear_scaling=linear_scaling))
        batched = batched_maes(F.copy(), y, linear_scaling)
        for row, got in zip(F, batched):
            assert repr(float(got)) == repr(engine._mae_from_predictions(row, y))


# ---------------------------------------------------------------- the pool


def _die(task):
    """Stand-in for the pool's task body: die the way a segfault does."""
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def capture():
    from repro.cps import DataCollector
    from repro.tools import make_tool_for_car
    from repro.vehicle import build_car

    car = build_car("C")
    return DataCollector(make_tool_for_car("C", car), read_duration_s=8.0).collect()


def pooled_reverser():
    return DPReverser(ReverserConfig(gp_config=GP, gp_workers=2, gp_backend="process"))


def report_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestSharedPool:
    def test_pool_persists_across_calls(self):
        assert gp_pool(2) is gp_pool(2)
        assert gp_pool(2) is not gp_pool(2, memo_dir="/tmp/other")

    def test_shutdown_forgets_cached_pools(self):
        first = gp_pool(2)
        shutdown_gp_pools()
        assert reverser_module._GP_POOLS == {}
        assert gp_pool(2) is not first

    def test_same_executor_serves_two_infer_calls(self, capture):
        reverser = pooled_reverser()
        context = reverser.analyze(capture)
        first = report_json(reverser.infer(context))
        (pool,) = reverser_module._GP_POOLS.values()
        second = report_json(pooled_reverser().infer(context))
        assert list(reverser_module._GP_POOLS.values()) == [pool]
        assert second == first

    def test_killed_worker_breaks_one_call_then_rebuilds(self, capture, monkeypatch):
        reverser = pooled_reverser()
        context = reverser.analyze(capture)
        serial = report_json(DPReverser(ReverserConfig(gp_config=GP)).infer(context))
        with monkeypatch.context() as patch:
            patch.setattr(reverser_module, "_run_formula_task", _die)
            with pytest.raises(BrokenProcessPool):
                reverser.infer(context)
        (broken,) = reverser_module._GP_POOLS.values()
        assert report_json(reverser.infer(context)) == serial
        (rebuilt,) = reverser_module._GP_POOLS.values()
        assert rebuilt is not broken


class TestJobSpecGpBatch:
    def test_gp_batch_excluded_from_job_id(self):
        """A checkpoint written before the GP execution-backend knobs were
        removed still loads, under the same job id."""
        from repro.runtime import JobSpec

        spec = JobSpec(car_key="C", gp_workers=2)
        legacy = dict(spec.to_dict(), gp_backend="island", gp_batch=True)
        loaded = JobSpec.from_dict(legacy)
        assert loaded == spec
        assert loaded.job_id == spec.job_id == JobSpec(car_key="C").job_id
