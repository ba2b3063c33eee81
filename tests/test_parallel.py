"""Tests for the parallel experiment runner and its invariance contract.

The contract: running experiments through ``--jobs N`` must produce
report text and simulated-cost counters bit-identical to the serial path,
because every grid point is an isolated, per-point-seeded simulation and
the parallel runner only *warms caches* — assembly stays serial.
"""

import concurrent.futures
import dataclasses

import pytest

from repro.core.env import StorageEnvironment
from repro.core.errors import InvalidArgumentError
from repro.experiments import common, parallel, random_ops, registry
from repro.experiments.common import (
    BUILD_CHUNK_BYTES,
    build_object,
    make_store,
    resolve_scale,
)
from repro.experiments.grid import (
    POINT_KINDS,
    GridPoint,
    full_grid,
    grid_for,
)
from repro.experiments.registry import run
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    parallel.clear_caches()
    yield
    parallel.clear_caches()


class TestGrid:
    def test_every_experiment_has_a_grid(self):
        assert set(registry.GRIDS) == set(registry.EXPERIMENTS)

    def test_table1_grid_is_empty(self):
        assert grid_for("table1") == []

    def test_fig5_grid_covers_the_sweep(self):
        scale = resolve_scale("tiny")
        points = grid_for("fig5", scale)
        # 4 ESM leaf sizes + Starburst, each across every append size.
        assert len(points) == 5 * len(scale.append_sizes_kb)
        assert all(p.kind == "build" for p in points)

    def test_shared_random_runs_deduplicate(self):
        # Figures 7-12 consume the same 24 random-update runs.
        merged = full_grid(["fig7-8", "fig9-10", "fig11-12"])
        assert len(merged) == len(grid_for("fig7-8"))

    def test_full_grid_preserves_first_seen_order(self):
        merged = full_grid(["fig5", "fig6"])
        assert merged[: len(grid_for("fig5"))] == grid_for("fig5")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            grid_for("fig99")

    def test_points_are_hashable_and_picklable(self):
        import pickle

        point = grid_for("fig9-10")[0]
        assert pickle.loads(pickle.dumps(point)) == point
        assert hash(point) == hash(pickle.loads(pickle.dumps(point)))


class TestRunGrid:
    def test_serial_and_parallel_results_are_equal(self):
        points = grid_for("tables23")  # 3 Starburst random-update runs
        serial = parallel.run_grid(points, jobs=1)
        fanned = parallel.run_grid(points, jobs=2)
        assert serial == fanned

    def test_results_line_up_with_point_order(self):
        points = grid_for("fig5")[:4]
        results = parallel.run_grid(points, jobs=2)
        for point, result in zip(points, results):
            assert result == parallel.compute_point(point)

    def test_unknown_kind_rejected(self):
        bogus = GridPoint(kind="nonsense", scheme="esm", scale_name="tiny")
        with pytest.raises(ValueError):
            parallel.compute_point(bogus)


class TestReportInvariance:
    @pytest.mark.parametrize("name", ["fig5", "fig6", "fig9-10"])
    def test_jobs2_report_text_is_bit_identical(self, name):
        serial_text = run(name)
        parallel.clear_caches()
        parallel.precompute([name], jobs=2)
        assert run(name) == serial_text

    def test_precompute_counts_distinct_points(self):
        n = parallel.precompute(["fig7-8", "fig9-10"], jobs=2)
        assert n == len(grid_for("fig7-8"))


@pytest.fixture
def built_envs(monkeypatch):
    """Call to start recording every StorageEnvironment constructed."""

    def start() -> list:
        built: list = []
        original = StorageEnvironment.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(StorageEnvironment, "__init__", counting_init)
        return built

    return start


class TestOneResultTable:
    """The harness has one memo and one point->computation binding."""

    def test_every_point_kind_resolves_through_the_binding(self):
        scale = resolve_scale("tiny")
        points = full_grid(sorted(registry.EXPERIMENTS), scale)
        assert {p.kind for p in points} == set(POINT_KINDS)
        for kind in POINT_KINDS:
            point = next(p for p in points if p.kind == kind)
            compute, args = parallel.binding(point)
            assert callable(compute)
            hash(args)  # usable as a result-table key
        bogus = GridPoint(kind="nonsense", scheme="esm", scale_name="tiny")
        with pytest.raises(InvalidArgumentError):
            parallel.binding(bogus)
        with pytest.raises(InvalidArgumentError):
            parallel.prime_results([bogus], [0.0])

    def test_primed_grid_renders_without_building_an_environment(
        self, built_envs
    ):
        scale = resolve_scale("tiny")
        names = sorted(registry.EXPERIMENTS)
        points = full_grid(names, scale)
        results = parallel.run_grid(points, jobs=2)
        parallel.clear_caches()
        parallel.prime_results(points, results)
        built = built_envs()
        for name in names:
            run(name)
        assert built == []
        # ...and the count is live: an unprimed table has to build some.
        parallel.clear_caches()
        run("fig5")
        assert built

    def test_clear_leaves_nothing_memoized(self, built_envs):
        built = built_envs()
        names = ["fig5", "scaling", "shards"]
        for name in names:
            run(name)
        first = len(built)
        assert first > 0
        for name in names:
            run(name)
        assert len(built) == first  # everything came from the table
        parallel.clear_caches()
        for name in names:
            run(name)
        assert len(built) == 2 * first  # every point computed again

    def test_prime_never_overwrites_an_entry(self):
        def compute(x):
            return x * 2

        assert common.memoized(compute, 21) == 42
        common.prime(compute, (21,), "stale")
        assert common.memoized(compute, 21) == 42
        common.prime(compute, (5,), "primed")
        common.prime(compute, (5,), "second")
        assert common.memoized(compute, 5) == "primed"


def _random_run_io_counters(point: GridPoint) -> dict:
    """Replay one random-update point and return its raw IOStats counters.

    Module-level so it pickles into worker processes.
    """
    scale = resolve_scale(point.scale_name)
    key = random_ops.make_run_key(
        point.scheme, point.setting, point.mean_op, scale
    )
    store = make_store(
        key.scheme,
        leaf_pages=key.setting,
        threshold_pages=key.setting,
        config=point.config,
        shadowing=key.shadowing,
    )
    oid = build_object(store, key.object_bytes, BUILD_CHUNK_BYTES)
    generator = WorkloadGenerator(
        object_size=store.size(oid),
        mean_op_size=key.mean_op,
        seed=random_ops.WORKLOAD_SEED,
    )
    WorkloadRunner(store.manager, oid, generator).run(
        key.n_ops, window=key.window
    )
    return dataclasses.asdict(store.stats)


class TestCounterInvariance:
    def test_worker_process_counters_match_in_process(self):
        """CostModel read/write/seek counters are process-independent."""
        point = GridPoint(
            kind="random-ops",
            scheme="eos",
            scale_name="tiny",
            setting=4,
            mean_op=10 * 1024,
        )
        in_process = _random_run_io_counters(point)
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            from_worker = pool.submit(_random_run_io_counters, point).result()
        assert in_process == from_worker
        # Seeks are charged per physical call; identical call counts mean
        # identical seek totals.
        assert in_process["read_calls"] == from_worker["read_calls"]
        assert in_process["write_calls"] == from_worker["write_calls"]


class TestCLIJobs:
    def test_jobs_flag_output_matches_serial(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig5"]) == 0
        serial_out = capsys.readouterr().out
        parallel.clear_caches()
        assert main(["--jobs", "2", "fig5"]) == 0
        assert capsys.readouterr().out == serial_out


# ----------------------------------------------------------------------
# Graceful degradation: crashed workers, hangs, poisoned computations
# ----------------------------------------------------------------------
import os
import time


def _kill_first_worker(point):
    """Compute wrapper that hard-kills the first worker to run a point.

    The marker file (path via environment, so it survives the fork into
    workers) ensures exactly one suicide; retries compute normally.
    Module-level so it pickles into worker processes.
    """
    marker = os.environ["REPRO_TEST_KILL_MARKER"]
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return parallel.compute_point(point)


def _fail_in_workers(point):
    """Compute wrapper that raises in every worker but works in-parent."""
    if os.getpid() != int(os.environ["REPRO_TEST_PARENT_PID"]):
        raise ValueError("poisoned worker")
    return parallel.compute_point(point)


def _hang_in_workers(point):
    """Compute wrapper that hangs in workers but works in-parent."""
    if os.getpid() != int(os.environ["REPRO_TEST_PARENT_PID"]):
        time.sleep(3)
    return parallel.compute_point(point)


class TestDegradation:
    def test_killed_worker_heals_bit_identically(self, tmp_path, monkeypatch):
        """A worker dying mid-grid breaks the pool; the runner retries on
        a fresh pool and the final results match a serial run exactly."""
        marker = tmp_path / "killed"
        monkeypatch.setenv("REPRO_TEST_KILL_MARKER", str(marker))
        points = grid_for("tables23")
        serial = parallel.run_grid(points, jobs=1)
        log = parallel.DegradationLog()
        healed = parallel.run_grid(
            points, jobs=2, compute=_kill_first_worker, log=log
        )
        assert healed == serial
        assert marker.exists()
        assert log.degraded
        assert any(e.kind == "worker-crash" for e in log.events)
        assert all(e.action == "retried" for e in log.events)
        assert "degraded" in log.summary()

    def test_timeout_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PARENT_PID", str(os.getpid()))
        points = grid_for("tables23")[:2]
        serial = parallel.run_grid(points, jobs=1)
        log = parallel.DegradationLog()
        healed = parallel.run_grid(
            points,
            jobs=2,
            timeout_s=0.3,
            compute=_hang_in_workers,
            log=log,
        )
        assert healed == serial
        assert any(e.kind == "timeout" for e in log.events)
        # Timeouts are not re-fanned: a point that just hung a worker
        # goes straight to the authoritative serial path.
        assert all(
            e.action == "serial-fallback"
            for e in log.events
            if e.kind == "timeout"
        )

    def test_poisoned_worker_exhausts_retries_then_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PARENT_PID", str(os.getpid()))
        points = grid_for("tables23")[:2]
        serial = parallel.run_grid(points, jobs=1)
        log = parallel.DegradationLog()
        healed = parallel.run_grid(
            points, jobs=2, retries=1, compute=_fail_in_workers, log=log
        )
        assert healed == serial
        for index in range(len(points)):
            mine = [e for e in log.events if e.point_index == index]
            assert [e.action for e in mine] == ["retried", "serial-fallback"]
            assert all(e.kind == "error" for e in mine)
            assert all("ValueError" in e.detail for e in mine)

    def test_degraded_report_text_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """End to end: a grid healed after a worker kill primes the memo
        caches and the rendered report matches the serial text exactly."""
        name = "tables23"
        serial_text = run(name)
        parallel.clear_caches()
        marker = tmp_path / "killed"
        monkeypatch.setenv("REPRO_TEST_KILL_MARKER", str(marker))
        points = grid_for(name)
        log = parallel.DegradationLog()
        results = parallel.run_grid(
            points, jobs=2, compute=_kill_first_worker, log=log
        )
        parallel.prime_results(points, results)
        assert run(name) == serial_text
        assert log.degraded

    def test_undisturbed_parallel_run_logs_nothing(self):
        points = grid_for("tables23")[:2]
        log = parallel.DegradationLog()
        parallel.run_grid(points, jobs=2, log=log)
        assert not log.degraded
        assert log.summary() == ""

    def test_cli_accepts_retry_and_timeout_flags(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig5"]) == 0
        serial_out = capsys.readouterr().out
        parallel.clear_caches()
        assert main(
            ["--jobs", "2", "--retries", "1", "--timeout", "60", "fig5"]
        ) == 0
        assert capsys.readouterr().out == serial_out
