"""Tests for the experiment grid and its one result table.

Every grid point is an isolated, per-point-seeded simulation; the runner
computes the grid in grid order and primes the result table, and the
assembly then renders from it.
"""

import pytest

from repro.core.env import StorageEnvironment
from repro.core.errors import InvalidArgumentError
from repro.experiments import common, parallel, registry
from repro.experiments.common import resolve_scale
from repro.experiments.grid import (
    POINT_KINDS,
    GridPoint,
    full_grid,
    grid_for,
)
from repro.experiments.registry import run


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


class TestReportInvariance:
    def test_precompute_counts_distinct_points(self):
        n = parallel.precompute(["fig7-8", "fig9-10"])
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
        results = [parallel.compute_point(point) for point in points]
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


class TestKeptStores:
    """A Figure 5 point keeps the object it built for its Figure 6 twin,
    which scans it instead of building the same object again."""

    def test_a_scan_after_its_build_returns_what_it_returns_alone(
        self, built_envs
    ):
        scale = resolve_scale("tiny")
        builds, scans = grid_for("fig5", scale), grid_for("fig6", scale)
        assert len(scans) == 20
        alone = [parallel.compute_point(point) for point in scans]
        built = built_envs()
        for build, scan, expected in zip(builds, scans, alone):
            parallel.compute_point(build)
            envs = len(built)
            assert parallel.compute_point(scan) == expected
            assert len(built) == envs  # the scan took the kept store
        assert common.BUILT == {}

    def test_clear_caches_drops_the_kept_stores(self, built_envs):
        for point in grid_for("fig5"):
            parallel.compute_point(point)
        assert len(common.BUILT) == len(grid_for("fig5"))
        parallel.clear_caches()
        assert common.BUILT == {}
        built = built_envs()
        run("fig6")
        assert len(built) == len(grid_for("fig6"))
