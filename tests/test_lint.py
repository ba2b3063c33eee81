"""Tests for repro.lint: rules, suppressions, CLI, contracts, and meta-lint."""

import json
import pathlib
import textwrap

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.errors import ContractViolationError
from repro.lint import RULES, lint_file, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.contracts import checks_enabled, pure_read, refuse_in_cleanup
from repro.lint.rules import SEAMS

#: The shipped package and the test tree, linted by the meta-test below.
REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
REPO_TESTS = pathlib.Path(__file__).resolve().parent


def write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def run_rule(rule_id, path):
    """Lint one file with a single rule; returns the violations."""
    return lint_file(path, [RULES[rule_id]])


# ----------------------------------------------------------------------
# The seam table: one row per "pattern X only under path P"
# ----------------------------------------------------------------------
def case(rule_id, name, relative, source, lines):
    """A file at ``relative`` and the lines ``rule_id`` must flag in it."""
    return pytest.param(rule_id, relative, source, lines, id=f"{rule_id}-{name}")


SEAM_CASES = [
    case("LAY001", "raw_disk_read_in_manager_flagged", "repro/esm/bad.py", """\
        class EagerManager:
            def read(self, oid):
                return self.env.disk.read_pages(0, 1)
        """, [3]),
    case("LAY001", "raw_disk_write_flagged", "repro/eos/bad.py", """\
        def flush(pool):
            pool.disk.write_pages(4, 1, b"x")
        """, [2]),
    case("LAY001", "buffer_layer_is_allowed", "repro/buffer/pool2.py", """\
        def fix(self, page_id):
            return self.disk.read_pages(page_id, 1)
        """, []),
    case("LAY001", "unaccounted_peek_is_not_flagged", "repro/esm/peek.py", """\
        def snapshot(env):
            return env.disk.peek_pages(0, 4)
        """, []),
    case("PHANT001", "bytes_call_in_experiments_flagged",
         "repro/experiments/bad.py", """\
        def probe(store, oid, n):
            store.insert(oid, 0, bytes(n))
        """, [2]),
    case("PHANT001", "bytearray_in_workload_flagged", "repro/workload/bad.py", """\
        def payload(n):
            return bytearray(n)
        """, [2]),
    case("PHANT001", "bytes_literal_repetition_flagged",
         "repro/experiments/rep.py", """\
        def payload(n):
            return b"\\x00" * n
        """, [2]),
    case("PHANT001", "sized_payload_is_clean", "repro/experiments/good.py", """\
        from repro.core.payload import SizedPayload

        def probe(store, oid, n):
            store.insert(oid, 0, SizedPayload(n))
        """, []),
    case("PHANT001", "other_layers_not_covered", "repro/disk/zero.py", """\
        def zero_page(n):
            return bytes(n)
        """, []),
    case("PHANT001", "empty_bytes_and_suppression_allowed",
         "repro/workload/mixed.py", """\
        def empty():
            return bytes()

        def real(n):
            return bytes(i % 7 for i in range(n))  # repro-lint: disable=PHANT001
        """, []),
    case("OBS001", "print_in_library_flagged", "repro/tree/tree.py", """\
        def locate(tree, pos):
            print("locating", pos)
        """, [2]),
    case("OBS001", "print_under_main_guard_flagged",
         "repro/experiments/fig5_build.py", """\
        def main():
            return "report"


        if __name__ == "__main__":
            print(main())
        """, [6]),
    case("OBS001", "print_in_cli_allowed", "repro/experiments/cli.py", """\
        def main():
            print("report")
        """, []),
    case("OBS001", "print_in_dunder_main_allowed", "repro/lint/__main__.py", """\
        print("usage")
        """, []),
    case("DET002", "time_call_in_library_code", "repro/disk/mod.py", """\
        import time

        def f(report):
            report["at"] = time.time()
        """, [4]),
    case("DET002", "unseeded_random_in_library_code", "repro/segio/mod.py", """\
        import random

        def f(n):
            return n + random.random()
        """, [4]),
    case("DET002", "unsorted_listdir", "repro/records/mod.py", """\
        import os

        def f(path):
            return os.listdir(path)
        """, [4]),
    case("DET002", "sorted_listdir_flagged", "repro/records/mod.py", """\
        import os

        def f(path):
            return sorted(os.listdir(path))
        """, [4]),
    case("DET002", "bench_layer_is_not_exempt", "repro/bench/mod.py", """\
        import time

        def f():
            return time.perf_counter()
        """, [4]),
    case("DET002", "module_and_class_level_sources", "repro/segio/m.py", """\
        import random
        import time

        STAMP = time.time()
        JITTER = random.randint(0, 3)


        class K:
            AT = time.monotonic()
        """, [4, 5, 9]),
    case("DET002", "seeded_random_is_fine", "repro/workload/mod.py", """\
        import random

        def f(seed):
            return random.Random(seed).randint(0, 7)
        """, []),
    case("DET002", "clock_in_cli_allowed", "repro/experiments/cli.py", """\
        import time

        def main():
            return time.perf_counter()
        """, []),
    case("SEAM001", "disk_private_in_library_flagged", "repro/core/fsck.py", """\
        def pages(env):
            return env.disk._pages
        """, [2]),
    case("SEAM001", "disk_private_in_other_test_flagged", "tests/test_sweep.py", """\
        def test_bits(disk):
            assert disk._recorded
        """, [2]),
    case("SEAM001", "disk_package_allowed", "repro/disk/checksum.py", """\
        def pages(disk):
            return disk._pages
        """, []),
    case("SEAM001", "disk_unit_test_allowed", "tests/test_disk.py", """\
        def test_bits(disk):
            assert disk._recorded
        """, []),
    case("SEAM001", "public_and_dunder_names_are_fine", "repro/core/fsck.py", """\
        def pages(self, disk):
            return disk.pages_in_use, disk.__class__, self._disk_pages
        """, []),
    case("SEAM002", "node_array_writes_flagged", "repro/tree/tree.py", """\
        def rebalance(node, extra):
            node.cums.append(0)
            node.refs[0] = extra
            node.allocs = []
            del node.cums[-1]
            node.refs[1:2] += extra
        """, [2, 3, 4, 5, 6]),
    case("SEAM002", "node_module_allowed", "repro/tree/node.py", """\
        def rebalance(node, extra):
            node.cums.append(0)
            node.refs[0] = extra
        """, []),
    case("SEAM002", "node_array_reads_are_fine", "repro/tree/tree.py", """\
        def total(node):
            return node.cums[-1], list(node.refs), node.allocs.index(3)
        """, []),
    case("SEAM003", "extent_field_writes_flagged", "repro/tree/node.py", """\
        def shift(extent, new_extent):
            extent.page_id = 4
            new_extent.used_bytes += 1
        """, [2, 3]),
    case("SEAM003", "minting_and_reading_are_fine", "repro/tree/node.py", """\
        class LeafExtent:
            def __init__(self, page_id):
                self.page_id = page_id

        def shifted(extent):
            return LeafExtent(extent.page_id + 1)
        """, []),
    case("SEAM004", "fstring_pack_flagged", "repro/atomic/journal.py", """\
        import struct

        def pack(values):
            return struct.pack(f"<{len(values)}I", *values)
        """, [4]),
    case("SEAM004", "constant_and_precompiled_formats_are_fine",
         "repro/tree/node.py", """\
        import struct

        def pack(values):
            head = struct.pack("<I", len(values))
            return head + struct.Struct(f"<{len(values)}I").pack(*values)
        """, []),
    case("SEAM005", "pool_private_in_library_flagged",
         "repro/segio/segment_io.py", """\
        class SegmentIO:
            def resident(self, page):
                return page in self.pool._frames
        """, [3]),
    case("SEAM005", "pool_private_in_other_test_flagged",
         "tests/test_stateful.py", """\
        def test_capacity(pool):
            assert len(pool._frames) <= pool.capacity
        """, [2]),
    case("SEAM005", "buffer_package_allowed", "repro/buffer/run.py", """\
        def resident(pool, page):
            return page in pool._frames
        """, []),
    case("SEAM005", "pool_unit_test_allowed", "tests/test_buffer_pool.py", """\
        def test_capacity(pool):
            assert len(pool._frames) <= pool.capacity
        """, []),
    case("SEAM005", "public_accessor_is_fine", "tests/test_stateful.py", """\
        def test_order(pool):
            assert [page for page, _, _ in pool.frames()] == [1, 2]
        """, []),
    case("SEAM006", "manager_private_in_recovery_flagged",
         "repro/recovery/atomic.py", """\
        def reload(manager, oid, tree):
            manager._objects[oid] = tree
        """, [2]),
    case("SEAM006", "manager_private_in_other_test_flagged",
         "tests/test_fsck.py", """\
        def test_dirs(store, oid):
            assert store.manager._directories[oid]
        """, [2]),
    case("SEAM006", "manager_package_allowed", "repro/starburst/manager.py", """\
        def reload(manager, oid, descriptor):
            manager._fields[oid] = descriptor
        """, []),
    case("SEAM006", "reload_and_image_are_fine", "repro/recovery/atomic.py", """\
        def reload(manager, oid):
            manager.reload(oid)
            return list(manager.image_extents(oid))
        """, []),
    case("SEAM007", "tree_private_in_other_test_flagged",
         "tests/test_object_size_limit.py", """\
        def test_refused(store, oid):
            tree = store.manager.tree_of(oid)
            assert not tree._dirty
        """, [3]),
    case("SEAM007", "tree_test_allowed", "tests/test_tree_deep.py", """\
        def test_pages(tree):
            assert [node.page_id for node in tree._walk_nodes()]
        """, []),
    case("SEAM008", "pin_pairs_outside_the_pool_flagged",
         "repro/records/store.py", """\
        def touch(pool, page, provider):
            pool.access(page, provider)
            frame = pool.fix(page)
            pool.unfix(page, dirty=True)
            return pool.fix_new(page + 1), frame
        """, [3, 4, 5]),
    case("SEAM008", "buddy_pin_flagged", "repro/buddy/allocator.py", """\
        def grow(pool, page, provider):
            pool.access_new(page, provider)
            pool.fix_new(page)
            pool.access(page, provider)
            pool.unfix(page, dirty=True)
        """, [3, 5]),
    case("SEAM008", "buffer_package_allowed", "repro/buffer/pool.py", """\
        def grow(pool, page, provider):
            pool.fix_new(page)
            pool.access(page, provider)
            pool.unfix(page, dirty=True)
        """, []),
]


@pytest.mark.parametrize(("rule_id", "relative", "source", "lines"), SEAM_CASES)
def test_seam_table(tmp_path, rule_id, relative, source, lines):
    path = write(tmp_path, relative, source)
    violations = lint_paths([path], select={rule_id})
    assert [(v.rule_id, v.line) for v in violations] == [
        (rule_id, line) for line in lines
    ]


def test_every_seam_has_a_flagged_and_a_clean_case():
    flagged = {p.values[0] for p in SEAM_CASES if p.values[3]}
    clean = {p.values[0] for p in SEAM_CASES if not p.values[3]}
    assert flagged == clean == {seam.rule_id for seam in SEAMS}


# ----------------------------------------------------------------------
# ERR001: exception hierarchy
# ----------------------------------------------------------------------
class TestErrorTypeRule:
    def test_bare_valueerror_flagged(self, tmp_path):
        path = write(tmp_path, "repro/esm/raises.py", """\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
            """)
        violations = run_rule("ERR001", path)
        assert [v.rule_id for v in violations] == ["ERR001"]
        assert "ValueError" in violations[0].message

    def test_core_errors_types_allowed(self, tmp_path):
        path = write(tmp_path, "repro/esm/ok.py", """\
            from repro.core.errors import InvalidArgumentError

            def f(x):
                if x < 0:
                    raise InvalidArgumentError("negative")
                raise NotImplementedError
            """)
        assert run_rule("ERR001", path) == []

    def test_reraise_and_dynamic_raise_allowed(self, tmp_path):
        path = write(tmp_path, "repro/esm/dynamic.py", """\
            def f(self, oid):
                try:
                    pass
                except Exception:
                    raise
                raise self._missing(oid)
            """)
        assert run_rule("ERR001", path) == []


# ----------------------------------------------------------------------
# ALLOC001: allocate/free pairing
# ----------------------------------------------------------------------
class TestAllocationPairingRule:
    def test_allocate_without_free_flagged(self, tmp_path):
        path = write(tmp_path, "repro/esm/leaky.py", """\
            class Grabber:
                def grab(self):
                    return self.area.allocate(4)
            """)
        assert [v.rule_id for v in run_rule("ALLOC001", path)] == ["ALLOC001"]

    def test_allocate_with_free_path_allowed(self, tmp_path):
        path = write(tmp_path, "repro/esm/paired.py", """\
            class Grabber:
                def grab(self):
                    return self.area.allocate(4)

                def drop(self, page):
                    self.area.free(page, 4)
            """)
        assert run_rule("ALLOC001", path) == []

    def test_free_range_counts_as_free(self, tmp_path):
        path = write(tmp_path, "repro/buddy/space2.py", """\
            def resize(space):
                block = space.allocate(2)
                space.free_range(block, 2)
            """)
        assert run_rule("ALLOC001", path) == []


# ----------------------------------------------------------------------
# MUT001: mutable defaults and module state
# ----------------------------------------------------------------------
class TestMutableStateRule:
    def test_mutable_default_flagged(self, tmp_path):
        path = write(tmp_path, "repro/esm/defaults.py", """\
            def collect(items=[]):
                return items
            """)
        violations = run_rule("MUT001", path)
        assert [v.rule_id for v in violations] == ["MUT001"]
        assert "collect" in violations[0].message

    def test_module_level_mutable_flagged(self, tmp_path):
        path = write(tmp_path, "repro/esm/globals.py", "cache = {}\n")
        assert [v.rule_id for v in run_rule("MUT001", path)] == ["MUT001"]

    def test_constants_and_dunders_exempt(self, tmp_path):
        path = write(tmp_path, "repro/esm/consts.py", """\
            __all__ = ["TABLE"]
            TABLE = {"a": 1}

            def f(tail=None):
                return tail or []
            """)
        assert run_rule("MUT001", path) == []


# ----------------------------------------------------------------------
# DOC001: documented, annotated manager methods
# ----------------------------------------------------------------------
class TestDocAnnotationRule:
    def test_undocumented_manager_method_flagged(self, tmp_path):
        path = write(tmp_path, "repro/esm/toy.py", """\
            class ToyManager:
                def read(self, oid, offset, nbytes):
                    return b""
            """)
        ids = [v.rule_id for v in run_rule("DOC001", path)]
        # Missing docstring, missing parameter annotations, missing return.
        assert ids == ["DOC001", "DOC001", "DOC001"]

    def test_documented_annotated_method_clean(self, tmp_path):
        path = write(tmp_path, "repro/esm/toy_ok.py", """\
            class ToyManager:
                def read(self, oid: int, offset: int, nbytes: int) -> bytes:
                    \"\"\"Read a byte range (Section 3.2).\"\"\"
                    return b""

                def _helper(self, x):
                    return x
            """)
        assert run_rule("DOC001", path) == []

    def test_other_classes_not_covered(self, tmp_path):
        path = write(tmp_path, "repro/esm/other.py", """\
            class Cursor:
                def advance(self, n):
                    return n
            """)
        assert run_rule("DOC001", path) == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_line_suppression(self, tmp_path):
        path = write(tmp_path, "repro/esm/s1.py", """\
            def f():
                raise ValueError("x")  # repro-lint: disable=ERR001
            """)
        assert run_rule("ERR001", path) == []

    def test_file_suppression(self, tmp_path):
        path = write(tmp_path, "repro/esm/s2.py", """\
            # repro-lint: disable-file=ERR001

            def f():
                raise ValueError("x")

            def g():
                raise TypeError("y")
            """)
        assert run_rule("ERR001", path) == []

    def test_disable_all_on_line(self, tmp_path):
        path = write(tmp_path, "repro/esm/s3.py", """\
            def f(items=[]):  # repro-lint: disable=all
                return items
            """)
        assert run_rule("MUT001", path) == []

    def test_suppression_is_rule_specific(self, tmp_path):
        path = write(tmp_path, "repro/esm/s4.py", """\
            def f(items=[]):  # repro-lint: disable=ERR001
                return items
            """)
        # Suppressing ERR001 must not hide the MUT001 violation.
        assert [v.rule_id for v in run_rule("MUT001", path)] == ["MUT001"]


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = write(tmp_path, "broken.py", "def f(:\n")
        violations = lint_file(path)
        assert [v.rule_id for v in violations] == ["SYN000"]

    def test_violation_format(self, tmp_path):
        path = write(tmp_path, "repro/esm/fmt.py", """\
            def f():
                raise ValueError("x")
            """)
        violation = run_rule("ERR001", path)[0]
        assert violation.format().startswith(f"{path}:2:")
        assert "ERR001" in violation.format()
        assert violation.to_dict()["rule_id"] == "ERR001"

    def test_lint_paths_select_and_ignore(self, tmp_path):
        write(tmp_path, "repro/esm/multi.py", """\
            cache = {}

            def f():
                raise ValueError("x")
            """)
        everything = {v.rule_id for v in lint_paths([tmp_path])}
        assert everything == {"ERR001", "MUT001"}
        only_mut = lint_paths([tmp_path], select={"MUT001"})
        assert {v.rule_id for v in only_mut} == {"MUT001"}
        no_mut = lint_paths([tmp_path], ignore={"MUT001"})
        assert {v.rule_id for v in no_mut} == {"ERR001"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "ok.py", "X = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one_with_locations(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", """\
            def f():
                raise ValueError("x")
            """)
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ERR001" in out
        assert f"{path}:2" in out

    def test_json_format(self, tmp_path, capsys):
        write(tmp_path, "bad.py", "cache = {}\n")
        assert lint_main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["violations"][0]["rule_id"] == "MUT001"

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_unknown_rule_is_usage_error(self, tmp_path):
        write(tmp_path, "ok.py", "X = 1\n")
        with pytest.raises(SystemExit) as exc:
            lint_main(["--select", "NOPE", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            lint_main([str(tmp_path / "nope")])
        assert exc.value.code == 2

    def test_flow_flag_is_a_usage_error(self, tmp_path):
        # Crash-safe cleanup is checked at run time (TestCleanupContract).
        write(tmp_path, "ok.py", "X = 1\n")
        with pytest.raises(SystemExit) as exc:
            lint_main(["--flow", str(tmp_path)])
        assert exc.value.code == 2


# ----------------------------------------------------------------------
# Runtime contracts (REPRO_CHECKS=1)
# ----------------------------------------------------------------------
class _NaughtyReader:
    """A @pure_read method that mutates the disk — charged or not, it
    should trip the runtime check."""

    def __init__(self, disk):
        self.disk = disk
        self.checks = disk.checks

    @pure_read
    def naughty(self, how="write"):
        if how == "write":
            self.disk.write_pages(0, 1, bytes(16))
        elif how == "poke":
            self.disk.poke_pages(10**6, b"fresh page")
        elif how == "repoke":
            # Over a written page, with its own bytes: no page is added.
            self.disk.poke_pages(_RECORDED_PAGE, self.disk.peek_pages(
                _RECORDED_PAGE, 1
            ))
        elif how == "defer":
            self.disk.defer_image(_RECORDED_PAGE, lambda: bytes(128))
        else:
            self.disk.discard_pages(_PHANTOM_PAGE, 1)
        return True


#: Written in phantom mode by the fixture, for the discard to forget.
_PHANTOM_PAGE = 10**6 + 1
#: Written with bytes by the fixture, for a poke or deferral to cover.
_RECORDED_PAGE = 10**6 + 2


def _written_disk():
    disk = LargeObjectStore("eos", small_page_config()).env.disk
    disk.write_pages(_PHANTOM_PAGE, 1, b"", record=False)
    disk.write_pages(_RECORDED_PAGE, 1, b"\x07" * 128)
    return disk


class TestRuntimeContracts:
    @pytest.fixture
    def disk(self):
        return _written_disk()

    def test_flag_detection(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        assert not checks_enabled()
        monkeypatch.setenv("REPRO_CHECKS", "1")
        assert checks_enabled()

    def test_violation_raises_under_debug(self, checked, disk):
        with pytest.raises(ContractViolationError):
            _NaughtyReader(disk).naughty()

    @pytest.mark.parametrize("how", ["poke", "discard"])
    def test_uncharged_mutation_raises_under_debug(self, checked, disk, how):
        with pytest.raises(ContractViolationError):
            _NaughtyReader(disk).naughty(how)

    @pytest.mark.parametrize("how", ["repoke", "defer"])
    def test_in_place_change_of_a_written_page_raises_under_debug(
        self, checked, disk, how
    ):
        """A poke or deferral over a page that is already written adds
        no page and charges no write; the contract sees it anyway."""
        in_use = disk.pages_in_use
        with pytest.raises(ContractViolationError):
            _NaughtyReader(disk).naughty(how)
        assert disk.pages_in_use == in_use

    def test_passthrough_without_debug(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        assert _NaughtyReader(_written_disk()).naughty() is True

    def test_pure_methods_pass_under_debug(self, checked):
        store = LargeObjectStore("eos", small_page_config())
        oid = store.create(b"x" * 4096)
        pool = store.env.pool
        assert pool.is_resident(10**9) is False
        assert store.read(oid, 0, 16) == b"x" * 16


class _Boom(Exception):
    pass


def _fail_then(cleanup, how="finally"):
    """Run ``cleanup`` as the cleanup of a failed call: in a ``finally``
    the exception reaches, an ``except`` body, or an ``__exit__``."""
    if how == "finally":
        try:
            raise _Boom
        finally:
            cleanup()
    elif how == "except":
        try:
            raise _Boom
        except _Boom:
            cleanup()
            raise
    else:

        class Bracket:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                cleanup()

        with Bracket():
            raise _Boom


class TestCleanupContract:
    """With the checks on, no page changes and no space is allocated or
    freed while an exception is being handled: a failed call's cleanup
    leaves the committed image as it was."""

    @pytest.fixture
    def env(self, checked):
        return LargeObjectStore("eos", small_page_config()).env

    def test_direct_disk_mutation_in_finally(self, env):
        with pytest.raises(ContractViolationError, match="poke_pages"):
            _fail_then(lambda: env.disk.poke_pages(10**6, b"x"))
        assert not env.disk.was_written(10**6)

    def test_deferred_image_in_finally(self, env):
        with pytest.raises(ContractViolationError, match="defer_image"):
            _fail_then(lambda: env.disk.defer_image(10**6, bytes))

    def test_committed_image_in_finally(self, env):
        with pytest.raises(ContractViolationError, match="defer_image"):
            _fail_then(lambda: env.pool.commit_image(10**6, bytes))

    def test_transitive_mutation_in_finally(self, env):
        def flush():
            env.pool.write_run(10**6, 1, b"x")

        with pytest.raises(ContractViolationError, match="write_pages"):
            _fail_then(lambda: flush())
        assert not env.disk.was_written(10**6)

    def test_pool_mutation_in_except(self, env):
        with pytest.raises(ContractViolationError, match="write_pages"):
            _fail_then(lambda: env.pool.write_run(10**6, 1, b"x"), "except")

    def test_discard_in_exit(self, env):
        with pytest.raises(ContractViolationError, match="discard_pages"):
            _fail_then(lambda: env.disk.discard_pages(10**6, 1), "exit")

    @pytest.mark.parametrize("how", ["finally", "except", "exit"])
    def test_allocation_in_cleanup(self, env, how):
        data = env.areas.data
        in_use = data.allocated_pages
        with pytest.raises(ContractViolationError, match="data.allocate"):
            _fail_then(lambda: data.allocate(1), how)
        assert data.allocated_pages == in_use

    def test_free_in_except(self, env):
        data = env.areas.data
        page = data.allocate(1)
        with pytest.raises(ContractViolationError, match="data.free"):
            _fail_then(lambda: data.free(page, 1), "except")
        assert data.is_allocated(page)

    def test_the_violation_chains_the_handled_error(self, env):
        with pytest.raises(ContractViolationError) as caught:
            _fail_then(lambda: env.disk.poke_pages(10**6, b"x"), "except")
        assert isinstance(caught.value.__context__, _Boom)

    def test_success_path_flush_is_fine(self, env):
        try:
            pass
        finally:
            env.pool.write_run(10**6, 1, b"x")
        assert env.disk.was_written(10**6)

    def test_an_undo_after_the_handler_is_fine(self, env):
        """The post-handler form: save the error, undo, then re-raise."""
        data = env.areas.data
        page = data.allocate(1)
        try:
            raise _Boom
        except _Boom as exc:
            error = exc
        data.free(page, 1)
        assert not data.is_allocated(page)
        assert isinstance(error, _Boom)

    def test_unfix_in_finally_is_sanctioned(self, env):
        pool = env.pool
        pool.fix(0)
        with pytest.raises(_Boom):
            try:
                raise _Boom
            finally:
                pool.unfix(0)
        pool.assert_pin_balanced()

    def test_passthrough_without_checks(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        env = LargeObjectStore("eos", small_page_config()).env
        with pytest.raises(_Boom):
            _fail_then(lambda: env.disk.poke_pages(10**6, b"x"))
        assert env.disk.was_written(10**6)

    def test_outside_a_handler_the_contract_holds(self):
        refuse_in_cleanup("nothing")


# ----------------------------------------------------------------------
# Meta: the shipped tree lints clean
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean():
    # The tests reach the device, the pool and the managers through
    # public calls too.
    violations = lint_paths([REPO_SRC]) + lint_paths(
        [REPO_TESTS], select={"SEAM001", "SEAM005", "SEAM006", "SEAM007"}
    )
    assert violations == [], "\n".join(v.format() for v in violations)


# ----------------------------------------------------------------------
# FAULT001: crash/fault exceptions propagate to the fault layers
# ----------------------------------------------------------------------
class TestFaultHandlingRule:
    def test_catching_crash_error_in_manager_flagged(self, tmp_path):
        path = write(tmp_path, "repro/esm/bad.py", """\
            def sloppy(store, oid, data):
                try:
                    store.append(oid, data)
                except CrashError:
                    pass
            """)
        violations = run_rule("FAULT001", path)
        assert [v.rule_id for v in violations] == ["FAULT001"]
        assert "CrashError" in violations[0].message

    def test_catching_fault_error_in_tuple_flagged(self, tmp_path):
        path = write(tmp_path, "repro/buffer/bad.py", """\
            def read(pool, page):
                try:
                    return pool.fix(page)
                except (KeyError, IOFaultError):
                    return None
            """)
        assert [v.rule_id for v in run_rule("FAULT001", path)] == ["FAULT001"]

    def test_broad_except_flagged(self, tmp_path):
        path = write(tmp_path, "repro/segio/bad.py", """\
            def safe_write(segio, page, data):
                try:
                    segio.write_pages(page, data)
                except Exception:
                    return False
            """)
        violations = run_rule("FAULT001", path)
        assert [v.rule_id for v in violations] == ["FAULT001"]
        assert "broad" in violations[0].message

    def test_bare_except_flagged(self, tmp_path):
        path = write(tmp_path, "repro/tree/bad.py", """\
            def read(tree, pos):
                try:
                    return tree.locate(pos)
                except:
                    return None
            """)
        assert [v.rule_id for v in run_rule("FAULT001", path)] == ["FAULT001"]

    def test_reraising_handler_is_exempt(self, tmp_path):
        path = write(tmp_path, "repro/records/ok.py", """\
            def guarded(store):
                try:
                    store.flush()
                except Exception:
                    store.rollback()
                    raise
            """)
        assert run_rule("FAULT001", path) == []

    def test_fault_and_recovery_layers_may_catch(self, tmp_path):
        for layer in ("faults", "recovery"):
            path = write(tmp_path, f"repro/{layer}/ok.py", """\
                def sweep_point(store, oid, data):
                    try:
                        store.append(oid, data)
                    except CrashError:
                        return "crashed"
                """)
            assert run_rule("FAULT001", path) == []

    def test_specific_expected_types_are_fine(self, tmp_path):
        path = write(tmp_path, "repro/core/ok.py", """\
            def lookup(allocator, page):
                try:
                    return allocator._locate(page)
                except AllocationError:
                    return None
            """)
        assert run_rule("FAULT001", path) == []

    def test_suppression_comment_respected(self, tmp_path):
        path = write(tmp_path, "repro/experiments/ok.py", """\
            def contain(future):
                try:
                    return future.result()
                except Exception as exc:  # repro-lint: disable=FAULT001
                    return exc
            """)
        assert run_rule("FAULT001", path) == []
