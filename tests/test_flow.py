"""Tests for repro.lint.flow: CFG, call graph, rule families, corpus.

Organization mirrors the subpackage: CFG construction first (loops,
try/finally, with, early return), then call-graph resolution, then at
least three positive and three negative cases per rule family, then the
seeded-bug corpus under ``tests/flow_corpus/`` (exact-match: every
seeded finding fires, nothing else does), and finally the meta-test that
the shipped ``src/repro`` tree is flow-clean.
"""

import ast
import json
import pathlib
import re
import textwrap

from repro.lint.cli import main as lint_main
from repro.lint.flow import build_cfg
from repro.lint.flow.callgraph import Program
from repro.lint.flow.rules import analyze_paths
from repro.lint.reporters import render_sarif

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
CORPUS = pathlib.Path(__file__).resolve().parent / "flow_corpus"


def write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def flow(path):
    """Run the whole-program analysis over a file or directory."""
    return analyze_paths([path])


def rule_ids(violations):
    return [v.rule_id for v in violations]


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


def reachable_blocks(cfg):
    seen, stack = {}, [cfg.entry]
    while stack:
        block = stack.pop()
        if block.bid in seen:
            continue
        seen[block.bid] = block
        stack.extend(succ for succ, _ in block.succs)
    return seen


def edge_kinds(cfg):
    return {
        kind
        for block in reachable_blocks(cfg).values()
        for _, kind in block.succs
    }


def blocks_containing(cfg, fragment):
    """Reachable blocks holding a statement whose source has ``fragment``."""
    found = []
    for block in reachable_blocks(cfg).values():
        for item in block.items:
            node = getattr(item, "node", item)
            if fragment in ast.unparse(node):
                found.append(block)
    return found


class TestCFGConstruction:
    def test_straight_line_reaches_exit(self):
        cfg = cfg_of("""\
            def f(a):
                b = a + 1
                return b
            """)
        assert cfg.exit.bid in reachable_blocks(cfg)

    def test_while_loop_has_back_edge(self):
        cfg = cfg_of("""\
            def f(n):
                while n > 0:
                    n -= 1
                return n
            """)
        assert "back" in edge_kinds(cfg)
        assert cfg.exit.bid in reachable_blocks(cfg)

    def test_for_loop_has_back_edge_and_else(self):
        cfg = cfg_of("""\
            def f(xs):
                total = 0
                for x in xs:
                    total += x
                else:
                    total += 1
                return total
            """)
        assert "back" in edge_kinds(cfg)
        assert blocks_containing(cfg, "total += 1")

    def test_calls_get_exception_edges(self):
        cfg = cfg_of("""\
            def f(codec, data):
                return codec.decode(data)
            """)
        # The decoding statement can raise: raise_exit must be reachable.
        assert cfg.raise_exit.bid in reachable_blocks(cfg)

    def test_return_of_bare_name_cannot_raise(self):
        cfg = cfg_of("""\
            def f(a):
                return a
            """)
        assert cfg.raise_exit.bid not in reachable_blocks(cfg)

    def test_early_return_makes_tail_unreachable(self):
        cfg = cfg_of("""\
            def f(flag):
                if flag:
                    return 1
                return 2
            """)
        blocks = reachable_blocks(cfg)
        assert cfg.exit.bid in blocks
        # Both returns present, nothing after them.
        assert blocks_containing(cfg, "return 1")
        assert blocks_containing(cfg, "return 2")

    def test_code_after_return_is_unreachable(self):
        cfg = cfg_of("""\
            def f():
                return 1
                x = 2
            """)
        assert not blocks_containing(cfg, "x = 2")

    def test_try_except_handler_reachable_via_exception(self):
        cfg = cfg_of("""\
            def f(codec, data):
                try:
                    return codec.decode(data)
                except ValueError:
                    return None
            """)
        assert blocks_containing(cfg, "return None")
        assert cfg.exit.bid in reachable_blocks(cfg)

    def test_finally_on_both_normal_and_exception_paths(self):
        cfg = cfg_of("""\
            def f(pool, page_id, codec):
                pool.fix(page_id)
                try:
                    return codec.decode(page_id)
                finally:
                    pool.unfix(page_id)
            """)
        blocks = reachable_blocks(cfg)
        assert blocks_containing(cfg, "unfix")
        # decode can raise; the exception continues after the finally.
        assert cfg.raise_exit.bid in blocks
        assert cfg.exit.bid in blocks

    def test_with_statement_body_reachable(self):
        cfg = cfg_of("""\
            def f(lock, work):
                with lock:
                    work()
                return True
            """)
        assert blocks_containing(cfg, "work()")
        assert cfg.exit.bid in reachable_blocks(cfg)

    def test_break_leaves_loop(self):
        cfg = cfg_of("""\
            def f(xs):
                for x in xs:
                    if x:
                        break
                return x
            """)
        assert cfg.exit.bid in reachable_blocks(cfg)


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
def program_of(tmp_path, sources):
    for relative, source in sources.items():
        write(tmp_path, relative, source)
    return Program.from_paths([tmp_path])


class TestCallGraph:
    def test_module_function_resolution(self, tmp_path):
        program = program_of(tmp_path, {
            "repro/pkg/mod.py": """\
                def helper():
                    pass

                def caller():
                    helper()
                """,
        })
        edges = program.call_edges()
        assert "repro.pkg.mod.helper" in edges["repro.pkg.mod.caller"]

    def test_self_method_resolution_through_base(self, tmp_path):
        program = program_of(tmp_path, {
            "repro/pkg/mod.py": """\
                class Base:
                    def helper(self):
                        pass

                class Derived(Base):
                    def caller(self):
                        self.helper()
                """,
        })
        edges = program.call_edges()
        assert "repro.pkg.mod.Base.helper" in edges["repro.pkg.mod.Derived.caller"]

    def test_from_import_resolution(self, tmp_path):
        program = program_of(tmp_path, {
            "repro/pkg/util.py": """\
                def tool():
                    pass
                """,
            "repro/pkg/mod.py": """\
                from repro.pkg.util import tool

                def caller():
                    tool()
                """,
        })
        assert "repro.pkg.util.tool" in program.call_edges()["repro.pkg.mod.caller"]

    def test_constructor_resolution(self, tmp_path):
        program = program_of(tmp_path, {
            "repro/pkg/mod.py": """\
                class Widget:
                    def __init__(self):
                        self.setup()

                    def setup(self):
                        pass

                def make():
                    return Widget()
                """,
        })
        assert "repro.pkg.mod.Widget.__init__" in program.call_edges()["repro.pkg.mod.make"]

    def test_generic_container_methods_not_linked(self, tmp_path):
        program = program_of(tmp_path, {
            "repro/pkg/mod.py": """\
                class Store:
                    def get(self, key):
                        return self.disk.read_pages(key, 1)

                def lookup(table, key):
                    return table.get(key)
                """,
        })
        # dict-protocol name: must NOT resolve to Store.get.
        assert "repro.pkg.mod.Store.get" not in program.call_edges()["repro.pkg.mod.lookup"]

    def test_reaching_is_transitive(self, tmp_path):
        program = program_of(tmp_path, {
            "repro/pkg/mod.py": """\
                def sink():
                    pass

                def middle():
                    sink()

                def top():
                    middle()

                def unrelated():
                    pass
                """,
        })
        reach = program.reaching({"repro.pkg.mod.sink"})
        assert {"repro.pkg.mod.sink", "repro.pkg.mod.middle",
                "repro.pkg.mod.top"} <= reach
        assert "repro.pkg.mod.unrelated" not in reach

    def test_subclasses_of_transitive(self, tmp_path):
        program = program_of(tmp_path, {
            "repro/pkg/mod.py": """\
                class Root:
                    pass

                class Mid(Root):
                    pass

                class Leaf(Mid):
                    pass

                class Other:
                    pass
                """,
        })
        names = {c.name for c in program.subclasses_of("Root")}
        assert names == {"Mid", "Leaf"}


# ----------------------------------------------------------------------
# FLOW001: pin typestate
# ----------------------------------------------------------------------
class TestPinTypestate:
    def test_leak_on_exception_path(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, page_id, codec):
                pool.fix(page_id)
                data = codec.decode(pool.lookup(page_id))
                pool.unfix(page_id)
                return data
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["FLOW001"]
        assert violations[0].line == 2
        assert "exception path" in violations[0].message

    def test_leak_on_missed_branch(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, page_id, flag):
                pool.fix(page_id)
                if flag:
                    pool.unfix(page_id)
            """)
        assert rule_ids(flow(path)) == ["FLOW001"]

    def test_fix_new_counts_too(self, tmp_path):
        path = write(tmp_path, "repro/buddy/mod.py", """\
            def f(pool, page_id, provider):
                pool.fix_new(page_id)
                pool.set_provider(page_id, provider)
            """)
        assert rule_ids(flow(path)) == ["FLOW001"]

    def test_double_fix_single_unfix_leaks(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, a, b):
                pool.fix(a)
                pool.fix(b)
                pool.unfix(a)
            """)
        # Two real leaks: pin "a" if fix(b) raises, pin "b" at normal exit.
        violations = flow(path)
        assert rule_ids(violations) == ["FLOW001", "FLOW001"]
        assert {v.line for v in violations} == {2, 3}

    def test_try_finally_is_balanced(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, page_id, codec):
                pool.fix(page_id)
                try:
                    return codec.decode(pool.lookup(page_id))
                finally:
                    pool.unfix(page_id)
            """)
        assert flow(path) == []

    def test_returned_frame_escapes(self, tmp_path):
        path = write(tmp_path, "repro/buffer/mod.py", """\
            def f(pool, page_id):
                frame = pool.fix(page_id)
                return frame
            """)
        assert flow(path) == []

    def test_frame_stored_on_self_escapes(self, tmp_path):
        path = write(tmp_path, "repro/buffer/mod.py", """\
            class Cache:
                def hold(self, pool, page_id):
                    self.frame = pool.fix(page_id)
            """)
        assert flow(path) == []

    def test_loop_with_balanced_body_is_clean(self, tmp_path):
        path = write(tmp_path, "repro/segio/mod.py", """\
            def f(pool, pages):
                for page_id in pages:
                    pool.fix(page_id)
                    pool.unfix(page_id)
            """)
        assert flow(path) == []


# ----------------------------------------------------------------------
# FLOW002: crash-safe cleanup
# ----------------------------------------------------------------------
class TestCrashSafeCleanup:
    def test_direct_disk_mutation_in_finally(self, tmp_path):
        path = write(tmp_path, "repro/esm/mod.py", """\
            class M:
                def op(self, data):
                    try:
                        self.apply(data)
                    finally:
                        self.pool.disk.poke_pages(0, 1, data)
            """)
        assert rule_ids(flow(path)) == ["FLOW002"]

    def test_transitive_mutation_in_finally(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            class Tree:
                def flush(self):
                    self.pool.write_run(0, 1, b"")

            class M:
                def op(self, tree, data):
                    try:
                        self.apply(data)
                    finally:
                        tree.flush()
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["FLOW002"]
        assert "transitively" in violations[0].message

    def test_pool_mutation_in_except(self, tmp_path):
        path = write(tmp_path, "repro/starburst/mod.py", """\
            class M:
                def op(self, data):
                    try:
                        self.apply(data)
                    except ValueError:
                        self.pool.flush_all()
                        raise
            """)
        assert rule_ids(flow(path)) == ["FLOW002"]

    def test_unfix_in_finally_is_sanctioned(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            class M:
                def op(self, page_id):
                    self.pool.fix(page_id)
                    try:
                        return self.pool.lookup(page_id)
                    finally:
                        self.pool.unfix(page_id)
            """)
        assert flow(path) == []

    def test_success_path_flush_is_fine(self, tmp_path):
        path = write(tmp_path, "repro/esm/mod.py", """\
            class M:
                def op(self, data):
                    self.apply(data)
                    self.pool.flush_all()
            """)
        assert flow(path) == []

    def test_outside_storage_layers_not_flagged(self, tmp_path):
        path = write(tmp_path, "repro/obs/mod.py", """\
            class M:
                def op(self, data):
                    try:
                        self.apply(data)
                    finally:
                        self.pool.flush_all()
            """)
        assert flow(path) == []


# ----------------------------------------------------------------------
# DET001-DET003: determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_for_over_set_attribute(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            class T:
                def __init__(self):
                    self.dirty = set()

                def names(self):
                    return [str(p) for p in self.dirty]
            """)
        assert rule_ids(flow(path)) == ["DET001"]

    def test_list_of_local_set(self, tmp_path):
        path = write(tmp_path, "repro/records/mod.py", """\
            def f(xs):
                pending = {x for x in xs}
                return list(pending)
            """)
        assert rule_ids(flow(path)) == ["DET001"]

    def test_join_over_set_union(self, tmp_path):
        path = write(tmp_path, "repro/obs/mod.py", """\
            def f(a, b):
                left = set(a)
                right = set(b)
                return ",".join(left | right)
            """)
        assert rule_ids(flow(path)) == ["DET001"]

    def test_sorted_set_is_fine(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(xs):
                pending = set(xs)
                return [x for x in sorted(pending)]
            """)
        assert flow(path) == []

    def test_order_insensitive_reducers_are_fine(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(xs):
                pending = set(xs)
                return len(pending) + sum(pending) + max(pending)
            """)
        assert flow(path) == []

    def test_dict_iteration_is_fine(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(table):
                return [k for k in table]
            """)
        assert flow(path) == []

    def test_set_pop_flagged(self, tmp_path):
        path = write(tmp_path, "repro/buddy/mod.py", """\
            def f(xs):
                pending = set(xs)
                return pending.pop()
            """)
        assert rule_ids(flow(path)) == ["DET003"]

    def test_next_iter_set_flagged(self, tmp_path):
        path = write(tmp_path, "repro/buddy/mod.py", """\
            def f(xs):
                pending = set(xs)
                return next(iter(pending))
            """)
        assert rule_ids(flow(path)) == ["DET003"]

    def test_id_as_sort_key_flagged(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(nodes):
                return sorted(nodes, key=lambda n: id(n))
            """)
        assert rule_ids(flow(path)) == ["DET003"]

    def test_list_pop_is_fine(self, tmp_path):
        path = write(tmp_path, "repro/buddy/mod.py", """\
            def f(xs):
                pending = list(xs)
                return pending.pop()
            """)
        assert flow(path) == []

    def test_plain_id_call_is_fine(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(node, log):
                log(f"visiting {id(node)}")
            """)
        assert flow(path) == []


# ----------------------------------------------------------------------
# CHG001: charge-completeness
# ----------------------------------------------------------------------
MANAGER_PRELUDE = """\
    import abc

    class LargeObjectManager(abc.ABC):
        @abc.abstractmethod
        def read(self, oid, offset, nbytes):
            ...
"""


class TestChargeCompleteness:
    def test_unspanned_override_reaching_disk(self, tmp_path):
        path = write(tmp_path, "repro/esm/mod.py", MANAGER_PRELUDE + """\

    class M(LargeObjectManager):
        def read(self, oid, offset, nbytes):
            return self.env.disk.read_pages(oid, 1)
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["CHG001"]
        assert "op span" in violations[0].message

    def test_transitive_reach_without_span(self, tmp_path):
        path = write(tmp_path, "repro/eos/mod.py", MANAGER_PRELUDE + """\

    class M(LargeObjectManager):
        def read(self, oid, offset, nbytes):
            return self._fetch(oid)

        def _fetch(self, oid):
            return self.env.disk.read_pages(oid, 1)
            """)
        assert rule_ids(flow(path)) == ["CHG001"]

    def test_unknown_span_name_flagged(self, tmp_path):
        path = write(tmp_path, "repro/esm/mod.py", MANAGER_PRELUDE + """\

    class M(LargeObjectManager):
        def read(self, oid, offset, nbytes):
            with self._op_span("frobnicate", oid):
                return self.env.disk.read_pages(oid, 1)
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["CHG001"]
        assert "taxonomy" in violations[0].message

    def test_spanned_override_is_fine(self, tmp_path):
        path = write(tmp_path, "repro/esm/mod.py", MANAGER_PRELUDE + """\

    class M(LargeObjectManager):
        def read(self, oid, offset, nbytes):
            with self._op_span("read", oid):
                return self.env.disk.read_pages(oid, 1)
            """)
        assert flow(path) == []

    def test_in_memory_override_needs_no_span(self, tmp_path):
        path = write(tmp_path, "repro/esm/mod.py", MANAGER_PRELUDE + """\

    class M(LargeObjectManager):
        def read(self, oid, offset, nbytes):
            return self.blobs[oid][offset:offset + nbytes]
            """)
        assert flow(path) == []

    def test_helper_methods_not_required_to_span(self, tmp_path):
        path = write(tmp_path, "repro/esm/mod.py", MANAGER_PRELUDE + """\

    class M(LargeObjectManager):
        def read(self, oid, offset, nbytes):
            with self._op_span("read", oid):
                return self._fetch(oid)

        def _fetch(self, oid):
            return self.env.disk.read_pages(oid, 1)
            """)
        assert flow(path) == []


# ----------------------------------------------------------------------
# CHG002: metric-name registration
# ----------------------------------------------------------------------
class TestMetricRegistration:
    def test_unregistered_constant_name_flagged(self, tmp_path):
        path = write(tmp_path, "repro/obs/health.py", """\
            def f(metrics):
                metrics.inc("health.bogus_counter")
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["CHG002"]
        assert "taxonomy" in violations[0].message

    def test_unregistered_fstring_prefix_flagged(self, tmp_path):
        path = write(tmp_path, "repro/obs/timeline.py", """\
            def f(metrics, shard):
                metrics.observe(f"wrong.{shard}", 1.0)
            """)
        assert rule_ids(flow(path)) == ["CHG002"]

    def test_registered_names_are_fine(self, tmp_path):
        path = write(tmp_path, "repro/obs/health.py", """\
            def f(metrics, scheme, shard):
                metrics.inc("health.objects")
                metrics.set_gauge(f"health.scheme.{scheme}.runs", 1.0)
                metrics.observe(f"latency.read.esm.shard{shard}", 4.0)
            """)
        assert flow(path) == []

    def test_dynamic_name_skipped(self, tmp_path):
        path = write(tmp_path, "repro/obs/health.py", """\
            def f(metrics, name):
                metrics.inc(name)
            """)
        assert flow(path) == []

    def test_other_layers_out_of_scope(self, tmp_path):
        path = write(tmp_path, "repro/buddy/health.py", """\
            def f(metrics):
                metrics.inc("health.bogus_counter")
            """)
        assert flow(path) == []


# ----------------------------------------------------------------------
# FLOW000: suppression rationale
# ----------------------------------------------------------------------
class TestSuppressionRationale:
    def test_bare_flow_suppression_reported(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, page_id, registry):
                pool.fix(page_id)  # repro-lint: disable=FLOW001
                registry.adopt(page_id)
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["FLOW000"]
        assert "rationale" in violations[0].message

    def test_justified_suppression_is_silent(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, page_id, registry):
                pool.fix(page_id)  # repro-lint: disable=FLOW001 -- registry unfixes on eviction
                registry.adopt(page_id)
            """)
        assert flow(path) == []

    def test_non_flow_suppression_needs_no_rationale(self, tmp_path):
        path = write(tmp_path, "repro/esm/mod.py", """\
            def f(pool):
                pool.disk.read_pages(0, 1)  # repro-lint: disable=LAY001
            """)
        assert flow(path) == []


# ----------------------------------------------------------------------
# Seeded-bug corpus: exact match, no false positives or negatives
# ----------------------------------------------------------------------
class TestCorpus:
    def seeded_expectations(self):
        expected = set()
        for path in sorted(CORPUS.rglob("*.py")):
            lines = path.read_text().splitlines()
            for lineno, text in enumerate(lines, start=1):
                match = re.search(r"# seeded: (\w+)", text)
                if match:
                    expected.add((str(path), lineno, match.group(1)))
        return expected

    def test_corpus_matches_exactly(self):
        expected = self.seeded_expectations()
        assert expected, "corpus has no seeded findings?"
        got = {
            (v.path, v.line, v.rule_id)
            for v in analyze_paths([CORPUS])
        }
        assert got == expected

    def test_every_rule_family_is_seeded(self):
        families = {rule for _, _, rule in self.seeded_expectations()}
        assert {
            "FLOW000", "FLOW001", "FLOW002", "DET001", "DET003", "CHG001",
            "CHG002",
        } <= families


# ----------------------------------------------------------------------
# CLI and SARIF
# ----------------------------------------------------------------------
class TestCliAndSarif:
    def test_flow_flag_reports_and_fails(self, tmp_path, capsys):
        write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, page_id, codec):
                pool.fix(page_id)
                data = codec.decode(page_id)
                pool.unfix(page_id)
                return data
            """)
        code = lint_main(["--flow", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FLOW001" in out

    def test_flow_flag_clean_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "repro/buffer/mod.py", """\
            def f(pool, page_id):
                pool.fix(page_id)
                pool.unfix(page_id)
            """)
        assert lint_main(["--flow", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_without_flow_flag_flow_rules_silent(self, tmp_path, capsys):
        write(tmp_path, "repro/buffer/mod.py", """\
            def f(pool, page_id, flag):
                pool.fix(page_id)
                if flag:
                    pool.unfix(page_id)
            """)
        assert lint_main([str(tmp_path)]) == 0

    def test_select_restricts_flow_rules(self, tmp_path, capsys):
        write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, page_id, flags):
                pool.fix(page_id)
                if any([flag for flag in set(flags)]):
                    pool.unfix(page_id)
            """)
        code = lint_main(["--flow", "--select", "DET001", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET001" in out and "FLOW001" not in out

    def test_list_rules_includes_flow_families(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "FLOW001", "FLOW002", "DET001", "CHG001", "CHG002", "FLOW000",
        ):
            assert rule_id in out

    def test_sarif_output_is_valid_and_anchored(self, tmp_path, capsys):
        write(tmp_path, "repro/buffer/mod.py", """\
            def f(pool, page_id, flag):
                pool.fix(page_id)
                if flag:
                    pool.unfix(page_id)
            """)
        code = lint_main(["--flow", "--format", "sarif", str(tmp_path)])
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        result = run["results"][0]
        assert result["ruleId"] == "FLOW001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert declared == {"FLOW001"}

    def test_sarif_clean_run_has_no_results(self, tmp_path, capsys):
        write(tmp_path, "repro/tree/mod.py", "x = 1\n")
        code = lint_main(["--flow", "--format", "sarif", str(tmp_path)])
        log = json.loads(capsys.readouterr().out)
        assert code == 0
        assert log["runs"][0]["results"] == []

    def test_render_sarif_direct(self):
        assert json.loads(render_sarif([]))["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# Meta: the shipped tree is flow-clean and suppressions carry rationales
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_src_repro_is_flow_clean(self):
        violations = analyze_paths([REPO_SRC])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_taxonomy_matches_emitted_kinds(self):
        # Every op name passed to _op_span in the shipped tree is legal.
        from repro.obs.taxonomy import OP_SPAN_KINDS, SPAN_KINDS

        assert OP_SPAN_KINDS <= SPAN_KINDS
        assert not any(kind.startswith("bench.") for kind in SPAN_KINDS)
        pattern = re.compile(r"_op_span\(\s*\"(\w+)\"")
        for path in sorted(REPO_SRC.rglob("*.py")):
            for name in pattern.findall(path.read_text()):
                assert f"op.{name}" in SPAN_KINDS, (path, name)
