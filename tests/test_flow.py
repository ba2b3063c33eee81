"""Tests for repro.lint.flow: call graph, rule families, corpus, CLI.

Organization mirrors the subpackage: call-graph resolution, then
positive and negative cases per rule (FLOW002, FLOW000), then the
seeded-bug corpus under ``tests/flow_corpus/`` (exact-match: every
seeded finding fires, nothing else does), then the ``--flow`` command
line.  That the shipped ``src/repro`` tree is
flow-clean is a CI step (``python -m repro.lint --flow src/repro``).
"""

import pathlib
import re
import textwrap

from repro.lint.cli import main as lint_main
from repro.lint.flow.callgraph import Program
from repro.lint.flow.rules import analyze_paths

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

    def test_deferred_image_in_finally(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            class Tree:
                def op(self, data, build):
                    try:
                        self.apply(data)
                    finally:
                        self.pool.disk.defer_image(0, build)
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["FLOW002"]
        assert "defer_image" in violations[0].message

    def test_committed_image_in_finally(self, tmp_path):
        path = write(tmp_path, "repro/starburst/mod.py", """\
            class M:
                def op(self, descriptor):
                    try:
                        self.apply(descriptor)
                    finally:
                        self.env.pool.commit_image(0, descriptor.snapshot(0))
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["FLOW002"]
        assert "commit_image" in violations[0].message

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
                        return self.pool.page(page_id)
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
# FLOW000: suppression rationale
# ----------------------------------------------------------------------
class TestSuppressionRationale:
    def test_bare_flow_suppression_reported(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, registry):
                try:
                    registry.adopt()
                except ValueError:
                    pool.flush_all()  # repro-lint: disable=FLOW002
                    raise
            """)
        violations = flow(path)
        assert rule_ids(violations) == ["FLOW000"]
        assert violations[0].line == 5
        assert "rationale" in violations[0].message

    def test_justified_suppression_is_silent(self, tmp_path):
        path = write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, registry):
                try:
                    registry.adopt()
                except ValueError:
                    pool.flush_all()  # repro-lint: disable=FLOW002 -- the registry owns the flushed pages
                    raise
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
        assert families == {"FLOW000", "FLOW002"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCliAndSarif:
    def test_flow_flag_reports_and_fails(self, tmp_path, capsys):
        write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, codec, data):
                try:
                    return codec.decode(data)
                finally:
                    pool.flush_all()
            """)
        code = lint_main(["--flow", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FLOW002" in out

    def test_flow_flag_clean_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "repro/buffer/mod.py", """\
            def f(pool, page_id):
                pool.fix(page_id)
                pool.unfix(page_id)
            """)
        assert lint_main(["--flow", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_without_flow_flag_flow_rules_silent(self, tmp_path, capsys):
        write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, codec, data):
                try:
                    return codec.decode(data)
                finally:
                    pool.flush_all()
            """)
        assert lint_main([str(tmp_path)]) == 0

    def test_select_restricts_flow_rules(self, tmp_path, capsys):
        write(tmp_path, "repro/tree/mod.py", """\
            def f(pool, registry):
                try:
                    registry.adopt()
                except ValueError:
                    pool.flush_all()  # repro-lint: disable=FLOW002
                    raise
                finally:
                    pool.flush_all()
            """)
        code = lint_main(["--flow", "--select", "FLOW000", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 violation(s) (FLOW000 x1)" in out

    def test_list_rules_includes_flow_families(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("FLOW000", "FLOW002"):
            assert rule_id in out
        for retired in ("FLOW001", "CHG001", "CHG002", "DET001", "DET003"):
            assert retired not in out
