"""Span arithmetic, wrapper hygiene, and tracing's invisibility to the
simulated clock."""

import pytest

from perfbench import workloads
from perfbench.trace import Tracer, entry_points


def _synthetic(tracer, spans):
    """Append (fn id, start, end, parent) rows as the wrappers would."""
    for fn_id, start, end, parent in spans:
        tracer.fn_ids.append(fn_id)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.names = [("manager", "read"), ("tree", "locate"), ("disk", "read_pages")]
    _synthetic(tracer, [
        (0, 0.0, 10.0, -1),   # manager.read
        (1, 1.0, 4.0, 0),     #   tree.locate
        (2, 2.0, 3.0, 1),     #     disk.read_pages
        (1, 5.0, 6.0, 0),     #   tree.locate
        (0, 20.0, 22.0, -1),  # manager.read
    ])
    folded = tracer.fold(0, 5)
    assert folded.spans == 5
    assert folded.calls["manager"] == 2 and folded.calls["tree"] == 2
    assert folded.self_s["manager"] == pytest.approx(6.0 + 2.0)
    assert folded.self_s["tree"] == pytest.approx(2.0 + 1.0)
    assert folded.self_s["disk"] == pytest.approx(1.0)
    assert folded.covered_s == pytest.approx(12.0)
    assert sum(folded.self_s.values()) == pytest.approx(folded.covered_s)
    assert folded.manager_p50_s == {"read": pytest.approx(6.0)}
    assert folded.by_fn[("tree", "locate")] == (2, pytest.approx(3.0))


def test_fold_takes_the_wrappers_own_cost_out():
    tracer = Tracer()
    tracer.names = [("manager", "read"), ("buffer", "fix")]
    tracer.inside_s, tracer.outside_s = 0.25, 0.5
    _synthetic(tracer, [
        (0, 0.0, 10.0, -1),  # manager.read
        (1, 1.0, 2.0, 0),    #   buffer.fix
        (1, 3.0, 4.0, 0),    #   buffer.fix
    ])
    folded = tracer.fold(0, 3)
    # Each fix really took 1.0 - 0.25; the read lost its own inside part
    # and, per child, the child's duration plus what surrounded it.
    assert folded.self_s["buffer"] == pytest.approx(2 * 0.75)
    assert folded.self_s["manager"] == pytest.approx(10.0 - 0.25 - 2 * (1.0 + 0.5))
    assert folded.covered_s == pytest.approx(10.0 + 0.5)
    assert folded.manager_p50_s["read"] == pytest.approx(10.0 - 0.25 - 2 * 0.75)
    assert sum(folded.self_s.values()) == pytest.approx(
        folded.covered_s - 3 * (0.25 + 0.5)
    )


def test_fold_ignores_spans_outside_the_measured_range():
    tracer = Tracer()
    tracer.names = [("manager", "append"), ("disk", "write_pages")]
    _synthetic(tracer, [
        (0, 0.0, 5.0, -1), (1, 1.0, 2.0, 0),      # set-up, not measured
        (0, 10.0, 14.0, -1), (1, 11.0, 12.0, 2),  # measured
    ])
    folded = tracer.fold(2, 4)
    assert folded.spans == 2
    assert folded.self_s["manager"] == pytest.approx(3.0)
    assert folded.covered_s == pytest.approx(4.0)


def test_journal_io_is_disk_under_atomic_but_not_under_manager():
    tracer = Tracer()
    tracer.names = [
        ("atomic", "submit_many"), ("manager", "replace"),
        ("disk", "write_pages"), ("buffer", "write_run"), ("disk", "poke_pages"),
    ]
    _synthetic(tracer, [
        (0, 0.0, 10.0, -1),  # atomic.submit_many
        (3, 1.0, 2.0, 0),    #   buffer.write_run      (journal)
        (2, 1.2, 1.8, 1),    #     disk.write_pages    -> counted
        (1, 3.0, 6.0, 0),    #   manager.replace
        (2, 4.0, 5.0, 3),    #     disk.write_pages    -> the op's own I/O
        (4, 7.0, 8.0, 0),    #   disk.poke_pages       -> uncharged
        (2, 8.0, 9.0, 0),    #   disk.write_pages      -> counted
    ])
    assert tracer.fold(0, 7).journal_io_calls == 2


def test_wrappers_install_once_and_uninstall_cleanly():
    before = {
        (cls, name): getattr(cls, name)
        for _, cls, names in entry_points() for name in names
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(cls, name) is not fn for (cls, name), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(cls, name) is fn for (cls, name), fn in before.items())


def test_a_raising_call_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap_function("tree", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.begin_measure() == 1   # the stack is back to empty
    assert tracer.ends[0] >= tracer.starts[0] > 0.0


def test_tracing_leaves_the_simulated_clock_alone():
    ledger = workloads.EnvLedger()
    ledger.install()
    tracer = Tracer()
    try:
        workload = workloads.make_workload("update_mix_tree", ledger, workloads.QUICK)
        workload.generate(11)
        plain = workload.run_pass()
        tracer.install()
        workload.attach(tracer)
        traced = workload.run_pass()
        folded = tracer.fold(*traced.span_range)
    finally:
        tracer.uninstall()
        ledger.uninstall()
    assert traced.sim_key == plain.sim_key
    assert traced.pool == plain.pool
    assert traced.utilization == plain.utilization
    assert folded.calls["manager"] == plain.ops
    assert folded.counts["exec.ops"] == plain.ops
    assert tracer.inside_s > 0.0 and tracer.outside_s > 0.0
    assert 0.0 < sum(folded.self_s.values()) < folded.covered_s <= traced.wall


def test_more_calibration_only_ever_lowers_the_wrapper_cost():
    tracer = Tracer()
    tracer.calibrate(rounds=2, calls=300)
    first = tracer.inside_s
    tracer.calibrate(rounds=2, calls=300)
    assert 0.0 < tracer.inside_s <= first
