"""The host-speed kernel and the arithmetic that applies it."""

import pytest

from perfbench import calibrate
from perfbench.workloads import PassResult
from repro.buffer.pool import PoolStats
from repro.disk.iomodel import IOStats

REF = calibrate.REFERENCE_KERNEL_S


def test_kernel_is_deterministic_and_takes_measurable_time():
    assert calibrate.kernel() == calibrate.kernel()
    assert 0.2 * REF < calibrate.timed_kernel() < 20 * REF


def test_a_reading_at_or_under_the_quiet_level_is_left_alone():
    assert calibrate.slowdown(REF, REF) == 1.0
    assert calibrate.slowdown(REF / 2, REF) == 1.0


def test_windows_share_only_part_of_the_kernels_slowdown():
    assert calibrate.slowdown(2 * REF, REF) == pytest.approx(2 ** calibrate.SENSITIVITY)
    assert 1.0 < calibrate.slowdown(2 * REF, REF) < 2.0


def test_a_faster_host_references_its_own_first_decile():
    # Half the reference when quiet, with a shared-core spell in the middle.
    readings = [REF / 2] * 30 + [REF * 0.8] * 60 + [REF / 2] * 30
    quiet = calibrate.quiet_level(readings)
    assert quiet == REF / 2
    assert calibrate.slowdown(REF * 0.8, quiet) == pytest.approx(1.6 ** calibrate.SENSITIVITY)


def test_a_run_inside_one_long_spell_falls_back_on_the_reference():
    assert calibrate.quiet_level([1.6 * REF] * 100) == REF


def test_each_window_is_scaled_by_its_two_neighbouring_readings():
    result = PassResult(
        failed=0, wall=1.0,
        samples=[(10, 1.0), (10, 1.0), (10, 1.0)],
        kernel=[REF, 3 * REF, REF],
        stats=IOStats(), pool=PoolStats(),
        utilization=1.0, index_pages=0, mismatches=[],
    )
    calibrated = [seconds for _, seconds in result.calibrated(REF)]
    assert calibrated[0] == 1.0                     # quiet before and after
    assert calibrated[1] == pytest.approx(1 / calibrate.slowdown(2 * REF, REF))
    assert calibrated[2] == pytest.approx(1 / calibrate.slowdown(2 * REF, REF))
    assert result.ops == 30 and result.cpu == 3.0
    assert result.slowdown(REF) == pytest.approx(3.0 / sum(calibrated))
    # Against a quiet level half as high, every window reads slowed.
    assert all(seconds < 1.0 for _, seconds in result.calibrated(REF / 2))
