"""Collects the acceptance-gate verdict lines and prints them after the
run, outside pytest's output capture; measures a call's peak allocation;
and checks a Kac-Ward product against mpmath."""

import math
import tracemalloc

import pytest

from isingexact.core import _bracket

_criterion_lines = []


def peak_bytes(call):
    """(peak bytes allocated while call() runs, as tracemalloc sees them,
    which includes numpy's arrays; call's result)."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def mp_kacward_log_product(m, n, x, y, parity_v, parity_h):
    """(ln P, sum |ln F|) of the Kac-Ward double product at mpmath's working
    precision, factor by factor in the cosine form (1 + x^2)(1 + y^2)
    - 2y(1 - x^2) cos theta - 2x(1 - y^2) cos phi, with x and y (floats or
    mpf) taken as they are."""
    mpmath = pytest.importorskip("mpmath")
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    a, b, d = (1 + x * x) * (1 + y * y), 2 * y * (1 - x * x), 2 * x * (1 - y * y)
    offset = {"integer": 0, "half": mpmath.mpf(1) / 2}
    logs = [mpmath.log(a - b * mpmath.cos(2 * mpmath.pi * (r + offset[parity_v]) / m)
                       - d * mpmath.cos(2 * mpmath.pi * (c + offset[parity_h]) / n))
            for r in range(m) for c in range(n)]
    return mpmath.fsum(logs), mpmath.fsum(abs(v) for v in logs)


def assert_kacward_product_against_mpmath(got, m, n, x, y, parity_v, parity_h):
    """got, the log of the Kac-Ward double product on the float fugacities
    x, y, against mp_kacward_log_product at 50 digits.  On the
    integer/integer grid the factor at theta = phi = 0 is the gap g^2
    alone, g = 1 - x - y - xy: a difference of O(1) terms, so any float g
    is off by a few units of 2^-53, which near the critical manifold is a
    sizeable part of g (12% at K_CRIT).  There got must carry core's own
    gap, and that gap must be within 4 * 2^-53 of the exact g; every other
    factor is held to 1e-13 of the sum of the logs' magnitudes."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want, scale = mp_kacward_log_product(m, n, x, y, parity_v, parity_h)
        if parity_v == parity_h == "integer":
            gap, _ = _bracket((x, y, 1.0), (1.0 - x * x, 1.0 - y * y, 0.0))
            xm, ym = mpmath.mpf(x), mpmath.mpf(y)
            g = 1 - xm - ym - xm * ym
            assert abs(math.sqrt(gap) - abs(g)) <= 4 * 2.0 ** -53
            want += mpmath.log(gap) - 2 * mpmath.log(abs(g))
        assert abs(got - float(want)) <= 1e-13 * float(scale), (m, n, x, y, got, float(want))


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
