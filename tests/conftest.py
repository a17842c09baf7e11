"""Collects the acceptance-gate verdict lines and prints them after the
run, outside pytest's output capture; and measures a call's peak
allocation."""

import tracemalloc

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


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
