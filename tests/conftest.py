import sys


def points_at(report, l):
    """The points of a `BandReport` at momentum label l, in report order."""
    return [p for p in report.points if p.l == l]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
