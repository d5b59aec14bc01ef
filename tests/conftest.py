import sys

# (f, n), a pattern that does not fit that sector, and the one message that
# basis.sector_pattern gives for it at every entry, library and CLI alike
BAD_PATTERNS = [
    ((5, 4), (3, 3), "pattern (3, 3) holds 6 bosons, the sector has n = 4"),
    ((3, 4), (1, 1, 1, 1), "pattern (1, 1, 1, 1) needs more than f = 3 sites"),
]


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
