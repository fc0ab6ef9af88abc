"""Prints a one-line verdict per acceptance criterion after the run.

The acceptance gate lives in test_acceptance.py; each criterion is a single
test named test_criterion_<N>_*. This hook folds their outcomes into a
summary section so a full run ends with one PASSED/FAILED line per
criterion, independent of verbosity flags. Anything other than a clean pass
(failure, collection error, skip) counts as FAILED.
"""

import re

CRITERIA = {
    1: "federated runs reproduce the offline factorization",
    2: "results are invariant to column arrival order",
    3: "merge agrees with a direct SVD of the concatenation",
    4: "hierarchy error stays within the depth bound",
    5: "noise scale calibration and minimum batch size",
    6: "privacy-utility trend across epsilon",
    7: "adaptive rank brackets the fixed-rank errors",
    8: "memory discipline of the edge path",
    9: "manifest replay is byte-identical",
}

_PAT = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            match = _PAT.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            num = int(match.group(1))
            ok = status == "passed" and verdicts.get(num) != "FAILED"
            verdicts[num] = "PASSED" if ok else "FAILED"
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(verdicts):
        name = CRITERIA.get(num, "")
        terminalreporter.write_line(
            f"acceptance criterion {num}: {verdicts[num]} ({name})"
        )
