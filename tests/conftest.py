import hypothesis
import pytest

# Deterministic property tests: no flaky CI reruns, no example database
# carry-over between environments.
hypothesis.settings.register_profile(
    "suite",
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def fresh_pool():
    """Close harness's shared worker pool before and after the test.

    Pool workers are forked on first use and keep the module state of that
    moment. A test that patches harness globals or ProcessPoolExecutor and
    then maps on more than one worker needs a pool started under its
    patches, and must not leave that pool to later tests.
    """
    from possibly import harness

    harness._close_pool()
    yield
    harness._close_pool()


# criterion number -> (label, passed, detail); filled by test_acceptance.py
ACCEPTANCE_RESULTS = {}


def record_criterion(number: int, label: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS[number] = (label, bool(passed), detail)


def criterion_line(number: int) -> str:
    """A recorded criterion's summary line, as the terminal summary prints
    it and tests/acceptance_expected.txt pins it."""
    label, ok, detail = ACCEPTANCE_RESULTS[number]
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
    return f"{line} -- {detail}" if detail else line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(criterion_line(number))
