"""Collects the acceptance criteria's PASS lines and prints them after the
run, outside pytest's capture, so every invocation shows one line per
criterion; and logs the device commands of a run (`command_log`)."""

from contextlib import contextmanager

from pracsim.dram import DeviceState

acceptance_lines = []


def record_acceptance(line: str):
    acceptance_lines.append(line)


@contextmanager
def command_log(write):
    """While the block runs, pass `write` one line for every
    DeviceState.issue and refresh_rows call, in order and with its time. A
    context manager, not a fixture, so a hypothesis test can log each example."""
    issue, refresh_rows = DeviceState.issue, DeviceState.refresh_rows

    def logged_issue(dev, cmd, addr, now):
        write(f"{cmd} {addr} {now}\n")
        return issue(dev, cmd, addr, now)

    def logged_refresh(dev, bank_idx, rows, now):
        write(f"rows {bank_idx} {tuple(rows)} {now}\n")
        return refresh_rows(dev, bank_idx, rows, now)

    DeviceState.issue, DeviceState.refresh_rows = logged_issue, logged_refresh
    try:
        yield
    finally:
        DeviceState.issue, DeviceState.refresh_rows = issue, refresh_rows


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)
