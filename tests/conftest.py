"""Shared pytest wiring: replay acceptance summary lines after capture ends,
and the reference kernel weights and one-point NW estimate the tests share."""

import numpy as np

from rednw.npregress import nw_batch

ACCEPT_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPT_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPT_LINES:
        terminalreporter.write_line(line)


def kernel_weights(kernel, t):
    """Reference weights norm_const * k(t) at radii t, from the profile on
    the radii themselves: exactly 0 beyond the support radius."""
    return kernel.norm_const * kernel.profile.values(t)


def nw_at(config, basis, X, Y, x0):
    """``nw_batch`` at the one query point x0, whose row must have a fit:
    the estimate is row 0 of the batch's columns."""
    batch = nw_batch(config, basis, X, Y, np.atleast_2d(x0))
    assert batch.ok[0], batch.error(0)
    return batch
