"""Checks that apply to every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped: the
    turbo and EXIT decoders fork a child for half of a large batch and must
    reap it before they return or raise."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail(f"the test left a child process behind (waitpid returned pid {pid})")
