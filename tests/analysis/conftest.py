"""Whole-tree analyses, run once per test session.

Linting and taint-analysing the whole repository are the two slowest
pure computations in the suite.  Every test that asserts something
about the checked-in tree reads these shared reports; only the
determinism gate (``test_lint.py::TestCombinedReport``) runs each
analysis a second time.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import lint_tree, load_waivers
from repro.analysis.taint import analyze_taint_tree, load_policy

REPO = Path(__file__).resolve().parents[2]


def lint_repo():
    return lint_tree(REPO, waivers=load_waivers(REPO / "lint-waivers.json"))


def taint_repo():
    return analyze_taint_tree(
        REPO, policy=load_policy(REPO / "taint-policy.json"))


@pytest.fixture(scope="session")
def repo_lint():
    """The linter's report on the checked-in tree and waivers."""
    return lint_repo()


@pytest.fixture(scope="session")
def repo_taint():
    """The key-confidentiality report on the checked-in tree and policy."""
    return taint_repo()
