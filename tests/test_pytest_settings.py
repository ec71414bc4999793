"""The repository's pytest settings keep a failing property test readable
and its draws the same from run to run."""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_given_test_prints_its_falsifying_example(tmp_path):
    """Warnings are errors, so one raised in the Hypothesis plugin's own
    teardown would end the session as an INTERNALERROR and hide the
    example that broke the test."""
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out


def test_hypothesis_draws_are_fixed_unless_explore_is_asked(request):
    """tests/conftest.py loads a derandomized profile, so every run draws
    the same examples; --hypothesis-profile=explore draws new ones."""
    asked = request.config.getoption("--hypothesis-profile")
    assert settings.get_current_profile_name() == (asked or "fixed")
    assert settings.default.derandomize is (asked != "explore")
    assert settings.default.database is None or asked == "explore"
