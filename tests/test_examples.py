"""Every example must run cleanly end-to-end (subprocess smoke tests)."""

import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((_ROOT / "examples").glob("*.py"))


def _env_with_src():
    """Subprocesses don't inherit pytest's pythonpath ini setting."""
    env = dict(os.environ)
    src = str(_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
        env=_env_with_src(),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples should narrate what they do"


def test_example_inventory():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "randomness_beacon",
        "threshold_vault",
        "byzantine_drill",
        "two_transports",
        "consensus_certificates",
    } <= names
