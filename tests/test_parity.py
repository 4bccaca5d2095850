"""The same-answers check, run on the working tree against itself and
against a copy whose JSON output differs."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parity(parent, examples=5):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "parity.py"), "--parent", str(parent)]
        + ["--examples", str(examples)],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_parity_finds_no_difference_between_a_tree_and_itself():
    run = parity(ROOT)
    assert run.returncode == 0, run.stdout + run.stderr
    summary = re.search(r"parity: (\d+) invocations, 0 differences", run.stdout)
    assert summary and int(summary.group(1)) >= 5 * 10, run.stdout


def test_parity_reports_a_changed_output(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "liouville" / "cli.py"
    cli.write_text(cli.read_text().replace("indent=2", "indent=3"))
    run = parity(tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "exit code: 0 differences" in run.stdout
    assert re.search(r"^stdout: [1-9]\d* differences", run.stdout, re.M), run.stdout
    assert "--json" in run.stdout and "dumps: 0 differences" in run.stdout
