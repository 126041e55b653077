"""The README's command-line block and the demo scripts it points to run
to completion."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mgctm.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert [demo.name for demo in DEMOS] == [
        "baseline_comparison.py",
        "synthetic_recovery.py",
        "topic_inspection.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def readme_commands():
    """The ``mgctm`` commands of the README's Command line block, one
    string each, with their backslash continuation lines joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [
        line for line in block.replace("\\\n", " ").splitlines() if line.startswith("mgctm ")
    ]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert [line.split()[1] for line in commands] == [
        "synth", "train", "eval", "eval", "topics", "bench",
    ]
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
    assert (tmp_path / "model.json").is_file()
    assert (tmp_path / "bench.tsv").is_file()
