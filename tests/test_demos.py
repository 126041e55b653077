"""The README's command-line block, the examples of docs/formats.md and
the demo scripts the README points to run to completion."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mgctm.cli as cli_mod
from mgctm import serialize
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


def formats_block(heading, lang):
    """The first ``lang`` code block under ``heading`` in docs/formats.md."""
    text = (ROOT / "docs" / "formats.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_formats_array_object_decodes():
    array = json.loads(formats_block("Array object", "json"))
    assert serialize._array(array, float, 1).tolist() == [0.5, 0.25]


@pytest.fixture
def synth_corpus(tmp_path, monkeypatch):
    """A sampled corpus with labels, c.txt and l.txt in the cwd ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    synth = "synth --clusters 3 --local-topics 2 --global-topics 2 --vocab-size 30"
    synth += " --docs 24 --doc-length 30 --corpus c.txt --vocab v.txt --labels l.txt"
    assert main(synth.split()) == 0


def test_formats_run_config_reaches_the_fit(synth_corpus, tmp_path, monkeypatch, capsys):
    block = formats_block('Run-config file (`"format": "run-config"`)', "json")
    (tmp_path / "run.json").write_text(block)
    real_fit = cli_mod.fit
    configs = []

    def fit(config, *args, **kwargs):
        configs.append(config)
        return real_fit(config, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "fit", fit)
    train = "train --config run.json --corpus c.txt --model m.json"
    train += " --local-topics 2 --global-topics 2"
    assert main(train.split()) == 0, capsys.readouterr().err
    [config] = configs
    assert (config.num_clusters, config.max_em_iters, config.elbo_rel_tol) == (3, 60, 1e-05)


def test_formats_bench_header_is_what_bench_writes(synth_corpus, tmp_path):
    bench = "bench --corpus c.txt --labels l.txt --methods kmeans --seeds 0 --out b.tsv"
    assert main(bench.split()) == 0
    header = formats_block("Benchmark table (`mgctm bench --out`)", "").strip("\n")
    assert (tmp_path / "b.tsv").read_text().splitlines()[0] == header
