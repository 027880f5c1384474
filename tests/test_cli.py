"""Unit tests for the CLI experiment runner."""

import pytest

from repro.cli import EXPERIMENTS, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "bench" not in out


def test_table3(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Block RAM" in out
    assert "paper=  2.0%" in out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "buffer_enqueue" in out
    assert "live demonstration" in out


def test_fig3(capsys):
    assert main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "overspeed" in out


def test_unknown_experiment_rejected(capsys):
    for name in ("warp-drive", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([name])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "events-trace --source catalog --out",
        "chaos --plan linkflap --app frr --out",
        "shard --mode inline --waves 1 --packets 1 --json-out",
        "search --scenario aqm/fred --objective fairness --domain blaster_gbps=choice:6"
        " --fixed duration_ps=200000000 --budget 1 --workers 0 --out",
    ],
    ids=lambda argv: argv.split()[0],
)
def test_unwritable_output_path_is_a_message_not_a_traceback(argv, tmp_path, capsys):
    path = str(tmp_path / "missing-dir" / "out.json")
    assert main(argv.split() + [path]) == 2
    assert capsys.readouterr().err.startswith(f"repro: cannot write {path}: ")


def test_every_experiment_is_documented():
    for name, fn in EXPERIMENTS.items():
        assert fn.__doc__, f"experiment {name} lacks a docstring"
