"""Unit tests for the CLI experiment runner."""

import io
import pickle

import pytest

from repro.cli import EXPERIMENTS, main
from repro.sim.checkpoint import CHECKPOINT_VERSION

from tests.test_checkpoint import _microburst_checkpoint


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
        "checkpoint --at-ps 1000 --duration-ps 2000 --ckpt",
    ],
    ids=lambda argv: argv.split()[0],
)
def test_unwritable_output_path_is_a_message_not_a_traceback(argv, tmp_path, capsys):
    path = str(tmp_path / "missing-dir" / "out.json")
    assert main(argv.split() + [path]) == 2
    assert capsys.readouterr().err.startswith(f"repro: cannot write {path}: ")


def _as_version(blob: bytes, version: int) -> bytes:
    """``blob`` with its header rewritten to claim format ``version``."""
    frames = io.BytesIO(blob)
    header = pickle.load(frames)
    header["version"] = version
    return pickle.dumps(header, protocol=4) + frames.read()


@pytest.mark.parametrize(
    "argv, content",
    [
        ("resume --ckpt", None),
        ("resume --ckpt", b"not a checkpoint"),
        ("resume --ckpt", "truncated"),
        ("resume --info --ckpt", None),
        ("search --report", None),
        ("search --report", b"{"),
        ("search --spec", None),
    ],
    ids=["missing", "garbage", "truncated", "info-missing", "report-missing",
         "report-garbage", "spec-missing"],
)
def test_unreadable_input_path_is_a_message_not_a_traceback(
    argv, content, tmp_path, capsys
):
    if content == "truncated":
        blob = _microburst_checkpoint()
        content = blob[: len(blob) // 2]
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    assert main(argv.split() + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro: cannot read {path}: ")
    assert err.count("\n") == 1


def test_other_version_checkpoint_shows_its_header_but_does_not_resume(
    tmp_path, capsys
):
    path = tmp_path / "v1.ckpt"
    path.write_bytes(_as_version(_microburst_checkpoint(), 1))
    assert main(["resume", "--ckpt", str(path), "--info"]) == 0
    assert "version=1 " in capsys.readouterr().out
    assert main(["resume", "--ckpt", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro: cannot read {path}: ")
    assert "version 1 " in err and f"version {CHECKPOINT_VERSION} " in err
    assert err.count("\n") == 1


def test_every_experiment_is_documented():
    for name, fn in EXPERIMENTS.items():
        assert fn.__doc__, f"experiment {name} lacks a docstring"


def test_checkpoint_then_resume(tmp_path, capsys):
    ckpt = str(tmp_path / "mb.ckpt")
    argv = ["--ckpt", ckpt, "--at-ps", "1000000000", "--duration-ps", "2000000000"]
    assert main(["checkpoint"] + argv) == 0
    out = capsys.readouterr().out
    assert f"checkpoint → {ckpt}" in out
    assert "label=microburst-event-driven" in out
    assert "now=1000000000ps" in out
    assert main(["resume", "--ckpt", ckpt, "--info"]) == 0
    info = capsys.readouterr().out
    assert f"checkpoint {ckpt}" in info and "state store(s):" in info
    assert main(["resume", "--ckpt", ckpt]) == 0
    assert "resumed from 1000000000ps" in capsys.readouterr().out


def test_checkpoint_outside_the_run_is_refused(tmp_path, capsys):
    ckpt = tmp_path / "mb.ckpt"
    argv = ["checkpoint", "--ckpt", str(ckpt), "--at-ps", "3000000000",
            "--duration-ps", "2000000000"]
    assert main(argv) == 2
    assert "--at-ps must fall inside the run" in capsys.readouterr().err
    assert not ckpt.exists()


def test_scenarios_filter(capsys):
    assert main(["scenarios", "cms"]) == 0
    out = capsys.readouterr().out
    assert "registered scenario(s)" in out
    rows = [line for line in out.splitlines() if line.startswith("cms")]
    assert rows and all("cms" in row.split()[0] for row in rows)


def test_submit_streams_windows_through_a_private_service(capsys):
    argv = ["submit", "microburst/event-driven", "--param",
            "duration_ps=1000000000", "--windows", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "telemetry (2 window(s))" in out
    assert "microburst/event-driven: done" in out
