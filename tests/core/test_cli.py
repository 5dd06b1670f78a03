"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_config():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig3", "--configs", "99/9"])


def test_demo_command(capsys):
    assert main(["--seed", "3", "demo"]) == 0
    output = capsys.readouterr().out
    assert "CORBA/Winner" in output
    assert "runtime" in output


def test_fig3_command_small_grid(capsys):
    assert main(["fig3", "--configs", "30/3", "--bg", "0", "2"]) == 0
    output = capsys.readouterr().out
    assert "Fig. 3" in output
    assert "CORBA/Winner 30/3" in output
    assert "bg=2" in output
    assert "hosts with background load" in output  # the ASCII plot


def test_table1_command_small_grid(capsys):
    assert main(["table1", "--iterations", "10000", "30000"]) == 0
    output = capsys.readouterr().out
    assert "Table 1" in output
    assert "overhead" in output


def test_commands_are_the_paper_artifacts_and_the_demo(capsys):
    """The FT and WAN benches run as ``benchmarks/bench_*.py`` only."""
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{fig3,table1,demo}" in capsys.readouterr().out
