"""The command-line surface: which options each subcommand accepts, how
they are typed, which are required, and the defaults a run reports."""

import json

import pytest

from dynzsig.cli import _build_arg_parser, main

# option -> (command-line value, parsed value)
VALUES = {
    "--poly": ("z^2+1", "z^2+1"),
    "--alpha": ("1/2", "1/2"),
    "--n": ("3", 3),
    "--places": ("2,3", "2,3"),
    "--factors": ("(z+2)^2", "(z+2)^2"),
    "--d": ("2", 2),
    "--B": ("1.5", "1.5"),
    "--hhat": ("0.5", "0.5"),
    "--htilde": ("0.25", "0.25"),
    "--gamma": ("0.1", "0.1"),
    "--s-size": ("2", 2),
}
DESTS = {"--s-size": "s_size"}
INT_OPTIONS = ("--n", "--d", "--s-size")

ORBIT = ("--poly", "--alpha", "--n")
BOUND = ORBIT + ("--places", "--d", "--B", "--hhat", "--htilde", "--gamma", "--s-size")
SURFACE = {
    "orbit": (ORBIT, "--poly"),
    "zsigmondy": (ORBIT, "--poly"),
    "rigid-check": (ORBIT + ("--places",), "--poly"),
    "heights": (("--poly", "--alpha", "--places"), "--poly, --alpha"),
    "bound": (BOUND, "--d, --B, --hhat, --htilde, --gamma, --s_size"),
    "powerful-check": (("--poly",), "--poly"),
    "family-check": (("--factors", "--n"), "--factors"),
}

COMMON = ["--tol", "0.001", "--trial-bound", "5000", "--rho-budget", "7000"]
COMMON += ["--digit-budget", "9000", "--seed", "4"]

DEFAULT_CONFIG_BLOCK = """  "config": {
    "cache": null,
    "digit_budget": 100000,
    "format": "json",
    "rho_budget": 200000,
    "seed": 1,
    "tol": "1e-06",
    "trial_bound": 1000000
  },
"""


def _dest(flag):
    return DESTS.get(flag, flag[2:])


def _parse(argv):
    return vars(_build_arg_parser().parse_args(argv))


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_each_accepted_option_parses(command):
    options, _ = SURFACE[command]
    argv = [command]
    for flag in options:
        argv += [flag, VALUES[flag][0]]
    args = _parse(argv)
    assert args["command"] == command
    for flag in options:
        assert args[_dest(flag)] == VALUES[flag][1], flag


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_options_of_other_subcommands_are_rejected(command, capsys):
    options, _ = SURFACE[command]
    for flag in sorted(set(VALUES) - set(options)):
        with pytest.raises(SystemExit) as info:
            _parse([command, flag, VALUES[flag][0]])
        assert info.value.code == 2, flag
    capsys.readouterr()


def test_d_abbreviates_digit_budget_outside_bound(capsys):
    # no prefix matching: --d is bound's option, never --digit-budget
    for command in ("orbit", "family-check"):
        with pytest.raises(SystemExit) as info:
            _parse([command, "--d", "7"])
        assert info.value.code == 2, command
    assert _parse(["bound", "--d", "7"])["d"] == 7
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_integer_options_reject_non_integers(command, capsys):
    for flag in INT_OPTIONS + ("--trial-bound", "--rho-budget", "--digit-budget", "--seed"):
        with pytest.raises(SystemExit) as info:
            _parse([command, flag, "x"])
        assert info.value.code == 2, flag
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_common_options_parse_everywhere(command):
    args = _parse([command, "--cache", "c.jsonl", "--format", "text"] + COMMON)
    assert args["tol"] == 0.001
    assert (args["trial_bound"], args["rho_budget"], args["digit_budget"], args["seed"]) == (
        5000,
        7000,
        9000,
        4,
    )


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_unknown_format_is_rejected(command, capsys):
    with pytest.raises(SystemExit) as info:
        _parse([command, "--format", "yaml"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_missing_required_options_message(command, capsys):
    _, missing = SURFACE[command]
    assert main([command]) == 2
    captured = capsys.readouterr()
    message = f"missing required option(s): {missing} (offset 0)"
    assert json.loads(captured.out)["result"] == {"error": message}
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["heights", "--poly", "z^2+1"], "--alpha"),
        (["bound", "--d", "2", "--hhat", "0.5"], "--B, --htilde, --gamma, --s_size"),
        (["bound", "--poly", "z^2+1", "--s-size", "2"], "--d, --B, --hhat, --htilde, --gamma"),
    ],
)
def test_partly_missing_required_options(argv, missing, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: missing required option(s): {missing} (offset 0)\n"


def test_default_config_block(monkeypatch, capsys):
    monkeypatch.delenv("DYNZSIG_CACHE", raising=False)
    assert main(["orbit", "--poly", "z^2+1", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert DEFAULT_CONFIG_BLOCK in out


def test_common_flags_reach_the_config_block(monkeypatch, capsys, tmp_path):
    monkeypatch.delenv("DYNZSIG_CACHE", raising=False)
    cache = str(tmp_path / "c.jsonl")
    argv = ["orbit", "--poly", "z^2+1", "--n", "2", "--format", "json", "--cache", cache]
    assert main(argv + COMMON) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {
        "cache": cache,
        "digit_budget": 9000,
        "format": "json",
        "rho_budget": 7000,
        "seed": 4,
        "tol": "0.001",
        "trial_bound": 5000,
    }


def test_invalid_config_exits_two(monkeypatch, capsys):
    monkeypatch.delenv("DYNZSIG_CACHE", raising=False)
    assert main(["orbit", "--poly", "z^2+1", "--tol", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tolerance must be in (0, 1)\n"
