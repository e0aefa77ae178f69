"""tools/cli_digest.py asks for runs the command line still accepts, and the
command line's output keeps the bytes of the committed digest."""

import importlib.util
import itertools
import os
import warnings

import pytest

from mpembasim import cli
from mpembasim.config_io import load_config
from mpembasim.exceptions import ValidationError

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "cli_digest.py")
spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
cli_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digest)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_digest.txt")


def test_the_output_keeps_the_bytes_of_the_golden_digest():
    # The golden file is the subprocess digest of the committed package,
    #     python3 tools/cli_digest.py src > tests/golden/cli_digest.txt
    # so a change meant to move output regenerates it and names every label
    # that moved.  The hashes pin a numpy build on a CPU: numpy's SIMD exp,
    # log and sin may round the last bit otherwise, which is a finding to
    # report with its labels, not a file to regenerate.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lines = cli_digest.in_process_digest()
    # a fresh process would print a warning to its stderr; this one records it
    assert [str(warning.message) for warning in caught] == []
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read().splitlines()
    differing = [
        (ours, theirs)
        for ours, theirs in itertools.zip_longest(lines, golden, fillvalue="(absent)")
        if ours != theirs
    ]
    assert not differing, f"{len(differing)} lines differ, the first: {differing[0]}"


def test_every_digest_run_parses():
    # a run argparse refuses would only show as a changed hash, as exit 2
    parser = cli._build_parser()
    for label, argv, _ in cli_digest.runs():
        if "--help" not in argv:
            assert parser.parse_args(argv).command == argv[0], label


def test_the_digest_runs_every_subcommand():
    commands = {argv[0] for _, argv, _ in cli_digest.runs()}
    assert commands >= {name for name, *_ in cli._SUBCOMMANDS}


def test_verify_runs_every_refusal_and_a_missing_config():
    # verify refuses a config as the table commands do, so the digest pins it
    runs = [argv for _, argv, _ in cli_digest.runs()]
    for name in (*cli_digest.REFUSALS, cli_digest.MISSING_CONFIG):
        assert ["verify", "--config", name] in runs
    assert cli_digest.MISSING_CONFIG not in {
        cli_digest.CONFIG_NAME, *cli_digest.REFUSALS, *cli_digest.EDGE_CONFIGS
    }


@pytest.mark.parametrize("name", sorted(cli_digest.REFUSALS))
def test_every_refusal_config_is_refused(tmp_path, name):
    # a config the checks accept would digest as a run, not a refusal
    path = tmp_path / name
    path.write_text(cli_digest.REFUSALS[name], encoding="utf-8")
    with pytest.raises(ValidationError):
        load_config(str(path))


@pytest.mark.parametrize("name", sorted(cli_digest.EDGE_CONFIGS))
def test_every_edge_config_is_accepted_and_verified(tmp_path, name):
    # a refused edge config would digest as one more refusal, not a battery
    path = tmp_path / name
    path.write_text(cli_digest.EDGE_CONFIGS[name], encoding="utf-8")
    load_config(str(path))
    assert ["verify", "--config", name] in [argv for _, argv, _ in cli_digest.runs()]


@pytest.mark.parametrize(
    "argv, code", [(["-h"], 0), (["--help"], 0), (["--verbose"], 2), (["src", "-x"], 2)]
)
def test_help_prints_the_usage_to_stdout_and_any_other_option_to_stderr(capsys, argv, code):
    # an option is never taken for the source directory
    usage = cli_digest.__doc__.strip() + "\n"
    assert cli_digest.main(argv) == code
    assert capsys.readouterr() == ((usage, "") if code == 0 else ("", usage))
