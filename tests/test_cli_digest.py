"""tools/cli_digest.py asks for runs the command line still accepts."""

import importlib.util
import os

import pytest

from mpembasim import cli
from mpembasim.config_io import load_config
from mpembasim.exceptions import ValidationError

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "cli_digest.py")
spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
cli_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digest)


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
    assert cli_digest.MISSING_CONFIG not in {cli_digest.CONFIG_NAME, *cli_digest.REFUSALS}


@pytest.mark.parametrize("name", sorted(cli_digest.REFUSALS))
def test_every_refusal_config_is_refused(tmp_path, name):
    # a config the checks accept would digest as a run, not a refusal
    path = tmp_path / name
    path.write_text(cli_digest.REFUSALS[name], encoding="utf-8")
    with pytest.raises(ValidationError):
        load_config(str(path))
