"""tools/cli_digest.py asks for runs the command line still accepts."""

import importlib.util
import os

from mpembasim import cli

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
