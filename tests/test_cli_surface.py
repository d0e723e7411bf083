"""The command line's surface and its one failure rule, command by command.

`cli_surface.json` records every command's parameters as click describes them
(`Parameter.to_info_dict()`, without `help` and `name`), keyed by option strings.
Help text and the order of `--help` may change; nothing else may.
"""

import json
import socket
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from datacred.cli import main
from conftest import PASSPHRASE

pytestmark = pytest.mark.usefixtures("fast_wallet_kdf")

SURFACE = Path(__file__).with_name("cli_surface.json")


def commands(group: click.Group, path: tuple[str, ...] = ()):
    """(command path, command) for every command under group that is not a group."""
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from commands(command, path + (name,))
        else:
            yield " ".join(path + (name,)), command


def surface() -> dict:
    out = {}
    for path, command in commands(main):
        params = {}
        for param in command.params:
            info = param.to_info_dict()
            info.pop("help", None)
            del info["name"]
            params[" ".join(param.opts + param.secondary_opts)] = info
        out[path] = params
    return out


def test_every_command_keeps_its_parameters():
    expected = json.loads(SURFACE.read_text())
    actual = surface()
    assert len(expected) == 17
    assert sorted(actual) == sorted(expected)
    for path, params in expected.items():
        assert actual[path] == params, path


@pytest.fixture
def closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def failures(tmp: Path, admin: str) -> dict:
    """For each command, arguments whose body raises, and the error class it names."""
    (tmp / "doc.json").write_text('{"a": ')  # not JSON
    (tmp / "config.json").write_text("[]")
    (tmp / "outside").write_text("x")
    (tmp / "tree").mkdir()
    (tmp / "tree" / "link").symlink_to(tmp / "outside")
    (tmp / "bundle").mkdir()
    (tmp / "bundle" / "dids.json").write_text("[]")
    wallet = ["--wallet", "w.json", "--passphrase-env", "WRONG_PASSPHRASE"]
    did = "did:key:z6MkhaXgBZDvotDkL5257faiztiGiC2QtKLGpbnnEGta2doK"
    return {
        "keygen": ([*wallet], "WrongPassphrase"),
        "did create-web": (["--domain", "example.com", *wallet], "WrongPassphrase"),
        "issue": (["--issuer", did, "--subject", did, *wallet], "WrongPassphrase"),
        "present": (["--credential", "doc.json", "--challenge", "c", *wallet],
                    "WrongPassphrase"),
        "registry init": (["--issuer", did, "--registry", "r.json", *wallet],
                          "WrongPassphrase"),
        "revoke": (["--registry", "doc.json", "--status-id", "s", *wallet],
                   "WrongPassphrase"),
        "agent status": (["--admin", admin], "FetchFailed"),
        "agent connect": (["--admin", admin, "--did", did, "--endpoint", admin],
                          "FetchFailed"),
        "agent issue": (["--admin", admin, "--connection", "c"], "FetchFailed"),
        "agent request-proof": (["--admin", admin, "--target", did, "--attrs", "a"],
                                "FetchFailed"),
        "agent revoke": (["--admin", admin, "--status-id", "s"], "FetchFailed"),
        "agent serve": (["--config", "config.json"], "BadConfig"),
        "verify": (["doc.json"], "DocumentInvalid"),
        "verify-presentation": (["doc.json", "--challenge", "c"], "DocumentInvalid"),
        "did resolve": (["did:web:example.com", "--offline-bundle", "bundle"],
                        "DocumentInvalid"),
        "hash": (["tree"], "SymlinkEscape"),
        "bundle create": (["--credential", "doc.json", "--out", "b"], "DocumentInvalid"),
    }


@pytest.mark.parametrize("path", sorted(json.loads(SURFACE.read_text())))
def test_every_commands_failure_exits_2_and_names_its_error(path, tmp_path, monkeypatch,
                                                            closed_port):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DATACRED_PASSPHRASE", PASSPHRASE)
    monkeypatch.setenv("WRONG_PASSPHRASE", "not the passphrase")
    runner = CliRunner()
    made = runner.invoke(main, ["keygen", "--wallet", "w.json"])
    assert made.exit_code == 0, made.output
    args, error = failures(tmp_path, f"http://127.0.0.1:{closed_port}")[path]
    result = runner.invoke(main, [*path.split(), *args])
    assert result.exit_code == 2, result.output
    assert f"{error}:" in result.stderr
