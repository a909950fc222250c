"""Package surface: every exported name resolves, and a fresh process loads
scipy.special and yaml only once it runs what needs them.

The import checks each run in a fresh `python` (conftest puts `src` on its
PYTHONPATH), since this process has loaded both libraries already."""

import json
import subprocess
import sys

import pytest

import sdtp

LAZY = ("scipy.special", "yaml")


def test_every_exported_name_resolves():
    missing = [name for name in sdtp.__all__ if not hasattr(sdtp, name)]
    assert not missing


def loaded_after(code: str) -> dict[str, bool]:
    """Run code in a fresh python; which of LAZY it has loaded by the end."""
    report = f"import json, sys; print(json.dumps({{m: m in sys.modules for m in {LAZY!r}}}))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_neither():
    """`import sdtp` loads numpy and sdtp, not scipy.special or yaml."""
    assert loaded_after("import sdtp") == {"scipy.special": False, "yaml": False}


CLI_RUNS = {
    "flops": 'assert main(["flops", "--seed", "0"]) == 0',
    "help": 'try:\n    main(["--help"])\nexcept SystemExit as e:\n    assert e.code == 0',
    "missing_config": 'assert main(["forward", "--config", "/nope/missing.yaml"]) == 2',
}


@pytest.mark.parametrize("run", CLI_RUNS.values(), ids=CLI_RUNS.keys())
def test_cli_runs_without_gelu_load_neither(run):
    """A subcommand that runs no GELU and reads no config file, --help
    and a config error load neither library."""
    got = loaded_after(f"from sdtp.cli import main\n{run}")
    assert got == {"scipy.special": False, "yaml": False}


def test_first_gelu_loads_scipy_special():
    got = loaded_after("import numpy as np\nfrom sdtp import tensor as T\n"
                       "T.gelu(T.Tensor(np.ones(3)))")
    assert got == {"scipy.special": True, "yaml": False}


def test_config_file_loads_yaml(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("channels: 16\nisp:\n  heads: 4\n")
    got = loaded_after(f"from sdtp.config import load_config\n"
                       f"assert load_config({str(p)!r}).channels == 16")
    assert got == {"scipy.special": False, "yaml": True}
