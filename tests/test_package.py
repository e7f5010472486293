"""The package's public names."""

import covermodels


def test_every_exported_name_resolves_once():
    names = covermodels.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(covermodels, name, None) is not None, name


def test_the_package_runs_without_scipy():
    """scipy is a test dependency: importing the package, fitting the
    kernel baseline, the CTW oracle and both models' updates must work
    with scipy unimportable."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(covermodels.__file__).resolve().parents[1])
    smoke = str(Path(__file__).with_name("no_scipy_smoke.py"))
    out = subprocess.run(
        [sys.executable, smoke], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
