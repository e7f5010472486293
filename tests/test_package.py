"""The package's public names."""

import covermodels


def test_every_exported_name_resolves_once():
    names = covermodels.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(covermodels, name, None) is not None, name


def test_import_leaves_scipy_spatial_to_the_kernel_baseline():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(covermodels.__file__).resolve().parents[1])
    code = "import sys, covermodels; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
