"""The package's public names."""

import covermodels


def test_every_exported_name_resolves_once():
    names = covermodels.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(covermodels, name, None) is not None, name
