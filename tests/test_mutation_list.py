"""The list of known equivalent mutants against the modules it names."""

import mutation


def test_every_listed_equivalent_mutant_names_a_live_site():
    """Each entry of ``mutation_equivalent.json`` names a site that
    ``mutation.py`` mutates: its module, function, source line and
    operator, so an edit that moves or removes the site shows here
    rather than as a stale line in a mutation run."""
    listed = mutation.listed_equivalent()
    live = {
        (module, function, source, operator)
        for module in {entry[0] for entry in listed}
        for _, function, operator, source in mutation.find_sites(mutation.ROOT / module)
    }
    assert sorted(listed - live) == []
