import doctest

import schubertk.hecke
import schubertk.restriction
import schubertk.ring
import schubertk.shapes
import schubertk.tableaux


def test_module_doctests():
    for module in (
        schubertk.shapes,
        schubertk.hecke,
        schubertk.tableaux,
        schubertk.restriction,
        schubertk.ring,
    ):
        results = doctest.testmod(module)
        assert results.attempted > 0, module
        assert results.failed == 0, module
