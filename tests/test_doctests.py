import doctest

import schubertk.hecke
import schubertk.shapes


def test_module_doctests():
    for module in (schubertk.shapes, schubertk.hecke):
        results = doctest.testmod(module)
        assert results.attempted > 0, module
        assert results.failed == 0, module
