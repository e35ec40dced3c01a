import doctest
import importlib
import pkgutil

import schubertk

# the modules whose docstrings carry examples today; every other module is
# run as well, so an example added anywhere is never skipped
WITH_EXAMPLES = {"diagrams", "hecke", "restriction", "ring", "shapes", "tableaux", "weyl"}


def test_module_doctests():
    # importing __main__ would run the command line
    names = [m.name for m in pkgutil.iter_modules(schubertk.__path__) if m.name != "__main__"]
    assert WITH_EXAMPLES <= set(names)
    modules = [schubertk] + [importlib.import_module(f"schubertk.{name}") for name in names]
    for module in modules:
        results = doctest.testmod(module)
        assert results.failed == 0, module
        if module.__name__.removeprefix("schubertk.") in WITH_EXAMPLES:
            assert results.attempted > 0, module
