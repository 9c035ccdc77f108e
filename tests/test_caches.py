"""Every process-wide cache in grassq is emptied by ``fresh_caches`` or is
a pure field table, so no test can read a build that another test's
monkeypatched engine left behind."""

import importlib
import inspect
import pkgutil

import grassq
from grassq import coherent
from conftest import (CONSTRUCTION_CACHES, FIELD_TABLES,
                      clear_construction_caches)
from grassq.suites import run_suite


def _process_wide_caches() -> dict:
    """Every object with ``cache_clear`` that a grassq module or a class
    defined in one holds, keyed by identity."""
    found = {}
    for info in pkgutil.iter_modules(grassq.__path__):
        module = importlib.import_module(f"grassq.{info.name}")
        for value in list(vars(module).values()):
            held = [value]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                held += [getattr(v, "__func__", v) for v in vars(value).values()]
            found.update((id(obj), obj) for obj in held
                         if hasattr(obj, "cache_clear"))
    return found


def test_every_cache_is_cleared_by_fresh_caches_or_is_a_field_table():
    named = {id(c): c for c in CONSTRUCTION_CACHES + FIELD_TABLES}
    assert _process_wide_caches().keys() == named.keys()
    run_suite("suq2", (3, 3), max_n=3)
    assert all(c.cache_info().currsize for c in CONSTRUCTION_CACHES)
    clear_construction_caches()
    assert not any(c.cache_info().currsize for c in CONSTRUCTION_CACHES)


def test_a_run_over_many_levels_builds_each_state_once(fresh_caches):
    # counts builds, not time: 19 levels of two families are 38 states,
    # and the suq2 and biortho checks after the level loop rebuild the 4
    # states of n = 2 and 3; the cache keeps 32, so a run that walked
    # suites before levels built 118
    run_suite("all", (2, 20), max_n=20)
    assert coherent._build_coherent.cache_info().misses <= 42
