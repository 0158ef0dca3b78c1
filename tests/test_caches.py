"""Every functools cache in quadnmr has a finite maxsize, save the few keyed
by a level count or a bundled file name, which only ever hold a handful of
keys. An unbounded cache keyed by numbers from the caller would grow for the
life of the process."""

import importlib
import pkgutil
import types

import quadnmr
from quadnmr import SpinSystem, spectrum, synthesize_fid

from helpers import clear_readout_caches

# keyed by a level count (at most 16), with an oracle id (one of four), or a
# bundled sequence file name
UNBOUNDED = {"quadnmr.system._levels", "quadnmr.linalg._spin_operators",
             "quadnmr.pulses._generator_table", "quadnmr.compiler._inversion",
             "quadnmr.dj._start_state", "quadnmr.dj._ideal_state",
             "quadnmr.dj._bundled_events", "quadnmr.seqlang._statements"}


def functools_caches() -> dict:
    """Each functools cache of quadnmr by its module and qualified name: the
    caches in the namespace of its modules, of its classes and of the
    objects they hold (such as a threading.local's)."""
    found = {}
    for info in pkgutil.iter_modules(quadnmr.__path__, "quadnmr."):
        for value in vars(importlib.import_module(info.name)).values():
            holders = [value]
            if not isinstance(value, (types.ModuleType, types.FunctionType)) \
                    and hasattr(value, "__dict__"):
                holders += list(vars(value).values())
            for item in holders:
                if hasattr(item, "cache_parameters") and item.__module__.startswith("quadnmr"):
                    found[f"{item.__module__}.{item.__qualname__}"] = item
    return found


def test_every_cache_is_bounded_but_those_keyed_by_level_count_or_file_name():
    caches = functools_caches()
    unbounded = {name for name, cache in caches.items()
                 if cache.cache_parameters()["maxsize"] is None}
    assert unbounded <= UNBOUNDED <= set(caches)
    # the scan reaches the bounded caches too: wrapped ones and a thread's own
    for name in ("quadnmr.dj._oracle_state", "quadnmr.readout._readout_plan",
                 "quadnmr.readout._twiddles", "quadnmr.relaxation.coherence_t2_table",
                 "quadnmr.readout._Workspace"):
        assert caches[name].cache_parameters()["maxsize"] is not None


def test_clearing_the_readout_caches_empties_every_readout_cache():
    sys = SpinSystem.from_splitting(16_000.0)
    spectrum(synthesize_fid([1.0, 2.0, 3.0], sys, points=64), sys)
    clear_readout_caches()
    readout = {name: cache.cache_info().currsize for name, cache in functools_caches().items()
               if name.startswith("quadnmr.readout.")}
    assert len(readout) >= 4
    assert set(readout.values()) == {0}, readout
