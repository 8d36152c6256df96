"""The per-layer trace in perfbench/tracing.py keys its metrics on qualified
names inside stablepp. A rename or an inlined public function would silently
zero a metric; this test names the breakage instead."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
CONSTANTS = ("EVAL", "SERIALIZE", "PARSE", "CAMPAIGN", "BLOCK", "REDUCE", "REPLICA",
             "PREDICT", "QUAD", "PSI", "ESTIMATE", "FIT", "EXTRACT", "MEASURE_MAPS")


def _traced_names():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = []
    for const in CONSTANTS:
        value = getattr(tracing, const)
        names.extend(sorted(value) if isinstance(value, (set, frozenset)) else [value])
    return tracing.PACKAGE, names


def test_every_traced_name_resolves():
    package, names = _traced_names()
    assert len(names) == 22
    for name in names:
        module_name, qualname = name.split(".", 1)
        obj = importlib.import_module(f"{package}.{module_name}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert obj.__module__ == f"{package}.{module_name}", name
        assert obj.__qualname__ == qualname, name
