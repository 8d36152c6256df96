"""The per-layer trace in perfbench/tracing.py keys its metrics on qualified
names inside stablepp. A rename or an inlined public function would silently
zero a metric; this test names the breakage instead."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
CONSTANTS = ("EVAL", "SERIALIZE", "PARSE", "CAMPAIGN", "BLOCK", "REDUCE", "REPLICA",
             "PREDICT", "QUAD", "PSI", "ESTIMATE", "FIT", "EXTRACT", "MEASURE_MAPS")


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_names():
    tracing = _tracing()
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


def test_campaign_observer_reads_a_real_campaign():
    # the observer of the traced campaign reads the FlatCampaign fields; a
    # change to what run_campaign returns would crash every traced pass
    from stablepp.sampler import DecorationSpec, ProcessSource, ProcessSpec, run_campaign

    tracing = _tracing()
    spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.2)
    campaign = run_campaign(ProcessSource(spec), 3, 5000)
    counts = dict.fromkeys(("atoms", "reps", "campaign_bytes"), 0)
    tracing.OBSERVERS[tracing.CAMPAIGN](counts, (), {}, campaign)
    assert counts["atoms"] == campaign.locations.size > 0
    assert counts["reps"] == 5000
    assert counts["campaign_bytes"] == campaign.locations.nbytes * 3
