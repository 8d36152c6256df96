"""Every exported name resolves, so a retired name left in an export list fails, the
package exports exactly what its modules list, only the allowed names come in
scale/shift pairs, and every exported name, and every public method and property
of an exported class, is reached outside the tests or is kept for a stated reason."""
import ast
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import stablepp

MODULES = ["stablepp"] + sorted(f"stablepp.{m.name}" for m in pkgutil.iter_modules(stablepp.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names what it does not define: {missing}"


def test_package_exports_exactly_the_module_lists():
    listed = [name for module_name in MODULES[1:]
              for name in getattr(importlib.import_module(module_name), "__all__", [])]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert sorted(stablepp.__all__) == sorted(["__version__", *listed])


# (scale-side word, shift-side word): swapping one pair throughout a name, or
# prefixing "shift_" / "Shift", turns one name of a carrier twin into the other
CARRIER_WORDS = [("scaled", "shift"), ("scale", "shift"), ("Scale", "Shift"),
                 ("Frechet", "Gumbel"), ("maxmods", "max_locations"), ("maxmod", "max_location"),
                 ("y_grid", "u_grid"), ("cf", "kappa"), ("default", "shift"), ("log", "exp")]
SHIFT_PREFIXES = ("shift_", "Shift")

# Every public name that comes in a scale/shift pair; any other operation
# reads its carrier from its arguments under one name.
ALLOWED_TWINS = {
    # the exp/log transports between the carriers
    ("exp_decoration", "log_decoration"),
    ("exp_function", "log_function"),
    ("exp_transform", "log_transform"),
    ("scale_law_to_shift", "shift_law_to_scale"),
    # a ramp relative to its edge, with a symmetric option, against an absolute
    # ramp: one constructor would branch on the carrier
    ("indicator_approx", "shift_indicator_approx"),
    # perfbench/tracing.py keys its ESTIMATE metrics on both names
    ("estimate_scaled_laplace", "estimate_shift_laplace"),
    # perfbench/tracing.py keys its PSI metrics on both names
    ("psi_decoration_scale", "psi_decoration_shift"),
    # perfbench/tracing.py keys its QUAD metrics on both names
    ("cf_quadrature", "kappa_quadrature"),
    # perfbench/tracing.py keys its PREDICT metrics on both names
    ("predict_scaled_laplace", "predict_shift_laplace"),
    # perfbench/tracing.py keys its REDUCE metrics on both names
    ("FlatCampaign.max_locations", "FlatCampaign.maxmods"),
}


def _public_names() -> set:
    """The package's exported names, and Class.attribute for the public
    attributes of every exported class."""
    names = set(stablepp.__all__)
    for name in stablepp.__all__:
        obj = getattr(stablepp, name)
        if inspect.isclass(obj):
            names |= {f"{name}.{attr}" for attr in vars(obj) if not attr.startswith("_")}
    return names


def _swapped(name: str, a: str, b: str) -> str:
    return re.sub(f"{a}|{b}", lambda m: b if m.group() == a else a, name)


def test_only_the_allowed_names_come_in_carrier_pairs():
    names = _public_names()
    twins = set()
    for name in names:
        owner, _, attr = name.rpartition(".")
        prefix = owner + "." if owner else ""
        others = ({prefix + _swapped(attr, a, b) for a, b in CARRIER_WORDS}
                  | {prefix + p + attr for p in SHIFT_PREFIXES})
        twins |= {tuple(sorted((name, other))) for other in others
                  if other != name and other in names}
    assert twins == ALLOWED_TWINS


ROOT = Path(__file__).resolve().parents[1]

# Exported names, and Class.attribute for public methods and properties of
# exported classes, that nothing outside the tests reaches, each with the reason
# it stays public
TEST_REFERENCES = {
    "cf_estimate": "acceptance criterion 2's Monte Carlo reference for the quadrature c_f",
    "process_spec_from_config": "the reader paired with ProcessSpec.to_config_dict",
    "log_decoration": "an allowed twin: the exp/log transport of a decoration",
    "exp_decoration": "an allowed twin: the exp/log transport of a decoration",
    "scale_law_to_shift": "an allowed twin: the exp/log transport of a global law",
    "shift_law_to_scale": "an allowed twin: the exp/log transport of a global law",
    "integrate": "the one-measure integral that MeasureBatch.integrals reproduces",
    "DecorationSpec.random_atoms": "the Python constructor of the random_atoms kind, as "
                                   "dirac is of the dirac kind, on either carrier",
    "FlatCampaign.max_locations": "an allowed twin: perfbench/tracing.py keys its REDUCE "
                                  "metrics on it and on maxmods",
    "ExtremeLaw.ppf": "the inverse CDF behind ExtremeLaw.sample, the exact reference sampler "
                      "of acceptance criterion 6 and of the KS and Hill tests of "
                      "tests/test_characterization.py",
}


def _reached_in_src() -> set:
    """Names the package's code reads: every name and attribute in a top-level
    statement of a module, except in the statement that defines that name. An
    import or an ``__all__`` entry reads nothing."""
    reached = set()
    for path in sorted((ROOT / "src" / "stablepp").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = {getattr(stmt, "name", None)}
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
            used = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            used |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            reached |= used - defined
    return reached


def _text_outside_src() -> str:
    """The demos, the README and the benchmark harness, as one text."""
    paths = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def test_every_exported_name_is_reached_outside_the_tests():
    exported = set(stablepp.__all__) - {"__version__"}
    text = _text_outside_src()
    reached = _reached_in_src() | {name for name in exported
                                   if re.search(rf"\b{re.escape(name)}\b", text)}
    kept = {name for name in TEST_REFERENCES if "." not in name}
    assert kept <= exported, "TEST_REFERENCES names a name not exported"
    assert not kept & reached, "TEST_REFERENCES names a reached name"
    assert sorted(exported - reached - kept) == []


def _public_methods() -> dict:
    """Class.attribute -> attribute for every public method and property of every
    exported class, those it inherits from a package class included."""
    out = {}
    for name in stablepp.__all__:
        obj = getattr(stablepp, name)
        if not inspect.isclass(obj):
            continue
        for owner in obj.__mro__:
            if not owner.__module__.startswith("stablepp."):
                continue
            for attr, raw in vars(owner).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(raw) or isinstance(
                            raw, (staticmethod, classmethod, property, functools.cached_property))):
                    out.setdefault(f"{name}.{attr}", attr)
    return out


def _defined_in(cls: ast.ClassDef) -> set:
    """The names a class body defines: its methods and class attributes."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _attributes_read_in_src() -> set:
    """Every attribute name the package's code reads, as in ``obj.name``, except
    ``self.name`` read inside a class that defines ``name``: a class calling its
    own method does not reach it from outside."""
    read = set()
    for path in sorted((ROOT / "src" / "stablepp").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                defined = _defined_in(cls)
                own |= {id(node) for node in ast.walk(cls)
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "self" and node.attr in defined}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and id(node) not in own}
    return read


def test_every_public_method_is_reached_outside_the_tests():
    # by name: a method counts as reached when the package reads an attribute of
    # its name, or the demos, README or benchmark harness write ``.name``
    methods = _public_methods()
    text = _text_outside_src()
    read = _attributes_read_in_src()
    reached = {key for key, attr in methods.items()
               if attr in read or re.search(rf"\.{re.escape(attr)}\b", text)}
    kept = {key for key in TEST_REFERENCES if "." in key}
    assert kept <= set(methods), "TEST_REFERENCES names a method not public"
    assert not kept & reached, "TEST_REFERENCES names a reached method"
    assert sorted(set(methods) - reached - kept) == []
