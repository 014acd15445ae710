"""Every exported name resolves on its module and is read by the package or
the benchmark, every name the benchmark imports from the package resolves,
and every layer the benchmark's tracer wraps exists.

A stale __all__ entry otherwise fails only at `from module import *`, a
name that only tests call stays exported unnoticed, a name deleted
from under perfbench/ fails only when the benchmark runs, and a traced
function deleted from the package reads as an absent layer, 0 in every
one of its rows, without failing anything.

The package's records are immutable values with field-wise equality,
none is a dataclass, whose generated methods are compiled at import, and
the package or the benchmark reads every field of each.
Importing the CLI does not import csv, which only CSV output needs.
"""

import ast
import copy
import dataclasses
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import seshadri
from seshadri import bielliptic, bounds, comparison, verify

PERFBENCH = Path(__file__).parent.parent / "perfbench"
PACKAGE = Path(__file__).parent.parent / "src" / "seshadri"

MODULES = ["seshadri", "seshadri.exactmath", "seshadri.bielliptic", "seshadri.verify"]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _read_names() -> set[str]:
    """Every name the package or the benchmark reads as a variable or an attribute.

    Imports, def and class lines and the strings of __all__ are not reads.
    """
    names = set()
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_is_read_outside_the_tests(module_name):
    read = _read_names()
    unread = [name for name in importlib.import_module(module_name).__all__
              if name not in read]
    assert unread == []


def _package_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each `from seshadri... import name`, (module, None) for `import`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "seshadri":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "seshadri"]
    return found


def _resolves(module_name: str, name: str | None) -> bool:
    try:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda path: path.name)
def test_benchmark_imports_resolve(path):
    imports = _package_imports(path)
    assert [item for item in imports if not _resolves(*item)] == []


def test_benchmark_imports_are_found():
    imports = {item for path in PERFBENCH.glob("*.py") for item in _package_imports(path)}
    assert {("seshadri.exactmath", "RadicalBound"), ("seshadri.exactmath", "format_decimal"),
            ("seshadri.cli", "cli"), ("seshadri", None)} <= imports


#: tracer layers whose function the package no longer has; each reads absent
#: until the benchmark drops it, and must not come back under the same name
STALE_LAYERS = {"exactmath.RadicalBound.cmp", "bounds.tail_cutoff"}


def _tracer_layers() -> dict[str, tuple[str, str | None]]:
    """LAYERS of perfbench/tracer.py, read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _layer_resolves(module_name: str, path: str | None) -> bool:
    target = importlib.import_module(module_name)
    for part in path.split(".") if path else ():
        target = getattr(target, part, None)
        if target is None:
            return False
    return True


def test_tracer_layers_resolve_except_the_named_stale_ones():
    layers = _tracer_layers()
    unresolved = {name for name, (module, path) in layers.items()
                  if not _layer_resolves(module, path)}
    assert unresolved == STALE_LAYERS & layers.keys()


def _package_modules() -> list:
    return [seshadri] + [importlib.import_module(f"seshadri.{info.name}")
                         for info in pkgutil.iter_modules(seshadri.__path__)]


def test_every_record_field_is_read_outside_the_tests():
    loaded = {node.attr for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    records = {obj for module in _package_modules() for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and hasattr(obj, "_fields")}
    assert {"SurfaceKind", "RadicalBound"} <= {record.__name__ for record in records}
    unread = sorted(f"{record.__name__}.{field}" for record in records
                    for field in record._fields if field not in loaded)
    assert unread == []


#: (record, a real call that returns one, one of its fields)
RECORDS = [
    ("SmallBound", lambda: bounds.lower_bound_small(2), "value"),
    ("BoundCertificate", lambda: bounds.certified_min(2), "value"),
    ("TailWitness", lambda: bounds.certified_min(2).tail_witness, "cutoff"),
    ("F7Report", lambda: bounds.check_f7(2), "status"),
    ("CensusReport", lambda: bounds.census(2, 100), "counts"),
    ("SqrtLinearThreshold", lambda: bounds.analytic_threshold().certificates[2], "threshold"),
    ("AnalyticThreshold", lambda: bounds.analytic_threshold(), "threshold"),
    ("CeilingThreshold", lambda: bounds.ceiling_threshold(), "threshold"),
    ("Check", lambda: verify.run(2, 8).checks[0], "passed"),
    ("Verification", lambda: verify.run(2, 8), "checks"),
    ("TableRow", lambda: comparison.comparison_table([2])[0], "new_bound"),
    ("CellDiscrepancy", lambda: comparison.table_vs_printed()[0], "computed"),
    ("RadicalBound", lambda: comparison.prior_bound("hr_093", 5), "coef"),
    ("SurfaceKind", lambda: bielliptic.surface_kind(1), "group_order"),
    ("DivisorClass", lambda: bielliptic.class_of_E(bielliptic.surface_kind(1)), "a"),
]


@pytest.mark.parametrize("name, make, field", RECORDS, ids=[r[0] for r in RECORDS])
def test_records_are_immutable_values(name, make, field):
    record = make()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    twin = copy.copy(record)
    assert twin == record
    try:
        assert hash(twin) == hash(record)
    except TypeError:  # a dict or list field makes the record unhashable
        pass
    assert repr(record).startswith(f"{name}(")


def test_no_record_is_a_dataclass():
    found = [f"{module.__name__}.{name}" for module in _package_modules()
             for name, obj in vars(module).items()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and dataclasses.is_dataclass(obj)]
    assert found == [], ("a frozen dataclass compiles six methods at import, about 1 ms "
                         f"of every CLI start each; make these NamedTuples: {found}")


def test_cli_import_leaves_csv_unloaded():
    code = "import sys; sys.path.insert(0, 'src'); import seshadri.cli; print('csv' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code], cwd=PACKAGE.parent.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False", ("import csv inside the CSV branch of the writer in "
                                     "cli._command, not at module level")
