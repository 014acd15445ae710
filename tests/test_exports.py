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
the package reads every field of every record while the golden CLI
invocations run, save the named exceptions of UNREAD_FIELDS.  The check
traces each record's own field descriptors, so a read of a field of the
same name on another record does not count.
Importing the CLI does not import csv, which only CSV output needs.
The CLI turns a library ValueError into a usage error in one place, the
writer of cli._command, so no command grows its own copy of that rule, and
that writer's try is the CLI's only one: click types read every option
value, so no command parses or catches anything.  One hook, the __exit__
of the root context, cuts every usage error, so no type or command cuts
its own.
Only bounds._tail_cutoff builds a TailWitness, so a tail witness has one
shape and one place that proves it.  Likewise only comparison.prior_bound
and comparison.dominance_check read PRIOR_BOUNDS by name, only
exactmath._decimal refuses a negative digit count, and only
bielliptic.star_check_reducible refuses a component count or a
multiplicity, the one C^2 predicate.
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
from click.testing import CliRunner
from test_cli_golden import INVOCATIONS

import seshadri
from seshadri import bielliptic, bounds, comparison, verify
from seshadri.cli import cli

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


#: (record, field) pairs that no golden CLI invocation reads, each with its reason
UNREAD_FIELDS = {
    ("F7Report", "tail_witness"): "check_f7's certificate, which only the tests recheck",
}


def test_every_record_field_is_read_outside_the_tests(monkeypatch, fresh_small_table):
    # every field descriptor, found along the MRO since RadicalBound and
    # SurfaceKind subclass a generated NamedTuple, becomes a property that
    # notes its read; the caches start empty so the reads inside cached
    # builders happen here too, and only the package reads while the
    # golden invocations run
    records = {obj for module in _package_modules() for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and hasattr(obj, "_fields")}
    assert {"SurfaceKind", "RadicalBound"} <= {record.__name__ for record in records}
    unread = {(record.__name__, field) for record in records for field in record._fields}

    def counting(key, descriptor):
        def read(self):
            unread.discard(key)
            return descriptor.__get__(self, type(self))
        return property(read)

    for record in records:
        for field in record._fields:
            descriptor = next(vars(owner)[field] for owner in record.__mro__
                              if field in vars(owner))
            monkeypatch.setattr(record, field, counting((record.__name__, field), descriptor))
    runner = CliRunner()
    for _, argv, with_output in INVOCATIONS:
        if with_output:
            assert not isinstance(runner.invoke(cli, argv).exception, Exception), argv
    assert sorted(unread) == sorted(UNREAD_FIELDS)


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
    ("Check", lambda: verify.run(2, 8)[0], "passed"),
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


@pytest.mark.parametrize("module, where", [
    ("csv", "the CSV branch of the writer in cli._command"),
    ("seshadri.verify", "the verify command"),
], ids=["csv", "seshadri.verify"])
def test_cli_import_leaves_unneeded_modules_unloaded(module, where):
    code = ("import sys; sys.path.insert(0, 'src'); import seshadri.cli; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code], cwd=PACKAGE.parent.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False", f"import {module} inside {where}, not at module level"


def test_cli_turns_a_library_value_error_into_a_usage_error_only_in_its_writer():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    owners = [top.name for top in tree.body if isinstance(top, ast.FunctionDef)
              for node in ast.walk(top) if isinstance(node, ast.ExceptHandler)
              and node.type is not None and ast.unparse(node.type) == "ValueError"
              and any(ast.unparse(stmt) == "raise click.UsageError(str(exc))"
                      for stmt in node.body)]
    assert owners == ["_command"]


def test_one_root_hook_cuts_every_usage_error():
    from seshadri.cli import cli

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    methods = [(f"{top.name}.{node.name}", node) for top in tree.body
               if isinstance(top, ast.ClassDef) for node in top.body
               if isinstance(node, ast.FunctionDef)]
    assert [name for name, _ in methods if name.endswith(".fail")] == []
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "_short"]
    callers = [name for name, method in methods for node in ast.walk(method) if node in uses]
    assert len(uses) == 1
    assert callers == [f"{cli.context_class.__name__}.__exit__"]


def _owners(matches) -> set[str]:
    """module.name of every top-level definition in the package holding a node that matches."""
    return {f"{path.stem}.{getattr(top, 'name', None)}" for path in sorted(PACKAGE.glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8")).body
            for node in ast.walk(top) if matches(node)}


def test_only_tail_cutoff_builds_a_tail_witness():
    assert _owners(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "TailWitness") == {"bounds._tail_cutoff"}
    assert _owners(lambda node: isinstance(node, ast.Name) and node.id == "_Tail") == set()


def test_only_prior_bound_and_dominance_check_subscript_prior_bounds():
    assert _owners(lambda node: isinstance(node, ast.Subscript)
                   and ast.unparse(node.value).split(".")[-1] == "PRIOR_BOUNDS") == {
        "comparison.prior_bound", "comparison.dominance_check"}
    assert _owners(lambda node: getattr(node, "name", None) == "_prior_square") == set()


def test_only_the_decimal_core_refuses_negative_decimals():
    assert _owners(lambda node: isinstance(node, ast.Raise)
                   and "decimals must be >= 0" in ast.unparse(node)) == {"exactmath._decimal"}


def test_only_star_check_reducible_refuses_a_curve():
    for message in ["component count must be >= 1", "singular multiplicities must be >= 2"]:
        assert _owners(lambda node: isinstance(node, ast.Raise) and message in ast.unparse(node)
                       ) == {"bielliptic.star_check_reducible"}
    assert _owners(lambda node: getattr(node, "name", None)
                   in {"star_check_irreducible", "_mult_sum"}) == set()


def test_the_cli_has_one_try_the_writer_s():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    owners = [getattr(top, "name", None) for top in tree.body
              for node in ast.walk(top) if isinstance(node, ast.Try)]
    assert owners == ["_command"]
