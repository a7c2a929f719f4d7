"""Cold start: `import cubicsym` loads the solver and nothing else.

The catalog, the property suites and the dataclasses machinery (which
brings in inspect, ast, dis and tokenize) cost more to import than the
solver itself, and classifying a form needs none of them.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import cubicsym
loaded = [m for m in ("cubicsym.catalog", "cubicsym.properties", "cubicsym.cli",
                      "dataclasses", "inspect") if m in sys.modules]
entries = len(cubicsym.catalog.ENTRIES)
namespace = {}
exec("from cubicsym import *", namespace)
print(json.dumps({"loaded": loaded, "entries": entries,
                  "star": sorted(k for k in namespace if k != "__builtins__"),
                  "all": sorted(cubicsym.__all__)}))
"""


def probe():
    proc = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_only_the_solver():
    result = probe()
    assert result["loaded"] == []
    # the catalog still loads on first access, and the star import still works
    assert result["entries"] == 41
    assert result["star"] == result["all"]
    assert "catalog" in result["star"] and "classify" in result["star"]


def test_public_names():
    # adding or removing a public name takes a deliberate edit here
    import cubicsym
    assert sorted(cubicsym.__all__) == [
        "ClassificationReport", "ColinearityVerdict", "ComparisonVerdict", "CubicForm",
        "DependentBasisError", "InvariantSeries", "KillingSystem", "Mat3",
        "NOT_EQUIVALENT", "NotClosedError", "POSSIBLY_EQUIVALENT",
        "SingularTransformError", "StructureConstants", "SymmetryAlgebra",
        "SymmetryClass", "bracket", "build_system", "catalog", "classify",
        "colinearity", "compare", "invariants",
        "killing_operator", "solvable_pair", "solve", "structure_constants",
        "tau0_upper_bound", "verify_killing",
    ]


def test_from_cubicsym_import_catalog():
    from cubicsym import catalog
    import cubicsym
    assert cubicsym.catalog is catalog
    assert len(catalog.ENTRIES) == 41


def test_unknown_attribute_is_an_attribute_error():
    import cubicsym
    with pytest.raises(AttributeError, match="no_such_name"):
        cubicsym.no_such_name


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "cubicsym").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in modules, f"{path.name} imports dataclasses"
