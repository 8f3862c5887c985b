"""Source hygiene of the package, checked on its syntax trees.

Every imported name is used, and the arithmetic stays exact: no float
literal, no ``float(...)`` call, and no import of ``random`` or ``numpy``.
No module imports ``dataclasses``, which every process would pay for at
start-up.
The test oracles stay independent of the code they check: they import no
ring kernel (which holds the compatibility rule), no automorphism
enumerator or number
built on it, no theta census, and nothing of the symmetry or pushforward
modules.  Only the engine's own module and the Keel build name
``SparseEchelon``: every other module eliminates through the adapters
``rref``, ``rank``, ``kernel_basis`` and ``solve``.  Only the evaluator of
polynomials in named classes, in ``space_registry``, calls ``multiply``.
Only ``GradedBasis._element`` calls ``RingElement(...)``; nothing assigns
to an element's read-only ``coeffs``, and only ``RingElement``'s own
methods and ``GradedBasis._element`` assign to its slots ``kernel``,
``nums``, ``den`` and ``_coeffs``, so every element is a reduced class
whose coordinates stay valid.  ``symmetry`` builds no element at all
(no ``element``, ``_element`` or ``RingElement(...)`` call), so the
invariant data stay plain rows.  Only ``keel_ring.build_graded_basis`` calls
``GradedBasis(...)``, so each mark count has one kernel, the only reader of
the elements it builds.  Every row the CLI appends to a report section is
(label, text, computed, expected) with no bool literal as its computed
value, so ``Report.verdict`` alone turns a comparison into ok/FAIL."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "prymspin").glob("*.py"))
FORBIDDEN_MODULES = {"random", "numpy"}
ORACLES = Path(__file__).with_name("oracles.py")
ORACLE_FORBIDDEN_NAMES = {"GradedBasis", "build_graded_basis",
                          "RingElement",
                          "marked_tree_automorphism_group",
                          "count_marked_automorphisms", "prym_aut_number",
                          "fiber_count", "extremity_kernel",
                          "nonexceptional_component_count",
                          "double_cover_graph", "mark_slots",
                          "tree_from_monomial",
                          "arf_census", "partition_classes", "phi_R",
                          "verify_bijections"}
ORACLE_FORBIDDEN_MODULES = {"prymspin.symmetry", "prymspin.pushpull"}
ENGINE_MODULES = {"exact_linear.py", "keel_ring.py"}
EVALUATOR_MODULE = "space_registry.py"
ELEMENT_MAKER = ("GradedBasis", "_element")
ELEMENT_SLOTS = {"kernel", "nums", "den", "_coeffs"}
ELEMENT_BUILDERS = {"element", "_element", "RingElement"}
KERNEL_MAKER = ("keel_ring.py", ("build_graded_basis",))
CLI = next(path for path in SOURCES if path.name == "cli.py")
SYMMETRY = next(path for path in SOURCES if path.name == "symmetry.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module):
    """(bound name, imported module) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.module or ""


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted({name for name, _ in _imports(tree)} - used)
    assert not unused, f"{path.name} imports unused names {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_arithmetic_is_exact(path):
    tree = _tree(path)
    floats = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, float)
              or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"]
    assert not floats, f"{path.name}: float at lines {floats}"
    modules = {module.split(".")[0] for _, module in _imports(tree)}
    assert not modules & FORBIDDEN_MODULES, f"{path.name} imports {modules & FORBIDDEN_MODULES}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # importing dataclasses pulls in inspect, ast and dis, and building each
    # class runs its code generator: a cost every process pays at start-up
    modules = {module for _, module in _imports(_tree(path))}
    assert "dataclasses" not in modules, f"{path.name} imports dataclasses"


def test_oracles_are_independent(path=ORACLES):
    bad = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            bad |= {a.name for a in node.names
                    if a.name in ORACLE_FORBIDDEN_MODULES}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            bad |= {f"{module}.{a.name}" for a in node.names
                    if module in ORACLE_FORBIDDEN_MODULES
                    or a.name in ORACLE_FORBIDDEN_NAMES
                    or f"{module}.{a.name}" in ORACLE_FORBIDDEN_MODULES}
    assert not bad, f"{path.name} imports {sorted(bad)}"


def test_engine_is_fed_through_adapters(paths=SOURCES):
    bad = []
    for path in paths:
        tree = _tree(path)
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if path.name not in ENGINE_MODULES and "SparseEchelon" in names:
            bad.append(path.name)
    assert not bad, f"{bad} name SparseEchelon"


def test_classes_are_multiplied_by_the_evaluator(paths=SOURCES):
    bad = [path.name for path in paths if path.name != EVALUATOR_MODULE
           and any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "multiply"
                   for node in ast.walk(_tree(path)))]
    assert not bad, f"{bad} call multiply"


def _element_writes(tree: ast.AST, owner=()):
    """(enclosing class and function, what, line) of every call of
    ``RingElement`` and of every assignment or deletion whose target is an
    attribute ``coeffs`` or an element slot, or an item of one."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield from _element_writes(node, owner + (node.name,))
            continue
        if isinstance(node, ast.Call) and "RingElement" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            yield owner[-2:], "RingElement(...)", node.lineno
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
                continue
            while isinstance(target, (ast.Subscript, ast.Starred)):
                target = target.value
            if isinstance(target, ast.Attribute) and (
                    target.attr == "coeffs" or target.attr in ELEMENT_SLOTS):
                yield owner[-2:], target.attr, node.lineno
        yield from _element_writes(node, owner)


def _allowed(owner: tuple[str, ...], what: str) -> bool:
    if what in ELEMENT_SLOTS:
        return owner[:-1] == ("RingElement",) or owner == ELEMENT_MAKER
    return what == "RingElement(...)" and owner == ELEMENT_MAKER


def test_coeffs_are_written_by_the_kernel_only(paths=SOURCES):
    bad = [f"{path.name}:{line}" for path in paths
           for owner, what, line in _element_writes(_tree(path))
           if not _allowed(owner, what)]
    assert not bad, \
        f"element built or its slots assigned at {sorted(set(bad))}"


def test_coeffs_check_catches_violations(tmp_path):
    bad = tmp_path / "bad.py"
    for text in ("def f(x):\n    x.coeffs = {}\n",
                 "def f(x, m):\n    x.coeffs[m] = 1\n",
                 "def f(x, m):\n    x.coeffs[m] += 1\n",
                 "def f(x, m):\n    del x.coeffs[m]\n",
                 "def f(x, y):\n    a, x.coeffs = 1, y\n",
                 "class RingElement:\n    def scale(self):\n"
                 "        self.coeffs = {}\n",
                 "class GradedBasis:\n    def _element(self, out):\n"
                 "        out.coeffs = {}\n",
                 "def f(x):\n    x._coeffs = {}\n",
                 "def f(x, gb):\n    x.kernel = gb\n",
                 "class GradedBasis:\n    def reduce(self, x):\n"
                 "        x.nums = None\n",
                 "def f(gb, v):\n    return RingElement(gb, 1, v)\n",
                 "import prymspin.keel_ring as k\n"
                 "def f(gb, v):\n    return k.RingElement(gb, 1, v)\n",
                 "class GradedBasis:\n    def combine(self, v):\n"
                 "        return RingElement(self, 1, v)\n",
                 "class RingElement:\n    def scale(self, v):\n"
                 "        return RingElement(self.kernel, 1, v)\n"):
        bad.write_text(text)
        with pytest.raises(AssertionError, match="slots assigned"):
            test_coeffs_are_written_by_the_kernel_only([bad])
    for text in ("class GradedBasis:\n    def _element(self, d, v):\n"
                 "        return RingElement(self, d, v)\n",
                 "class GradedBasis:\n    def _element(self, out):\n"
                 "        out._coeffs, out.den = None, 1\n",
                 "class RingElement:\n    def scale(self, out):\n"
                 "        out._coeffs = None\n",
                 "def f(n):\n    return RingElement.unit(n)\n",
                 "def f(t, x):\n    t[len(x.coeffs)] = x.coeffs\n"):
        bad.write_text(text)
        test_coeffs_are_written_by_the_kernel_only([bad])


def test_invariant_data_are_plain_rows(path=SYMMETRY):
    bad = [node.lineno for node in ast.walk(_tree(path))
           if isinstance(node, ast.Call) and ELEMENT_BUILDERS & {
               getattr(node.func, "id", None),
               getattr(node.func, "attr", None)}]
    assert not bad, f"{path.name} builds ring elements at lines {bad}"


def test_invariant_rows_check_catches_violations(tmp_path):
    bad = tmp_path / "symmetry.py"
    for text in ("def f(gb, row):\n    return gb.element(1, row)\n",
                 "def f(gb, v):\n    return gb._element(1, v, 1)\n",
                 "def f(gb, v):\n    return RingElement(gb, 1, v, 1)\n",
                 "import prymspin.keel_ring as k\n"
                 "def f(gb, v):\n    return k.RingElement(gb, 1, v, 1)\n"):
        bad.write_text(text)
        with pytest.raises(AssertionError, match="builds ring elements"):
            test_invariant_data_are_plain_rows(bad)
    bad.write_text("def f(g, x, gb):\n    return gb.relabel(g, x)\n"
                   "def h(gb, d):\n    return gb.basis[d], gb.reduction[d]\n")
    test_invariant_data_are_plain_rows(bad)


def _kernel_builds(tree: ast.AST, owner=()):
    """(enclosing classes and functions, line) of every call of
    ``GradedBasis``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield from _kernel_builds(node, owner + (node.name,))
            continue
        if isinstance(node, ast.Call) and "GradedBasis" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            yield owner, node.lineno
        yield from _kernel_builds(node, owner)


def test_one_kernel_per_mark_count(paths=SOURCES):
    bad = [f"{path.name}:{line}" for path in paths
           for owner, line in _kernel_builds(_tree(path))
           if (path.name, owner) != KERNEL_MAKER]
    assert not bad, f"GradedBasis built outside the kernel cache at {bad}"


def test_kernel_check_catches_violations(tmp_path):
    for name, text in (
            ("bad.py", "def f():\n    return GradedBasis(6)\n"),
            ("bad.py", "import prymspin.keel_ring as k\nGB = k.GradedBasis(5)\n"),
            ("bad.py", "def build_graded_basis(n):\n    return GradedBasis(n)\n"),
            ("keel_ring.py", "class GradedBasis:\n    def fresh(self):\n"
                             "        return GradedBasis(self.n)\n"),
            ("keel_ring.py", "def build_graded_basis(n):\n"
                             "    def inner():\n        return GradedBasis(n)\n"
                             "    return inner()\n"),
            ("keel_ring.py", "_CACHE = {6: GradedBasis(6)}\n")):
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(AssertionError, match="outside the kernel cache"):
            test_one_kernel_per_mark_count([bad])
    good = tmp_path / "keel_ring.py"
    good.write_text("def build_graded_basis(n):\n"
                    "    if n not in _CACHE:\n"
                    "        _CACHE[n] = GradedBasis(n)\n"
                    "    return _CACHE[n]\n")
    test_one_kernel_per_mark_count([good])


def _row_appends(tree: ast.Module):
    """Every append to a row list: a name bound to a ``section(...)`` call
    or a parameter named ``rows``."""
    lists = {"rows"} | {target.id for node in ast.walk(tree)
                        if isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)
                        and getattr(node.value.func, "attr", None) == "section"
                        for target in node.targets
                        if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and getattr(node.func.value, "id", None) in lists):
            yield node


def test_report_rows_are_data(path=CLI):
    bad, calls = [], list(_row_appends(_tree(path)))
    for call in calls:
        row = call.args[0] if len(call.args) == 1 else None
        if not (isinstance(row, ast.Tuple) and len(row.elts) == 4
                and not any(isinstance(e, ast.Starred) for e in row.elts)):
            bad.append(f"line {call.lineno}: not a 4-field row")
        elif (isinstance(row.elts[2], ast.Constant)
              and isinstance(row.elts[2].value, bool)):
            bad.append(f"line {call.lineno}: computed value is a bool literal")
    assert calls and not bad, f"report rows in {path.name}: {bad or 'none'}"


def test_row_check_catches_violations(tmp_path):
    bad = tmp_path / "cli.py"
    for text in ('rows = report.section("s")\nrows.append(("a", "b", True))\n',
                 'table = report.section("s")\n'
                 'table.append(("a", "b", True, True))\n',
                 'def f(rows, pair):\n    rows.append(("a", "b", *pair))\n',
                 'def f(rows, row):\n    rows.append(row)\n',
                 'out = []\nout.append("text")\n'):
        bad.write_text(text)
        with pytest.raises(AssertionError, match="report rows"):
            test_report_rows_are_data(bad)
    bad.write_text('rows = report.section("s")\n'
                   'rows.append(("a", str(x), x, True))\n'
                   'rows.append(("b", str(y), y, None))\n')
    test_report_rows_are_data(bad)
    assert len(list(_row_appends(_tree(CLI)))) >= 30


def test_checks_catch_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = float(2)\ny = 0.5\n")
    with pytest.raises(AssertionError, match=r"\['random'\]"):
        test_every_import_is_used(bad)
    with pytest.raises(AssertionError, match=r"float at lines \[2, 3\]"):
        test_arithmetic_is_exact(bad)
    bad.write_text("import numpy as np\nnp.zeros(1)\n")
    with pytest.raises(AssertionError, match="numpy"):
        test_arithmetic_is_exact(bad)
    for text in ("from prymspin.keel_ring import GradedBasis\n",
                 "from prymspin.keel_ring import build_graded_basis as b\n",
                 "from prymspin.keel_ring import RingElement\n",
                 "from prymspin.strata_aut import marked_tree_automorphism_group\n",
                 "from prymspin.strata_aut import count_marked_automorphisms\n",
                 "from prymspin.strata_aut import prym_aut_number\n",
                 "from prymspin.strata_aut import fiber_count as f\n",
                 "from prymspin.strata_aut import MarkedTree, extremity_kernel\n",
                 "from prymspin.space_registry import tree_from_monomial\n",
                 "from prymspin.theta_f2 import arf_census, phi_R\n",
                 "from prymspin.symmetry import act\n",
                 "from prymspin import pushpull\n",
                 "import prymspin.symmetry\n"):
        bad.write_text(text)
        with pytest.raises(AssertionError, match="imports"):
            test_oracles_are_independent(bad)
    for text in ("from prymspin.exact_linear import SparseEchelon as E\n",
                 "from prymspin import exact_linear\n"
                 "exact_linear.SparseEchelon().add_row({})\n"):
        bad.write_text(text)
        with pytest.raises(AssertionError, match="SparseEchelon"):
            test_engine_is_fed_through_adapters([bad])
    bad.write_text("def f(space, a, b):\n    return space.gb.multiply(a, b)\n")
    with pytest.raises(AssertionError, match="call multiply"):
        test_classes_are_multiplied_by_the_evaluator([bad])
