"""Every function, class and method in src/lcmlat has a caller outside the tests.

A name defined at the top level of a module, or in a class body, must be
used by src/, perfbench/, scripts/ or pyproject.toml, or be on ALLOWLIST
with its reason. Dunders are called by Python itself and are not checked.
A use is one of:
- a load of the name that resolves to a module-level binding (a local
  variable of the same name is not a use);
- an attribute `x.name`, matched by name whatever x is;
- an import `from ... import name`, outside lcmlat/__init__.py, whose
  re-exports are not uses;
- a string constant equal to the name, for the tables that are read with
  getattr (audit.PREDICTIONS, perfbench/tracer.py's SITES);
- a pyproject.toml entry point `lcmlat...:name`.
A helper that only the tests call belongs in tests/reference.py.
"""

import ast
import re
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcmlat"

ALLOWLIST = {
    "complements_of": "acceptance criterion 3 reads the complement set it returns",
}


def _defined() -> list:
    """(module file, name) of each top-level function and class and of each
    method, dunders excluded."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                found.append((path.name, node.name))
                found += [(path.name, f.name) for f in node.body
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((path.name, node.name))
    return [(module, name) for module, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def _global_loads(table) -> set:
    """The names a scope and its children load from module level."""
    names = {sym.get_name() for sym in table.get_symbols()
             if sym.is_referenced() and (table.get_type() == "module" or sym.is_global())}
    for child in table.get_children():
        names |= _global_loads(child)
    return names


def _used() -> set:
    names = set()
    for path in [p for d in ("src", "perfbench", "scripts") for p in (ROOT / d).rglob("*.py")]:
        text = path.read_text()
        names |= _global_loads(symtable.symtable(text, str(path), "exec"))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and path != PACKAGE / "__init__.py":
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    names |= set(re.findall(r"lcmlat[\w.]*:(\w+)", (ROOT / "pyproject.toml").read_text()))
    return names


def test_every_name_has_a_caller_outside_the_tests():
    used = _used()
    unreached = [f"{module}: {name}" for module, name in _defined()
                 if name not in used and name not in ALLOWLIST]
    assert unreached == []


def test_allowlist_names_exist_and_are_unreached():
    # an entry that gained a caller, or lost its definition, goes
    used = _used()
    defined = {name for _, name in _defined()}
    assert all(name in defined and name not in used for name in ALLOWLIST)


def test_order_product_is_the_tests_oracle_only():
    # the covers and Björner's test read the keys; the float32 interval-size
    # product stays in tests/reference.py as their oracle
    assert "_interval_sizes" not in {name for _, name in _defined()}
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(ast.parse(text)))
        assert "matmul" not in text and "float32" not in text, path.name
