"""README's module table names only what the package has."""
import importlib
import re
from pathlib import Path

import diskdyn

_README = Path(__file__).resolve().parent.parent / "README.md"
_ROW = re.compile(r"^\| `(diskdyn\.\w+)` \|(.*)\|$")
# A backticked CamelCase name: a capital first and a lowercase letter
# somewhere, so `IFSVerdict` counts and a constant like `MAX_PUNCTURES`
# does not.
_CAMEL = re.compile(r"`([A-Z]\w*[a-z]\w*)`")


def test_readme_module_table_names_module_attributes():
    rows = [m.groups() for m in map(_ROW.match, _README.read_text(encoding="utf-8").splitlines()) if m]
    assert len(rows) >= 7
    unresolved = [
        (module, name)
        for module, text in rows
        for name in _CAMEL.findall(text)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert unresolved == []


def test_package_exports_resolve():
    assert [name for name in diskdyn.__all__ if not hasattr(diskdyn, name)] == []
