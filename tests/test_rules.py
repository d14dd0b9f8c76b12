"""Rules that hold for the whole package, checked on its modules and source."""

import ast
import importlib
import pkgutil
from pathlib import Path

import sp4ps
from sp4ps import exact, gkmod


def _modules():
    # __main__ runs the command when imported
    return [importlib.import_module("sp4ps." + m.name) for m in pkgutil.iter_modules(sp4ps.__path__)
            if m.name != "__main__"]


def test_every_memo_follows_the_one_rule():
    # every lru_cache of the package keeps the last exact._KEPT arguments
    # with typed keys; the per-character generator tables are the one
    # exception, at gkmod._TABLES_KEPT
    memos = {}
    for mod in _modules():
        for obj in vars(mod).values():
            members = [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]
            for member in members:
                if hasattr(member, "cache_parameters"):
                    memos[member.__module__ + "." + member.__qualname__] = member
    assert "sp4ps.gkmod._table" in memos and "sp4ps.exact.value_pair" in memos
    for name, memo in memos.items():
        kept = gkmod._TABLES_KEPT if memo is gkmod._table else exact._KEPT
        assert memo.cache_parameters() == {"maxsize": kept, "typed": True}, name


def test_src_has_no_assert_statement():
    # a failed assert would reach the user as a bare AssertionError
    found = []
    for path in sorted(Path(sp4ps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
