"""Static checks on the package source."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import loopinv
from loopinv.invariants import BlockSpace, InvariantSpaces

SOURCES = sorted(Path(loopinv.__file__).parent.glob("*.py"))


def test_no_float_literals():
    # every computation is exact: a float literal is a rounding waiting to happen
    found = [
        "%s:%d %r" % (path.name, node.lineno, node.value)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert SOURCES
    assert found == []


def test_imports_stdlib_only():
    # the package declares no dependencies: it may import the standard
    # library and itself, nothing else
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "loopinv" and top not in sys.stdlib_module_names:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert SOURCES
    assert found == []


def test_invariants_uses_three_tensor_internals():
    # anagram bookkeeping belongs in words; invariants reaches into tensor
    # for the closure rows, the word shuffle and the Lyndon polynomial only
    path = Path(loopinv.__file__).parent / "invariants.py"
    used = {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_tensor"
    }
    assert used == {"_rcl_block", "_shuffle_words_into", "_lyndon_poly"}


def test_no_assert_statements():
    # python -O strips asserts: every check of the package must raise
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_memoized_spaces_take_the_level_alone():
    # the memo keys a space by (name, n): a further parameter would be ignored
    path = Path(loopinv.__file__).parent / "invariants.py"
    (cls,) = [
        node for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.ClassDef) and node.name == "InvariantSpaces"
    ]
    memoized = [
        node.name for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) and dec.func.id == "_memo"
            for dec in node.decorator_list
        )
    ]
    assert "report" in memoized and "minimal_generators" in memoized
    found = {
        name: list(inspect.signature(getattr(InvariantSpaces, name).__wrapped__).parameters)
        for name in memoized
    }
    assert found == {name: ["self", "n"] for name in memoized}


def traced_lists():
    """The upper-case name lists of bench/tracing.py, by list name."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.isupper()
    }


def test_no_unused_imports():
    # every name a module imports is used there, or rebound on that module
    # by bench/tracing.py; an import kept for the tracer alone says so
    names = traced_lists()
    rebound = {
        "invariants.py": {
            name for key in ("LINALG", "INVARIANTS_TO_TENSOR", "INVARIANTS_TO_WORDS")
            for name in names[key]
        },
        "paths.py": {name for key in ("PATHS_TO_TENSOR", "PATHS_OWN") for name in names[key]},
    }
    unused, excused, marked = [], set(), set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                where = (path.name, name)
                if "noqa: F401" in lines[alias.lineno - 1]:
                    marked.add(where)
                if name in used:
                    continue
                if name in rebound.get(path.name, ()):
                    excused.add(where)
                else:
                    unused.append("%s:%d %s" % (path.name, alias.lineno, name))
    assert len(SOURCES) > 5
    assert unused == []
    assert excused == marked


def test_traced_names_exist():
    # bench/tracing.py rebinds these names by string; a deleted one would
    # show only as a failed child process of the benchmark
    from loopinv import cli, invariants, linalg, paths, tensor

    names = traced_lists()
    wanted = [(InvariantSpaces, name) for name in names["INVARIANT_SPACES"]]
    wanted += [(invariants, name) for key in ("LINALG", "INVARIANTS_TO_TENSOR", "INVARIANTS_TO_WORDS")
               for name in names[key]]
    wanted += [(paths, name) for key in ("PATHS_TO_TENSOR", "PATHS_OWN") for name in names[key]]
    wanted += [(cli, "fuzz_" + suite) for suite in names["FUZZ_SUITES"]]
    wanted += [(tensor, "_rcl_word"), (tensor, "_shuffle_words_into"), (linalg, "_eliminate")]
    assert len(wanted) > 30
    assert [(owner.__name__, name) for owner, name in wanted if not hasattr(owner, name)] == []


def test_cli_import_skips_dataclasses_and_inspect():
    # every command pays for its imports at start-up: the records are
    # NamedTuples, and dataclasses would pull in inspect, ast, dis and
    # tokenize
    env = {**os.environ, "PYTHONPATH": str(Path(loopinv.__file__).resolve().parents[1])}
    probe = "import sys, loopinv.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_slot_bytes_stay_in_linalg():
    # the byte format of a packed slot is known in one module: every other
    # module packs through linalg's helpers
    calls = {"to_bytes", "from_bytes", "tobytes", "byteswap"}
    found = [
        "%s:%d %s" % (path.name, node.lineno, node.func.attr)
        for path in SOURCES
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in calls
    ]
    assert len(SOURCES) > 5
    assert found == []


def test_zero_increment_space_reads_no_shuffle_ideal():
    # V certifies S: its build makes the letter shuffle generators itself,
    # and S, built from them, is built after V and never before it
    path = Path(loopinv.__file__).parent / "invariants.py"
    (cls,) = [
        node for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.ClassDef) and node.name == "InvariantSpaces"
    ]
    (build,) = [node for node in cls.body if getattr(node, "name", None) == "zero_increment_space"]
    names = {node.attr for node in ast.walk(build) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(build) if isinstance(node, ast.Name)}
    assert "_letter_shuffle_rows" in names
    assert names.isdisjoint({"letter_shuffle_ideal", "space"})


def test_renamed_blocks_and_sparse_rank_rows_stay_deleted():
    # a block of a non-canonical content is renamed on every call, and the
    # modular rank reads dense rows for its one caller: neither a cache of
    # renamed blocks nor a second row form measurably paid for itself, so
    # bringing one back needs a new measurement
    assert BlockSpace.__slots__ == ("orbits", "blocks", "_whole")
    callers = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_modular_rank"
    ]
    assert len(callers) == 1 and callers[0].startswith("invariants.py:"), callers
    assert list(inspect.signature(loopinv.linalg._modular_rank).parameters) == [
        "rows", "width", "stop", "budget"
    ]


def test_pipeline_holds_no_closure_table():
    # each reader builds, proves, reads and drops its own closure blocks:
    # a table kept per level held 953 against 746 MB of peak RSS at d=3
    # level 10, so keeping one again needs a new measurement
    assert sorted(vars(InvariantSpaces(2))) == ["_memo", "_orbit_tables", "budget", "d"]
    assert not hasattr(InvariantSpaces, "_closure_table")
