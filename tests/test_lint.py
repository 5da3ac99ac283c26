"""Static checks on the package source, with the standard library's ast.

An import nothing reads and an __all__ entry the module does not define are
dead surface; each test names the offending module and name.  The package
re-exports every module's __all__, so each name listed there must be the same
object as the package attribute of that name.  An f-string with no
placeholder is a message that forgot its value.  A bare except, or one
that names Exception or BaseException, would relabel a bug or a
MemoryError as an expected failure.  Every refusal the package makes is a
ValueError, so each exception class it defines derives from ValueError.
No module changes the process-wide limit on int-to-decimal conversion,
sys.set_int_max_str_digits: a library that lifts it lifts it for its host.
Only pellsolve names fundamental_unit: every other module takes the unit
from a NormEqClasses, with the classes it belongs to, so no command walks
for the unit twice or reads it off the memo.
The paper's hypotheses on the ring are tested in one table,
pellsolve._HYPOTHESES: no other code takes d % 60 or reads a ring's
square_free, which only RingCtx itself decides.
An unbounded memo (functools.cache, lru_cache(maxsize=None)) wraps only a
function with no parameters, which it calls once: on one that takes
arguments it keeps every argument it was ever given, such as each ring of a
family walk.
Every module-level *_CAP or *_CAP_DEFAULT constant is a stated cap, so
README's "Caps" list names each one, with its module, and nothing else; its
"Exit codes" paragraph names each cli.EXIT_* value, and nothing else, and
its "Command line" section names each long option of the parser, and no
other; each backticked identifier in its "Modules" section is a module, a
name a module defines, an attribute of a class one defines, or a builtin;
and its command-line and library examples run as written.
No module names a private attribute or class of argparse (such as a
parser's _actions or argparse._StoreAction): those may change in any Python
release, and the CLI records what it needs of its options as it declares
them.
The suite's own warning filters let a failing property test be reported as
one failure, not stop the run.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import quadtuple
import quadtuple.cli

PACKAGE = Path(quadtuple.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return None


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level: defs, classes, assignments and imports."""
    out = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


# __init__.py imports only to re-export; test_package_exports_each_modules_all
# covers it
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = _tree(path)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(_all(tree) or ())
    unused = {
        name: line
        for name, line in _imported(tree).items()
        if name not in read and name not in exported
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    tree = _tree(path)
    missing = set(_all(tree) or ()) - _defined(tree)
    assert not missing, f"{path.name} lists undefined names in __all__: {sorted(missing)}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if _all(_tree(p)) is not None], ids=lambda p: p.name
)
def test_package_exports_each_modules_all(path):
    # a name two modules both list would reach the package from only one
    module = importlib.import_module(f"quadtuple.{path.stem}")
    bad = [n for n in module.__all__ if getattr(quadtuple, n, None) is not getattr(module, n)]
    assert not bad, f"quadtuple does not export {path.stem}'s {bad}"


def _placeholderless_fstrings(tree: ast.Module) -> list[int]:
    """The line of each f-string that holds no {...} placeholder; the format
    spec after a colon, which ast also parses as an f-string, is not one."""
    specs = {id(n.format_spec) for n in ast.walk(tree) if isinstance(n, ast.FormattedValue)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and id(node) not in specs
        and not any(isinstance(v, ast.FormattedValue) for v in node.values)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_fstring_has_a_placeholder(path):
    lines = _placeholderless_fstrings(_tree(path))
    assert not lines, f"{path.name} has f-strings with no placeholder at lines {lines}"


_BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.Module) -> list[int]:
    """The line of each bare except and each one naming a broad class,
    alone or in a tuple."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(
            c is None
            or (isinstance(c, ast.Name) and c.id in _BROAD)
            or (isinstance(c, ast.Attribute) and c.attr in _BROAD)
            for c in caught
        ):
            out.append(node.lineno)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_broad_exception_handlers(path):
    lines = _broad_handlers(_tree(path))
    assert not lines, f"{path.name} catches every exception at lines {lines}"


def _references(tree: ast.Module, name: str) -> list[int]:
    """The line of each reference to name, by attribute, by name or by an
    import from a module."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_sets_the_int_digit_limit(path):
    lines = _references(_tree(path), "set_int_max_str_digits")
    assert not lines, f"{path.name} sets sys.set_int_max_str_digits at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "pellsolve.py"], ids=lambda p: p.name
)
def test_only_pellsolve_names_fundamental_unit(path):
    lines = _references(_tree(path), "fundamental_unit")
    assert not lines, f"{path.name} names fundamental_unit at lines {lines}"


def _ring_hypothesis_tests(tree: ast.Module) -> list[int]:
    """The line of each x % 60 and each read of .square_free outside a
    module-level _HYPOTHESES table and class RingCtx."""
    exempt = {
        id(inner)
        for node in tree.body
        if (isinstance(node, ast.ClassDef) and node.name == "RingCtx")
        or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "_HYPOTHESES" for t in node.targets)
        )
        for inner in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in exempt
        and (
            (isinstance(node, ast.Attribute) and node.attr == "square_free")
            or (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 60
            )
        )
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_ring_hypotheses_are_tested_only_in_their_table(path):
    lines = _ring_hypothesis_tests(_tree(path))
    assert not lines, f"{path.name} tests d % 60 or square_free outside the table at lines {lines}"


def _cache_name(node: ast.expr) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded(decorator: ast.expr) -> bool:
    """True for cache and for lru_cache called with maxsize None, by
    position or by keyword; bare lru_cache and lru_cache() keep 128."""
    if _cache_name(decorator) == "cache":
        return True
    if not (isinstance(decorator, ast.Call) and _cache_name(decorator.func) == "lru_cache"):
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def _params(args: ast.arguments) -> list:
    return [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """The line of each function with a parameter that an unbounded memo
    wraps, by attribute or by name."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_params(node.args))
        and any(_unbounded(d) for d in node.decorator_list)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_cache_takes_arguments(path):
    lines = _unbounded_caches(_tree(path))
    assert not lines, f"{path.name} memoises functions with arguments unboundedly at lines {lines}"


def _argparse_private_names() -> set[str]:
    """Each name argparse defines that starts with one underscore and a
    letter: its module's, and those of a parser, its subparsers action, a
    subparser and an option's action."""
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    objects = (argparse, parser, sub, sub.add_parser("x"), parser.add_argument("--x"))
    return {n for o in objects for n in dir(o) if re.match(r"_[A-Za-z]", n)}


def _argparse_privates(tree: ast.Module, private: set[str]) -> list[int]:
    """The line of each attribute in private, and of each import of a name
    from argparse that starts with an underscore."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in private)
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "argparse"
            and any(a.name.startswith("_") for a in node.names)
        )
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_argparse_private_names(path):
    lines = _argparse_privates(_tree(path), _argparse_private_names())
    assert not lines, f"{path.name} names argparse's private attributes at lines {lines}"


def test_every_exception_class_is_a_value_error():
    defined = {
        f"{cls.__module__}.{name}": cls
        for path in MODULES
        for name, cls in vars(importlib.import_module(f"quadtuple.{path.stem}")).items()
        if isinstance(cls, type)
        and issubclass(cls, BaseException)
        and cls.__module__ == f"quadtuple.{path.stem}"
    }
    assert defined, "no exception classes found"
    bad = sorted(name for name, cls in defined.items() if not issubclass(cls, ValueError))
    assert not bad, f"exception classes that are not ValueErrors: {bad}"


def _caps_in_source() -> set[tuple[str, str]]:
    out = set()
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update(
                    (t.id, path.stem)
                    for t in targets
                    if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z_]+_CAP(_DEFAULT)?", t.id)
                )
    return out


def _caps_in_readme(text: str) -> set[tuple[str, str]]:
    """(name, module) for each bullet of the list that follows "Caps:"; a
    bullet without a `(module)` gets the module ""."""
    after = text[text.index("\nCaps:") :]
    bullets = re.search(r"\n\n((?:- .*\n(?:  .*\n)*)+)", after).group(1)
    return set(re.findall(r"^- `(\w+)`(?: \(`(\w+)`\))?", bullets, re.M))


def test_readme_caps_match_the_source():
    in_readme = _caps_in_readme(README.read_text(encoding="utf-8"))
    in_source = _caps_in_source()
    assert in_source, "no *_CAP constants found"
    assert in_readme == in_source, (
        f"README's Caps list misses {sorted(in_source - in_readme)} "
        f"and names {sorted(in_readme - in_source)}, which the source does not define"
    )


def _exit_codes_in_readme(text: str) -> set[int]:
    """Each backticked number in the paragraph that starts "Exit codes:"."""
    paragraph = text[text.index("\nExit codes:") :].split("\n\n", 1)[0]
    return {int(code) for code in re.findall(r"`(\d+)`", paragraph)}


def test_readme_exit_codes_match_the_cli():
    in_readme = _exit_codes_in_readme(README.read_text(encoding="utf-8"))
    in_source = {v for k, v in vars(quadtuple.cli).items() if k.startswith("EXIT_")}
    assert in_readme == in_source, (
        f"README's exit codes miss {sorted(in_source - in_readme)} "
        f"and name {sorted(in_readme - in_source)}, which cli does not define"
    )


def _flags_in_readme(text: str) -> set[str]:
    """Each --flag in the "## Command line" section, up to the next heading
    of its level; a bare "--" is not a flag."""
    section = text[text.index("\n## Command line\n") :].split("\n## ", 2)[1]
    return set(re.findall(r"--[a-z][a-z-]*", section))


def _flags_in_parser(parser: argparse.ArgumentParser) -> set[str]:
    """The long options of the parser and of each of its subparsers."""
    out = set()
    for action in parser._actions:
        out.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _flags_in_parser(sub)
    return out - {"--help"}


def test_readme_flags_match_the_parser():
    in_readme = _flags_in_readme(README.read_text(encoding="utf-8"))
    in_parser = _flags_in_parser(quadtuple.cli.build_parser()[0])
    assert in_readme == in_parser, (
        f"README's Command line section misses {sorted(in_parser - in_readme)} "
        f"and names {sorted(in_readme - in_parser)}, which the parser does not define"
    )


def _identifiers_in_modules_section(text: str) -> set[str]:
    """Each backticked Python identifier in the "## Modules" section, up to
    the next heading of its level; a dotted path or an expression is not one."""
    section = text[text.index("\n## Modules\n") :].split("\n## ", 2)[1]
    return {span for span in re.findall(r"`([^`\n]+)`", section) if span.isidentifier()}


def _package_names() -> set[str]:
    """quadtuple and its modules, the names each module defines, and the
    attributes (methods, properties, fields) of each class one defines."""
    out = {"quadtuple"}
    for path in MODULES:
        tree = _tree(path)
        out |= {path.stem} | _defined(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                out |= _defined(node)
    return out


def _unresolved(names: set[str]) -> list[str]:
    return sorted(names - _package_names() - set(dir(builtins)))


def test_readme_modules_section_names_only_what_the_package_defines():
    names = _identifiers_in_modules_section(README.read_text(encoding="utf-8"))
    assert names, "no identifiers found in README's Modules section"
    assert not _unresolved(names), (
        f"README's Modules section names {_unresolved(names)}, which the package does not define"
    )


def _readme_block(text: str, heading: str, lang: str) -> str:
    """The first ```lang block after the heading line."""
    after = text[text.index(f"\n{heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


# the one README command that exits nonzero: 3 = 2^2 - 1^2, so checkrepr
# finds a pair and exits 1
README_EXIT = {"checkrepr --d 15 --n 3,0 --bound 50": 1}


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # counterexamples --out reports.jsonl writes to the working directory
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    lines = [
        line.removeprefix("quadtuple ")
        for line in _readme_block(text, "## Command line", "sh").splitlines()
        if line.startswith("quadtuple ")
    ]
    assert lines, "no commands found in README's Command line block"
    codes = {line: quadtuple.cli.main(shlex.split(line)) for line in lines}
    capsys.readouterr()
    assert codes == {line: README_EXIT.get(line, 0) for line in lines}
    exec(_readme_block(text, "## Library example", "python"), {})


def test_lint_sees_a_planted_unused_import():
    # the checks above are only as good as the helpers they share
    tree = ast.parse("import os\nfrom math import gcd, isqrt\nx = isqrt(4)\n")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {n for n in _imported(tree) if n not in read} == {"os", "gcd"}
    assert _defined(ast.parse("__all__ = ['f', 'g']\ndef f(): pass\n")) == {"__all__", "f"}


def test_lint_sees_a_planted_placeholderless_fstring():
    tree = ast.parse(
        'a = f"none"\nb = f"one {a}"\nc = (f"x" f"{b}")\nd = f"{a:>10}"\ne = f"two"\n'
    )
    assert _placeholderless_fstrings(tree) == [1, 5]


def test_lint_sees_planted_broad_handlers():
    tree = ast.parse(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept builtins.BaseException as exc:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, KeyError):\n    pass\n"
        "try:\n    pass\nexcept ExceptionGroup:\n    pass\n"
    )
    assert _broad_handlers(tree) == [3, 7, 11]


def test_lint_sees_planted_int_digit_limit_setters():
    tree = ast.parse(
        "import sys\nsys.set_int_max_str_digits(0)\n"
        "from sys import set_int_max_str_digits as lift\n"
        "limit = sys.get_int_max_str_digits()\n"
        "f = getattr(sys, 'x')\nset_int_max_str_digits(0)\n"
    )
    assert _references(tree, "set_int_max_str_digits") == [2, 3, 6]


def test_lint_sees_planted_fundamental_unit_references():
    tree = ast.parse(
        "from . import pellsolve\neps = pellsolve.fundamental_unit(ctx)\n"
        "from .pellsolve import fundamental_unit as unit\n"
        "doc = {'fundamental_unit': str(eps)}\n"
        "x = fundamental_unit(ctx).a\nclasses = pellsolve.norm6_witness(ctx)\n"
    )
    assert _references(tree, "fundamental_unit") == [2, 3, 5]


def test_lint_sees_planted_ring_hypothesis_tests():
    tree = ast.parse(
        "if ctx.d % 60 != 15: pass\nok = ctx.square_free\n"
        "_HYPOTHESES = {'a': lambda ctx: ctx.d % 60 == 15, 'b': lambda ctx: ctx.square_free}\n"
        "class RingCtx:\n    def f(self): return self.square_free\n"
        "r = (d % 60, d % 5, self._square_free, 'square_free')\n"
        "def g(ctx): return n.ctx.square_free and x % 60 == 15\n"
    )
    assert _ring_hypothesis_tests(tree) == [1, 2, 6, 7, 7]


def test_lint_sees_planted_unbounded_caches():
    tree = ast.parse(
        "@cache\ndef a(x): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef b(*xs): pass\n"
        "@lru_cache(None)\ndef c(*, k): pass\n"
        "@functools.cache\ndef d(**kw): pass\n"
        "@cache\ndef e(): pass\n"
        "@lru_cache(maxsize=1)\ndef f(x): pass\n"
        "@lru_cache\ndef g(x): pass\n"
        "@lru_cache()\ndef h(x): pass\n"
    )
    assert _unbounded_caches(tree) == [2, 4, 6, 8]


def test_lint_sees_planted_argparse_private_names():
    private = _argparse_private_names()
    assert {"_actions", "_defaults", "_StoreAction", "_SubParsersAction"} <= private
    tree = ast.parse(
        "import argparse\nactions = parser._actions\n"
        "if isinstance(a, argparse._HelpAction): pass\n"
        "from argparse import Action, _StoreAction\n"
        "x = self._square_free\ny = sub.choices\nz = parser.parse_args\n"
        "defaults = {**p._defaults}\n"
    )
    assert _argparse_privates(tree, private) == [2, 3, 4, 8]


def test_caps_lint_reads_only_the_caps_list():
    text = (
        "Intro.\n\nCaps: each cap\nis stated:\n\n"
        "- `A_CAP` (`quadring`): one\n  continued\n- `B_CAP`: no module\n\n"
        "Exit codes:\n\n- `C_CAP` (`cli`): another list\n"
    )
    assert _caps_in_readme(text) == {("A_CAP", "quadring"), ("B_CAP", "")}


def test_exit_codes_lint_reads_only_the_exit_codes_paragraph():
    text = (
        "Run `7` times.\n\nExit codes: `0` fine, `2` usage\n(including a `--out`\n"
        "path), `12` other.\n\nCaps:\n\n- `9`: not an exit code\n"
    )
    assert _exit_codes_in_readme(text) == {0, 2, 12}


def test_flags_lint_reads_only_the_command_line_section():
    text = (
        "# tool\n\nRun with `--before`.\n\n## Command line\n\n"
        "Pass `--d` and\n`--n=-2,0`, then `--` and `-x`.\n\n### Sub\n\n"
        "```sh\ntool --unit-index 3\n```\n\n## Library\n\n`--after`\n"
    )
    assert _flags_in_readme(text) == {"--d", "--n", "--unit-index"}


def test_modules_lint_reads_only_the_modules_section_and_sees_stale_names():
    text = (
        "# tool\n\nSee `before`.\n\n## Modules\n\n"
        "| `quadring` | `RingCtx` (`square_free`), `x + 1`, `quadtuple.cli`, `ValueError`, "
        "`norm6_sign_y` |\n\n### Sub\n\n`isqrt` and `gone`\n\n## Next\n\n`after`\n"
    )
    names = _identifiers_in_modules_section(text)
    assert names == {"quadring", "RingCtx", "square_free", "ValueError", "norm6_sign_y", "isqrt", "gone"}
    assert _unresolved(names) == ["gone", "norm6_sign_y"]


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # with filterwarnings = error, a warning raised while hypothesis reports
    # its failing example would abort the run with INTERNALERROR
    (tmp_path / "test_planted.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_planted(x):\n"
        "    assert x < 5\n"
    )
    options = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *options, "test_planted.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1 and "1 failed" in output
