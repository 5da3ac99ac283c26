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
Every module-level *_CAP or *_CAP_DEFAULT constant is a stated cap, so
README's "Caps" list names each one, with its module, and nothing else; its
"Exit codes" paragraph names each cli.EXIT_* value, and nothing else, and
its "Command line" section names each long option of the parser, and no
other.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

import quadtuple
import quadtuple.cli

PACKAGE = Path(quadtuple.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


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


def _int_digit_limit_setters(tree: ast.Module) -> list[int]:
    """The line of each reference to sys.set_int_max_str_digits, by attribute
    or by a name imported from sys."""
    name = "set_int_max_str_digits"
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_sets_the_int_digit_limit(path):
    lines = _int_digit_limit_setters(_tree(path))
    assert not lines, f"{path.name} sets sys.set_int_max_str_digits at lines {lines}"


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
    in_parser = _flags_in_parser(quadtuple.cli.build_parser())
    assert in_readme == in_parser, (
        f"README's Command line section misses {sorted(in_parser - in_readme)} "
        f"and names {sorted(in_readme - in_parser)}, which the parser does not define"
    )


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
    assert _int_digit_limit_setters(tree) == [2, 3, 6]


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
