"""Every public definition in the package has a caller outside the unit
tests, every option a caller can set is set by at least one such call, and
every option's default is taken by one."""

import ast
import json
from collections import Counter
from pathlib import Path

from gradphi.harness import BOUNDARY_DATA, EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradphi"

# the code whose references and calls make a public definition or an option
# used: the library, the demos, the scripts, the benchmark and the acceptance
# criteria; a unit test alone does not count
USERS = [
    *(path for folder in ("src", "demos", "scripts", "bench")
      for path in sorted((ROOT / folder).rglob("*.py"))),
    ROOT / "tests" / "test_acceptance.py",
]

# exact oracles that only unit tests use today, kept for the oracles that
# build on them
ORACLES = {"relaxation_variance_discrete"}

# run_experiment reaches the drivers through the EXPERIMENTS table, a call
# that names no function
ALLOWED = {(fn.__name__, "threads") for fn in EXPERIMENTS.values()}

# the harness binds config blocks to the parameters of these functions by
# name, so a config key sets the parameter of the same name
CONFIG_BOUND = {fn.__name__ for fn in (*EXPERIMENTS.values(), *BOUNDARY_DATA.values())}


def _trees():
    for path in USERS:
        yield ast.parse(path.read_text())


def _references() -> tuple[Counter, Counter]:
    """How often each name is used, imported or read as an attribute in the
    USERS files (definitions themselves do not count), and how often it is
    read as an attribute, the only way to reach a method."""
    names, attributes = Counter(), Counter()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
                attributes[node.attr] += 1
            elif isinstance(node, ast.alias):
                names[node.name.rsplit(".", 1)[-1]] += 1
    return names, attributes


def _config_keys() -> set:
    """The string keys of every dict literal in the USERS files and of
    every object in the benchmark's workload configs."""
    keys = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys |= {k.value for k in node.keys
                         if isinstance(k, ast.Constant) and isinstance(k.value, str)}

    def walk(obj):
        if isinstance(obj, dict):
            keys.update(obj)
            obj = list(obj.values())
        if isinstance(obj, list):
            for value in obj:
                walk(value)

    for path in sorted((ROOT / "bench" / "workloads").glob("*.json")):
        walk(json.loads(path.read_text()))
    return keys


def _classes():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                yield path, node


def _decorators(fn) -> set:
    return {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
        for d in cls.decorator_list
    )


def _defaulted(args: ast.arguments):
    """(position or None, name) of every parameter with a default."""
    positional = args.posonlyargs + args.args
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield i, positional[i].arg
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, a.arg


def _options():
    """(callee name, position, parameter) of every option: the defaulted
    parameters of module-level functions and of methods (constructors
    included, other dunders not), and the defaulted fields of frozen
    dataclasses.  Positions count the arguments of a call, so an implicit
    self or cls is not counted."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                for i, name in _defaulted(node.args):
                    yield node.name, i, name
    for _, cls in _classes():
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name == "__init__":
                callee = cls.name
            elif fn.name.startswith("__"):
                continue
            else:
                callee = fn.name
            offset = 0 if "staticmethod" in _decorators(fn) else 1
            for i, name in _defaulted(fn.args):
                yield callee, None if i is None else i - offset, name
        if _is_frozen_dataclass(cls):
            fields = [s for s in cls.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            for i, s in enumerate(fields):
                if s.value is not None:
                    yield cls.name, i, s.target.id


def _calls():
    """(callee name, positional count or None for *args, keywords or None for
    **kwargs) of every call in the USERS files; `cls(...)` inside a class
    counts for that class, and imports under another name count for the
    original."""
    aliases = {}
    trees = list(_trees())
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                aliases[node.asname] = node.name.rsplit(".", 1)[-1]

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "cls" and cls_name is not None:
                    name = cls_name
                name = aliases.get(name, name)
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                kw_all = any(k.arg is None for k in child.keywords)
                yield (name, None if starred else len(child.args),
                       None if kw_all else {k.arg for k in child.keywords})
            yield from visit(child, cls_name)

    for tree in trees:
        yield from visit(tree, None)


def test_every_public_definition_is_referenced():
    refs, _ = _references()
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and refs[node.name] == 0 and node.name not in ORACLES
    ]
    assert unreferenced == []


def test_every_public_method_is_referenced():
    _, refs = _references()
    unreferenced = [
        f"{path.name}:{cls.name}.{fn.name}"
        for path, cls in _classes()
        if not cls.name.startswith("_")
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and refs[fn.name] == 0
    ]
    assert unreferenced == []


def _calls_by_callee() -> dict:
    calls = {}
    for name, npos, keywords in _calls():
        calls.setdefault(name, []).append((npos, keywords))
    return calls


def _sets(pos, param, npos, keywords) -> bool:
    """Whether a call may set the option: it names it, passes enough
    positional arguments to reach it, or passes *args or **kwargs."""
    return (npos is None or keywords is None or param in keywords
            or (pos is not None and npos > pos))


def test_every_option_is_set_by_some_call():
    calls = _calls_by_callee()
    config_keys = _config_keys()
    unset = [
        f"{callee}({param})"
        for callee, pos, param in _options()
        if (callee, param) not in ALLOWED
        and not (callee in CONFIG_BOUND and param in config_keys)
        and not any(_sets(pos, param, npos, keywords)
                    for npos, keywords in calls.get(callee, ()))
    ]
    assert unset == []


def test_every_default_is_taken_by_some_call():
    # a default that every call overrides is a required parameter; a call
    # with *args or **kwargs may set anything, so it takes no default; a
    # config-bound driver takes a default whenever its config omits the key
    calls = _calls_by_callee()
    untaken = [
        f"{callee}({param})"
        for callee, pos, param in _options()
        if (callee, param) not in ALLOWED and callee not in CONFIG_BOUND
        and all(_sets(pos, param, npos, keywords)
                for npos, keywords in calls.get(callee, ()))
    ]
    assert untaken == []
