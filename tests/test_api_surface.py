"""Every function in the library is used, and every default parameter in
it is passed, by the program: the code in ``src/`` and ``perfbench/``
outside the tests.

A function that only tests call is a test oracle or dead code; it belongs
in the tests or nowhere.  That check is syntactic: a function is used when
the program names it, as a variable, an attribute or a string (perfbench
names the functions it traces in strings).  ``run_<stage>`` functions are
exempt, because the CLI looks them up by a name it builds.

A parameter with a default that no call in ``src/`` or ``perfbench/``
passes is a mode only tests reach; it belongs in the tests as an oracle, or
as a module constant if no caller changes it.  The check is syntactic:
calls are matched to definitions by name (``f(...)`` and ``obj.f(...)``
both count for every function ``f``), and ``Cls(...)`` counts for
``Cls.__init__``.  A call passes a parameter by keyword, or by position
when it has enough positional arguments; ``*args`` and ``**kwargs`` pass
everything of their kind.

A key of ``DEFAULT_CONFIG`` that no code reads is a knob that does nothing.
That check is syntactic too: a leaf is read when some code in ``src/``
subscripts with its name or passes its name first to ``.get``, and a
``synth`` key when it names a ``SynthConfig`` field.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "expertmap"
PROGRAM = sorted(LIBRARY.glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py")
    if "tests" not in p.relative_to(ROOT / "perfbench").parts)

# (function, parameter) pairs exempt from the check; keep it empty
ALLOWED: set[tuple[str, str]] = set()


def defaulted_parameters(path: Path):
    """(call name, qualified name, parameter, position or None) for every
    parameter with a default of every function defined in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    classes = {id(fn): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for fn in node.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = classes.get(id(fn))
        positional = fn.args.posonlyargs + fn.args.args
        if owner and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        call_name = owner if owner and fn.name == "__init__" else fn.name
        qualified = f"{path.stem}.{owner + '.' if owner else ''}{fn.name}"
        first_default = len(positional) - len(fn.args.defaults)
        for index, arg in enumerate(positional[first_default:], start=first_default):
            yield call_name, qualified, arg.arg, index
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield call_name, qualified, arg.arg, None


def program_calls(program):
    """Call name -> list of (positional count, keyword names, *args, **kwargs)."""
    calls = defaultdict(list)
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            double_starred = any(k.arg is None for k in node.keywords)
            calls[name].append((len(node.args), keywords, starred, double_starred))
    return calls


def unpassed_parameters(library, program) -> list[str]:
    calls = program_calls(program)
    found = []
    for path in library:
        for call_name, qualified, param, index in defaulted_parameters(path):
            passed = any(param in keywords or double_starred
                         or (index is not None and (n_args > index or starred))
                         for n_args, keywords, starred, double_starred in calls[call_name])
            if not passed and (qualified, param) not in ALLOWED:
                found.append(f"{qualified}({param})")
    return found


def test_every_default_parameter_is_passed_by_the_program():
    unpassed = unpassed_parameters(sorted(LIBRARY.glob("*.py")), PROGRAM)
    assert not unpassed, ("parameters with a default that no call in src/ or perfbench/ "
                          f"passes: {unpassed}")


def test_the_check_sees_an_unpassed_default(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("def probe(a, b=1, *, c=2):\n    return a\n\n"
                      "class Box:\n    def __init__(self, x, y=0):\n        self.x = x\n\n"
                      "probe(1, c=3)\nBox(1, 2)\n")
    assert unpassed_parameters([module], [module]) == ["probe.probe(b)"]


def defined_functions(path: Path):
    """(qualified name, name) of every module-level function and method
    defined in ``path``, but dunder methods, which Python calls by itself."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in members:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))):
                yield f"{path.stem}.{owner}{fn.name}", fn.name


def referenced_names(program) -> set[str]:
    """Every name the program reads, as a variable, an attribute or a string."""
    names = set()
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unused_functions(library, program) -> list[str]:
    # the CLI looks a stage's run_<stage> up by name
    referenced = referenced_names(program)
    return [qualified for path in library for qualified, name in defined_functions(path)
            if name not in referenced and not name.startswith("run_")]


def test_every_function_in_the_library_is_used_by_the_program():
    unused = unused_functions(sorted(LIBRARY.glob("*.py")), PROGRAM)
    assert not unused, f"functions that no code in src/ or perfbench/ refers to: {unused}"


def test_the_check_sees_an_unused_function(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("def used():\n    return 1\n\ndef unused():\n    return used()\n\n"
                      "def run_stage():\n    return 0\n\n"
                      "class Box:\n    def __init__(self):\n        self.x = 'named'\n\n"
                      "    def named(self):\n        return 2\n\n"
                      "    def idle(self):\n        return 3\n")
    assert unused_functions([module], [module]) == ["probe.unused", "probe.Box.idle"]


def config_leaves(config: dict, prefix: str = ""):
    """Dotted name of every leaf of a nested config."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def read_keys(program) -> set[str]:
    """Every string the program subscripts with or passes first to ``.get``."""
    keys = set()
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript):
                key = node.slice
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and node.args):
                key = node.args[0]
            else:
                continue
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
    return keys


def synth_fields(program) -> set[str]:
    """The fields of every ``SynthConfig`` dataclass the program defines."""
    return {stmt.target.id for path in program
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef) and node.name == "SynthConfig"
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}


def unread_config_keys(config: dict, program) -> list[str]:
    # synth passes its section whole to SynthConfig(**...)
    read, fields = read_keys(program), synth_fields(program)
    return [leaf for leaf in config_leaves(config)
            if leaf.split(".")[-1] not in (fields if leaf.startswith("synth.") else read)]


def test_every_config_key_is_read_by_the_program():
    from expertmap.pipeline import DEFAULT_CONFIG
    unread = unread_config_keys(DEFAULT_CONFIG, sorted(LIBRARY.glob("*.py")))
    assert not unread, f"config keys that no code in src/ reads: {unread}"


def test_the_check_sees_an_unread_config_key(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("CONFIG = {'tree': {'depth': 1, 'iters': 2}, 'eta': None,\n"
                      "          'synth': {'seed': 7, 'gone': 1}}\n\n"
                      "class SynthConfig:\n    seed: int = 7\n\n"
                      "def read(cfg):\n    return cfg['tree']['depth'], cfg.get('eta')\n")
    config = {"tree": {"depth": 1, "iters": 2}, "eta": None, "synth": {"seed": 7, "gone": 1}}
    assert unread_config_keys(config, [module]) == ["tree.iters", "synth.gone"]
