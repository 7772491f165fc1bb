"""Every function of holoq has a caller in holoq: the code reached from
the command line's entry point (cli.main), from the module and class
bodies, and from the functions perfbench/tracer.py wraps, closed over the
function bodies it reaches.

A name a function reads and does not bind reaches the top-level function
of that name in its module, or the one it imports under that name; an
attribute x.name reaches every method and every top-level function called
name. A method whose name begins and ends with two underscores is reached
by the language."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def traced(tracer: Path):
    """(module, qualified name) of every function the tracer wraps."""
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError(f"{tracer} defines no TRACED")


def reads(node, scoped):
    """(the free names node reads, the attribute names it reads), nested
    scopes included. With scoped, node is a function, and a name bound
    anywhere in it (an argument, a target, a nested definition or import)
    is its own, not free."""
    loaded, bound, attrs = set(), set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            (loaded if isinstance(sub.ctx, ast.Load) else bound).add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif isinstance(sub, (*FUNCTIONS, ast.ClassDef)) and sub is not node:
            bound.add(sub.name)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        elif isinstance(sub, ast.alias):
            bound.add(sub.asname or sub.name.split(".")[0])
    return (loaded - bound if scoped else loaded), attrs


def definitions(src: Path):
    """{(module, qualified name): def node} of every top-level function and
    every method of a top-level class; {module: [every other statement of
    its body and its classes' bodies, and the classes' decorators and
    bases]}; {(module, name): (module, name) it imports from}."""
    defs, bodies, imports = {}, {}, {}
    for path in sorted(src.glob("*.py")):
        module, body = path.stem, bodies.setdefault(path.stem, [])
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS):
                defs[(module, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                body += node.decorator_list + node.bases + node.keywords
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        defs[(module, f"{node.name}.{item.name}")] = item
                    else:
                        body.append(item)
            else:
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    for alias in node.names:
                        imports[(module, alias.asname or alias.name)] = (node.module, alias.name)
                body.append(node)
    return defs, bodies, imports


def unreached(src: Path, tracer: Path):
    """The functions and methods of src that nothing reaches, as
    "module.qualified name", sorted."""
    defs, bodies, imports = definitions(src)
    names, attrs = set(), set()  # (module, name) reached, attribute names read

    def read(module, node, scoped):
        free, attributes = reads(node, scoped)
        names.update(imports.get((module, name), (module, name)) for name in free)
        attrs.update(attributes)

    for module, body in bodies.items():
        for node in body:
            read(module, node, False)
    roots = {("cli", "main")} | traced(tracer)
    reached = set()
    while True:
        new = set()
        for key in defs.keys() - reached:
            name = key[1].rsplit(".", 1)[-1]
            if (key in roots or key in names or name in attrs
                    or (name.startswith("__") and name.endswith("__"))):
                new.add(key)
        if not new:
            return sorted(f"{module}.{name}" for module, name in defs.keys() - reached)
        reached |= new
        for key in new:
            read(key[0], defs[key], True)


def test_every_function_is_reached():
    missing = unreached(ROOT / "src" / "holoq", ROOT / "perfbench" / "tracer.py")
    assert missing == [], f"no caller in holoq: {', '.join(missing)}"


def test_an_unreached_function_is_named(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .util import helper as aid\n\n\n"
        "def main(orphan=None):\n    inner = aid\n    return inner(orphan)\n\n\n"
        "def orphan():\n    return main()\n\n\n"
        "def inner():\n    return 0\n\n\n"
        "class Box:\n    size = property(lambda self: 0)\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def unused(self):\n        return self.helper()\n")
    (tmp_path / "util.py").write_text("def helper(x):\n    return x\n\n\n"
                                      "def spare():\n    return 1\n")
    (tmp_path / "tracer.py").write_text("TRACED = ()\n")
    assert unreached(tmp_path, tmp_path / "tracer.py") == [
        "cli.Box.unused", "cli.inner", "cli.orphan", "util.spare"]
