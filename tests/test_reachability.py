"""Every top-level definition in src/knotforge is reached from a root.

The roots are what runs the package outside the tests: the command line
(`cli.main`, `cli.run` and `python -m knotforge`), every knotforge name
that the benchmark (perfbench/*.py), the scripts (scripts/*.py) and the
README's library example use, and the entry points that the benchmark's
tracer wraps by name.  From the roots the walk follows each name that a
reached definition uses, through the imports of its module.  An import
alone is no use, and neither is a re-export in `__init__`, so a helper
that only the tests call is found here and belongs in tests/support.py.
Module dunders (`__all__`, `__version__`) are read by Python and by
packaging tools, not by name, and are not checked.
"""

import ast

from support import ROOT, library_example, load_tracer

PACKAGE = ROOT / "src" / "knotforge"


class Package:
    """The top-level definitions, knotforge imports and import-time
    statements of each module of a package directory."""

    def __init__(self, directory):
        self.defs, self.imports, self.statements = {}, {}, {}
        trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(directory.glob("*.py"))}
        for module, tree in trees.items():
            defs, imports, statements = {}, {}, []
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defs.setdefault(node.name, []).append(node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign,
                                       ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for name in (n for t in targets for n in ast.walk(t)):
                        if isinstance(name, ast.Name):
                            defs.setdefault(name.id, []).append(node)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    imports.update(self.bound(node, inside=True))
                else:
                    statements.append(node)
            self.defs[module] = defs
            self.imports[module] = imports
            self.statements[module] = statements

    def bound(self, node, inside):
        """What an import statement binds: local name -> (module, name) for
        a knotforge definition, (module, None) for a knotforge module.  A
        relative import counts inside the package, `knotforge` ones
        outside it; `from knotforge import f` reads f from `__init__`."""
        if not isinstance(node, ast.ImportFrom):
            return {}  # `import knotforge.x` is read as knotforge.x.f below
        if inside and node.level == 1:
            source = node.module
        elif node.level == 0 and node.module == "knotforge":
            source = None
        elif node.level == 0 and (node.module or "").startswith("knotforge."):
            source = node.module.split(".", 1)[1]
        else:
            return {}
        out = {}
        for alias in node.names:
            if source is not None:
                target = (source, alias.name)
            elif alias.name in self.defs:
                target = (alias.name, None)
            else:
                target = ("__init__", alias.name)
            out[alias.asname or alias.name] = target
        return out

    def resolve(self, module, name):
        """The (module, name) that defines name as module sees it, through
        its imports; None when it is no knotforge definition."""
        for _ in range(len(self.defs) + 1):
            if module not in self.defs:
                return None
            if name in self.defs[module]:
                return module, name
            module, name = self.imports[module].get(name, (None, None))
            if name is None:
                return None
        return None

    def uses(self, module, node, inside=True):
        """The definitions that node uses, read in module (None outside the
        package): a name that is read, f in m.f for a knotforge module m
        (as imported, or as in the benchmark's kf.twisted.verify_theorem),
        with the imports made below node added to the module's."""
        imports = dict(self.imports.get(module, {}))
        for sub in ast.walk(node):
            imports.update(self.bound(sub, inside))
        out = set()
        for sub in ast.walk(node):
            target = None
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                source, name = imports.get(sub.id, (module, sub.id))
                if name is not None:
                    target = self.resolve(source, name)
            elif isinstance(sub, ast.Attribute):
                base = sub.value
                if isinstance(base, ast.Name):
                    source, name = imports.get(base.id, (None, None))
                    if source is not None and name is None:  # a module
                        target = self.resolve(source, sub.attr)
                elif isinstance(base, ast.Attribute):
                    target = self.resolve(base.attr, sub.attr)
            if target:
                out.add(target)
        return out

    def unreached(self, roots):
        """The top-level definitions, as "module.name", that no root
        reaches."""
        reached, todo = set(), list(roots)
        while todo:
            key = todo.pop()
            if key not in reached:
                reached.add(key)
                module, name = key
                for node in self.defs[module][name]:
                    todo.extend(self.uses(module, node))
        return sorted("%s.%s" % (module, name)
                      for module, defs in self.defs.items() for name in defs
                      if (module, name) not in reached
                      and not (name.startswith("__") and name.endswith("__")))


def roots(package):
    """cli.main, cli.run, what each module runs on import (`__main__`
    included), the knotforge definitions that perfbench/*.py, scripts/*.py
    and the README's library example use, and the tracer's targets."""
    out = {("cli", "main"), ("cli", "run")}
    for module, statements in package.statements.items():
        for node in statements:
            out |= package.uses(module, node)
    sources = [path.read_text(encoding="utf-8")
               for folder in ("perfbench", "scripts")
               for path in sorted((ROOT / folder).glob("*.py"))]
    for source in sources + [library_example()]:
        out |= package.uses(None, ast.parse(source), inside=False)
    tracer = load_tracer()
    for module, name in ([target[:2] for target in tracer.SPANS.values()]
                         + list(tracer.COUNTED.values())):
        target = package.resolve(module, name)
        assert target, "tracer target %s.%s is gone" % (module, name)
        out.add(target)
    return out


def test_every_definition_in_src_is_reached():
    package = Package(PACKAGE)
    unreached = package.unreached(roots(package))
    assert not unreached, "reached by no root: " + ", ".join(unreached)


def test_an_unused_or_reexported_helper_is_found(tmp_path):
    # on a copy of the package: a helper that nothing calls, and a moved
    # definition put back with an __init__ re-export, which is no use
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    added = {"reps.py": "def _unused(x):\n    return x\n",
             "diagram.py": "def pd_to_json(pd):\n"
                           "    return json.dumps(pd.crossings)\n",
             "__init__.py": "from .diagram import pd_to_json\n"}
    for name, text in added.items():
        with open(tmp_path / name, "a", encoding="utf-8") as fh:
            fh.write("\n\n" + text)
    package = Package(tmp_path)
    assert package.unreached(roots(package)) == ["diagram.pd_to_json",
                                                  "reps._unused"]
