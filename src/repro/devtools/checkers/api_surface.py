"""api-surface: the public summary contract stays whole.

Three sub-rules, all anchored on :mod:`repro.api`:

* **protocol conformance** — every sketch class the registry can hand out
  (the return annotations of the ``_build_*`` builders plus every
  ``restorer=Cls.from_dict``) must implement the full
  :class:`~repro.api.protocol.GraphSummary` surface.  Methods are
  resolved statically, following base classes through repro-internal
  imports, so "forgot to implement precursor_query on the new sketch"
  fails the lint instead of failing a user.
* **no ``-1.0`` sentinel reintroduction** — ``edge_query`` returns
  ``Optional[float]`` instead of the paper's ``-1.0``-means-absent
  convention, because the sentinel collides with a real edge deleted down
  to ``-1.0``.  Any ``-1.0`` literal in library code is flagged.
* **factory-only construction** — ``experiments/`` and ``cli.py`` must
  build sketches through the registry (``SketchSpec``/``build``) so the
  equal-memory sizing arithmetic stays in one place; directly
  instantiating a registered sketch class there bypasses it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.framework import Checker, Project, PyFile, Violation

__all__ = ["ApiSurfaceChecker"]

#: Files where direct sketch construction is banned (factory-routed code).
_FACTORY_ONLY_COMPONENTS = ("experiments",)
_FACTORY_ONLY_FILES = ("cli.py",)


def _find_file(project: Project, *suffix: str) -> Optional[PyFile]:
    for pyfile in project.py_files:
        if pyfile.components[-len(suffix):] == suffix and pyfile.tree is not None:
            return pyfile
    return None


def _protocol_methods(protocol_file: PyFile) -> Set[str]:
    for node in protocol_file.walk():
        if isinstance(node, ast.ClassDef) and node.name == "GraphSummary":
            return {
                statement.name
                for statement in node.body
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not statement.name.startswith("_")
            }
    return set()


def _import_map(pyfile: PyFile) -> Dict[str, str]:
    """Imported name → repro module path (``GSS`` → ``repro.core.gss``)."""
    imports: Dict[str, str] = {}
    for node in pyfile.walk():
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    imports[alias.asname or alias.name] = node.module
    return imports


def _registry_classes(registry_file: PyFile) -> Tuple[Set[str], Set[str]]:
    """(classes needing the protocol, classes banned from direct construction).

    The protocol set is the classes the factory can actually return: the
    return annotations of ``_build_*`` functions plus every
    ``restorer=Cls.from_dict``.  The construction-ban set additionally
    includes bare class names forwarded through builder lambdas
    (``lambda spec: _build_cm(CountMinSketch, spec)``) — those are wrapped
    or adapted before being returned, but constructing them directly in an
    experiment still bypasses the factory's sizing arithmetic.
    """
    conformance: Set[str] = set()
    banned: Set[str] = set()
    for node in registry_file.walk():
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_build_"):
            annotation = node.returns
            if isinstance(annotation, ast.Name):
                conformance.add(annotation.id)
            elif isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                conformance.add(annotation.value.strip("'\""))
        elif isinstance(node, ast.keyword) and node.arg == "restorer":
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "from_dict"
                and isinstance(value.value, ast.Name)
            ):
                conformance.add(value.value.id)
        elif isinstance(node, ast.Lambda):
            for inner in ast.walk(node.body):
                if isinstance(inner, ast.Call):
                    for argument in inner.args:
                        if isinstance(argument, ast.Name) and argument.id[:1].isupper():
                            banned.add(argument.id)
    banned |= conformance
    return conformance, banned


def _resolve_module(project: Project, api_dir: Path, module: str) -> Optional[PyFile]:
    """``repro.core.gss`` → the PyFile at ``<package root>/core/gss.py``."""
    parts = module.split(".")[1:]  # drop the package segment itself
    package_root = api_dir.parent
    for candidate in (
        package_root.joinpath(*parts).with_suffix(".py"),
        package_root.joinpath(*parts) / "__init__.py",
    ):
        for pyfile in project.py_files:
            if pyfile.path == candidate and pyfile.tree is not None:
                return pyfile
    return None


def _class_def(pyfile: PyFile, name: str) -> Optional[ast.ClassDef]:
    for node in pyfile.walk():
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _collect_methods(
    project: Project,
    api_dir: Path,
    pyfile: PyFile,
    class_name: str,
    seen: Set[Tuple[str, str]],
) -> Optional[Set[str]]:
    """Statically collected method names of a class, bases included."""
    key = (pyfile.rel, class_name)
    if key in seen:
        return set()
    seen.add(key)
    definition = _class_def(pyfile, class_name)
    if definition is None:
        return None
    methods: Set[str] = set()
    for statement in definition.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(statement.name)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    methods.add(target.id)
    imports = _import_map(pyfile)
    for base in definition.bases:
        base_name = base.id if isinstance(base, ast.Name) else None
        if base_name is None:
            continue
        if base_name in imports:
            base_file = _resolve_module(project, api_dir, imports[base_name])
            if base_file is not None:
                inherited = _collect_methods(
                    project, api_dir, base_file, base_name, seen
                )
                if inherited:
                    methods |= inherited
        else:
            local = _class_def(pyfile, base_name)
            if local is not None:
                inherited = _collect_methods(project, api_dir, pyfile, base_name, seen)
                if inherited:
                    methods |= inherited
    return methods


class ApiSurfaceChecker(Checker):
    rule = "api-surface"
    description = (
        "registry sketches implement GraphSummary; no -1.0 sentinel; no "
        "direct sketch construction outside the factory"
    )
    scope = None  # the sentinel sub-rule watches the whole tree

    def check_project(self, project: Project) -> Iterator[Violation]:
        protocol_file = _find_file(project, "api", "protocol.py")
        registry_file = _find_file(project, "api", "registry.py")
        banned_constructors: Set[str] = set()
        if protocol_file is not None and registry_file is not None:
            conformance, banned_constructors = _registry_classes(registry_file)
            yield from self._check_conformance(
                project, protocol_file, registry_file, conformance
            )
        for pyfile in project.py_files:
            if pyfile.tree is None:
                continue
            yield from self._check_sentinel(pyfile)
            if banned_constructors and self._factory_only(pyfile):
                yield from self._check_construction(pyfile, banned_constructors)

    # -- protocol conformance ------------------------------------------------

    def _check_conformance(
        self,
        project: Project,
        protocol_file: PyFile,
        registry_file: PyFile,
        classes: Set[str],
    ) -> Iterator[Violation]:
        required = _protocol_methods(protocol_file)
        if not required:
            yield Violation(
                rule=self.rule,
                path=protocol_file.rel,
                line=1,
                message="GraphSummary protocol not found or has no methods",
            )
            return
        api_dir = registry_file.path.parent
        imports = _import_map(registry_file)
        for class_name in sorted(classes):
            module = imports.get(class_name)
            if module is None:
                yield Violation(
                    rule=self.rule,
                    path=registry_file.rel,
                    line=1,
                    message=(
                        f"registry references {class_name} but never imports "
                        "it from a repro module"
                    ),
                )
                continue
            module_file = _resolve_module(project, api_dir, module)
            if module_file is None:
                # The module is outside the scanned tree (partial lint runs
                # over a subdirectory); nothing to verify against.
                continue
            methods = _collect_methods(
                project, api_dir, module_file, class_name, set()
            )
            if methods is None:
                yield Violation(
                    rule=self.rule,
                    path=module_file.rel,
                    line=1,
                    message=f"registry class {class_name} not found in {module}",
                )
                continue
            missing = sorted(required - methods)
            if missing:
                definition = _class_def(module_file, class_name)
                yield Violation(
                    rule=self.rule,
                    path=module_file.rel,
                    line=definition.lineno if definition else 1,
                    message=(
                        f"{class_name} is registered but does not implement "
                        f"the GraphSummary protocol: missing {', '.join(missing)}"
                    ),
                )

    # -- -1.0 sentinel ban ---------------------------------------------------

    def _check_sentinel(self, pyfile: PyFile) -> Iterator[Violation]:
        for node in pyfile.walk():
            value: Optional[float] = None
            if (
                isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)
                and isinstance(node.operand.value, float)
            ):
                value = -node.operand.value
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                value = node.value
            # repro: allow(api-surface): the checker must spell the banned
            # sentinel to recognise it.
            if value == -1.0:
                yield self.violation(
                    pyfile,
                    node,
                    "-1.0 literal — the paper's edge-absent sentinel is "
                    "deprecated (it collides with an edge deleted down to "
                    "-1.0); use Optional[float] / None",
                )

    # -- factory-only construction -------------------------------------------

    def _factory_only(self, pyfile: PyFile) -> bool:
        return (
            any(part in pyfile.components for part in _FACTORY_ONLY_COMPONENTS)
            or pyfile.components[-1] in _FACTORY_ONLY_FILES
        )

    def _check_construction(
        self, pyfile: PyFile, banned: Set[str]
    ) -> Iterator[Violation]:
        for node in pyfile.walk():
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name in banned:
                yield self.violation(
                    pyfile,
                    node,
                    f"direct {name}(...) construction outside the factory — "
                    "build through SketchSpec/repro.api.build so the "
                    "equal-memory sizing stays in one place",
                )
