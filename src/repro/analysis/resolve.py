"""Scope, import, and attribute resolution over a set of parsed files.

The rules that enforce concurrency contracts need a *project* view no
single-file walk can give: which classes exist, which of their
attributes are locks, which are declared lock-guarded (the
``# guarded-by: <lock>`` trailing-comment convention), and — the hard
part — what project class ``self._memory`` or a ``for handle in
self._handles`` loop variable refers to, so a method call through an
attribute can be resolved to the class that implements it.

The inference here is deliberately *shallow and conservative*: it
reads ``__init__`` assignments, parameter and attribute annotations,
list/dict element types, and simple local bindings.  Anything it
cannot resolve it drops — for the lock-order graph a missed edge is a
missed check, while an invented edge would be a false deadlock report,
and for guarded-attribute checking the attribute set is explicit by
construction (only annotated attributes are checked at all).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.source import SourceFile

#: Trailing-comment convention declaring a lock-guarded attribute::
#:
#:     self._stats = ServiceStats()   # guarded-by: _lock
#:
#: The named lock must be an attribute of the same class; RPR001 then
#: enforces that every other touch of ``self._stats`` in the class sits
#: inside a ``with self._lock`` block.
GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Inline suppression::  # repro-lint: disable=RPR001,RPR005  (or =all)
SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: ``threading`` factories whose result is a with-able lock.
THREADING_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Typing containers whose *parameters* carry the element type.
_CONTAINER_BASES = frozenset({
    "List", "list", "Sequence", "Tuple", "tuple", "Set", "set",
    "FrozenSet", "frozenset", "Iterable", "Iterator", "Deque", "deque",
    "Dict", "dict", "Mapping", "MutableMapping", "DefaultDict",
    "OrderedDict",
})

#: Typing wrappers that are transparent to the underlying type.
_TRANSPARENT_BASES = frozenset({"Optional", "Union", "Final", "ClassVar"})


def suppressed_rules(line_text: str) -> Set[str]:
    """Rule ids suppressed by an inline comment on ``line_text``."""
    match = SUPPRESS_RE.search(line_text)
    if not match:
        return set()
    names = {part.strip() for part in match.group(1).split(",")}
    return {name for name in names if name}


@dataclass
class ClassInfo:
    """Everything the concurrency rules know about one class."""

    name: str
    module: str
    source: SourceFile
    node: ast.ClassDef
    #: lock attribute -> declaration line (``threading.Lock()`` et al.).
    lock_attrs: Dict[str, int] = field(default_factory=dict)
    #: guarded attribute -> (lock name, declaration line).
    guarded: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: attribute -> class-name string as written (scalar binding).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attribute -> element class-name string (container binding).
    attr_elem_types: Dict[str, str] = field(default_factory=dict)
    #: method name -> def node (incl. nested classes' methods excluded).
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    is_dataclass: bool = False

    def lock_node_name(self, attr: str) -> str:
        """Graph-node spelling of one of this class's lock attributes."""
        return f"{self.name}.{attr}"


@dataclass
class ModuleInfo:
    """Per-module import table and class listing."""

    source: SourceFile
    #: local name -> dotted target ("np" -> "numpy",
    #: "OrderingService" -> "repro.service.ordering.OrderingService").
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


class ProjectIndex:
    """The cross-file symbol table the concurrency rules query."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        self.sources = list(sources)
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_name: Dict[str, List[ClassInfo]] = {}
        for source in self.sources:
            info = _index_module(source)
            self.modules[source.module] = info
            for cls in info.classes.values():
                self.by_name.setdefault(cls.name, []).append(cls)

    # ------------------------------------------------------------------
    def resolve_class(self, module: str, name: str) -> Optional[ClassInfo]:
        """The project class a name refers to inside ``module``.

        Resolution order: the module's own classes, its import table,
        then a globally unique class of that name (covers string
        annotations naming a class the module imports lazily).  ``None``
        when the name is not a project class or is ambiguous.
        """
        if not name:
            return None
        simple = name.rsplit(".", 1)[-1]
        info = self.modules.get(module)
        if info is not None:
            if simple in info.classes and name == simple:
                return info.classes[simple]
            head = name.split(".", 1)[0]
            target = info.imports.get(head)
            if target is not None:
                dotted = target + name[len(head):]
                target_module, _, target_name = dotted.rpartition(".")
                target_info = self.modules.get(target_module)
                if target_info is not None:
                    return target_info.classes.get(target_name)
                # Imported from a module outside the linted set.
                return None
        candidates = self.by_name.get(simple, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def is_lock_like_class(self, cls: ClassInfo) -> bool:
        """Whether instances of ``cls`` are themselves with-able locks.

        A project class counts when it wraps real locks (has lock
        attributes), supports the context-manager protocol, and *says
        so in its name* — e.g. the artifact store's reentrant
        ``_StoreLock``.  The name gate keeps lifecycle context
        managers that happen to own locks (fleets, servers) from
        being mistaken for locks themselves.
        """
        return bool(cls.lock_attrs) and "Lock" in cls.name \
            and "__enter__" in cls.methods and "__exit__" in cls.methods

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """``cls`` plus its resolvable project base classes, BFS order."""
        order = [cls]
        seen = {(cls.module, cls.name)}
        queue = [cls]
        while queue:
            current = queue.pop(0)
            for base in current.node.bases:
                name = _dotted_source(base)
                target = self.resolve_class(current.module, name) \
                    if name else None
                if target is not None and \
                        (target.module, target.name) not in seen:
                    seen.add((target.module, target.name))
                    order.append(target)
                    queue.append(target)
        return order

    def attr_is_lock(self, cls: ClassInfo, attr: str) -> bool:
        """Whether ``self.<attr>`` on ``cls`` is a lock (direct,
        wrapped, or inherited from a project base class)."""
        return self.lock_node_for(cls, attr) is not None

    def lock_node_for(self, cls: ClassInfo,
                      attr: str) -> Optional[str]:
        """Graph-node name for ``self.<attr>`` if it is a lock.

        The node is named after the *declaring* class, so ``Counter``
        and ``Gauge`` taking the ``_Metric``-declared ``_lock`` share
        one node.
        """
        for owner in self.mro(cls):
            if attr in owner.lock_attrs:
                return owner.lock_node_name(attr)
            type_name = owner.attr_types.get(attr)
            if type_name is not None:
                target = self.resolve_class(owner.module, type_name)
                if target is not None and \
                        self.is_lock_like_class(target):
                    return owner.lock_node_name(attr)
        return None


# ---------------------------------------------------------------------------
# Module indexing
# ---------------------------------------------------------------------------
def _index_module(source: SourceFile) -> ModuleInfo:
    info = ModuleInfo(source=source)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    for node in source.tree.body:
        _collect_classes(source, info, node)
    return info


def _collect_classes(source: SourceFile, info: ModuleInfo,
                     node: ast.AST) -> None:
    if isinstance(node, ast.ClassDef):
        info.classes[node.name] = _index_class(source, node)
        # Nested classes are rare here; index them flat by name too.
        for child in node.body:
            _collect_classes(source, info, child)
    elif isinstance(node, (ast.If, ast.Try)):
        for child in ast.iter_child_nodes(node):
            _collect_classes(source, info, child)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = _dotted_source(target)
        if name and name.rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def _index_class(source: SourceFile, node: ast.ClassDef) -> ClassInfo:
    cls = ClassInfo(name=node.name, module=source.module, source=source,
                    node=node, is_dataclass=_is_dataclass_decorated(node))
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[child.name] = child
    for method in cls.methods.values():
        params = _param_annotations(method)
        for stmt in ast.walk(method):
            _record_attr_binding(cls, source, stmt, params)
    return cls


def _param_annotations(method: ast.FunctionDef) -> Dict[str, str]:
    params: Dict[str, str] = {}
    args = method.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        if arg.annotation is not None:
            text = _annotation_text(arg.annotation)
            if text:
                params[arg.arg] = text
    return params


def _record_attr_binding(cls: ClassInfo, source: SourceFile,
                         stmt: ast.AST, params: Dict[str, str]) -> None:
    """Record lock/guard/type facts from one ``self.X = ...`` statement."""
    if isinstance(stmt, ast.Assign):
        targets, value, annotation = stmt.targets, stmt.value, None
    elif isinstance(stmt, ast.AnnAssign):
        targets, value, annotation = [stmt.target], stmt.value, \
            stmt.annotation
    else:
        return
    for target in targets:
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            continue
        attr = target.attr
        lineno = stmt.lineno
        line = source.line_text(lineno)
        guard = GUARDED_BY_RE.search(line)
        if guard:
            cls.guarded.setdefault(attr, (guard.group(1), lineno))
        if value is not None and _contains_threading_lock(value):
            cls.lock_attrs.setdefault(attr, lineno)
        scalar, elem = _binding_types(value, annotation, params)
        if scalar and attr not in cls.attr_types:
            cls.attr_types[attr] = scalar
        if elem and attr not in cls.attr_elem_types:
            cls.attr_elem_types[attr] = elem


def _contains_threading_lock(value: ast.AST) -> bool:
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            name = _dotted_source(node.func)
            if name and name.rsplit(".", 1)[-1] in \
                    THREADING_LOCK_FACTORIES:
                return True
    return False


def _binding_types(value: Optional[ast.AST],
                   annotation: Optional[ast.AST],
                   params: Dict[str, str]
                   ) -> Tuple[Optional[str], Optional[str]]:
    """Infer (scalar type name, element type name) for one binding."""
    scalar: Optional[str] = None
    elem: Optional[str] = None
    if annotation is not None:
        scalar, elem = _annotation_types(annotation)
    if scalar is None and value is not None:
        if isinstance(value, ast.Call):
            name = _dotted_source(value.func)
            if name and (_classish(name) or "." in name):
                scalar = name
        elif isinstance(value, ast.Name) and value.id in params:
            ann_scalar, ann_elem = _annotation_types_from_text(
                params[value.id])
            scalar = scalar or ann_scalar
            elem = elem or ann_elem
        elif isinstance(value, (ast.ListComp, ast.SetComp)):
            if isinstance(value.elt, ast.Call):
                name = _dotted_source(value.elt.func)
                if name:
                    elem = elem or name
        elif isinstance(value, (ast.List, ast.Tuple)) and value.elts:
            first = value.elts[0]
            if isinstance(first, ast.Call):
                name = _dotted_source(first.func)
                if name:
                    elem = elem or name
    return scalar, elem


def _annotation_types(annotation: ast.AST
                      ) -> Tuple[Optional[str], Optional[str]]:
    text = _annotation_text(annotation)
    if not text:
        return None, None
    return _annotation_types_from_text(text)


def _annotation_types_from_text(text: str
                                ) -> Tuple[Optional[str], Optional[str]]:
    """Split an annotation string into scalar vs element class names.

    ``Optional[ArtifactStore]`` → scalar ``ArtifactStore``;
    ``List[_WorkerHandle]`` / ``Dict[str, _Flight]`` → element type;
    ``LRUCache[str, OrderArtifact]`` → scalar ``LRUCache`` (a generic
    project class is the type, its parameters are payload).
    """
    try:
        node = ast.parse(text.strip().strip("\"'"), mode="eval").body
    except SyntaxError:
        return None, None
    return _annotation_types_node(node)


def _annotation_types_node(node: ast.AST
                           ) -> Tuple[Optional[str], Optional[str]]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _annotation_types_from_text(node.value)
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = _dotted_source(node)
        base = name.rsplit(".", 1)[-1] if name else ""
        if not base or base in _CONTAINER_BASES \
                or base in _TRANSPARENT_BASES or not _classish(base):
            return None, None
        return name, None
    if isinstance(node, ast.Subscript):
        base_name = _dotted_source(node.value) or ""
        base = base_name.rsplit(".", 1)[-1]
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        if base in _TRANSPARENT_BASES:
            for arg in args:
                scalar, elem = _annotation_types_node(arg)
                if scalar or elem:
                    return scalar, elem
            return None, None
        if base in _CONTAINER_BASES:
            # Element type: the last parameter that is a project-ish
            # class name (dict value position beats the key).
            for arg in reversed(args):
                scalar, _ = _annotation_types_node(arg)
                if scalar:
                    return None, scalar
            return None, None
        if _classish(base):
            return base_name, None
        return None, None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            scalar, elem = _annotation_types_node(side)
            if scalar or elem:
                return scalar, elem
    return None, None


def _annotation_text(annotation: ast.AST) -> str:
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        return annotation.value
    try:
        return ast.unparse(annotation)
    except Exception:
        return ""


def _classish(name: str) -> bool:
    """Whether a name reads as a class (CapWord, private underscores ok)."""
    simple = name.rsplit(".", 1)[-1].lstrip("_")
    return simple[:1].isupper()


def _dotted_source(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, else ``""``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ---------------------------------------------------------------------------
# Per-method type environment (shared by the lock rules)
# ---------------------------------------------------------------------------
class TypeEnv:
    """Shallow expression-type environment for one method body.

    Combines the project-level attribute/annotation facts with
    first-wins local-variable bindings for a single method, and
    answers the two questions every concurrency rule asks: *what
    project class does this expression evaluate to* and *which lock
    does this expression denote*.  RPR002 (lock-order), RPR007
    (cross-class guarded access), and RPR008 (release-ordering) all
    resolve through this one layer, so an inference improvement here
    upgrades every rule at once.
    """

    def __init__(self, project: "ProjectIndex", cls: ClassInfo,
                 method: ast.FunctionDef) -> None:
        self.project = project
        self.cls = cls
        self.locals = local_types(project, cls, method)

    def class_of(self, expr: ast.AST) -> Optional[ClassInfo]:
        """The project class an expression evaluates to, if inferable."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.cls
            return self.resolve(self.locals.get(expr.id))
        if isinstance(expr, ast.Attribute):
            attr = self_attr(expr)
            if attr is not None:
                return self.resolve(self.cls.attr_types.get(attr))
            base = self.class_of(expr.value)
            if base is not None:
                return self.resolve(base.attr_types.get(expr.attr))
            return None
        if isinstance(expr, ast.Subscript):
            return self.elem_class_of(expr.value)
        if isinstance(expr, ast.Call):
            name = dotted(expr.func)
            return self.resolve(name) if name else None
        return None

    def elem_class_of(self, expr: ast.AST) -> Optional[ClassInfo]:
        if isinstance(expr, ast.Attribute):
            attr = self_attr(expr)
            if attr is not None:
                return self.resolve(self.cls.attr_elem_types.get(attr))
        if isinstance(expr, ast.Name):
            return self.resolve(self.locals.get("[]" + expr.id))
        return None

    def resolve(self, name: Optional[str]) -> Optional[ClassInfo]:
        if not name:
            return None
        return self.project.resolve_class(self.cls.module, name)

    def lock_node_acquired(self, expr: ast.AST) -> Optional[str]:
        """Graph node acquired by ``with <expr>``, if it is a lock."""
        attr = self_attr(expr)
        if attr is not None:
            node = self.project.lock_node_for(self.cls, attr)
            if node is not None:
                return node
        if isinstance(expr, ast.Attribute):
            owner = self.class_of(expr.value)
            if owner is not None:
                return self.project.lock_node_for(owner, expr.attr)
        return None


def local_types(project: "ProjectIndex", cls: ClassInfo,
                method: ast.FunctionDef) -> Dict[str, str]:
    """First-wins local-variable type bindings for one method.

    Scalar bindings map ``name -> ClassName``; container bindings map
    ``"[]" + name -> element ClassName`` (consumed by subscript
    resolution).  Conflicting rebinds keep the first type seen — wrong
    in pathological code, conservative in practice.
    """
    names: Dict[str, str] = {}

    def put(key: str, value: Optional[str]) -> None:
        if value and key not in names:
            names[key] = value

    args = method.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        if arg.annotation is None or arg.arg == "self":
            continue
        scalar, elem = _annotation_types(arg.annotation)
        put(arg.arg, scalar)
        put("[]" + arg.arg, elem)

    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Call):
                put(name, dotted(value.func) or None)
            elif isinstance(value, ast.Attribute):
                attr = self_attr(value)
                if attr is not None:
                    put(name, cls.attr_types.get(attr))
                    put("[]" + name, cls.attr_elem_types.get(attr))
            elif isinstance(value, ast.Subscript):
                target = value.value
                attr = self_attr(target)
                if attr is not None:
                    put(name, cls.attr_elem_types.get(attr))
        elif isinstance(node, ast.For) \
                and isinstance(node.target, ast.Name):
            attr = self_attr(node.iter)
            if attr is not None:
                put(node.target.id, cls.attr_elem_types.get(attr))
    return names


# ---------------------------------------------------------------------------
# Shared AST helpers for the rule walkers
# ---------------------------------------------------------------------------
def self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def dotted(node: ast.AST) -> str:
    """Public alias of the dotted-chain renderer."""
    return _dotted_source(node)
