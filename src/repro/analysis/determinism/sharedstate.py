"""Whole-program shared-mutable-state pass.

Answers one question: *which module-level or class-level state does the
training loop (or the inference service) write?*  Such state outlives a
single run inside one process, so a second same-seed run — or a resume —
can observe the first run's writes.  Every entry in the resulting map is
an inventoried exception to "state is passed explicitly"; the map is the
audit trail for each one (the campus cache is the deliberate example).

The pass is a conservative, name-based static analysis over the package
sources (no imports are executed):

1. **Index** every module: module-level bindings (classified mutable /
   rng / file-handle / immutable), function and method definitions,
   class-level mutable attributes.
2. **Call graph**: for every function, the set of names it calls.
   Resolution is by name — precise enough for this codebase's flat call
   style, and strictly over-approximate (a name match never *misses* a
   real call; it may add spurious reachability, which only widens the
   contract).
3. **Reachability** from the long-running entrypoints (``run_training``,
   ``run_method``, ``run_service`` — the inference service — and
   ``train`` — i.e. ``agent.train`` and everything it
   pulls in) via BFS.
4. **Shared-state map**: every module global / class attribute that is
   *written* from some function, annotated with its writers and whether
   each writer is reachable from the train loop (``hot`` writers).

Emitters produce a JSON artifact (machine-readable contract, uploaded by
CI) and a DOT graph (entrypoints → writer functions → state nodes).
"""

from __future__ import annotations

import ast
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .rules import _MUTABLE_CONSTRUCTORS, _MUTATOR_METHODS

__all__ = ["SharedStateMap", "StateSite", "Writer", "build_shared_state_map",
           "DEFAULT_ENTRYPOINTS"]

DEFAULT_ENTRYPOINTS = ("run_training", "run_method", "train", "run_service")


@dataclass
class Writer:
    """One function that writes a piece of shared state."""

    function: str        # qualified, e.g. repro.experiments.runner.get_campus
    site: str            # path:line of the writing statement
    reachable: bool = False  # from the training entrypoints

    def as_dict(self) -> dict:
        return {"function": self.function, "site": self.site,
                "reachable": self.reachable}


@dataclass
class StateSite:
    """One piece of shared mutable state (module global or class attr)."""

    kind: str            # "module_global" | "class_attribute" | "rng" | "file_handle"
    module: str          # dotted module name
    name: str            # global name or Class.attr
    defined_at: str      # path:line of the definition
    value_type: str      # dict / list / set / rng / file / rebound
    writers: list[Writer] = field(default_factory=list)

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.name}"

    @property
    def hot(self) -> bool:
        """Written from a function reachable from the train loop."""
        return any(w.reachable for w in self.writers)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "module": self.module, "name": self.name,
                "defined_at": self.defined_at, "value_type": self.value_type,
                "hot": self.hot,
                "writers": [w.as_dict() for w in self.writers]}


@dataclass
class SharedStateMap:
    """The full artifact: state sites + the call graph that reached them."""

    root: str
    entrypoints: tuple[str, ...]
    sites: list[StateSite] = field(default_factory=list)
    reachable_functions: list[str] = field(default_factory=list)

    @property
    def hot_sites(self) -> list[StateSite]:
        return [s for s in self.sites if s.hot]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps({
            "schema": "repro.sharedstate/2",
            "root": self.root,
            "entrypoints": list(self.entrypoints),
            "summary": {"sites": len(self.sites),
                        "hot_sites": len(self.hot_sites),
                        "reachable_functions": len(self.reachable_functions)},
            "sites": [s.as_dict() for s in sorted(
                self.sites, key=lambda s: (not s.hot, s.qualified))],
        }, indent=indent, sort_keys=False)

    def to_dot(self) -> str:
        lines = ["digraph sharedstate {", "  rankdir=LR;",
                 '  node [fontname="monospace" fontsize=10];']
        for ep in self.entrypoints:
            lines.append(f'  "{ep}" [shape=doubleoctagon];')
        for site in self.sites:
            color = "red" if site.hot else "gray"
            lines.append(f'  "{site.qualified}" [shape=box style=filled '
                         f'fillcolor=white color={color} '
                         f'label="{site.qualified}\\n({site.value_type})"];')
            for writer in site.writers:
                style = "solid" if writer.reachable else "dashed"
                lines.append(f'  "{writer.function}" [shape=ellipse];')
                lines.append(f'  "{writer.function}" -> "{site.qualified}" '
                             f'[style={style}];')
        lines.append("}")
        return "\n".join(lines)

    def format_summary(self) -> str:
        hot = self.hot_sites
        out = [f"shared-state map: {len(self.sites)} site(s), "
               f"{len(hot)} written on the training path"]
        for site in sorted(self.sites, key=lambda s: (not s.hot, s.qualified)):
            marker = "HOT " if site.hot else "    "
            writers = ", ".join(sorted({w.function.rsplit('.', 1)[-1]
                                        for w in site.writers})) or "-"
            out.append(f"  {marker}{site.qualified} ({site.value_type}) "
                       f"<- {writers}")
        return "\n".join(out)


# ----------------------------------------------------------------------
# Module indexing
# ----------------------------------------------------------------------

@dataclass
class _FunctionInfo:
    qualname: str
    module: str
    node: ast.AST
    calls: set[str] = field(default_factory=set)


def _module_name(path: Path, root: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else root.name


def _called_names(fn: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute):
                names.add(f.attr)
    return names


def _site(path: Path, node: ast.AST) -> str:
    return f"{path}:{getattr(node, 'lineno', 0)}"


def _classify_value(value: ast.AST) -> str | None:
    """Mutability class of a binding's RHS, or None for immutable."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        f = value.func
        fname = (f.id if isinstance(f, ast.Name)
                 else f.attr if isinstance(f, ast.Attribute) else "")
        if fname in _MUTABLE_CONSTRUCTORS:
            return fname if fname in ("dict", "list", "set") else "dict"
        if fname in ("default_rng", "Generator", "RandomState", "Random"):
            return "rng"
        if fname == "open":
            return "file"
    return None


def build_shared_state_map(root: str | Path = "src/repro",
                           entrypoints: tuple[str, ...] = DEFAULT_ENTRYPOINTS,
                           ) -> SharedStateMap:
    """Run the whole-program pass over every ``.py`` file under ``root``."""
    root = Path(root)
    functions: dict[str, _FunctionInfo] = {}
    by_name: dict[str, list[str]] = {}          # bare name -> qualnames
    sites: dict[str, StateSite] = {}
    # (module, global name) -> StateSite for writer attachment
    globals_index: dict[tuple[str, str], StateSite] = {}

    files = sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)
    trees: list[tuple[Path, str, ast.Module]] = []
    for path in files:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue
        trees.append((path, _module_name(path, root), tree))

    # Every module-level simple binding, mutable or not: a scalar global
    # rebound from a function (``global _ACTIVE``) is shared state too.
    module_bindings: dict[tuple[str, str], str] = {}

    # Pass 1: index definitions and module-level state.
    for path, module, tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                value = stmt.value
                if value is None:
                    continue
                for t in targets:
                    if isinstance(t, ast.Name):
                        module_bindings[(module, t.id)] = _site(path, stmt)
                vtype = _classify_value(value)
                if vtype is None:
                    continue
                for t in targets:
                    if not isinstance(t, ast.Name):
                        continue
                    kind = {"rng": "rng", "file": "file_handle"}.get(
                        vtype, "module_global")
                    site = StateSite(kind=kind, module=module, name=t.id,
                                     defined_at=_site(path, stmt),
                                     value_type=vtype)
                    sites[site.qualified] = site
                    globals_index[(module, t.id)] = site
        # functions and methods (+ class-level mutable attributes)
        def _index_fn(fn: ast.AST, qual: str):
            info = _FunctionInfo(qualname=qual, module=module, node=fn,
                                 calls=_called_names(fn))
            functions[qual] = info
            by_name.setdefault(fn.name, []).append(qual)

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _index_fn(stmt, f"{module}.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        _index_fn(item, f"{module}.{stmt.name}.{item.name}")
                    elif isinstance(item, ast.Assign):
                        vtype = _classify_value(item.value)
                        if vtype is None:
                            continue
                        for t in item.targets:
                            if isinstance(t, ast.Name):
                                site = StateSite(
                                    kind="class_attribute", module=module,
                                    name=f"{stmt.name}.{t.id}",
                                    defined_at=_site(path, item),
                                    value_type=vtype)
                                sites[site.qualified] = site
                                globals_index[(module, f"{stmt.name}.{t.id}")] = site

    # Pass 2: find writers.
    for path, module, tree in trees:
        class_attrs = {key[1].split(".", 1)[1]: site
                       for key, site in globals_index.items()
                       if key[0] == module and site.kind == "class_attribute"}
        for qual, info in functions.items():
            if info.module != module:
                continue
            fn = info.node
            declared_global = {name for node in ast.walk(fn)
                               if isinstance(node, ast.Global)
                               for name in node.names}
            for node in ast.walk(fn):
                written: StateSite | None = None
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                    targets = (node.targets
                               if isinstance(node, (ast.Assign, ast.Delete))
                               else [node.target])
                    for t in targets:
                        base = t.value if isinstance(t, ast.Subscript) else t
                        if isinstance(base, ast.Name):
                            key = (module, base.id)
                            if key in globals_index and (
                                    isinstance(t, ast.Subscript)
                                    or base.id in declared_global):
                                written = globals_index[key]
                            elif (base.id in declared_global
                                    and not isinstance(t, ast.Subscript)):
                                # A scalar module global rebound from a
                                # function (``global _ACTIVE``): pass 1
                                # skipped it (immutable RHS) but the
                                # rebinding itself is shared state.
                                rebound = StateSite(
                                    kind="module_global", module=module,
                                    name=base.id,
                                    defined_at=module_bindings.get(
                                        key, _site(path, node)),
                                    value_type="rebound")
                                sites[rebound.qualified] = rebound
                                globals_index[key] = rebound
                                written = rebound
                        # cls.attr / ClassName.attr writes to class attributes
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id in ("cls",)
                                and t.attr in class_attrs):
                            written = class_attrs[t.attr]
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATOR_METHODS):
                    owner = node.func.value
                    if isinstance(owner, ast.Name):
                        key = (module, owner.id)
                        if key in globals_index:
                            written = globals_index[key]
                    elif (isinstance(owner, ast.Attribute)
                            and isinstance(owner.value, ast.Name)
                            and owner.value.id in ("self", "cls")
                            and owner.attr in class_attrs):
                        written = class_attrs[owner.attr]
                if written is not None:
                    writer = Writer(function=qual, site=_site(path, node))
                    if not any(w.function == qual and w.site == writer.site
                               for w in written.writers):
                        written.writers.append(writer)

    # Pass 3: reachability from the entrypoints.
    work: deque[str] = deque()
    reachable: set[str] = set()
    for ep in entrypoints:
        for qual in by_name.get(ep, []):
            if qual not in reachable:
                reachable.add(qual)
                work.append(qual)
    while work:
        qual = work.popleft()
        for callee_name in functions[qual].calls:
            for callee in by_name.get(callee_name, []):
                if callee not in reachable:
                    reachable.add(callee)
                    work.append(callee)

    for site in sites.values():
        for writer in site.writers:
            writer.reachable = writer.function in reachable

    # Only sites with at least one writer are *shared* state; untouched
    # module constants are configuration, not hazards.  rng/file handles
    # are hazards by existence.
    kept = [s for s in sites.values()
            if s.writers or s.kind in ("rng", "file_handle")]
    return SharedStateMap(root=str(root), entrypoints=tuple(entrypoints),
                          sites=kept,
                          reachable_functions=sorted(reachable))
