"""determinism: placement must not see iteration order, randomness, time.

Cross-backend bit-identity (python == numpy == native, single-process ==
sharded == served) holds because placement is a pure function of the
stream: same items in, same rooms/buffer out.  Three things silently
break that purity in ``core/``, ``hashing/`` and ``obs/``:

* **unordered iteration** — ``for x in some_set`` visits elements in a
  hash-randomized order (``PYTHONHASHSEED``); if anything stateful
  happens per element, two runs of the same stream diverge.  Sets are
  fine as *values* (query results are sets); only iterating one is
  flagged.  Dicts are insertion-ordered by language guarantee and exempt,
  but the set-algebra views (``a.union(b)``, ``x | y`` over sets) are
  caught.
* **unseeded randomness** — module-level ``random.*`` / ``np.random.*``
  draws from ambient global state; ``random.Random(seed)`` /
  ``default_rng(seed)`` with an explicit seed are fine.
* **wall-clock values** — ``time.time()``/``perf_counter()`` etc. may be
  *measured* (the backends' ingest-stage timers do), but the measurement
  must flow only into timing sinks (``histogram.observe(...)``-style
  accumulators),
  comparisons, or other timing variables — never into returned values,
  attributes, call arguments or indices, where it could steer placement.
  The analysis taints assigned names and propagates through local
  assignments to a fixpoint within each function.

``obs/`` (the telemetry layer) is *in scope* precisely because it reads the
clock on hot paths: its instruments are the sanctioned sinks (``observe``/
``add``/``inc`` receivers), plus exactly one sanctioned attribute store —
``self._started = perf_counter()``, the span's stashed start time, which
only ever flows back into ``observe()``.  Any other attribute store of a
wall-clock value in ``obs/`` files still escapes and is flagged, so the
telemetry layer cannot quietly grow a time-dependent code path.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.framework import Checker, PyFile, Violation, iter_parents

__all__ = ["DeterminismChecker"]

_SET_CALLS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "now",
        "utcnow",
        "today",
    }
)
_TIME_MODULES = frozenset({"time", "datetime", "date"})
#: Call attribute names treated as timing sinks: a time measurement may be
#: passed to these (metrics/profiling accumulators) without being flagged.
_TIME_SINKS = frozenset({"add", "observe", "record", "append"})

#: Attribute stores sanctioned as timing sinks in ``obs/`` files only:
#: ``Span.__enter__`` stashes its start time on ``self._started`` so
#: ``__exit__`` can feed the difference straight into ``observe()``.  No
#: blanket ``repro: allow`` marker — the sanction is this exact attribute
#: name in that exact scope, and anything else still escapes.
_OBS_SANCTIONED_ATTRS = frozenset({"_started"})

_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "getrandbits",
        "seed",
    }
)


def _call_path(node: ast.Call) -> str:
    """Dotted name of a call target, best effort (``time.perf_counter``)."""
    parts: List[str] = []
    current: ast.AST = node.func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    return ".".join(reversed(parts))


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Does this expression (conservatively) evaluate to a set?"""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            if node.func.id in _SET_CALLS:
                return True
            # list(set(...)) / tuple(set(...)) freeze the unordered order.
            if node.func.id in ("list", "tuple") and node.args:
                return _is_set_expr(node.args[0], set_names)
            return False
        if isinstance(node.func, ast.Attribute):
            return node.func.attr in _SET_METHODS
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) and _is_set_expr(
            node.right, set_names
        )
    return False


def _is_set_annotation(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "Set", "frozenset", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    return False


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _set_typed_names(scope: ast.AST) -> Set[str]:
    """Names assigned set-valued expressions within this scope."""
    names: Set[str] = set()
    # Two passes so `a = set(); b = a | other` is caught regardless of
    # statement order in the walk.
    for _ in range(2):
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_set_expr(node.value, names):
                    names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation):
                    names.add(node.target.id)
    return names


class DeterminismChecker(Checker):
    rule = "determinism"
    description = (
        "no unordered-set iteration, unseeded randomness or wall-clock "
        "values in placement-affecting paths"
    )
    scope = ("core", "hashing", "obs")

    def check_file(self, pyfile: PyFile) -> Iterator[Violation]:
        assert pyfile.tree is not None
        scopes: List[ast.AST] = [pyfile.tree] + [
            node
            for node in pyfile.walk()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            set_names = _set_typed_names(scope)
            for node in _scope_nodes(scope):
                iter_expr: Optional[ast.AST] = None
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iter_expr = node.iter
                elif isinstance(node, ast.comprehension):
                    iter_expr = node.iter
                if iter_expr is not None and _is_set_expr(iter_expr, set_names):
                    yield Violation(
                        rule=self.rule,
                        path=pyfile.rel,
                        line=iter_expr.lineno,
                        message=(
                            "iterating an unordered set — the visit order is "
                            "hash-randomized; sort (sorted(...)) or "
                            "restructure so order cannot matter"
                        ),
                    )
            if scope is not pyfile.tree:
                yield from self._check_time_scope(pyfile, scope)
        yield from self._check_time_module_level(pyfile)
        for node in pyfile.walk():
            if isinstance(node, ast.Call):
                yield from self._check_random(pyfile, node)

    # -- unseeded randomness -------------------------------------------------

    def _check_random(self, pyfile: PyFile, node: ast.Call) -> Iterator[Violation]:
        path = _call_path(node)
        parts = path.split(".")
        if len(parts) >= 2 and parts[-2] == "random" and parts[-1] in _RANDOM_FUNCS:
            yield self.violation(
                pyfile,
                node,
                f"{path}() uses global random state — placement paths must "
                "use an explicitly seeded random.Random(seed)",
            )
        elif parts[-1] == "Random" and not node.args and not node.keywords:
            yield self.violation(
                pyfile,
                node,
                "random.Random() without a seed falls back to OS entropy — "
                "pass an explicit seed",
            )
        elif parts[-1] == "default_rng" and not node.args and not node.keywords:
            yield self.violation(
                pyfile,
                node,
                "default_rng() without a seed is nondeterministic — pass an "
                "explicit seed",
            )

    # -- wall-clock taint ----------------------------------------------------

    def _is_time_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        parts = _call_path(node).split(".")
        if parts[-1] not in _TIME_FUNCS:
            return False
        # `perf_counter()` imported bare, or `time.monotonic()` /
        # `datetime.now()` dotted; bare `now()`/`today()` style names are
        # too generic to flag without a module qualifier.
        if len(parts) == 1:
            return parts[0] not in ("now", "utcnow", "today", "time")
        return parts[-2] in _TIME_MODULES or parts[0] in _TIME_MODULES

    def _check_time_module_level(self, pyfile: PyFile) -> Iterator[Violation]:
        assert pyfile.tree is not None
        for node in _scope_nodes(pyfile.tree):
            if self._is_time_call(node):
                yield self.violation(
                    pyfile,
                    node,
                    "wall-clock read at module level — import-time values "
                    "bake nondeterminism into every placement decision",
                )

    def _check_time_scope(
        self, pyfile: PyFile, function: ast.AST
    ) -> Iterator[Violation]:
        time_calls = [
            node for node in _scope_nodes(function) if self._is_time_call(node)
        ]
        if not time_calls:
            return
        sanctioned = self._sanctioned_attrs(pyfile)
        tainted: Set[str] = set()
        flagged: List[Tuple[ast.AST, str]] = []
        for call in time_calls:
            verdict = _consumption_verdict(pyfile, call, sanctioned)
            if verdict == "escape":
                flagged.append(
                    (
                        call,
                        "wall-clock value used outside a timing sink — "
                        "placement-affecting code must not depend on time "
                        "(keep measurements in profiling accumulators only)",
                    )
                )
            elif verdict == "taint":
                target = _assignment_target(pyfile, call)
                if target is not None:
                    tainted.add(target)
        # Propagate taint through local assignments to a fixpoint.
        changed = True
        while changed:
            changed = False
            for node in _scope_nodes(function):
                if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                if value is None or not all(
                    isinstance(target, ast.Name) for target in targets
                ):
                    continue
                if any(
                    isinstance(sub, ast.Name) and sub.id in tainted
                    for sub in ast.walk(value)
                ):
                    for target in targets:
                        if target.id not in tainted:
                            tainted.add(target.id)
                            changed = True
        reported: Set[str] = set()
        for node in _scope_nodes(function):
            if not (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in tainted
                and node.id not in reported
            ):
                continue
            if _consumption_verdict(pyfile, node, sanctioned) == "escape":
                reported.add(node.id)
                flagged.append(
                    (
                        node,
                        f"timing variable {node.id!r} escapes the profiling "
                        "sinks — wall-clock values must not reach "
                        "placement-affecting state",
                    )
                )
        for node, message in flagged:
            yield self.violation(pyfile, node, message)

    @staticmethod
    def _sanctioned_attrs(pyfile: PyFile) -> frozenset:
        """The attribute-store sinks sanctioned for this file (obs only)."""
        return (
            _OBS_SANCTIONED_ATTRS
            if "obs" in pyfile.components
            else frozenset()
        )


def _consumption_verdict(
    pyfile: PyFile, node: ast.AST, sanctioned_attrs: frozenset = frozenset()
) -> str:
    """How a timing expression is consumed: ``sink``/``taint``/``escape``.

    Walks outward from ``node``: arithmetic, comparisons and conditional
    expressions are transparent; landing in a timing-sink call argument or
    a pure control-flow test is fine; landing in an assignment to plain
    names taints them; anything else (return, attribute store, non-sink
    call argument, subscript, ...) escapes — except a store to a
    ``self.<attr>`` in ``sanctioned_attrs``, which is a sink (the span
    start-time stash, see :data:`_OBS_SANCTIONED_ATTRS`).
    """
    child: ast.AST = node
    for ancestor in iter_parents(pyfile, child):
        if isinstance(ancestor, ast.Call):
            in_args = child in ancestor.args or child in [
                keyword.value for keyword in ancestor.keywords
            ]
            if in_args:
                func = ancestor.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else getattr(func, "id", "")
                )
                return "sink" if name in _TIME_SINKS else "escape"
            child = ancestor
            continue
        if isinstance(
            ancestor, (ast.BinOp, ast.UnaryOp, ast.IfExp, ast.Compare, ast.BoolOp)
        ):
            child = ancestor
            continue
        if isinstance(ancestor, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                ancestor.targets
                if isinstance(ancestor, ast.Assign)
                else [ancestor.target]
            )
            if all(isinstance(target, ast.Name) for target in targets):
                return "taint"
            if sanctioned_attrs and all(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in sanctioned_attrs
                for target in targets
            ):
                return "sink"
            return "escape"
        if isinstance(ancestor, (ast.Expr, ast.If, ast.While, ast.Assert)):
            return "sink"  # bare statement or pure control-flow comparison
        return "escape"
    return "escape"


def _assignment_target(pyfile: PyFile, node: ast.AST) -> Optional[str]:
    for ancestor in iter_parents(pyfile, node):
        if isinstance(ancestor, ast.Assign) and isinstance(
            ancestor.targets[0], ast.Name
        ):
            return ancestor.targets[0].id
        if isinstance(ancestor, (ast.AugAssign, ast.AnnAssign)) and isinstance(
            ancestor.target, ast.Name
        ):
            return ancestor.target.id
    return None
