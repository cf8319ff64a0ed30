"""hash-once: node/route hashing happens once, at the system edge.

Every node hash and routing hash is computed exactly once, by a sharded
deployment's router (:mod:`repro.cluster.front_end`: the kernel's, or
:class:`~repro.cluster.front_end.PythonFrontEnd`), or for a GSS batch by
the native kernel's text path or by the GSS's node resolver
(``GSS._ingest_nodes``, which hashes only the nodes its reverse index
lacks), and the columns flow untouched through every ingest layer.
The invariant used to be enforced by grep ("no scalar ``hash_key`` left in
any routing loop"); this rule makes it permanent: inside any loop
(``for``/``while`` or a comprehension) in the ingest/routing layers,
calling the scalar hash family re-hashes per item and silently multiplies
the hashing cost the whole pipeline was built to pay once.

Flagged inside loops:

* the scalar hash family from :mod:`repro.hashing.hash_functions`
  (``hash_key``/``hash_string``/``hash_bytes``);
* per-item route computation via ``.shard_of(...)`` — routing a batch
  item-by-item instead of through the router.

The designated hash-once sites (``PythonFrontEnd`` hashes each node its
table does not hold; scalar single-item ``update()`` entry points hash
their one item) carry inline ``allow`` justifications — the point is that
every exception is written down next to the code.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.framework import Checker, PyFile, Violation, iter_parents

__all__ = ["HashOnceChecker"]

#: The scalar hash family (see repro/hashing/hash_functions.py).
_SCALAR_HASHES = frozenset({"hash_key", "hash_string", "hash_bytes"})
_ROUTE_HELPERS = frozenset({"shard_of"})
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)


def _called_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


def _enclosing_loop(pyfile: PyFile, node: ast.AST) -> bool:
    for ancestor in iter_parents(pyfile, node):
        if isinstance(ancestor, _LOOPS + (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A hash call in a nested helper is that helper's business;
            # stop at the function boundary so only *this* body's loops
            # count.
            return False
    return False


class HashOnceChecker(Checker):
    rule = "hash-once"
    description = (
        "no scalar hash_key/re-hashing calls inside routing or ingest loops"
    )
    scope = ("streaming", "cluster", "serve", "core")

    def check_file(self, pyfile: PyFile) -> Iterator[Violation]:
        # The hashing package itself defines and may loop over the family.
        if "hashing" in pyfile.components:
            return
        for node in pyfile.walk():
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in _SCALAR_HASHES and _enclosing_loop(pyfile, node):
                yield self.violation(
                    pyfile,
                    node,
                    f"scalar {name}() inside a loop re-hashes per item — "
                    "hash once at the edge (the Python router) and carry "
                    "the columns through",
                )
            elif name in _ROUTE_HELPERS and _enclosing_loop(pyfile, node):
                yield self.violation(
                    pyfile,
                    node,
                    f"per-item {name}() inside a loop re-routes by scalar "
                    "hash — route batches through the Python router",
                )
