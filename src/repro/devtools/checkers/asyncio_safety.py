"""asyncio-safety: nothing may block the serve event loop.

``repro.serve`` runs one event loop for every connection; a single
blocking call inside an ``async def`` stalls *every* client (the perf
ledger's ``served-caida`` numbers assume the loop always accepts while the
summary executor grinds).  The summary itself is pipe-backed
and blocking, which is why all summary work must go through the
single-thread executor (``self._run``).  This rule statically enforces
the contract inside every ``async def`` in ``serve/``:

* **no sync sleeps or sync I/O**: ``time.sleep``, ``socket.*``
  connect/accept/recv/send families, ``subprocess``/``os.system``,
  ``open()``/``Path.read_*``/``Path.write_*``, ``select.select``;
* **no blocking joins**: ``fut.result()``, ``thread.join()`` (bare or
  with ``timeout=``; ``str.join(iterable)`` is not flagged),
  ``executor.shutdown(wait=True)``, ``event.wait()``;
* **no direct summary calls off the executor**: ``*.summary.method(...)``
  must be wrapped in ``run_in_executor`` (the server's ``_run``) — the
  worker pipes block and their FIFO discipline is the consistency
  argument;
* **no sync lock held across an await**: a ``with <...lock...>:`` block
  (name containing "lock") whose body awaits parks the lock across a
  scheduling point and can deadlock the loop.

Awaited calls are never flagged (``await loop.run_in_executor(...)`` is
the pattern this rule pushes toward).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.devtools.framework import Checker, PyFile, Violation, iter_parents

__all__ = ["AsyncioSafetyChecker"]

#: Dotted call paths that always block.
_BLOCKING_PATHS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.waitpid",
        "select.select",
        "sleep",  # `from time import sleep`
    }
)
#: Method names that block regardless of receiver (socket/file objects).
_BLOCKING_METHODS = frozenset(
    {
        "recv",
        "recv_into",
        "sendall",
        "accept",
        "connect",
        "read_text",
        "read_bytes",
        "write_text",
        "write_bytes",
    }
)


def _call_path(node: ast.Call) -> str:
    parts: List[str] = []
    current: ast.AST = node.func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    return ".".join(reversed(parts))


def _is_awaited(pyfile: PyFile, node: ast.Call) -> bool:
    parent = pyfile.parent(node)
    return isinstance(parent, ast.Await)


def _receiver_name(node: ast.Call) -> str:
    """Name of the object a method is called on (``self._executor`` → ``_executor``)."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return ""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return ""


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


class AsyncioSafetyChecker(Checker):
    rule = "asyncio-safety"
    description = (
        "no blocking calls, direct summary calls, or sync locks held "
        "across await inside serve/ coroutines"
    )
    scope = ("serve",)

    def check_file(self, pyfile: PyFile) -> Iterator[Violation]:
        for node in pyfile.walk():
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(pyfile, node)

    def _check_coroutine(
        self, pyfile: PyFile, coroutine: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        for node in _scope_nodes(coroutine):
            if isinstance(node, ast.Call) and not _is_awaited(pyfile, node):
                problem = self._blocking_problem(node)
                if problem is not None:
                    yield self.violation(
                        pyfile,
                        node,
                        f"{problem} inside `async def {coroutine.name}` blocks "
                        "the event loop — move it behind "
                        "run_in_executor/asyncio equivalents",
                    )
                    continue
                summary_method = self._summary_call(node)
                if summary_method is not None:
                    yield self.violation(
                        pyfile,
                        node,
                        f"direct summary call .summary.{summary_method}(...) "
                        f"inside `async def {coroutine.name}` — summary "
                        "operations block on worker pipes and must go "
                        "through the single-thread executor",
                    )
            elif isinstance(node, ast.With):
                yield from self._check_lock_across_await(pyfile, coroutine, node)

    def _blocking_problem(self, node: ast.Call) -> Optional[str]:
        path = _call_path(node)
        if path in _BLOCKING_PATHS:
            return f"blocking call {path}()"
        tail = path.rsplit(".", 1)[-1]
        if tail in _BLOCKING_METHODS and isinstance(node.func, ast.Attribute):
            return f"blocking method .{tail}()"
        if path == "open" or tail == "open":
            return "sync file open()"
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "result":
                return "Future.result() (blocking join)"
            if node.func.attr == "join" and (
                not node.args or any(k.arg == "timeout" for k in node.keywords)
            ):
                # str.join takes exactly one positional and no timeout=.
                return "thread/process .join()"
            if node.func.attr == "wait" and not node.args:
                receiver = _receiver_name(node)
                if "event" in receiver.lower() or "thread" in receiver.lower():
                    return f"{receiver}.wait() (blocking)"
            if node.func.attr == "shutdown" and any(
                keyword.arg == "wait"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            ):
                return "executor .shutdown(wait=True) (joins worker threads)"
        return None

    def _summary_call(self, node: ast.Call) -> Optional[str]:
        """``<anything>.summary.<method>(...)`` → the method name."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "summary"
        ):
            return func.attr
        return None

    def _check_lock_across_await(
        self, pyfile: PyFile, coroutine: ast.AsyncFunctionDef, node: ast.With
    ) -> Iterator[Violation]:
        holds_lock = any(
            "lock" in _context_name(item.context_expr).lower()
            for item in node.items
        )
        if not holds_lock:
            return
        for inner in ast.walk(node):
            if isinstance(inner, ast.Await):
                yield self.violation(
                    pyfile,
                    node,
                    f"sync lock held across `await` in `async def "
                    f"{coroutine.name}` — the lock parks on the loop across "
                    "a scheduling point (use asyncio.Lock, or don't await "
                    "under the lock)",
                )
                return


def _context_name(expr: ast.AST) -> str:
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""
