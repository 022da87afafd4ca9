"""Newline-delimited JSON-RPC 2.0 over TCP or unix sockets.

The control plane (:mod:`repro.ctrl`) speaks the same wire protocol the
icdev A2A layer uses between agents: JSON-RPC 2.0, one JSON object per
line. A request is ``{"jsonrpc": "2.0", "id": N, "method": "...",
"params": {...}}``; the response echoes the ``id`` with either a
``result`` or an ``error`` object (``{"code": int, "message": str}``).
Requests without an ``id`` are notifications and get no response.

Two endpoints:

:class:`RpcServer`
    A threaded accept loop: one daemon thread accepts connections, one
    daemon thread per connection reads frames and dispatches each
    request to the ``handler(method, params)`` callable. Exceptions
    raised by the handler are mapped to JSON-RPC error objects — a
    :class:`~repro.errors.ReproError` becomes a ``SERVER_ERROR`` with
    the exception message, anything else an ``INTERNAL_ERROR`` naming
    the exception type — so a bad request can never kill the daemon.

:class:`RpcClient`
    A connection with **request-id correlation**: a background reader
    thread matches responses to in-flight calls by ``id``, so multiple
    threads can share one client and responses may arrive out of order.
    Every :meth:`RpcClient.call` takes a bounded timeout
    (:class:`~repro.errors.RpcTimeout` on expiry) — a hung peer never
    blocks a caller forever.

Addresses are strings: ``"host:port"`` binds/connects TCP (port 0 binds
an ephemeral port, read the real one back from
:attr:`RpcServer.address`) and ``"unix:/path"`` a unix domain socket.

Values ride as JSON. Non-finite floats (a faulted node's NaN telemetry)
use Python's permissive JSON extension — both ends of the wire are this
module, so ``NaN`` round-trips. Numpy scalars are coerced to their
Python equivalents on encode.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, RpcError, RpcTimeout

__all__ = [
    "DEFAULT_TIMEOUT_S",
    "MAX_FRAME_BYTES",
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "SERVER_ERROR",
    "INTERNAL_ERROR",
    "RpcRemoteError",
    "RpcMethodNotFound",
    "RpcInvalidParams",
    "RpcParamSpec",
    "RpcMethodSpec",
    "method_spec",
    "RpcServer",
    "RpcClient",
    "parse_address",
]

#: Default per-call deadline; every call is bounded (see RpcClient.call).
DEFAULT_TIMEOUT_S = 5.0

#: Upper bound on one newline-delimited frame; a peer streaming garbage
#: (or an accidental non-protocol client) is disconnected, not buffered.
MAX_FRAME_BYTES = 8 * 1024 * 1024

# JSON-RPC 2.0 error codes (plus the implementation-defined -32000 range).
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
SERVER_ERROR = -32000


class RpcRemoteError(RpcError):
    """The server answered with a JSON-RPC error object."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = int(code)


class RpcMethodNotFound(RpcError):
    """Raised by a dispatcher for an unknown method (maps to -32601)."""

    rpc_code = METHOD_NOT_FOUND


class RpcInvalidParams(RpcError):
    """Raised by a dispatcher for malformed params (maps to -32602)."""

    rpc_code = INVALID_PARAMS


@dataclass(frozen=True)
class RpcParamSpec:
    """One declared parameter of an RPC method (documentation schema)."""

    name: str
    type: str
    description: str


@dataclass(frozen=True)
class RpcMethodSpec:
    """Schema for one RPC method, mirrored in ``docs/control_plane.md``.

    The coordinator and node agent each publish a method registry built
    from these specs; ``tests/test_ctrl_doc.py`` diffs the doc's method
    tables against them, the same way the observability doc is pinned to
    the event registry.
    """

    name: str
    description: str
    returns: str
    params: Tuple[RpcParamSpec, ...]


def method_spec(name: str, description: str, returns: str, *params) -> RpcMethodSpec:
    """Shorthand builder mirroring :func:`repro.obs.events._spec`."""
    return RpcMethodSpec(
        name, description, returns, tuple(RpcParamSpec(*p) for p in params)
    )


def parse_address(address: str) -> Tuple[str, Any]:
    """Parse ``"host:port"`` (TCP) or ``"unix:/path"`` into a family tuple.

    Returns ``("tcp", (host, port))`` or ``("unix", path)``.
    """
    if not isinstance(address, str) or not address:
        raise ConfigurationError(f"invalid RPC address {address!r}")
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ConfigurationError(f"unix address missing a path: {address!r}")
        return "unix", path
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"TCP address must be host:port (or unix:/path), got {address!r}"
        )
    try:
        return "tcp", (host, int(port))
    except ValueError as exc:
        raise ConfigurationError(f"invalid port in address {address!r}") from exc


def _json_default(obj: Any) -> Any:
    """Coerce numpy scalars/arrays so telemetry payloads serialise."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serialisable: {type(obj).__name__}: {obj!r}")


def _encode(message: Dict[str, Any]) -> bytes:
    return json.dumps(
        message, separators=(",", ":"), default=_json_default
    ).encode("utf-8") + b"\n"


def _readline(sock_file, limit: int = MAX_FRAME_BYTES) -> bytes:
    """One frame from a buffered socket file; empty bytes on EOF."""
    line = sock_file.readline(limit + 1)
    if len(line) > limit:
        raise RpcError(f"RPC frame exceeds {limit} bytes")
    return line


class RpcServer:
    """Threaded newline-delimited JSON-RPC 2.0 server.

    ``handler(method: str, params: dict) -> result`` serves every
    request; it runs on the per-connection thread, so a slow method
    stalls only its own connection. Construction binds the socket (so
    :attr:`address` is immediately valid); :meth:`start` launches the
    accept loop; :meth:`close` tears everything down and is idempotent.
    """

    def __init__(
        self,
        handler: Callable[[str, Dict[str, Any]], Any],
        bind: str = "127.0.0.1:0",
    ):
        self._handler = handler
        self._family, target = parse_address(bind)
        self._unix_path: Optional[str] = None
        if self._family == "unix":
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(target)
            self._unix_path = target
            self._address = f"unix:{target}"
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(target)
            host, port = self._listener.getsockname()[:2]
            self._address = f"{host}:{port}"
        self._listener.listen(128)
        self._lock = threading.Lock()
        self._conns: Dict[int, socket.socket] = {}
        self._next_conn = 0
        self._closed = False
        self._accept_thread: Optional[threading.Thread] = None
        self._local = threading.local()

    @property
    def address(self) -> str:
        """The bound address (with the real port for ``:0`` binds)."""
        return self._address

    @property
    def running(self) -> bool:
        """Whether the accept loop has been started and not yet closed."""
        return self._accept_thread is not None and not self._closed

    def start(self) -> "RpcServer":
        """Launch the accept loop on a daemon thread (idempotent)."""
        if self._closed:
            raise RpcError("server is closed")
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name=f"rpc-accept:{self._address}",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    def defer_after_reply(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the current request's reply has been flushed.

        Only meaningful from inside a handler: the callback runs on the
        connection's own thread *after* ``sendall`` returns, so a method
        like ``shutdown`` can tear the server down without racing its own
        reply off the wire. Outside a handler, ``fn`` runs immediately.
        """
        deferred = getattr(self._local, "deferred", None)
        if deferred is None:
            fn()
        else:
            deferred.append(fn)

    def close(self) -> None:
        """Stop accepting, drop every connection, release the socket."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns.values())
            self._conns.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._unix_path is not None:
            try:
                import os

                os.unlink(self._unix_path)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._next_conn += 1
                conn_id = self._next_conn
                self._conns[conn_id] = conn
            threading.Thread(
                target=self._serve_connection, args=(conn_id, conn),
                name=f"rpc-conn:{self._address}:{conn_id}", daemon=True,
            ).start()

    def _serve_connection(self, conn_id: int, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        try:
            reader = conn.makefile("rb")
            while True:
                try:
                    line = _readline(reader)
                except (RpcError, OSError, ValueError):
                    return
                if not line:
                    return  # peer closed
                if not line.strip():
                    continue
                self._local.deferred = deferred = []
                try:
                    response = self._handle_frame(line)
                    if response is not None:
                        with write_lock:
                            conn.sendall(response)
                finally:
                    self._local.deferred = None
                for fn in deferred:
                    fn()
        except OSError:
            pass  # connection torn down mid-write
        finally:
            with self._lock:
                self._conns.pop(conn_id, None)
            try:
                conn.close()
            except OSError:
                pass

    def _handle_frame(self, raw: bytes) -> Optional[bytes]:
        try:
            message = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return _encode(self._error(None, PARSE_ERROR, "parse error"))
        if not isinstance(message, dict):
            return _encode(self._error(None, INVALID_REQUEST, "request must be an object"))
        request_id = message.get("id")
        if message.get("jsonrpc") != "2.0":
            return _encode(self._error(request_id, INVALID_REQUEST, "jsonrpc must be '2.0'"))
        method = message.get("method")
        if not isinstance(method, str):
            return _encode(self._error(request_id, INVALID_REQUEST, "method must be a string"))
        params = message.get("params", {})
        if not isinstance(params, dict):
            return _encode(self._error(request_id, INVALID_PARAMS, "params must be an object"))
        try:
            result = self._handler(method, params)
        except Exception as exc:
            if request_id is None:
                return None  # notification: errors are swallowed by spec
            code = getattr(exc, "rpc_code", None)
            if code is None:
                from repro.errors import ReproError

                code = SERVER_ERROR if isinstance(exc, ReproError) else INTERNAL_ERROR
            message_text = (
                str(exc) if code != INTERNAL_ERROR
                else f"{type(exc).__name__}: {exc}"
            )
            return _encode(self._error(request_id, code, message_text))
        if request_id is None:
            return None
        return _encode({"jsonrpc": "2.0", "id": request_id, "result": result})

    @staticmethod
    def _error(request_id: Any, code: int, message: str) -> Dict[str, Any]:
        return {
            "jsonrpc": "2.0",
            "id": request_id,
            "error": {"code": code, "message": message},
        }


class _Pending:
    """One in-flight request awaiting its correlated response."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[Dict[str, Any]] = None

    def resolve(self, response: Dict[str, Any]) -> None:
        self.response = response
        self.event.set()


class RpcClient:
    """One connection to an :class:`RpcServer`, safe to share across threads.

    A background reader thread correlates responses to callers by
    request id, so concurrent :meth:`call`\\ s interleave on one socket.
    The client is *not* auto-reconnecting: once the connection drops,
    every in-flight and future call raises :class:`RpcError` — callers
    that want to retry build a fresh client (the coordinator does this
    per rollout).
    """

    def __init__(self, address: str, timeout_s: float = DEFAULT_TIMEOUT_S):
        if timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s}")
        self.address = address
        self._timeout_s = float(timeout_s)
        family, target = parse_address(address)
        try:
            if family == "unix":
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout_s)
                self._sock.connect(target)
            else:
                self._sock = socket.create_connection(target, timeout=timeout_s)
        except OSError as exc:
            raise RpcError(f"cannot connect to {address}: {exc}") from exc
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._pending: Dict[int, _Pending] = {}
        self._next_id = 0
        self._closed = False
        self._close_reason: Optional[str] = None
        self._reader_thread = threading.Thread(
            target=self._read_loop, name=f"rpc-client:{address}", daemon=True
        )
        self._reader_thread.start()

    def call(
        self,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Any:
        """Invoke ``method`` and return its result within the deadline.

        Raises :class:`RpcTimeout` when the deadline passes,
        :class:`RpcRemoteError` when the server answered with an error
        object, and :class:`RpcError` when the connection died.
        """
        deadline = self._timeout_s if timeout_s is None else float(timeout_s)
        if deadline <= 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {deadline}")
        pending = _Pending()
        with self._lock:
            if self._closed:
                raise RpcError(
                    f"connection to {self.address} is closed"
                    + (f" ({self._close_reason})" if self._close_reason else "")
                )
            self._next_id += 1
            request_id = self._next_id
            self._pending[request_id] = pending
            frame = _encode(
                {
                    "jsonrpc": "2.0",
                    "id": request_id,
                    "method": method,
                    "params": params or {},
                }
            )
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                self._pending.pop(request_id, None)
                raise RpcError(f"send to {self.address} failed: {exc}") from exc
        if not pending.event.wait(deadline):
            with self._lock:
                self._pending.pop(request_id, None)
            raise RpcTimeout(
                f"{method} on {self.address} timed out after {deadline:g}s"
            )
        response = pending.response
        if response is None:  # connection died while waiting
            raise RpcError(
                f"connection to {self.address} closed during {method!r}"
                + (f" ({self._close_reason})" if self._close_reason else "")
            )
        if "error" in response:
            error = response["error"] or {}
            raise RpcRemoteError(
                int(error.get("code", SERVER_ERROR)),
                str(error.get("message", "unknown remote error")),
            )
        return response.get("result")

    def notify(self, method: str, params: Optional[Dict[str, Any]] = None) -> None:
        """Fire-and-forget notification (no id, no response)."""
        with self._lock:
            if self._closed:
                raise RpcError(f"connection to {self.address} is closed")
            frame = _encode(
                {"jsonrpc": "2.0", "method": method, "params": params or {}}
            )
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise RpcError(f"send to {self.address} failed: {exc}") from exc

    def close(self) -> None:
        """Close the connection; in-flight calls fail with RpcError."""
        self._shutdown("closed by caller")

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _read_loop(self) -> None:
        while True:
            try:
                line = _readline(self._reader)
            except (RpcError, OSError, ValueError):
                self._shutdown("read failed")
                return
            if not line:
                self._shutdown("peer closed the connection")
                return
            if not line.strip():
                continue
            try:
                response = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                self._shutdown("malformed frame from peer")
                return
            if not isinstance(response, dict):
                continue
            request_id = response.get("id")
            with self._lock:
                pending = self._pending.pop(request_id, None)
            if pending is not None:
                pending.resolve(response)

    def _shutdown(self, reason: str) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._close_reason = reason
            pending = list(self._pending.values())
            self._pending.clear()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        for entry in pending:
            entry.event.set()  # response stays None -> RpcError in call()
