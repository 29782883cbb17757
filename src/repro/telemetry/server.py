"""Asyncio socket server streaming live telemetry from a running point.

Threading model (the whole design in one paragraph): the asyncio event
loop runs in a daemon thread and owns every socket — it accepts
clients, decodes their commands, and performs all writes.  The
simulation thread owns the simulator, the :class:`~repro.telemetry.tap
.ProbeTap`, and the live session; it never touches a socket.  The two
meet at exactly two seams: commands travel loop→sim through a
``collections.deque`` inbox drained by the kernel's run-loop poll
callback (GIL-atomic appends, no lock), and frames/replies travel
sim→loop through ``loop.call_soon_threadsafe``.  Because the poll
callback runs only at commit boundaries, every command observes — and
a paused client mutates — the machine at the same well-defined instant
a schedule rule would, which is what makes a live ``pause → set →
resume`` bit-identical to the equivalent scheduled-knob run.

Pause protocol: ``pause`` (optionally ``{"at": C}``) arms a transient
commit-boundary hook; when it fires the simulation thread parks in a
drain loop — still inside ``Simulator.run`` — answering ``sample`` /
``get`` / ``set`` / ``checkpoint`` commands until ``resume``.  A pause
at cycle ``C`` leaves ``sim.cycle == C + 1``, exactly where a
``schedule.at(C)`` rule runs its actions, so knob writes made while
paused take effect on the same cycle the scheduled write would.  The
session auto-resumes when the last client disconnects or the server
stops, so an abandoned pause can never wedge a run.

Nothing here is simulated state: telemetry hooks are transient
(snapshot-invisible), frames never enter the control digest, and with
no subscription attached the only residue is one ``poll is not None``
test per run-loop iteration.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from repro.control.knobs import KnobError
from repro.control.probes import ProbeError
from repro.telemetry.tap import ProbeTap, TapError, TapFrame
from repro.telemetry.wire import WireError, MessageDecoder, encode_message

PROTOCOL_VERSION = 1


class TelemetryError(Exception):
    """Server lifecycle misuse or a failed live-session operation."""


class _Client:
    """Loop-thread view of one connected consumer."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.decoder = MessageDecoder()
        self.alive = True
        self.watching = False  # subscribed to the default frame stream

    def write(self, data: bytes) -> None:
        """Queue *data* on the transport (loop thread only)."""
        if not self.alive:
            return
        try:
            self.writer.write(data)
        except (ConnectionError, RuntimeError):
            self.alive = False


class TelemetryServer:
    """Owns the listening socket and the connected clients.

    Start once per process (``start()``/``stop()``); attach one live
    point at a time with :meth:`live_point`.  Clients may connect
    before, during, or between points — a command arriving while no
    point is live is answered with an error instead of queueing.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self.address: Optional[tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._clients: list[_Client] = []
        self._clients_lock = threading.Lock()
        self._session: Optional[_LiveSession] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns ``(host, port)``."""
        if self._thread is not None:
            raise TelemetryError("telemetry server already started")
        self._thread = threading.Thread(
            target=self._main, name="telemetry-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            self._thread = None
            raise TelemetryError(
                f"cannot bind telemetry server on "
                f"{self.host}:{self.port}: {self._start_error}"
            )
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        """Say goodbye to every client and shut the loop down."""
        if self._thread is None or self._stopped:
            return
        self._stopped = True
        session = self._session
        if session is not None:
            session.wake()
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._shutdown)
        self._thread.join(timeout=5.0)
        self._thread = None

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
        except OSError as exc:
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def _shutdown(self) -> None:
        bye = encode_message({"type": "bye"})
        with self._clients_lock:
            clients = list(self._clients)
        for client in clients:
            client.write(bye)
            client.alive = False
            client.writer.close()
        if self._server is not None:
            self._server.close()
        assert self._loop is not None
        self._loop.stop()

    # ------------------------------------------------------------------
    # client handling (loop thread)
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _Client(writer)
        with self._clients_lock:
            self._clients.append(client)
        session = self._session
        client.write(encode_message({
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "live": session is not None,
            "point": session.label if session is not None else None,
            "probes": list(session.default_paths) if session else [],
        }))
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    messages = client.decoder.feed(data)
                except WireError:
                    break  # corrupt peer; drop the connection
                for message in messages:
                    self._dispatch(client, message)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            client.alive = False
            with self._clients_lock:
                if client in self._clients:
                    self._clients.remove(client)
            session = self._session
            if session is not None:
                session.enqueue(client, {"type": "_disconnect"})
            writer.close()

    def _dispatch(self, client: _Client, message: dict) -> None:
        session = self._session
        if session is None:
            reply: dict[str, Any] = {
                "type": "error", "message": "no live point attached",
            }
            if "id" in message:
                reply["id"] = message["id"]
            client.write(encode_message(reply))
            return
        session.enqueue(client, message)

    # ------------------------------------------------------------------
    # sim-thread helpers
    # ------------------------------------------------------------------
    def post(self, client: _Client, data: bytes) -> None:
        """Hand *data* to the loop thread for writing to *client*."""
        loop = self._loop
        if loop is None or self._stopped:
            return
        try:
            loop.call_soon_threadsafe(client.write, data)
        except RuntimeError:
            pass  # loop already closed

    def clients(self) -> list[_Client]:
        with self._clients_lock:
            return [c for c in self._clients if c.alive]

    def has_clients(self) -> bool:
        return bool(self.clients())

    def broadcast(self, message: dict) -> None:
        data = encode_message(message)
        for client in self.clients():
            self.post(client, data)

    # ------------------------------------------------------------------
    # live-point attachment
    # ------------------------------------------------------------------
    @contextmanager
    def live_point(
        self,
        system,
        *,
        label: str,
        default_watch: Optional[tuple[Sequence[str], int, Optional[int]]]
        = None,
        meta_fn: Optional[Callable[[], dict]] = None,
    ):
        """Attach one running point to this server for its lifetime.

        *default_watch* is ``(patterns, every, start)`` — normally the
        scenario's ``[probes]`` section — establishing the broadcast
        frame stream clients opt into with a bare ``watch``.  *meta_fn*
        supplies the metadata dict stored in checkpoints written over
        the socket (the same shape ``--checkpoint-every`` files use, so
        ``run --resume`` accepts them unchanged).
        """
        if self._thread is None or self._stopped:
            raise TelemetryError("telemetry server is not running")
        if self._session is not None:
            raise TelemetryError("a live point is already attached")
        if system.control is None:
            raise TelemetryError(
                "live telemetry needs a control plane "
                "(system built with control=False)"
            )
        session = _LiveSession(
            self, system, label=label, default_watch=default_watch,
            meta_fn=meta_fn,
        )
        self._session = session
        # The inbox doubles as the poll gate: an idle attached run pays
        # one C-level truthiness test per iteration, and poll() only
        # runs when a command (or the pause sentinel) is queued.
        system.sim.set_poll(session.poll, gate=session._inbox)
        self.broadcast({"type": "point", "label": label})
        try:
            yield session
        finally:
            system.sim.clear_poll()
            self._session = None
            session.close()


class _LiveSession:
    """Sim-thread state of the currently attached point."""

    def __init__(
        self,
        server: TelemetryServer,
        system,
        *,
        label: str,
        default_watch: Optional[tuple[Sequence[str], int, Optional[int]]],
        meta_fn: Optional[Callable[[], dict]],
    ) -> None:
        self.server = server
        self.system = system
        self.sim = system.sim
        self.control = system.control
        self.label = label
        self.meta_fn = meta_fn
        self.tap = ProbeTap(self.sim, self.control.probes)
        self._inbox: deque = deque()
        self._wake = threading.Event()
        self._paused = False
        self._closed = False
        # (client, request id) pairs owed a "paused" reply once the
        # pending pause lands at its boundary.
        self._pause_waiters: list[tuple[_Client, Any]] = []
        self.default_paths: tuple[str, ...] = ()
        self._default_sub = None
        # (host time, cycle) of the last health frame, for the
        # cycles/sec rate; None until the first frame goes out.
        self._health_prev: Optional[tuple[float, int]] = None
        if default_watch is not None:
            patterns, every, start = default_watch
            self._default_sub = self.tap.subscribe(
                self._broadcast_frame, patterns, every=every, start=start,
                label="probes",
            )
            self.default_paths = self._default_sub.paths

    # ------------------------------------------------------------------
    # loop-thread entry points
    # ------------------------------------------------------------------
    def enqueue(self, client: _Client, message: dict) -> None:
        """Append a decoded command (GIL-atomic; loop thread)."""
        self._inbox.append((client, message))
        self._wake.set()

    def wake(self) -> None:
        self._wake.set()

    def wait_for_command(self, timeout: Optional[float] = None) -> bool:
        """Block until a client command is queued (True) or *timeout*
        seconds pass (False; ``None`` waits without a deadline).  A run
        started before, say, a client's ``pause(at=C)`` is queued can
        pass cycle C first; starting the run after this returns True
        closes that window."""
        deadline = None if timeout is None else perf_counter() + timeout
        while not self._inbox:
            left = None if deadline is None else deadline - perf_counter()
            if left is not None and left <= 0:
                break
            self._wake.wait(left)
            self._wake.clear()
        return bool(self._inbox)

    # ------------------------------------------------------------------
    # sim-thread machinery
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Kernel run-loop seam; runs at every commit boundary."""
        if self._inbox:
            self._drain()
        if self._paused:
            self._serve_pause()

    def _drain(self) -> None:
        while self._inbox:
            client, message = self._inbox.popleft()
            if not isinstance(message, dict):
                continue
            if client is None:
                continue  # gate-trip sentinel; its work is done
            if message.get("type") == "_disconnect":
                self.tap.detach_all(owner=client)
                client.watching = False
                continue
            self._handle(client, message)

    def _serve_pause(self) -> None:
        """Park at this commit boundary until resumed (or abandoned)."""
        self._notify_paused()
        while self._paused and not self._closed:
            if self.server._stopped or not self.server.has_clients():
                self._paused = False  # auto-resume: never wedge a run
                break
            self._drain()
            if self._paused:
                self._wake.wait(0.1)
                self._wake.clear()

    def _notify_paused(self) -> None:
        for client, request_id in self._pause_waiters:
            self._reply(client, request_id,
                        {"type": "paused", "cycle": self.sim.cycle})
        self._pause_waiters.clear()

    def _broadcast_frame(self, frame: TapFrame) -> None:
        message = {
            "type": "frame",
            "point": self.label,
            "label": frame.label,
            "cycle": frame.cycle,
            "values": frame.values,
        }
        data = encode_message(message)
        watchers = [c for c in self.server.clients() if c.watching]
        for client in watchers:
            self.server.post(client, data)
        if watchers:
            health = encode_message(self._health_message(frame.cycle))
            for client in watchers:
                self.server.post(client, health)

    def _health_message(self, cycle: int) -> dict:
        """Execution-health frame, piggybacked on the probe stream.

        Host-side throughput and kernel-strategy numbers (DESIGN.md
        section 15) — never probe values, never part of any digest.
        The first frame of a point has no rate yet
        (``cycles_per_sec`` is None until two samples exist).
        """
        now = perf_counter()
        sim = self.sim
        rate = None
        prev = self._health_prev
        if prev is not None:
            elapsed = now - prev[0]
            if elapsed > 0.0:
                rate = (cycle - prev[1]) / elapsed
        self._health_prev = (now, cycle)
        replay = 100.0 * sim.span_cycles_replayed / cycle if cycle else 0.0
        return {
            "type": "health",
            "point": self.label,
            "cycle": cycle,
            "cycles_per_sec": rate,
            "active": len(sim._active),
            "span_replay_percent": replay,
        }

    def _reply(self, client: _Client, request_id: Any,
               message: dict) -> None:
        if request_id is not None:
            message["id"] = request_id
        self.server.post(client, encode_message(message))

    # ------------------------------------------------------------------
    # command handling (sim thread, always at a commit boundary)
    # ------------------------------------------------------------------
    def _handle(self, client: _Client, message: dict) -> None:
        request_id = message.get("id")
        kind = message.get("type")
        try:
            handler = getattr(self, f"_cmd_{kind}", None)
            if handler is None:
                raise TelemetryError(f"unknown command {kind!r}")
            reply = handler(client, message)
        except (TelemetryError, TapError, ProbeError, KnobError) as exc:
            self._reply(client, request_id,
                        {"type": "error", "message": str(exc)})
            return
        if reply is not None:
            self._reply(client, request_id, reply)

    def _cmd_watch(self, client: _Client,
                   message: dict) -> Optional[dict]:
        patterns = message.get("sample") or ()
        if not patterns:
            if self._default_sub is None:
                raise TelemetryError(
                    "point declares no [probes] stream; pass sample "
                    "patterns to watch"
                )
            client.watching = True
            return {"type": "ok", "paths": list(self.default_paths),
                    "every": self._default_sub.every,
                    "label": self._default_sub.label}
        every = message.get("every")
        if every is None:
            raise TelemetryError("custom watch needs an 'every' period")
        label = message.get("label") or "watch"
        data_consumer = self._client_frame_consumer(client)
        sub = self.tap.subscribe(
            data_consumer, patterns, every=int(every),
            start=message.get("start"), label=label, owner=client,
        )
        return {"type": "ok", "paths": list(sub.paths),
                "every": sub.every, "label": sub.label}

    def _client_frame_consumer(self, client: _Client):
        def consume(frame: TapFrame) -> None:
            self.server.post(client, encode_message({
                "type": "frame",
                "point": self.label,
                "label": frame.label,
                "cycle": frame.cycle,
                "values": frame.values,
            }))
        return consume

    def _cmd_unwatch(self, client: _Client,
                     message: dict) -> Optional[dict]:
        label = message.get("label")
        dropped = 0
        if label is None or label == "probes":
            if client.watching:
                client.watching = False
                dropped += 1
        if label is None:
            dropped += len(self.tap.detach_all(owner=client))
        else:
            for sub in list(self.tap.subscriptions):
                if sub.owner is client and sub.label == label:
                    self.tap.unsubscribe(sub)
                    dropped += 1
        if not dropped:
            raise TelemetryError(f"nothing to unwatch ({label!r})")
        return {"type": "ok", "dropped": dropped}

    def _cmd_sample(self, client: _Client,
                    message: dict) -> Optional[dict]:
        patterns = message.get("sample") or ()
        values = self.control.probes.sample(*patterns)
        return {"type": "ok", "cycle": self.sim.cycle, "values": values}

    def _cmd_get(self, client: _Client, message: dict) -> Optional[dict]:
        path = message.get("path")
        if not path:
            raise TelemetryError("get needs a knob 'path'")
        return {"type": "ok", "path": path,
                "value": self.control.knobs.get(path)}

    def _cmd_set(self, client: _Client, message: dict) -> Optional[dict]:
        if not self._paused:
            raise TelemetryError(
                "knob writes require a paused simulation (send 'pause' "
                "first; a paused write lands exactly like a scheduled "
                "one at this boundary)"
            )
        path = message.get("path")
        if not path or "value" not in message:
            raise TelemetryError("set needs a knob 'path' and 'value'")
        self.control.knobs.set(path, message["value"])
        return {"type": "ok", "path": path,
                "value": self.control.knobs.get(path)}

    def _cmd_pause(self, client: _Client,
                   message: dict) -> Optional[dict]:
        request_id = message.get("id")
        if self._paused:
            return {"type": "paused", "cycle": self.sim.cycle}
        at = message.get("at")
        if at is None:
            # Land at this very boundary: poll() enters the pause drain
            # right after this drain pass finishes.
            self._paused = True
            self._pause_waiters.append((client, request_id))
            return None
        at = int(at)
        if at < self.sim.cycle:
            raise TelemetryError(
                f"cycle {at} already committed (now at {self.sim.cycle})"
            )

        def land(committed: int) -> None:
            if self._closed:
                return
            self._paused = True
            self._pause_waiters.append((client, request_id))
            # Trip the poll gate: hooks fire mid-step, and the park must
            # happen in poll() at the loop top — the very next commit
            # boundary, where a schedule rule's effects are visible.
            self._inbox.append((None, {"type": "_park"}))

        self.sim.call_at_transient(at, land)
        return None

    def _cmd_resume(self, client: _Client,
                    message: dict) -> Optional[dict]:
        if not self._paused:
            raise TelemetryError("not paused")
        self._paused = False
        return {"type": "resumed", "cycle": self.sim.cycle}

    def _cmd_checkpoint(self, client: _Client,
                        message: dict) -> Optional[dict]:
        if not self._paused:
            raise TelemetryError(
                "checkpoints over the socket require a paused simulation"
            )
        path = message.get("path")
        if not path:
            raise TelemetryError("checkpoint needs a file 'path'")
        from repro.snapshot import (
            SnapshotError, capture_simulator, save_checkpoint,
        )

        try:
            state = capture_simulator(self.sim)
            meta = self.meta_fn() if self.meta_fn is not None else {}
            save_checkpoint(path, state, meta=meta)
        except (SnapshotError, OSError) as exc:
            raise TelemetryError(f"checkpoint failed: {exc}") from exc
        return {"type": "ok", "path": str(path), "cycle": self.sim.cycle}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End of the point: flush, notify, detach (sim thread)."""
        self._closed = True
        self._paused = False
        self._drain()
        for client, request_id in self._pause_waiters:
            self._reply(client, request_id, {
                "type": "error",
                "message": "run ended before the pause cycle",
            })
        self._pause_waiters.clear()
        self.tap.detach_all()
        self.server.broadcast({"type": "end", "point": self.label,
                               "cycle": self.sim.cycle})
