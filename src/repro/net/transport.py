"""Live asyncio transport for the sans-IO protocol state machines.

The discrete-event :class:`~repro.net.network.SimNetwork` is used by the
benchmark harness; this module runs the *same* protocol objects on a real
asyncio event loop so the examples can demonstrate PoE executing end to
end in wall-clock time.  Nodes communicate through in-process queues; an
optional artificial delay emulates network latency.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.protocols.base import (
    Broadcast,
    CancelTimer,
    ClientNode,
    Message,
    ProtocolNode,
    Send,
    SetTimer,
)

AnyNode = Union[ProtocolNode, ClientNode]


@dataclass
class AsyncNode:
    """Wrapper pairing a sans-IO node with its asyncio machinery."""

    node: AnyNode
    is_replica: bool
    inbox: "asyncio.Queue[Tuple[str, Message]]" = field(default_factory=asyncio.Queue)
    timers: Dict[str, asyncio.TimerHandle] = field(default_factory=dict)
    task: Optional[asyncio.Task] = None


class AsyncTransport:
    """Runs protocol nodes concurrently on the running asyncio event loop."""

    def __init__(self, latency_ms: float = 0.0) -> None:
        self.latency_ms = latency_ms
        self._nodes: Dict[str, AsyncNode] = {}
        self._replica_ids: List[str] = []
        self._running = False
        self.delivered_count = 0

    # -- registration ----------------------------------------------------------
    def add_replica(self, node: ProtocolNode) -> None:
        self._nodes[node.node_id] = AsyncNode(node=node, is_replica=True)
        self._replica_ids.append(node.node_id)

    def add_client(self, node: ClientNode) -> None:
        self._nodes[node.node_id] = AsyncNode(node=node, is_replica=False)

    def node(self, node_id: str) -> AnyNode:
        return self._nodes[node_id].node

    # -- lifecycle --------------------------------------------------------------
    async def start(self) -> None:
        """Boot every node and start their message pumps."""
        self._running = True
        for node_id, wrapper in self._nodes.items():
            wrapper.task = asyncio.create_task(self._pump(node_id))
        for node_id, wrapper in self._nodes.items():
            output = wrapper.node.start(self._now_ms())
            if output.actions:
                self._apply_actions(node_id, wrapper, output.actions)

    async def stop(self) -> None:
        """Cancel message pumps and timers."""
        self._running = False
        for wrapper in self._nodes.values():
            for handle in wrapper.timers.values():
                handle.cancel()
            wrapper.timers.clear()
            if wrapper.task is not None:
                wrapper.task.cancel()
        await asyncio.gather(
            *(w.task for w in self._nodes.values() if w.task is not None),
            return_exceptions=True,
        )

    async def run_for(self, seconds: float) -> None:
        """Let the system run for *seconds* of wall-clock time."""
        await asyncio.sleep(seconds)

    def _now_ms(self) -> float:
        return asyncio.get_event_loop().time() * 1000.0

    # -- plumbing ----------------------------------------------------------------
    async def _pump(self, node_id: str) -> None:
        wrapper = self._nodes[node_id]
        node = wrapper.node
        while True:
            sender, message = await wrapper.inbox.get()
            if node.crashed:
                continue
            self.delivered_count += 1
            output = node.deliver(sender, message, self._now_ms())
            if output.actions:
                self._apply_actions(node_id, wrapper, output.actions)

    def _apply_actions(self, node_id: str, wrapper: AsyncNode,
                       actions: List[object]) -> None:
        for action in actions:
            if isinstance(action, Send):
                self._post(node_id, action.to, action.message)
            elif isinstance(action, Broadcast):
                for receiver in self._replica_ids:
                    if receiver == node_id and not action.include_self:
                        continue
                    self._post(node_id, receiver, action.message)
            elif isinstance(action, SetTimer):
                self._arm_timer(node_id, wrapper, action)
            elif isinstance(action, CancelTimer):
                handle = wrapper.timers.pop(action.name, None)
                if handle is not None:
                    handle.cancel()

    def _post(self, sender: str, receiver: str, message: Message) -> None:
        target = self._nodes.get(receiver)
        if target is None or target.node.crashed:
            return
        if self.latency_ms > 0:
            loop = asyncio.get_event_loop()
            loop.call_later(
                self.latency_ms / 1000.0,
                lambda: target.inbox.put_nowait((sender, message)),
            )
        else:
            target.inbox.put_nowait((sender, message))

    def _arm_timer(self, node_id: str, wrapper: AsyncNode, action: SetTimer) -> None:
        existing = wrapper.timers.pop(action.name, None)
        if existing is not None:
            existing.cancel()
        loop = asyncio.get_event_loop()

        def fire() -> None:
            wrapper.timers.pop(action.name, None)
            if wrapper.node.crashed or not self._running:
                return
            output = wrapper.node.timer_fired(action.name, action.payload,
                                              self._now_ms())
            if output.actions:
                self._apply_actions(node_id, wrapper, output.actions)

        wrapper.timers[action.name] = loop.call_later(action.delay_ms / 1000.0, fire)
