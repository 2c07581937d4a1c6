"""Sans-IO protocol framework: the contract between a node and its driver.

Every protocol participant (replica, client or client pool) is a state
machine that never touches the network.  A driver — the discrete-event
:class:`~repro.net.network.SimNetwork`, the asyncio
:class:`~repro.net.transport.AsyncTransport`, or a test — reaches a node
through exactly three entry points, all defined once on :class:`Node`,
each returning the step's :class:`StepOutput`:

``start(now_ms)``
    boot; called once (again only after a crash that preceded the boot);
``deliver(sender, message, now_ms)``
    one message arrived from the transport-level *sender*;
``timer_fired(name, payload, now_ms)``
    a timer the node armed earlier expired.

A step's actions accumulate in the node's own ``_pending_actions`` list
and its CPU in ``_pending_cpu_ms`` — the same two attributes whichever
driver runs the step and whether or not a step is in progress — and the
entry point drains both.  A delivery is routed by the exact class of the
message through the node's ``_dispatch`` table (message class -> handler
function, called with the node); a class the table does not name goes to
``on_message``.  A crashed node produces no actions and no CPU time.  A
handler that raises leaves what it had produced so far pending: drivers
treat a raising step as fatal to the run.

``deliver`` is also the specification of the one step a driver may take
apart: :meth:`SimNetwork._deliver <repro.net.network.SimNetwork._deliver>`
makes hundreds of thousands of deliveries a second, most of which produce
no action, so it performs the same four moves in its own frame — charge
the base cost, look the handler up, call it, read the CPU back — and
swaps in a fresh action list only when the step left something in it.

A step leaves the node as a sequence of four action types, which are
final (a driver may match them by exact class; a subclass is an error):
:class:`Send`, :class:`Broadcast` (to every registered replica),
:class:`SetTimer` (arming a name again replaces the earlier timer) and
:class:`CancelTimer`.

CPU is charged by the node and spent by the driver.  A delivery to a
replica starts at ``NodeConfig.base_processing_ms`` (clients start at
zero, the one difference between the two kinds of node); handlers add to
it through ``charge`` / ``add_cpu``; the driver serialises each node's
steps on one virtual worker thread and releases the step's actions when
that CPU time has elapsed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.authenticator import Authenticator
from repro.crypto.cost import CryptoCostModel, CryptoOp

#: Size in bytes of a message that carries no batch payload (paper: ~250 B).
BASE_MESSAGE_SIZE = 250


@dataclass(slots=True)
class Message:
    """Base class for all protocol messages.

    Attributes:
        size_bytes: serialised size used for bandwidth modelling.  Concrete
            messages carrying batches override this at construction time
            (the paper reports 5400 B PROPOSE and 1748 B INFORM messages
            for batches of 100 requests).
    """

    size_bytes: int = field(default=BASE_MESSAGE_SIZE, kw_only=True)


class Action:
    """Marker base class for protocol outputs."""

    __slots__ = ()


@dataclass(slots=True)
class Send(Action):
    """Send *message* to the node identified by *to*."""

    to: str
    message: Message


@dataclass(slots=True)
class Broadcast(Action):
    """Send *message* to every replica (optionally including the sender)."""

    message: Message
    include_self: bool = False


@dataclass(slots=True)
class SetTimer(Action):
    """Arm (or re-arm) the named timer; it fires after *delay_ms*."""

    name: str
    delay_ms: float
    payload: Any = None


@dataclass(slots=True)
class CancelTimer(Action):
    """Cancel the named timer if it is armed."""

    name: str


@dataclass(slots=True)
class StepOutput:
    """Everything one protocol step produced.

    Returned by :meth:`Node.start`, :meth:`Node.deliver` and
    :meth:`Node.timer_fired`.

    Attributes:
        actions: ordered network/timer actions.
        cpu_ms: modelled CPU time the step consumed on the node's worker
            thread (the driver serialises steps per node accordingly).
    """

    actions: List[Action] = field(default_factory=list)
    cpu_ms: float = 0.0

    def sends(self) -> List[Send]:
        return [action for action in self.actions if isinstance(action, Send)]

    def broadcasts(self) -> List[Broadcast]:
        return [action for action in self.actions if isinstance(action, Broadcast)]

    def timers(self) -> List[SetTimer]:
        return [action for action in self.actions if isinstance(action, SetTimer)]


@dataclass(frozen=True)
class ProtocolInfo:
    """Static protocol metadata used to regenerate the paper's Figure 1."""

    name: str
    phases: int
    messages: str
    resilience: str
    requirements: str


class Node(abc.ABC):
    """A sans-IO state machine: action helpers plus the driver entry points.

    Handlers express their effects through ``send`` / ``broadcast`` /
    ``set_timer`` / ``cancel_timer`` and ``add_cpu``, which accumulate
    into ``_pending_actions`` / ``_pending_cpu_ms`` — always the node's
    own, inside a driver's step or outside one (a test calling a handler
    directly).  Whoever ran the handlers drains them: the entry points
    through :meth:`_collect`, the simulated network in its own frame.
    """

    #: CPU charged to every delivery before its handler runs.
    _base_processing_ms = 0.0
    #: Message class -> handler function ``(node, sender, message, now_ms)``;
    #: a class not named here is handled by :meth:`on_message`.  Empty (and
    #: shared, so read-only) unless a subclass builds one per instance:
    #: replicas do.  Functions, not bound methods, so the table references
    #: no node; a driver that wants bound handlers binds its own copy
    #: (:meth:`SimNetwork.add_replica <repro.net.network.SimNetwork.add_replica>`).
    _dispatch: Mapping[type, Any] = MappingProxyType({})

    def __init__(self) -> None:
        self.crashed = False
        self._pending_actions: List[Action] = []
        self._pending_cpu_ms = 0.0

    # -- helpers available to subclasses --------------------------------------
    def send(self, to: str, message: Message) -> None:
        self._pending_actions.append(Send(to=to, message=message))

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        self._pending_actions.append(Broadcast(message=message, include_self=include_self))

    def set_timer(self, name: str, delay_ms: float, payload: Any = None) -> None:
        self._pending_actions.append(SetTimer(name=name, delay_ms=delay_ms, payload=payload))

    def cancel_timer(self, name: str) -> None:
        self._pending_actions.append(CancelTimer(name=name))

    def add_cpu(self, cost_ms: float) -> None:
        self._pending_cpu_ms += max(0.0, cost_ms)

    def _collect(self) -> StepOutput:
        output = StepOutput(actions=self._pending_actions, cpu_ms=self._pending_cpu_ms)
        self._pending_actions = []
        self._pending_cpu_ms = 0.0
        return output

    # -- driver entry points ---------------------------------------------------
    def start(self, now_ms: float) -> StepOutput:
        """Boot the node."""
        self.on_start(now_ms)
        return self._collect()

    def deliver(self, sender: str, message: Message, now_ms: float) -> StepOutput:
        """Deliver *message* from *sender*."""
        if self.crashed:
            return StepOutput()
        self._pending_cpu_ms = self._base_processing_ms
        handler = self._dispatch.get(message.__class__)
        if handler is None:
            self.on_message(sender, message, now_ms)
        else:
            handler(self, sender, message, now_ms)
        return self._collect()

    def timer_fired(self, name: str, payload: Any, now_ms: float) -> StepOutput:
        """A previously armed timer expired."""
        if self.crashed:
            return StepOutput()
        self._pending_cpu_ms = 0.0
        self.on_timer(name, payload, now_ms)
        return self._collect()

    # -- protocol hooks --------------------------------------------------------
    def on_start(self, now_ms: float) -> None:  # pragma: no cover - default no-op
        """Hook invoked once when the node boots."""

    @abc.abstractmethod
    def on_message(self, sender: str, message: Message, now_ms: float) -> None:
        """Handle one delivered message."""

    def on_timer(self, name: str, payload: Any, now_ms: float) -> None:  # pragma: no cover
        """Handle a timer expiry (default: ignore)."""


@dataclass
class NodeConfig:
    """Deployment parameters shared by every protocol node.

    Attributes:
        replica_ids: ordered replica identifiers; index == replica id.
        batch_size: client transactions per consensus slot.
        request_timeout_ms: client/replica timeout before suspecting the
            primary (the paper uses 3 s in the cloud experiments).
        checkpoint_interval: consensus slots between checkpoints.
        execute_operations: if ``True`` the replica really applies
            transactions to its key-value store (tests, examples); if
            ``False`` execution is cost-modelled only (large benchmarks).
        out_of_order: whether the primary may propose slot ``k+1`` before
            slot ``k`` finished (the paper's out-of-order processing).

    The cost model's constants are class attributes, not fields: no
    deployment sets them.
    """

    replica_ids: Sequence[str]
    batch_size: int = 100
    request_timeout_ms: float = 3000.0
    checkpoint_interval: int = 100
    execute_operations: bool = False
    out_of_order: bool = True
    zero_payload: bool = False

    #: Fixed CPU cost of handling any message (queueing, deserialisation):
    #: models the RESILIENTDB pipeline.
    base_processing_ms = 0.008
    #: Modelled CPU cost of executing one YCSB transaction.
    execution_ms_per_txn = 0.002
    #: Cap on concurrently open slots under out-of-order processing
    #: (PBFT's watermark window).
    max_in_flight = 128
    #: Serialized size one request adds to a PROPOSE-like message, and to an
    #: INFORM/REPLY-like one.
    payload_bytes_per_txn = 51.5
    reply_bytes_per_txn = 15.0

    def __post_init__(self) -> None:
        # The id -> index map (quorum bitsets key votes by it) makes
        # resolving a transport-level sender one dict lookup, not an O(n)
        # scan.  It only ever grows: reconfiguration appends indices for
        # joiners (register_replica), so live VoteSets — which hold this
        # dict by reference — resolve joiner votes without rebuilding.
        self.replica_index_map: Dict[str, int] = {
            rid: index for index, rid in enumerate(self.replica_ids)
        }
        # Epoch bookkeeping.  Epoch 0 is the boot membership, active from
        # the first sequence.  Committed reconfiguration records register
        # later epochs idempotently (every honest replica executes the
        # same record, so the shared config converges on one schedule).
        # ``reconfigured`` stays False until an epoch beyond 0 is
        # registered — every epoch-aware code path gates on it, so a
        # fixed-membership deployment runs the exact pre-epoch fast path.
        self.epoch_memberships: Dict[int, Tuple[str, ...]] = {
            0: tuple(self.replica_ids)
        }
        self.epoch_activations: Dict[int, int] = {0: -1}
        self.latest_epoch: int = 0
        self.reconfigured: bool = False

    @property
    def n(self) -> int:
        return len(self.replica_ids)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    @property
    def nf(self) -> int:
        """The paper's ``nf`` quorum: number of non-faulty replicas assumed."""
        return self.n - self.f

    def primary_of_view(self, view: int) -> str:
        """Identifier of the primary for *view* (``id = view mod n``)."""
        return self.replica_ids[view % self.n]

    # -- epoch-indexed membership ------------------------------------------
    def membership(self, epoch: int) -> Tuple[str, ...]:
        """The ordered replica membership of *epoch*."""
        return self.epoch_memberships[epoch]

    def n_of(self, epoch: int) -> int:
        return len(self.epoch_memberships[epoch])

    def f_of(self, epoch: int) -> int:
        return (len(self.epoch_memberships[epoch]) - 1) // 3

    def quorum_of(self, epoch: int) -> int:
        """The ``2 f + 1`` quorum of *epoch*."""
        return 2 * self.f_of(epoch) + 1

    def quorum_of_sequence(self, sequence: int) -> int:
        """The ``2 f + 1`` quorum of the epoch *sequence* belongs to."""
        return self.quorum_of(self.epoch_of_sequence(sequence))

    def primary_of_view_in_epoch(self, view: int, epoch: int) -> str:
        """Primary rotation over the membership of *epoch*."""
        members = self.epoch_memberships[epoch]
        return members[view % len(members)]

    def epoch_of_sequence(self, sequence: int) -> int:
        """The epoch *sequence* belongs to under the registered schedule.

        An epoch activating at boundary ``A`` governs sequences strictly
        greater than ``A`` — the boundary itself (and its checkpoint
        votes) still belongs to the previous epoch.
        """
        if not self.reconfigured:
            return 0
        epoch = 0
        for candidate in range(1, self.latest_epoch + 1):
            if sequence > self.epoch_activations[candidate]:
                epoch = candidate
            else:
                break
        return epoch

    def register_replica(self, replica_id: str) -> int:
        """Ensure *replica_id* has a dense vote index; returns it."""
        index = self.replica_index_map.get(replica_id)
        if index is None:
            index = len(self.replica_index_map)
            self.replica_index_map[replica_id] = index
        return index

    def register_epoch(self, epoch: int, activation_sequence: int,
                       members: Sequence[str]) -> None:
        """Record a committed epoch's membership and activation boundary.

        Idempotent: every honest replica executes the same committed
        record, so repeated registrations carry identical content.
        """
        if epoch in self.epoch_memberships:
            return
        self.epoch_memberships[epoch] = tuple(members)
        self.epoch_activations[epoch] = activation_sequence
        if epoch > self.latest_epoch:
            self.latest_epoch = epoch
        for rid in members:
            self.register_replica(rid)
        self.reconfigured = True

    def proposal_size_bytes(self, num_txns: int) -> int:
        """Serialized size of a proposal carrying *num_txns* transactions."""
        if self.zero_payload:
            return BASE_MESSAGE_SIZE
        return int(BASE_MESSAGE_SIZE + self.payload_bytes_per_txn * num_txns)

    def reply_size_bytes(self, num_txns: int) -> int:
        """Serialized size of a reply/inform message for *num_txns* transactions."""
        if self.zero_payload:
            return BASE_MESSAGE_SIZE
        return int(BASE_MESSAGE_SIZE + self.reply_bytes_per_txn * num_txns)


class ProtocolNode(Node):
    """Base class for replica state machines."""

    #: Subclasses override with their Figure-1 metadata.
    PROTOCOL_INFO: ProtocolInfo = ProtocolInfo(
        name="abstract", phases=0, messages="-", resilience="-", requirements="-"
    )

    def __init__(
        self,
        node_id: str,
        config: NodeConfig,
        authenticator: Authenticator,
        cost_model: Optional[CryptoCostModel] = None,
    ) -> None:
        super().__init__()
        self.node_id = node_id
        self.config = config
        self.auth = authenticator
        self.costs = cost_model or CryptoCostModel()
        # The model's costs as plain floats, indexed by the operation's
        # ordinal, so charging (done several times per message) is a tuple
        # index and a multiply: no method call, and no hashing of an enum
        # member.  The model computed the tuple once; it cannot change.
        self._op_cost_ms = self.costs.op_costs_ms
        self._base_processing_ms = config.base_processing_ms
        # The MAC-verify charge sits on the n² vote-flood hot path; resolve
        # it to a float once so handlers can add it without any lookup.
        self._mac_verify_ms = self._op_cost_ms[CryptoOp.MAC_VERIFY.ordinal]

    # -- convenience ----------------------------------------------------------
    def charge(self, op: CryptoOp, count: int = 1) -> None:
        """Charge the CPU cost of *count* crypto operations to this step."""
        cost = self._op_cost_ms[op.ordinal] * count
        if cost > 0.0:
            self._pending_cpu_ms += cost

    def charge_execution(self, num_txns: int) -> None:
        self.add_cpu(self.config.execution_ms_per_txn * num_txns)


class ClientNode(Node):
    """Base class for client state machines (single clients and pools)."""

    #: A request's retransmission timer doubles per retransmission, up to
    #: ``2 ** BACKOFF_CAP`` times its base timeout.
    BACKOFF_CAP = 4

    def __init__(self, node_id: str, config: NodeConfig,
                 authenticator: Optional[Authenticator] = None) -> None:
        super().__init__()
        self.node_id = node_id
        self.config = config
        self.auth = authenticator
