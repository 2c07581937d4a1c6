"""Tests for auxiliary fabric pieces: registry variants, the echo replica."""


from repro.crypto.authenticator import make_authenticators
from repro.fabric.registry import HotStuffClientPool, get_spec
from repro.fabric.upper_bound import EchoReplica
from repro.protocols.base import NodeConfig
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.workload.transactions import make_no_op_batch

REPLICAS = [f"replica:{i}" for i in range(4)]


class TestRegistryVariants:
    def test_poe_variants_share_the_replica_class(self):
        assert get_spec("poe").replica_cls is get_spec("poe-ts").replica_cls
        assert get_spec("poe").replica_cls is get_spec("poe-nospec").replica_cls

    def test_hotstuff_clients_broadcast_with_f_plus_1_quorum(self):
        config = NodeConfig(replica_ids=list(REPLICAS), batch_size=5)
        pool = HotStuffClientPool("client:0", config, total_batches=1)
        assert pool.broadcast_requests
        assert pool.completion_quorum == config.f + 1
        output = pool.start(0.0)
        assert len(output.broadcasts()) == 1


class TestEchoReplica:
    def _echo(self, execute, worker_threads=2):
        config = NodeConfig(replica_ids=["replica:0"], batch_size=10)
        auths = make_authenticators(["replica:0"], ["client:0"], seed=b"echo")
        return EchoReplica("replica:0", config, auths["replica:0"],
                           execute=execute, worker_threads=worker_threads)

    def test_echo_replies_to_the_client(self):
        replica = self._echo(execute=True)
        batch = make_no_op_batch("b0", "client:0", 10)
        output = replica.deliver(
            "client:0", ClientRequestMessage(batch=batch, reply_to="client:0"), 1.0)
        replies = [send.message for send in output.sends()]
        assert len(replies) == 1
        assert isinstance(replies[0], ClientReplyMessage)
        assert replica.answered_batches == 1

    def test_execution_costs_more_cpu_than_echoing(self):
        executing = self._echo(execute=True)
        echoing = self._echo(execute=False)
        batch = make_no_op_batch("b0", "client:0", 100)
        request = ClientRequestMessage(batch=batch, reply_to="client:0")
        cpu_exec = executing.deliver("client:0", request, 1.0).cpu_ms
        cpu_echo = echoing.deliver("client:0", request, 1.0).cpu_ms
        assert cpu_exec > cpu_echo

    def test_more_worker_threads_reduce_charged_cpu(self):
        single = self._echo(execute=True, worker_threads=1)
        dual = self._echo(execute=True, worker_threads=2)
        batch = make_no_op_batch("b0", "client:0", 100)
        request = ClientRequestMessage(batch=batch, reply_to="client:0")
        assert (dual.deliver("client:0", request, 1.0).cpu_ms
                < single.deliver("client:0", request, 1.0).cpu_ms)

    def test_non_client_messages_are_ignored(self):
        replica = self._echo(execute=True)
        output = replica.deliver("replica:0", ClientReplyMessage(batch_id="x"), 1.0)
        assert output.sends() == []
