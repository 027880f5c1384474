"""Unit tests for network wiring and topology builders."""

import pytest

from repro.arch.description import BASELINE_PSA
from repro.experiments.factories import make_baseline_switch, make_sume_switch
from repro.net.host import Host
from repro.net.network import Network
from repro.net.topology import (
    build_dumbbell,
    build_leaf_spine,
    build_linear,
    with_ports,
)
from repro.packet.builder import make_udp_packet


def port_facing(network, switch_name, neighbor_name):
    """The port of ``switch_name`` on its link to ``neighbor_name``."""
    link = network.link_between(switch_name, neighbor_name)
    return link.port_a if link.node_a.name == switch_name else link.port_b


class TestNetwork:
    def test_duplicate_names_rejected(self):
        network = Network()
        factory = make_baseline_switch()
        network.add_switch(factory(network.sim, "s0", 2))
        with pytest.raises(ValueError):
            network.add_switch(factory(network.sim, "s0", 2))
        network.add_host(Host(network.sim, "h", 1))
        with pytest.raises(ValueError):
            network.add_host(Host(network.sim, "h", 2))

    def test_double_connect_port_rejected(self):
        network = Network()
        factory = make_baseline_switch()
        s0 = network.add_switch(factory(network.sim, "s0", 2))
        h0 = network.add_host(Host(network.sim, "h0", 1))
        h1 = network.add_host(Host(network.sim, "h1", 2))
        network.connect(h0, 0, s0, 0)
        with pytest.raises(ValueError):
            network.connect(h1, 0, s0, 0)

    def test_link_between_and_port_facing(self):
        network = build_linear(make_baseline_switch(), switch_count=2)
        assert network.link_between("s0", "s1") is not None
        assert network.link_between("s0", "h1") is None
        assert port_facing(network, "s0", "s1") == 1
        assert port_facing(network, "s1", "s0") == 0
        assert port_facing(network, "s0", "h0") == 0

    def test_unconnected_port_tx_is_silent(self):
        network = Network()
        factory = make_baseline_switch()
        s0 = network.add_switch(factory(network.sim, "s0", 2))
        # No links at all: transmitting must not raise.
        s0._transmit(make_udp_packet(1, 2), 1)


class TestTopologies:
    def test_linear_wiring_end_to_end(self):
        from repro.apps.frr import StaticRouteProgram

        network = build_linear(make_sume_switch(), switch_count=3)
        for name in ("s0", "s1", "s2"):
            program = StaticRouteProgram()
            program.install_routes(
                {network.hosts["h1"].ip: 1, network.hosts["h0"].ip: 0}
            )
            network.switches[name].load_program(program)
        received = []
        network.hosts["h1"].add_sink(received.append)
        network.hosts["h0"].send(
            make_udp_packet(network.hosts["h0"].ip, network.hosts["h1"].ip)
        )
        network.run()
        assert len(received) == 1

    def test_dumbbell_shape(self):
        network = build_dumbbell(make_baseline_switch(), senders=3, receivers=2)
        assert set(network.switches) == {"s0", "s1"}
        assert set(network.hosts) == {"tx0", "tx1", "tx2", "rx0", "rx1"}
        assert port_facing(network, "s0", "s1") == 0
        assert port_facing(network, "s0", "tx0") == 1

    def test_leaf_spine_shape(self):
        fabric = build_leaf_spine(
            make_baseline_switch(), leaf_count=2, spine_count=3, hosts_per_leaf=2
        )
        assert len(fabric.leaves) == 2
        assert len(fabric.spines) == 3
        assert fabric.uplink_ports["leaf0"] == [0, 1, 2]
        assert fabric.host_port_base["leaf0"] == 3
        assert len(fabric.hosts["leaf1"]) == 2
        # Leaf 0 port j reaches spine j.
        assert port_facing(fabric.network, "leaf0", "spine2") == 2
        assert port_facing(fabric.network, "spine1", "leaf1") == 1

    def test_with_ports(self):
        description = with_ports(BASELINE_PSA, 9)
        assert description.port_count == 9
        assert description.name == BASELINE_PSA.name

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            build_linear(make_baseline_switch(), switch_count=0)
        with pytest.raises(ValueError):
            build_dumbbell(make_baseline_switch(), senders=0)
        with pytest.raises(ValueError):
            build_leaf_spine(make_baseline_switch(), leaf_count=0)
