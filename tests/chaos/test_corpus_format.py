"""The corpus wire format of every fault kind, pinned byte for byte.

Committed reproducers and the generator's determinism contract
(``schedule_signature``) both rest on each kind serializing to exactly these
bytes.  The kinds are found through ``FaultEvent.__subclasses__()``, so a new
kind fails here until it has a tag, samples and recorded literals.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.corpus import event_from_dict, event_to_dict
from repro.faults.schedule import (
    AsymmetricPartition,
    DatacenterIsolation,
    DatacenterOutage,
    DatacenterPartition,
    FaultEvent,
    NodeBootstrap,
    NodeCrash,
    NodeDecommission,
    PacketLoss,
    SlowWan,
    WanCongestion,
)
from repro.network.topology import NodeAddress

NODE = NodeAddress("dc1", "r2", 7)

#: Per kind: (event, its canonical JSON).  Each kind has one sample with every
#: optional field at its default and, where it has optional fields, one with
#: none at its default.
SAMPLES = {
    NodeCrash: [
        (NodeCrash(at=1.25, node=NODE), '{"at":1.25,"node":["dc1","r2",7],"type":"node_crash"}'),
        (
            NodeCrash(at=1.25, node=NODE, duration=0.75),
            '{"at":1.25,"duration":0.75,"node":["dc1","r2",7],"type":"node_crash"}',
        ),
        (
            NodeCrash(at=2.5, node=NODE, duration=3.0, replay_hints=False),
            '{"at":2.5,"duration":3.0,"node":["dc1","r2",7],"replay_hints":false,'
            '"type":"node_crash"}',
        ),
    ],
    DatacenterOutage: [
        (
            DatacenterOutage(at=0.0, datacenter="dc2"),
            '{"at":0.0,"datacenter":"dc2","type":"dc_outage"}',
        ),
        (
            DatacenterOutage(at=3.0, datacenter="dc2", duration=4.5, replay_hints=False),
            '{"at":3.0,"datacenter":"dc2","duration":4.5,"replay_hints":false,'
            '"type":"dc_outage"}',
        ),
    ],
    DatacenterPartition: [
        (
            DatacenterPartition(at=1.0, datacenters=("dc1", "dc2")),
            '{"at":1.0,"datacenters":["dc1","dc2"],"mode":"drop","type":"partition"}',
        ),
        (
            DatacenterPartition(
                at=1.5, datacenters=("dc2", "dc1"), duration=2.0, mode="park",
                replay_hints=False,
            ),
            '{"at":1.5,"datacenters":["dc2","dc1"],"duration":2.0,"mode":"park",'
            '"replay_hints":false,"type":"partition"}',
        ),
    ],
    DatacenterIsolation: [
        (
            DatacenterIsolation(at=4.0, datacenter="dc3"),
            '{"at":4.0,"datacenter":"dc3","mode":"drop","type":"dc_isolation"}',
        ),
        (
            DatacenterIsolation(
                at=4.0, datacenter="dc3", duration=0.75, mode="park", replay_hints=False
            ),
            '{"at":4.0,"datacenter":"dc3","duration":0.75,"mode":"park",'
            '"replay_hints":false,"type":"dc_isolation"}',
        ),
    ],
    AsymmetricPartition: [
        (
            AsymmetricPartition(at=0.5, datacenters=("dc3", "dc1")),
            '{"at":0.5,"datacenters":["dc3","dc1"],"mode":"drop","type":"partition_oneway"}',
        ),
        (
            AsymmetricPartition(
                at=0.5, datacenters=("dc3", "dc1"), duration=1.0, mode="park",
                replay_hints=False,
            ),
            '{"at":0.5,"datacenters":["dc3","dc1"],"duration":1.0,"mode":"park",'
            '"replay_hints":false,"type":"partition_oneway"}',
        ),
    ],
    PacketLoss: [
        (
            PacketLoss(at=0.5, datacenters=("dc1", "dc3"), probability=0.25),
            '{"at":0.5,"datacenters":["dc1","dc3"],"probability":0.25,"type":"packet_loss"}',
        ),
        (
            PacketLoss(at=0.5, datacenters=("dc1", "dc3"), probability=0.25, duration=1.5),
            '{"at":0.5,"datacenters":["dc1","dc3"],"duration":1.5,"probability":0.25,'
            '"type":"packet_loss"}',
        ),
    ],
    SlowWan: [
        (
            SlowWan(at=7.0, datacenters=("dc2", "dc3"), scale=4.0),
            '{"at":7.0,"datacenters":["dc2","dc3"],"scale":4.0,"type":"slow_wan"}',
        ),
        (
            SlowWan(at=7.0, datacenters=("dc2", "dc3"), scale=4.0, duration=2.0),
            '{"at":7.0,"datacenters":["dc2","dc3"],"duration":2.0,"scale":4.0,'
            '"type":"slow_wan"}',
        ),
    ],
    WanCongestion: [
        (
            WanCongestion(at=0.25, datacenters=("dc1", "dc2"), bytes=100.0, duration=0.5),
            '{"at":0.25,"bytes":100.0,"datacenters":["dc1","dc2"],"duration":0.5,'
            '"type":"wan_congestion"}',
        ),
        (
            WanCongestion(
                at=1.5, datacenters=("dc1", "dc2"), bytes=2.5e6, duration=3.0, rate_cap=1e6
            ),
            '{"at":1.5,"bytes":2500000.0,"datacenters":["dc1","dc2"],"duration":3.0,'
            '"rate_cap":1000000.0,"type":"wan_congestion"}',
        ),
    ],
    NodeBootstrap: [
        (
            NodeBootstrap(at=6.0, node=NODE),
            '{"at":6.0,"node":["dc1","r2",7],"type":"node_bootstrap"}',
        ),
    ],
    NodeDecommission: [
        (
            NodeDecommission(at=6.5, node=NODE),
            '{"at":6.5,"node":["dc1","r2",7],"type":"node_decommission"}',
        ),
    ],
}


def canonical(event: FaultEvent) -> str:
    return json.dumps(event_to_dict(event), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("kind", FaultEvent.__subclasses__(), ids=lambda kind: kind.__name__)
def test_every_kind_keeps_its_wire_format(kind):
    assert kind in SAMPLES, f"{kind.__name__} has no recorded wire format"
    for event, recorded in SAMPLES[kind]:
        assert type(event) is kind
        assert event_to_dict(event)["type"] == kind.tag
        assert canonical(event) == recorded
        assert event_from_dict(event_to_dict(event)) == event
        assert event_from_dict(json.loads(recorded)) == event


def test_every_sampled_kind_is_a_fault_kind_with_its_own_tag():
    assert set(SAMPLES) == set(FaultEvent.__subclasses__())
    assert len({kind.tag for kind in SAMPLES}) == len(SAMPLES)


def test_a_restart_event_is_not_a_fault_kind():
    # A crash carries its own duration; a file naming the old two-event
    # form fails loudly instead of replaying a crash that never ends.
    with pytest.raises(ValueError, match="unknown fault event type 'node_restart'"):
        event_from_dict({"at": 2.0, "node": ["dc1", "r2", 7], "type": "node_restart"})
