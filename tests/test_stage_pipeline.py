"""Unit tests for Pipeline."""

import pytest

from repro.packet.builder import make_udp_packet
from repro.pisa.metadata import StandardMetadata
from repro.pisa.pipeline import Pipeline


class TestPipeline:
    def test_latency_math(self):
        pipeline = Pipeline("p", lambda pkt, meta: None, stage_count=8, clock_mhz=200.0)
        assert pipeline.cycle_ps == 5_000
        assert pipeline.latency_ps == 40_000

    def test_process_invokes_control_and_counts(self):
        seen = []
        pipeline = Pipeline("p", lambda pkt, meta: seen.append(pkt.pkt_id))
        pkt = make_udp_packet(1, 2)
        pipeline.process(pkt, StandardMetadata())
        assert seen == [pkt.pkt_id]
        assert pipeline.packets_processed == 1

    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            Pipeline("p", lambda pkt, meta: None, stage_count=0)
