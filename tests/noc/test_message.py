"""Tests for message taxonomy and traffic accounting."""

from repro.noc.message import CTRL_FLITS, DATA_FLITS, MsgType, TrafficMeter


def test_data_messages_have_more_flits():
    assert MsgType.COMP_DATA.flits == DATA_FLITS
    assert MsgType.SNOOP.flits == CTRL_FLITS
    assert DATA_FLITS > CTRL_FLITS


def test_every_type_classified():
    for msg in MsgType:
        assert msg.flits in (CTRL_FLITS, DATA_FLITS)
        assert msg.description


def test_record_accumulates():
    meter = TrafficMeter()
    meter.record(MsgType.SNOOP, hops=3)
    meter.record(MsgType.COMP_DATA, hops=2)
    assert meter.total_messages() == 2
    assert meter.flits == CTRL_FLITS + DATA_FLITS
    assert meter.flit_hops == 3 * CTRL_FLITS + 2 * DATA_FLITS


def test_record_count_parameter():
    meter = TrafficMeter()
    meter.record(MsgType.SNOOP, hops=1, count=5)
    assert meter.messages[MsgType.SNOOP] == 5
    assert meter.flits == 5 * CTRL_FLITS


def test_by_type_keys_are_names():
    meter = TrafficMeter()
    meter.record(MsgType.MEM_READ, 1)
    assert meter.by_type() == {"MEM_READ": 1}


def test_merge():
    a, b = TrafficMeter(), TrafficMeter()
    a.record(MsgType.SNOOP, 2)
    b.record(MsgType.SNOOP, 4)
    b.record(MsgType.COMP_ACK, 1)
    a.merge(b)
    assert a.messages[MsgType.SNOOP] == 2
    assert a.total_messages() == 3
    assert a.flit_hops == 2 + 4 + 1


def test_fresh_meter_reports_no_types_and_merge_adds_counts():
    a, b = TrafficMeter(), TrafficMeter()
    assert a.by_type() == {} and a.total_messages() == 0
    b.record(MsgType.SNOOP, 1, count=3)
    a.merge(b)
    a.merge(b)
    assert a.by_type() == {"SNOOP": 6}
    assert a.messages[MsgType.SNOOP] == 6
    assert b.by_type() == {"SNOOP": 3}
