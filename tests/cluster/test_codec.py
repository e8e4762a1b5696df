"""Property tests for the wire codec: every message type round-trips.

The codec is the live cluster's contract: any registered message, however
its fields are populated, must decode to an equal message from its own
encoded frame.  Hypothesis drives each message class's fields, including
the binary buffer fields (int64 document ids, float64 score vectors) and
arbitrary unicode in the JSON envelope.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.codec import (
    LENGTH_PREFIX,
    decode_frame,
    decode_message,
    encode_message,
    encoded_size,
    read_message,
    registered_message_types,
)
from repro.distributed.messages import (
    AggregatedRankShard,
    AssignSitesMessage,
    ComputeLocalRankRequest,
    LocalRankResult,
    SiteLinkSummary,
    SiteRankAnnouncement,
)
from repro.cluster.protocol import (
    Goodbye,
    Heartbeat,
    JoinAck,
    JoinRequest,
    RoundComplete,
)
from repro.exceptions import ProtocolError

# JSON-safe text: any unicode except lone surrogates.
names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
finite = st.floats(allow_nan=False, allow_infinity=False)
score = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
doc_id = st.integers(min_value=-(2**63), max_value=2**63 - 1)
count = st.integers(min_value=0, max_value=2**31)

#: One hypothesis strategy per registered wire type; the completeness test
#: below fails if a new @wire_message class is added without one.
MESSAGE_STRATEGIES = {
    "AssignSitesMessage": st.builds(
        AssignSitesMessage, sender=names, recipient=names,
        sites=st.tuples() | st.lists(names, max_size=5).map(tuple)),
    "ComputeLocalRankRequest": st.builds(
        ComputeLocalRankRequest, sender=names, recipient=names, site=names,
        damping=finite, tol=finite, max_iter=st.integers(0, 10**6),
        start=st.lists(score, max_size=8).map(tuple)),
    "LocalRankResult": st.builds(
        LocalRankResult, sender=names, recipient=names, site=names,
        doc_ids=st.lists(doc_id, max_size=8).map(tuple),
        scores=st.lists(score, max_size=8).map(tuple),
        iterations=st.integers(0, 10**6)),
    "SiteLinkSummary": st.builds(
        SiteLinkSummary, sender=names, recipient=names,
        counts=st.lists(st.tuples(names, names, count), max_size=5).map(tuple),
        sites=st.lists(names, max_size=5).map(tuple)),
    "SiteRankAnnouncement": st.builds(
        SiteRankAnnouncement, sender=names, recipient=names,
        sites=st.lists(names, max_size=5).map(tuple),
        scores=st.lists(score, max_size=8).map(tuple)),
    "AggregatedRankShard": st.builds(
        AggregatedRankShard, sender=names, recipient=names,
        doc_ids=st.lists(doc_id, max_size=8).map(tuple),
        scores=st.lists(score, max_size=8).map(tuple)),
    "JoinRequest": st.builds(
        JoinRequest, sender=names, recipient=names, peer_name=names,
        graph_digest=names),
    "JoinAck": st.builds(
        JoinAck, sender=names, recipient=names, accepted=st.booleans(),
        reason=names, assigned_name=names, heartbeat_seconds=finite,
        damping=finite, tol=finite, max_iter=st.integers(0, 10**6)),
    "Heartbeat": st.builds(
        Heartbeat, sender=names, recipient=names,
        seq=st.integers(0, 2**62), busy_seconds=finite),
    "RoundComplete": st.builds(
        RoundComplete, sender=names, recipient=names,
        makespan_seconds=finite),
    "Goodbye": st.builds(
        Goodbye, sender=names, recipient=names, reason=names,
        busy_seconds=finite),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def test_every_registered_type_has_a_strategy():
    """New wire types must be added to the round-trip property."""
    assert set(registered_message_types()) == set(MESSAGE_STRATEGIES)


@given(message=any_message)
@settings(max_examples=300, deadline=None)
def test_round_trip_equality(message):
    assert decode_frame(encode_message(message)) == message


@given(message=any_message)
@settings(max_examples=50, deadline=None)
def test_encoded_size_is_the_frame_length(message):
    frame = encode_message(message)
    assert len(frame) == encoded_size(message)
    assert message.size_bytes == len(frame)


@given(message=any_message)
@settings(max_examples=25, deadline=None)
def test_stream_read_returns_message_and_wire_bytes(message):
    async def round_trip():
        reader = asyncio.StreamReader()
        frame = encode_message(message)
        reader.feed_data(frame)
        reader.feed_eof()
        decoded, nbytes = await read_message(reader)
        return decoded, nbytes, len(frame)

    decoded, nbytes, frame_len = asyncio.run(round_trip())
    assert decoded == message
    assert nbytes == frame_len


class TestMalformedFrames:
    def test_trailing_bytes_rejected(self):
        frame = encode_message(Heartbeat(sender="a", recipient="b", seq=1))
        payload = frame[LENGTH_PREFIX.size:] + b"extra"
        with pytest.raises(ProtocolError):
            decode_message(payload)

    def test_truncated_buffer_rejected(self):
        frame = encode_message(LocalRankResult(
            sender="a", recipient="b", site="s", doc_ids=(1, 2),
            scores=(0.5, 0.5), iterations=3))
        with pytest.raises(ProtocolError):
            decode_message(frame[LENGTH_PREFIX.size:-4])

    def test_unknown_type_rejected(self):
        frame = encode_message(Heartbeat(sender="a", recipient="b"))
        payload = frame[LENGTH_PREFIX.size:]
        mangled = payload.replace(b'"Heartbeat"', b'"HeartBEAT"')
        with pytest.raises(ProtocolError):
            decode_message(mangled)

    def test_garbage_envelope_rejected(self):
        envelope = b"not json at all"
        payload = LENGTH_PREFIX.pack(len(envelope)) + envelope
        with pytest.raises(ProtocolError):
            decode_message(payload)
