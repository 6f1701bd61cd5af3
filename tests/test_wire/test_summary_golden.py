"""Golden SUMMARY vectors: exact payload bytes for fixed evidence records.

The SUMMARY grammar (docs/wire.md) is what shards send the cluster
coordinator.  These vectors pin it byte for byte, so any change to how
the codec walks the evidence fields shows up here as a broken wire
format, not as a silent peer incompatibility.  Counts above 127 use
two-byte varints on purpose.
"""

from repro.traceback.sink import SinkEvidence
from repro.wire.messages import decode_summary, encode_summary

PNM = dict(
    nodes=(1, 2, 3, 9, 130),
    edges=((1, 2), (2, 3), (3, 9), (9, 130)),
    tamper_stops=((2, 4), (9, 1), (130, 300)),
    packets_received=200,
    tampered_packets=5,
    chains_with_marks=20,
    fallback_searches=3,
)

# Sections shared by both PNM vectors, after the flags byte (and the
# delivering node, when present).
PNM_SECTIONS = (
    "05" "01" "02" "03" "09" "8201"  # nodes
    "04" "0102" "0203" "0309" "098201"  # edges
    "03" "0204" "0901" "8201ac02"  # tamper stops
)


def assert_golden(evidence: SinkEvidence, expected_hex: str) -> None:
    payload = encode_summary(evidence)
    assert payload.hex() == expected_hex
    assert decode_summary(payload) == evidence


def test_pnm_without_delivering_node():
    assert_golden(
        SinkEvidence(**PNM),
        "c801" "05" "14" "03"  # counters
        "00"  # flags: no optional section
        + PNM_SECTIONS,
    )


def test_pnm_with_delivering_node():
    assert_golden(
        SinkEvidence(**PNM, delivering_node=131),
        "c801" "05" "14" "03"  # counters
        "01"  # flags: delivering node present
        "8301"  # delivering node 131
        + PNM_SECTIONS,
    )


def test_algebraic_observations():
    assert_golden(
        SinkEvidence(
            nodes=(1, 2, 3),
            edges=((1, 2), (2, 3)),
            packets_received=4,
            chains_with_marks=4,
            delivering_node=3,
            algebraic=(
                (0, 17, 3, 999, 3, 4),
                (1, 19, 3, 998, 3, 0),
                (1, 19, 3, 998, 3, 0),  # observations may repeat
                (2, 23, 2, 45, 2, 3),
            ),
        ),
        "04" "00" "04" "00"  # counters
        "03"  # flags: delivering node and algebraic section present
        "03"  # delivering node
        "03" "01" "02" "03"  # nodes
        "02" "0102" "0203"  # edges
        "00"  # tamper stops
        "04"  # observations
        "00" "11" "03" "e707" "03" "04"
        "01" "13" "03" "e607" "03" "00"
        "01" "13" "03" "e607" "03" "00"
        "02" "17" "02" "2d" "02" "03",
    )
