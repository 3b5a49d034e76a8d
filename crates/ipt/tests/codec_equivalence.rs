//! Equivalence suite for the table-driven stream decoder.
//!
//! The packed SWAR decode path (`decode_packets_into`, the 256-entry
//! header-byte dispatch table) is pinned against a reference decoder
//! built from the one-packet-at-a-time codec (`decode_one` + explicit
//! last-IP resolution) — the seed's stream-decode structure. The two
//! must produce byte-identical packet sequences, identical resync
//! behavior, and identical segmentation on every input: well-formed
//! encoder output, arbitrary garbage, and adversarial mixtures.

use proptest::prelude::*;

use jportal_ipt::packet::{decode_one, Packet, TntBits};
use jportal_ipt::ring::LossRecord;
use jportal_ipt::{
    decode_packets, decode_packets_into, segment_stream, DecodeScratch, EncoderConfig, HwEvent,
    IpCompression, PtEncoder, TimedPacket,
};

#[path = "support/reference_decode.rs"]
mod reference;
use reference::reference_decode;

fn assert_equivalent(bytes: &[u8]) {
    let (expected, expected_resync) = reference_decode(bytes);
    let mut scratch = DecodeScratch::new();
    let got = decode_packets_into(bytes, &mut scratch);
    assert_eq!(got, &expected[..], "packet sequences must be identical");
    assert_eq!(
        scratch.stats().resync_bytes,
        expected_resync,
        "resync byte counts must agree"
    );
    assert_eq!(scratch.stats().packets, expected.len() as u64);
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        Just(Packet::Pad),
        Just(Packet::Psb),
        Just(Packet::PsbEnd),
        Just(Packet::Ovf),
        prop::collection::vec(any::<bool>(), 1..=47).prop_map(|bits| Packet::Tnt {
            bits: TntBits::from_bools(&bits),
        }),
        any::<u64>().prop_map(|ip| Packet::Tip {
            compression: IpCompression::Full,
            ip,
        }),
        any::<u64>().prop_map(|ip| Packet::Fup {
            compression: IpCompression::Full,
            ip,
        }),
        (0u64..(1 << 56)).prop_map(|tsc| Packet::Tsc { tsc }),
    ]
}

proptest! {
    /// On concatenated well-formed packets, the table decoder and the
    /// reference produce identical sequences.
    #[test]
    fn equivalent_on_packet_streams(ps in prop::collection::vec(arb_packet(), 0..60)) {
        let mut bytes = Vec::new();
        for p in &ps {
            p.encode(&mut bytes);
        }
        assert_equivalent(&bytes);
    }

    /// On arbitrary garbage, both decoders terminate, never panic, and
    /// agree on every packet and every resynced byte.
    #[test]
    fn equivalent_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        assert_equivalent(&bytes);
    }

    /// On garbage biased toward packet headers (so the stream is a dense
    /// mix of near-valid packets and resyncs), the decoders still agree.
    #[test]
    fn equivalent_on_header_biased_bytes(
        bytes in prop::collection::vec(
            prop_oneof![
                Just(0x02u8), Just(0x19), Just(0x0D), Just(0x2D), Just(0x4D),
                Just(0x8D), Just(0xCD), Just(0x82), Just(0xA3), Just(0xF3),
                Just(0x23), Just(0x00), any::<u8>(),
            ],
            0..256,
        )
    ) {
        assert_equivalent(&bytes);
    }

    /// Real encoder output (with overflow losses, PSB cadence, TSC
    /// cadence and filtering in play) decodes identically.
    #[test]
    fn equivalent_on_encoder_streams(
        events in prop::collection::vec(
            prop_oneof![
                any::<bool>().prop_map(|taken| HwEvent::Cond { at: 0x1000, taken }),
                (0x1000u64..0x9000).prop_map(|t| HwEvent::Indirect { at: 0x1000, target: t }),
                (0x1000u64..0x9000).prop_map(|t| HwEvent::Async { from: 0x1000, to: t }),
            ],
            0..200,
        ),
        capacity in 32usize..256,
    ) {
        let mut enc = PtEncoder::new(EncoderConfig {
            buffer_capacity: capacity,
            filter: None,
            tsc_period: 64,
            psb_period: 128,
        });
        for (i, &e) in events.iter().enumerate() {
            enc.set_time(i as u64 * 7);
            enc.event(e);
            if i % 3 == 0 {
                enc.drain(8);
            }
        }
        let trace = enc.finish();
        assert_equivalent(&trace.bytes);
    }

    /// A scratch reused across decodes of different streams gives the
    /// same packets as a fresh one (capacity reuse never leaks state).
    #[test]
    fn scratch_reuse_is_stateless(
        streams in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..6)
    ) {
        let mut reused = DecodeScratch::new();
        for bytes in &streams {
            let got: Vec<TimedPacket> = decode_packets_into(bytes, &mut reused).to_vec();
            let fresh = decode_packets(bytes);
            prop_assert_eq!(got, fresh);
        }
    }

    /// Segmentation over the shared buffer matches a reference split of
    /// the same packet list at the same loss offsets.
    #[test]
    fn segmentation_matches_reference_split(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        cuts in prop::collection::vec(0u64..300, 0..5),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        let losses: Vec<LossRecord> = cuts
            .iter()
            .map(|&off| LossRecord {
                stream_offset: off,
                first_ts: off,
                last_ts: off + 1,
                lost_bytes: 10,
                lost_packets: 1,
            })
            .collect();
        let (packets, _) = reference_decode(&bytes);

        // Reference split: walk the packets, cutting at each loss.
        let mut expected: Vec<(Vec<TimedPacket>, Option<LossRecord>)> = Vec::new();
        let mut current = Vec::new();
        let mut pending: Option<LossRecord> = None;
        let mut loss_iter = losses.iter().peekable();
        for p in &packets {
            while let Some(&&loss) = loss_iter.peek() {
                if loss.stream_offset <= p.offset {
                    loss_iter.next();
                    expected.push((std::mem::take(&mut current), pending.take()));
                    pending = Some(loss);
                } else {
                    break;
                }
            }
            current.push(*p);
        }
        for &loss in loss_iter {
            expected.push((std::mem::take(&mut current), pending.take()));
            pending = Some(loss);
        }
        expected.push((current, pending));
        expected.retain(|(ps, loss)| !ps.is_empty() || loss.is_some());

        let segments = segment_stream(decode_packets(&bytes), &losses, 7);
        prop_assert_eq!(segments.len(), expected.len());
        for (seg, (ps, loss)) in segments.iter().zip(&expected) {
            prop_assert_eq!(seg.packets(), &ps[..]);
            prop_assert_eq!(&seg.loss_before, loss);
            prop_assert_eq!(seg.core, 7);
        }
    }
}

/// Exhaustive packed-TNT round-trips: every length 1..=47, several bit
/// patterns per length, through both the packet codec (which picks the
/// short encoding for ≤6 bits and long otherwise) and an explicitly
/// constructed encoding of the other width where representable.
#[test]
fn tnt_round_trips_every_length_and_both_encodings() {
    for len in 1..=TntBits::MAX {
        let patterns: [u64; 4] = [
            0,
            (1u64 << len) - 1,
            0xAAAA_AAAA_AAAA_AAAA & ((1u64 << len) - 1),
            0x5A5A_5A5A_5A5A_5A5A & ((1u64 << len) - 1),
        ];
        for &bits in &patterns {
            let tnt = TntBits::from_raw(bits, len as u8);
            let p = Packet::Tnt { bits: tnt };

            // Codec-chosen encoding (short for ≤6, long otherwise).
            let mut buf = Vec::new();
            p.encode(&mut buf);
            let (q, consumed) = decode_one(&buf, 0).expect("round-trip decodes");
            assert_eq!(consumed, buf.len());
            assert_eq!(q, p, "len {len} bits {bits:#x}");

            // The stream decoder agrees.
            let packets = decode_packets(&buf);
            assert_eq!(packets.len(), 1);
            assert_eq!(packets[0].packet, p);

            // Explicit long encoding is valid for every length ≤ 47.
            let payload = (1u64 << len) | bits;
            let mut long = vec![0x02, 0xA3];
            long.extend_from_slice(&payload.to_le_bytes()[..6]);
            let decoded = decode_packets(&long);
            assert_eq!(decoded.len(), 1);
            assert_eq!(decoded[0].packet, p, "long encoding, len {len}");
            assert_equivalent(&long);

            // Explicit short encoding exists only for ≤ 6 bits.
            if len <= 6 {
                let header = ((1u64 << (len + 1)) | (bits << 1)) as u8;
                let short = [header];
                let decoded = decode_packets(&short);
                assert_eq!(decoded.len(), 1);
                assert_eq!(decoded[0].packet, p, "short encoding, len {len}");
                assert_equivalent(&short);
            }
        }
    }
}

/// The boundary structure of truncated packets: every prefix of every
/// packet encoding decodes equivalently (exercises all tail paths of the
/// unaligned-load fast loop).
#[test]
fn truncated_packet_prefixes_are_equivalent() {
    let packets = [
        Packet::Psb,
        Packet::Tsc {
            tsc: 0x00AB_CDEF_0123_4567,
        },
        Packet::Tnt {
            bits: TntBits::from_raw(0x7FFF_FFFF_FFFF, 46),
        },
        Packet::Tip {
            compression: IpCompression::Full,
            ip: 0xDEAD_BEEF_CAFE,
        },
    ];
    for p in &packets {
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        for cut in 0..=bytes.len() {
            assert_equivalent(&bytes[..cut]);
        }
    }
}
