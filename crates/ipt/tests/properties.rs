//! Property-based tests for the PT simulation's core invariants.

use proptest::prelude::*;

use jportal_ipt::lastip::LastIp;
use jportal_ipt::packet::{decode_one, Packet, TntBits};
use jportal_ipt::sideband::schedule_intervals;
use jportal_ipt::{
    decode_packets, EncoderConfig, HwEvent, IpCompression, LossRecord, PtEncoder, RingBuffer,
    SidebandRecord, ThreadId,
};

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

/// Sideband over three cores and four threads with timestamps drawn from
/// a narrow range, so duplicate timestamps, out-records for a thread that
/// is not running, and loss records interleave with the switches.
fn arb_sideband_record() -> impl Strategy<Value = SidebandRecord> {
    prop_oneof![
        (0u32..3, 0u32..4, 0u64..48).prop_map(|(core, t, ts)| SidebandRecord::SwitchIn {
            core,
            thread: ThreadId(t),
            ts,
        }),
        (0u32..3, 0u32..4, 0u64..48).prop_map(|(core, t, ts)| SidebandRecord::SwitchOut {
            core,
            thread: ThreadId(t),
            ts,
        }),
        (0u32..3, 0u64..48).prop_map(|(core, ts)| SidebandRecord::AuxLost {
            core,
            loss: LossRecord {
                stream_offset: 0,
                first_ts: ts,
                last_ts: ts + 3,
                lost_bytes: 16,
                lost_packets: 2,
            },
        }),
    ]
}

proptest! {
    /// Any packet round-trips through its byte encoding, and the encoded
    /// length matches `encoded_len`.
    #[test]
    fn packet_roundtrip(p in arb_packet()) {
        let mut buf = Vec::new();
        p.encode(&mut buf);
        prop_assert_eq!(buf.len(), p.encoded_len());
        let (q, consumed) = decode_one(&buf, 0).expect("decodes");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(q, p);
    }

    /// Concatenated packet streams parse back to the same packet list
    /// (framing never desyncs).
    #[test]
    fn stream_framing(ps in prop::collection::vec(arb_packet(), 0..40)) {
        let mut bytes = Vec::new();
        for p in &ps {
            p.encode(&mut bytes);
        }
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < bytes.len() {
            let (p, n) = decode_one(&bytes, pos).expect("in-sync");
            pos += n;
            out.push(p);
        }
        prop_assert_eq!(out, ps);
    }

    /// Last-IP compression is lossless for any IP sequence: a decoder
    /// fed the (mode, payload) pairs reconstructs every IP exactly.
    #[test]
    fn lastip_symmetry(ips in prop::collection::vec(any::<u64>(), 1..100)) {
        let mut enc = LastIp::new();
        let mut dec = LastIp::new();
        for &ip in &ips {
            let (mode, raw) = enc.compress(ip);
            prop_assert_eq!(dec.decode(mode, raw), Some(ip));
        }
    }

    /// Ring-buffer conservation: every produced byte is either exported
    /// or recorded as lost; loss records never overlap in stream offset.
    #[test]
    fn ring_conservation(
        capacity in 4usize..64,
        writes in prop::collection::vec((1usize..16, 0usize..8), 0..80),
    ) {
        let mut rb = RingBuffer::new(capacity);
        let mut produced = 0u64;
        for (i, &(len, drain)) in writes.iter().enumerate() {
            let data = vec![i as u8; len];
            rb.write(&data, i as u64);
            produced += len as u64;
            rb.drain(drain);
        }
        rb.flush();
        let lost: u64 = rb.loss_records().iter().map(|l| l.lost_bytes).sum();
        prop_assert_eq!(rb.exported().len() as u64 + lost, produced);
        // Loss records are in nondecreasing stream order.
        let offs: Vec<u64> = rb.loss_records().iter().map(|l| l.stream_offset).collect();
        let mut sorted = offs.clone();
        sorted.sort();
        prop_assert_eq!(offs, sorted);
    }

    /// Whatever events we feed the encoder, the exported stream parses
    /// cleanly and every resolved TIP target is one of the inputs.
    #[test]
    fn encoder_stream_always_parses(
        events in prop::collection::vec(
            prop_oneof![
                any::<bool>().prop_map(|taken| HwEvent::Cond { at: 0x1000, taken }),
                (0x1000u64..0x9000).prop_map(|t| HwEvent::Indirect { at: 0x1000, target: t }),
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
        let mut targets = std::collections::HashSet::new();
        for (i, &e) in events.iter().enumerate() {
            enc.set_time(i as u64 * 7);
            if let HwEvent::Indirect { target, .. } = e {
                targets.insert(target);
            }
            enc.event(e);
            if i % 3 == 0 {
                enc.drain(8);
            }
        }
        let trace = enc.finish();
        for tp in decode_packets(&trace.bytes) {
            if let Packet::Tip { ip, .. } = tp.packet {
                prop_assert!(targets.contains(&ip), "resolved TIP {ip:#x} was never emitted");
            }
        }
    }

    /// `schedule_intervals` output is sorted and disjoint for any
    /// sideband, including an end of time before the last switch: every
    /// interval has `start <= end`, ends never decrease, and each start is
    /// at or after the previous end. Segregation's owner lookup
    /// binary-searches the ends and relies on exactly this.
    #[test]
    fn schedule_intervals_are_sorted_and_disjoint(
        records in prop::collection::vec(arb_sideband_record(), 0..60),
        core in 0u32..3,
        end_of_time in 0u64..64,
    ) {
        let iv = schedule_intervals(&records, core, end_of_time);
        for &(_, start, end) in &iv {
            prop_assert!(start <= end, "inverted interval in {iv:?}");
        }
        for w in iv.windows(2) {
            prop_assert!(w[0].2 <= w[1].2, "ends decrease in {iv:?}");
            prop_assert!(w[1].1 >= w[0].2, "overlap in {iv:?}");
        }
    }
}
