//! The one-packet-at-a-time reference stream decoder, shared by the
//! codec equivalence suite and the `pt_codec` bench (each includes this
//! file with `#[path]`), so the oracle stays out of the shipped API.

use jportal_ipt::lastip::LastIp;
use jportal_ipt::packet::{decode_one, Packet};
use jportal_ipt::TimedPacket;

/// Reference stream decoder: the seed's loop, byte-for-byte — one
/// `decode_one` per packet, explicit last-IP resolution, one-byte
/// resync on anything unrecognized. Returns the packets and the number
/// of resync bytes skipped.
pub fn reference_decode(bytes: &[u8]) -> (Vec<TimedPacket>, u64) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut last_ip = LastIp::new();
    let mut ts = 0u64;
    let mut resync = 0u64;
    while pos < bytes.len() {
        match decode_one(bytes, pos) {
            Some((packet, consumed)) => {
                let resolved = match packet {
                    Packet::Psb | Packet::Ovf => {
                        last_ip.reset();
                        Some(packet)
                    }
                    Packet::Tsc { tsc } => {
                        ts = tsc;
                        Some(packet)
                    }
                    Packet::Tip { compression, ip } => last_ip
                        .decode(compression, ip)
                        .map(|ip| Packet::Tip { compression, ip }),
                    Packet::TipPge { compression, ip } => last_ip
                        .decode(compression, ip)
                        .map(|ip| Packet::TipPge { compression, ip }),
                    Packet::TipPgd { compression, ip } => last_ip
                        .decode(compression, ip)
                        .map(|ip| Packet::TipPgd { compression, ip }),
                    Packet::Fup { compression, ip } => last_ip
                        .decode(compression, ip)
                        .map(|ip| Packet::Fup { compression, ip }),
                    Packet::Pad => None,
                    other => Some(other),
                };
                if let Some(p) = resolved {
                    out.push(TimedPacket {
                        packet: p,
                        offset: pos as u64,
                        ts,
                    });
                }
                pos += consumed;
            }
            None => {
                pos += 1;
                resync += 1;
            }
        }
    }
    (out, resync)
}
