//! PT packet codec throughput: encode and decode of a realistic packet
//! mix (TIPs under last-IP compression, TNT packing, periodic TSC/PSB).
//!
//! Besides the criterion groups, this bench maintains `BENCH_pt_codec.json`
//! at the repo root under the shared baseline protocol
//! (`jportal_bench::gate`): decode throughput for the packed table-driven
//! decoder and for the one-packet-at-a-time reference codec, plus their
//! ratio. The gate requires BOTH signals to drop >20% below the committed
//! file before it trips: the absolute min-of-iterations decode
//! throughput, and the same-run min-based speedup over the reference
//! decoder (a hardware-independent ratio). A real decoder regression
//! moves both; measurement noise or a hardware change moves only one.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use jportal_bench::gate::{Baseline, Mode};
use jportal_ipt::{decode_packets_into, DecodeScratch, EncoderConfig, HwEvent, PtEncoder};

#[path = "../../ipt/tests/support/reference_decode.rs"]
mod reference;
use reference::reference_decode;

fn synthetic_events(n: usize) -> Vec<HwEvent> {
    let mut out = Vec::with_capacity(n);
    let mut ip = 0x7f80_0000_0000u64;
    for i in 0..n {
        match i % 5 {
            0 | 1 => out.push(HwEvent::Cond {
                at: ip,
                taken: i % 3 == 0,
            }),
            2 | 3 => {
                ip = 0x7f80_0000_0000 + ((i as u64 * 2654435761) & 0xFFFF);
                out.push(HwEvent::Indirect {
                    at: ip,
                    target: ip + 0x40,
                });
            }
            _ => out.push(HwEvent::Indirect {
                at: ip,
                target: 0x7f90_0000_0000 + (i as u64 & 0xFFF),
            }),
        }
    }
    out
}

fn encode_stream(events: &[HwEvent]) -> Vec<u8> {
    let mut enc = PtEncoder::new(EncoderConfig {
        buffer_capacity: 1 << 27,
        filter: None,
        tsc_period: 512,
        psb_period: 4096,
    });
    for (i, &e) in events.iter().enumerate() {
        enc.set_time(i as u64);
        enc.event(e);
    }
    enc.finish().bytes
}

struct CodecNumbers {
    decode_mean_ns: f64,
    decode_min_ns: f64,
    reference_mean_ns: f64,
    reference_min_ns: f64,
    large_mean_ns: f64,
    large_min_ns: f64,
    stream_bytes: usize,
    large_bytes: usize,
}

impl CodecNumbers {
    /// Speedup over the reference, from the fastest observed iterations
    /// (min is far more stable than mean under scheduler noise — the
    /// gate's basis).
    fn speedup_min(&self) -> f64 {
        self.reference_min_ns / self.decode_min_ns
    }
}

/// Commits `BENCH_pt_codec.json`; a drop of >20% in BOTH signals is a
/// breach (see the module docs for why one signal is not enough).
fn write_codec_report(n: &CodecNumbers) {
    let speedup_min = n.speedup_min();
    let min_tp = min_mib_s(n.stream_bytes, n.decode_min_ns);
    let mut base = Baseline::open("BENCH_pt_codec.json", Mode::from_env());
    let base_tp = base.number("decode_bytes_min_mib_per_s");
    let base_speedup = base.number("speedup_vs_reference_min");
    println!(
        "pt_codec gate: min {min_tp:.1} MiB/s (committed {:.1}), \
         speedup {speedup_min:.2}x (committed {:.2}x)",
        base_tp.unwrap_or(0.0),
        base_speedup.unwrap_or(0.0),
    );
    let abs_regressed = base_tp.is_some_and(|b| min_tp < 0.80 * b);
    let rel_regressed = base_speedup.is_some_and(|b| speedup_min < 0.80 * b);
    if abs_regressed && rel_regressed {
        base.fail("decode_bytes regressed >20% from the committed baseline");
    }
    base.commit(&[
        ("decode_bytes_mean_ns", format!("{:.1}", n.decode_mean_ns)),
        ("decode_bytes_min_ns", format!("{:.1}", n.decode_min_ns)),
        (
            "decode_bytes_mib_per_s",
            format!("{:.1}", mib_s(n.stream_bytes, n.decode_mean_ns)),
        ),
        ("decode_bytes_min_mib_per_s", format!("{min_tp:.1}")),
        (
            "reference_decode_mean_ns",
            format!("{:.1}", n.reference_mean_ns),
        ),
        (
            "reference_decode_min_ns",
            format!("{:.1}", n.reference_min_ns),
        ),
        (
            "reference_decode_mib_per_s",
            format!("{:.1}", mib_s(n.stream_bytes, n.reference_mean_ns)),
        ),
        (
            "speedup_vs_reference",
            format!("{:.3}", n.reference_mean_ns / n.decode_mean_ns),
        ),
        ("speedup_vs_reference_min", format!("{speedup_min:.3}")),
        (
            "decode_bytes_large_mean_ns",
            format!("{:.1}", n.large_mean_ns),
        ),
        (
            "decode_bytes_large_mib_per_s",
            format!("{:.1}", mib_s(n.large_bytes, n.large_mean_ns)),
        ),
        (
            "decode_bytes_large_min_mib_per_s",
            format!("{:.1}", min_mib_s(n.large_bytes, n.large_min_ns)),
        ),
        ("stream_bytes", n.stream_bytes.to_string()),
        ("large_stream_bytes", n.large_bytes.to_string()),
    ]);
}

fn mib_s(bytes: usize, mean_ns: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (mean_ns / 1e9)
}

fn min_mib_s(bytes: usize, min_ns: f64) -> f64 {
    mib_s(bytes, min_ns)
}

fn bench_codec(c: &mut Criterion) {
    let events = synthetic_events(20_000);
    let bytes = encode_stream(&events);
    // The large-trace configuration (≥1M events): production-scale
    // streams, where table dispatch and capacity reuse dominate.
    let large_bytes = encode_stream(&synthetic_events(1_000_000));

    let mut g = c.benchmark_group("pt_codec");
    g.throughput(Throughput::Elements(events.len() as u64));
    g.bench_function("encode_20k_events", |b| {
        b.iter_batched(
            || events.clone(),
            |ev| encode_stream(&ev),
            BatchSize::SmallInput,
        )
    });
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    // Steady-state decode: the scratch is reused across iterations, so
    // after the first iteration the loop allocates nothing per packet.
    g.bench_function("decode_bytes", |b| {
        let mut scratch = DecodeScratch::new();
        b.iter(|| decode_packets_into(&bytes, &mut scratch).len())
    });
    g.bench_function("decode_bytes_reference", |b| {
        b.iter(|| reference_decode(&bytes).0)
    });
    g.throughput(Throughput::Bytes(large_bytes.len() as u64));
    g.bench_function("decode_bytes_large", |b| {
        let mut scratch = DecodeScratch::new();
        b.iter(|| decode_packets_into(&large_bytes, &mut scratch).len())
    });
    g.finish();

    let find = |name: &str| {
        c.results
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} not measured"))
            .clone()
    };
    let decode = find("decode_bytes");
    let reference = find("decode_bytes_reference");
    let large = find("decode_bytes_large");
    write_codec_report(&CodecNumbers {
        decode_mean_ns: decode.mean_ns,
        decode_min_ns: decode.min_ns,
        reference_mean_ns: reference.mean_ns,
        reference_min_ns: reference.min_ns,
        large_mean_ns: large.mean_ns,
        large_min_ns: large.min_ns,
        stream_bytes: bytes.len(),
        large_bytes: large_bytes.len(),
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
