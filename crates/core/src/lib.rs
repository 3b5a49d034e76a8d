//! JPortal: precise and efficient control-flow tracing for JVM programs
//! with Intel Processor Trace.
//!
//! The offline half of the system described in Zuo et al., *JPortal:
//! Precise and Efficient Control-Flow Tracing for JVM Programs with Intel
//! Processor Trace* (PLDI 2021), built on the simulated substrates of this
//! workspace:
//!
//! 1. [`decode`] — **trace decoding** (§3): per-core PT packet streams +
//!    exported machine-code metadata → per-segment bytecode instruction
//!    sequences, via template-range matching for interpreted code and
//!    code-image walking + debug-info mapping (including inlined frames)
//!    for JIT-compiled code;
//! 2. [`reconstruct`] — **control-flow reconstruction** (§4): projection
//!    of each decoded segment onto the program's ICFG by NFA matching,
//!    with the abstraction-guided filtering of Algorithm 2;
//! 3. [`recover`] — **missing-data recovery** (§5): holes left by PT
//!    buffer overflow are filled from complete segments with matching
//!    contexts, searched with the three-tier abstraction hierarchy of
//!    Algorithm 4 (with Algorithm 3 as the naive baseline);
//! 4. [`threads`] — multi-core / multi-thread trace segregation (§6);
//! 5. [`profiles`] — client profiles (coverage, hot methods, path
//!    frequencies) derived from the reconstructed control flow;
//! 6. [`accuracy`] — the evaluation's scoring: alignment against ground
//!    truth, and the decode/recovery breakdown of Table 3;
//! 7. [`pipeline`] — the end-to-end driver tying 1–5 together.

pub mod accuracy;
pub mod decode;
pub mod pipeline;
pub mod profiles;
pub mod quality;
pub mod reconstruct;
pub mod recover;
pub mod threads;

pub use accuracy::{alignment_score, AccuracyBreakdown};
pub use decode::{decode_segment, decode_segment_with, BcEvent, BcSegment, WalkIndex};
pub use pipeline::{JPortal, JPortalConfig, JPortalReport, TraceEntry, TraceOrigin};
pub use quality::{FillQuality, QualityReport, ThreadQuality};
pub use reconstruct::{project_segment, Projection, ProjectionConfig, ProjectionStats};
pub use recover::{Fill, Recovery, RecoveryConfig, RecoveryStats, SegmentView};
