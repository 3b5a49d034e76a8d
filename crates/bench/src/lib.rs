//! Evaluation harness for the JPortal reproduction.
//!
//! One binary per table/figure of the paper (`table1` … `table5`,
//! `figure7`), each printing the measured values next to the paper's
//! published numbers. Shared pieces:
//!
//! * [`paper`] — the published numbers (Tables 1–5, Figure 7), typed;
//! * [`harness`] — workload execution at evaluation scale, buffer/drain
//!   calibration, and table formatting;
//! * [`gate`] — the committed-baseline protocol of the gated benches.

pub mod gate;
pub mod harness;
pub mod paper;
