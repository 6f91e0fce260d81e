//! End-to-end and per-layer benchmark of examl-rs.
//!
//! `main.rs` measures; this library holds the pieces the benchmark's own
//! tests check: the workloads, the timing decorator, the traced replay and
//! the span arithmetic.

pub mod cpu;
pub mod layers;
pub mod reference;
pub mod replay;
pub mod spans;
pub mod timed;
pub mod workload;
