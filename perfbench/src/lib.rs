//! The repository benchmark: four seeded workloads run through the
//! compiler and the simulator, every result checked against the
//! sequential reference interpreter, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload stencil|irregular|scale|serve --seed N --seconds N --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A traced run also writes its
//! spans to `perfbench/out/trace-<workload>-<seed>.json`. Every run
//! writes the exact modelled times and comm counts of its programs to
//! `perfbench/out/virt-<workload>-<seed>.json` and reports how they
//! differ from the record an earlier run left there: a change that only
//! touches host speed must leave them identical.
//!
//! The benchmark's own tests: `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

pub mod bench;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod pipeline;
pub mod trace;
