//! Benchmark harness: ablations and the engine scaling bench.
//!
//! * `satpg table 1` / `satpg table 2` — the paper's Tables 1 and 2;
//! * `cargo run -p satpg-bench --release --bin ablation_k` — sensitivity
//!   of the CSSG to the test-cycle bound `k` (§4.1);
//! * `cargo run -p satpg-bench --release --bin ablation_redundancy` —
//!   the coverage cost of redundant hazard covers (the Table 2 story);
//! * `cargo bench -p satpg-bench --bench engine_scaling` — engine,
//!   CSSG, settler, random-stage and fleet scaling records in
//!   `target/bench_report.json` ([`report`]).

pub mod report;
