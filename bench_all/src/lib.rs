//! # bench_all
//!
//! The one seeded benchmark of this repository: five workloads, seven gated
//! end-to-end metrics and an outside-in waterfall of per-layer numbers, named
//! in `BENCHMARK.json` at the repository root. See `README.md` beside this
//! crate for what each workload stresses, what each layer metric should move,
//! and how to run, compare and read the trace.
//!
//! The crate is a package of its own (its manifest carries an empty
//! `[workspace]` table) so that the benchmark lives entirely under
//! `bench_all/`: it calls the repository's crates only through their public
//! functions. It runs the program on one CPU ([`affinity`]) and reads each
//! run at the good end of its windows ([`report::GOOD_SIDE_QUANTILE`]); both
//! are there because of the shared hosts it is judged on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
pub mod bench;
pub mod fixture;
pub mod gen;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
