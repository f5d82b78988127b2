//! # pc-bench — experiment runners and microbenches
//!
//! Every paper figure and table is a cell of a sweep: the [`sweep`]
//! table lists the `suite`, `chaos`, `scale` and `overload` sweeps,
//! each expanding to replayable cell recipes ([`oracle::CellMeta`])
//! that one runner ([`replay::run_recipe`]) executes, and one `sweep`
//! binary drives them all (`src/bin/`). The remaining binaries are
//! self-checks and studies built on the [`exp`] protocol helpers;
//! criterion microbenches for the data-structure substrates live in
//! `benches/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod exp;
pub mod oracle;
pub mod overload;
pub mod replay;
pub mod scale;
pub mod suite;
pub mod sweep;
