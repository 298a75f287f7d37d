//! # outage-cli
//!
//! The operator-facing command line for the passive-outage pipeline:
//!
//! ```text
//! passive-outage simulate --preset table1 --num-as 120 --seed 42 \
//!     --out obs.txt --truth truth.txt
//! passive-outage detect   --obs obs.txt --out events.txt
//! passive-outage eval     --observed events.txt --truth truth.txt --window 86400
//! passive-outage coverage --obs obs.txt
//! ```
//!
//! Data flows through trivially greppable line formats (see [`mod@format`]);
//! command logic lives in [`cmd`] (one module per command family) as
//! pure functions so the whole pipeline is unit-tested without touching
//! the filesystem; [`commands`] re-exports the same surface for
//! compatibility.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cmd;
pub mod commands;
pub mod format;

pub use commands::{
    build_preset, coverage, detect, detect_with, eval, federate, serve, simulate, telescope,
    CommandError, DetectOptions, FederateOptions, ServeOptions, ServeSource,
};
