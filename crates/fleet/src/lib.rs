//! cap-fleet: crash-supervised multi-process experiment fleet.
//!
//! The fleet turns a list of experiment [`spec::Spec`]s into completed
//! run directories, surviving every failure the `cap-faults` chaos
//! grammar can inject — worker crashes mid-iteration, wedged workers
//! that stop heartbeating, workers that die at startup, and SIGKILL of
//! the supervisor itself.
//!
//! Architecture (one module per responsibility):
//!
//! - [`spec`] — the unit of work: demo runs (seconds) or `exp_suite`
//!   grid cells, serialised as single JSON lines.
//! - [`queue`] — the durable truth: an append-only, fsync'd
//!   `queue.jsonl` event log replayed leniently on load, so a torn
//!   tail or garbage never takes the fleet down.
//! - [`worker`] — one child process, one spec, one run dir: heartbeat
//!   armed, crash-safe execution through `RunDir` create/resume,
//!   `DONE.json` marker on success. The run dir is the spec's whole
//!   record; `capctl tail|dash|flame` read it.
//! - [`supervisor`] — the loop: fill slots, watch heartbeats, SIGKILL
//!   wedges, retry with capped exponential backoff, poison after the
//!   retry budget, reconcile queue state against run-dir truth after
//!   its own death, and publish queue and slot gauges (served on
//!   `/metrics` when `CAP_METRICS_ADDR` is set).
//!
//! The binary is `capfleet` (`init` / `run` / `resume` / `status` /
//! `worker`); see `DESIGN.md` §15 for the full protocol.

#![warn(missing_docs)]

pub mod queue;
pub mod spec;
pub mod supervisor;
pub mod worker;

pub use queue::{Queue, SpecState};
pub use spec::Spec;
pub use supervisor::{run_fleet, FleetConfig, FleetReport};
