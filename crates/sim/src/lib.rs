//! Simulation-engine substrate for the REX reproduction.
//!
//! The protocol logic lives in `rex-core`; this crate supplies the
//! machinery every experiment shares:
//!
//! * [`stage`] — the merge/train/share/test stage taxonomy of Algorithm 2
//!   and per-stage time accounting (Figs 5a, 6a, 7a);
//! * [`stopwatch`] — wall-clock measurement of real compute;
//! * [`trace`] — per-epoch experiment records and derived metrics
//!   (time-to-target-error drives Tables II/III);
//! * [`report`] — CSV/markdown emission matching the paper's tables.

pub mod report;
pub mod stage;
pub mod stopwatch;
pub mod trace;

pub use stage::{Stage, StageTimes};
pub use stopwatch::Stopwatch;
pub use trace::{EpochRecord, ExperimentTrace};
