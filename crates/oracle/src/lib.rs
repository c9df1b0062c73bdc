//! Naive reference implementations for differential testing.
//!
//! Every production fast path in the toolkit — bucketed histogram
//! binning, the interval stabbing index, the indexed temporal–spatial
//! join, windowed utilization, byte-level location parsing — exists
//! because the obvious implementation is too slow at 2001-day scale. This crate keeps the obvious
//! implementations around: each function here is written for
//! *transparency*, not speed (linear scans, quadratic joins, per-second
//! stepping), so it can serve as the trusted side of a differential test.
//!
//! The rules for code in this crate:
//!
//! 1. **No shared code with the production path.** A reference that
//!    calls the code under test proves nothing. Implementations here may
//!    only use `bgq-model` types and the standard library.
//! 2. **Obviously correct beats fast.** Prefer the formulation you would
//!    write on a whiteboard; `O(n²)` is a feature.
//! 3. **Total over partial.** Reference functions accept adversarial
//!    input (NaN, zero-duration intervals, out-of-range queries) and
//!    define behavior for all of it, because that is exactly where the
//!    production paths historically diverged.
//!
//! The differential suite itself lives in the workspace root
//! (`tests/oracle.rs`); [`cases`] generates the seeded adversarial
//! inputs it feeds to both sides.

pub mod binning;
pub mod cases;
pub mod join;
pub mod location;
pub mod ranking;
pub mod stabbing;
pub mod users;
pub mod utilization;
