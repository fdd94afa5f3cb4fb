//! Fixture: a suppression with a reason silences the lint it names.

use std::time::Instant;

/// Fixture.
#[expect(
    clippy::disallowed_methods,
    reason = "measures host runtime for the bench harness, not simulated time"
)]
pub fn wall_elapsed() -> std::time::Duration {
    let start = Instant::now();
    start.elapsed()
}
