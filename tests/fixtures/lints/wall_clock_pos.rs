//! Positive fixture: wall-clock read inside simulation code.

use std::time::Instant;

/// Fixture.
pub fn elapsed_wall() -> std::time::Duration {
    let start = Instant::now();
    start.elapsed()
}
