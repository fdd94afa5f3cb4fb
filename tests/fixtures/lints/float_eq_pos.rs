//! Positive fixture: exact float equality on simulated time.

/// Fixture.
pub fn fired(now: f64, deadline: f64) -> bool {
    now == deadline
}
