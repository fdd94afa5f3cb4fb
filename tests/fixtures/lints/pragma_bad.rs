//! Fixture: a suppression without a reason is itself an error.

/// Fixture.
#[expect(clippy::float_cmp)]
pub fn fired(now: f64, deadline: f64) -> bool {
    now == deadline
}
