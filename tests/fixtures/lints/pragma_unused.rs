//! Fixture: a suppression that suppresses nothing is reported as stale.

/// Fixture.
#[expect(clippy::expect_used, reason = "stale")]
pub fn nothing() {}
