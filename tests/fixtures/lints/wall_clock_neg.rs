//! Negative fixture: time comes from the engine clock, not the OS.

/// Fixture.
pub fn advance(clock: &mut f64, dt: f64) {
    *clock += dt;
}
