//! Negative fixture: exact zero-guards and integer equality are fine.

/// Fixture.
pub fn any_load(den: f64) -> bool {
    den == 0.0
}

/// Fixture.
pub fn same_generation(a: u64, b: u64) -> bool {
    a == b
}
