//! Positive fixture: O(n) front pop and a partial_cmp comparator.

/// Fixture.
pub fn shift(events: &mut Vec<u64>) -> u64 {
    events.remove(0)
}

/// Fixture.
pub fn order(rates: &mut [f64]) {
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}
