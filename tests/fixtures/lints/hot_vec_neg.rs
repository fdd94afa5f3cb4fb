//! Negative fixture: VecDeque front pop and a total-order comparator.

use std::collections::VecDeque;

/// Fixture.
pub fn shift(events: &mut VecDeque<u64>) -> Option<u64> {
    events.pop_front()
}

/// Fixture.
pub fn order(rates: &mut [f64]) {
    rates.sort_by(|a, b| a.total_cmp(b));
}
