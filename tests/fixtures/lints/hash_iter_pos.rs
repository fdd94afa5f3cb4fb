//! Positive fixture: hash iteration order leaks into an order-sensitive
//! float accumulation.

use std::collections::HashMap;

/// Fixture.
pub fn unsorted_digest(m: &HashMap<u64, f64>) -> f64 {
    let mut total = 0.0;
    for (id, v) in m.iter() {
        total = total * 0.5 + v + *id as f64;
    }
    total
}
