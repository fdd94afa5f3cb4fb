//! Negative fixture: lookups into a hash map are deterministic; ordered
//! iteration goes through a `BTreeMap`.

use std::collections::{BTreeMap, HashMap};

/// Fixture.
pub fn lookup_sum(m: &HashMap<u64, f64>, ids: &[u64]) -> f64 {
    ids.iter().filter_map(|id| m.get(id)).sum()
}

/// Fixture.
pub fn ordered_sum(m: &BTreeMap<u64, f64>) -> f64 {
    m.values().sum()
}
