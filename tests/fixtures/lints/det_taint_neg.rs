//! Negative fixture: the same broadcast over an ordered map, and an
//! order-free accessor of a hash map.

use std::collections::{BTreeMap, HashMap};

/// Fixture.
pub struct Peer;

/// Fixture.
pub fn broadcast_sorted(peers: &BTreeMap<u64, Peer>, send: &mut impl FnMut(u64)) {
    for &p in peers.keys() {
        send(p);
    }
}

/// Fixture.
pub fn census(peers: &HashMap<u64, Peer>) -> usize {
    peers.len()
}
