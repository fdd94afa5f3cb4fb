//! Positive fixture: hash iteration laundered through a `Vec` before
//! reaching the send order.

use std::collections::HashMap;

/// Fixture.
pub struct Peer;

/// Fixture.
pub fn broadcast(peers: &HashMap<u64, Peer>, send: &mut impl FnMut(u64)) {
    let ids: Vec<u64> = peers.keys().copied().collect();
    let order = ids;
    for p in order {
        send(p);
    }
}
