//! Positive fixture: panicking pop on the event hot path.

/// Fixture.
pub fn pop_due(queue: &mut Vec<u64>) -> u64 {
    queue.pop().expect("queue empty")
}
