//! Negative fixture: fallible pop with a debug-loud fallback.

/// Fixture.
pub fn pop_due(queue: &mut Vec<u64>) -> u64 {
    let Some(head) = queue.pop() else {
        debug_assert!(false, "pop on empty queue");
        return 0;
    };
    head
}
