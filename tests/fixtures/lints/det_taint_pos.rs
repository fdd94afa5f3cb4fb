//! Positive fixture: a pointer-to-integer cast flows through a local into
//! the routing decision. An address is not a function of the seed.

/// Fixture.
pub struct Job;

/// Fixture.
pub fn route_by_address(job: &Job) -> usize {
    let key = job as *const Job as usize;
    key % 16
}
