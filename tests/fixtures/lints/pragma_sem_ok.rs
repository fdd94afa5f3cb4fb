//! Fixture: a suppression with a reason silences the pointer-cast lint
//! that replaced the dataflow rule, same as any other lint.

/// Fixture.
pub struct Job;

/// Fixture.
pub fn overlay_key(job: &Job) -> usize {
    #[expect(
        clippy::ref_as_ptr,
        reason = "key feeds a debug-only overlay event that never touches sim state"
    )]
    let key = job as *const Job as usize;
    key >> 4
}
