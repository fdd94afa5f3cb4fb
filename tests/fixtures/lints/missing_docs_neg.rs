//! Negative fixture: public items documented, restricted visibility
//! exempt.

/// Documented public function.
pub fn documented() {
    internal();
}

pub(crate) fn internal() {}
