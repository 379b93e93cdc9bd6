//! Helpers shared by this crate's integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Creates a fresh, empty directory under the system temp dir. The name
/// joins the process id, a per-process call counter and `tag`, so no two
/// calls share a directory: not across concurrent test binaries, not
/// across tests in one binary, and not across repeated calls with the
/// same tag.
pub fn unique_temp_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fires-{}-{call}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
