//! Minimal SIGTERM latch for graceful drain.
//!
//! The build is offline and the workspace has no `libc` crate, so the
//! handler is registered through a hand-declared binding to `signal(2)`
//! (C `signal`, which glibc implements with BSD semantics: the handler
//! stays installed and interrupted syscalls restart). That one FFI call
//! is the only unsafe code in the crate, confined to this module.
//!
//! The handler itself does the only thing that is async-signal-safe
//! here: store a relaxed atomic flag. The accept path does not poll: a
//! dedicated acceptor thread blocks in `accept`. The daemon's main
//! thread polls the flag instead, alongside the shutdown and drain
//! state, and turns it into an orderly drain in normal code.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler; consumed (swap-to-false) by the main thread.
static SIGTERM_PENDING: AtomicBool = AtomicBool::new(false);

/// SIGTERM's number on every platform this daemon targets (Linux and
/// the BSDs agree on 15).
const SIGTERM: i32 = 15;

extern "C" {
    /// C `signal(2)`. Takes and returns the previous handler as a plain
    /// address; `usize` keeps the declaration free of function-pointer
    /// transmutes on our side.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// The handler: only an atomic store, which is async-signal-safe.
extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM_PENDING.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM latch. Idempotent; called once at daemon start.
pub fn install_sigterm_latch() {
    // The two-step cast (fn item → fn pointer → address) is what the
    // C API actually receives.
    let handler: extern "C" fn(i32) = on_sigterm;
    // SAFETY: `signal` is the C standard library's registration call,
    // always linked by std on the targeted platforms; the handler we
    // pass performs a single atomic store and never unwinds.
    unsafe {
        signal(SIGTERM, handler as usize);
    }
}

/// Raises the latch exactly as the handler does, without a signal:
/// the daemon then drains as if it had received SIGTERM.
pub fn raise_sigterm() {
    SIGTERM_PENDING.store(true, Ordering::Relaxed);
}

/// Consumes a pending SIGTERM: `true` at most once per delivery.
pub fn take_sigterm() -> bool {
    SIGTERM_PENDING.swap(false, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_is_consumed_once() {
        // Raise the flag the way the handler would, without involving a
        // real signal delivery (other tests share the process).
        raise_sigterm();
        assert!(take_sigterm());
        assert!(!take_sigterm());
    }

    #[test]
    fn install_is_idempotent() {
        install_sigterm_latch();
        install_sigterm_latch();
        assert!(!take_sigterm());
    }
}
