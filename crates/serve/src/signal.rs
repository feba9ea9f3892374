//! SIGTERM / SIGINT → a process-global `AtomicBool`, with no external
//! crates: on Unix, `libc`'s `signal(2)` is reachable through a direct
//! `extern "C"` declaration (libc is always linked by std). The handler
//! only stores into an atomic — the one thing that is async-signal-safe.
//! On non-Unix targets installation is a no-op and the daemon stops via
//! other means (console event, process kill).

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has arrived since [`install`].
pub fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN_REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// `signal(2)` from libc. The simple non-sigaction form is enough:
        /// we neither mask nor re-raise, and a second signal during
        /// handling would just store `true` again.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub(crate) fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(crate) fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent).
pub fn install() {
    imp::install();
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn raised_signal_sets_the_flag() {
        install();
        assert!(!shutdown_requested());
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        unsafe {
            raise(15);
        }
        assert!(shutdown_requested());
        SHUTDOWN_REQUESTED.store(false, Ordering::SeqCst);
        assert!(!shutdown_requested());
    }
}
