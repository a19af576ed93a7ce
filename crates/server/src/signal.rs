//! SIGINT/SIGTERM → graceful-shutdown flag, without a signal crate.
//!
//! The container build has no registry access, so this installs the
//! handler with a raw `rt_sigaction` syscall. The kernel requires a
//! userspace restorer trampoline on x86-64; a two-instruction
//! `global_asm!` stub issuing `rt_sigreturn` serves. On other targets
//! installation fails open: [`install`] returns `false` and the server
//! runs without signal-driven drain (Ctrl-C then kills it the default
//! way), which is acceptable degradation for a diagnostics binary.

use std::sync::atomic::AtomicBool;

/// Flipped once by the first SIGINT/SIGTERM; the net loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

/// The flag itself, for loops that poll a `&AtomicBool`.
pub fn stop_flag() -> &'static AtomicBool {
    &STOP
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use super::STOP;
    use std::arch::{asm, global_asm};
    use std::sync::atomic::Ordering;

    const SYS_RT_SIGACTION: u64 = 13;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SA_RESTORER: u64 = 0x0400_0000;
    const SA_RESTART: u64 = 0x1000_0000;

    // The kernel returns to this trampoline after the handler; it must
    // issue rt_sigreturn(nr 15) to restore the interrupted context.
    global_asm!(
        ".global gstm_server_sigreturn",
        "gstm_server_sigreturn:",
        "mov rax, 15",
        "syscall",
    );

    extern "C" {
        fn gstm_server_sigreturn();
    }

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::Relaxed);
    }

    /// Matches the kernel's struct sigaction layout on x86-64 (which is
    /// not libc's): handler, flags, restorer, mask.
    #[repr(C)]
    struct KernelSigaction {
        handler: usize,
        flags: u64,
        restorer: usize,
        mask: u64,
    }

    unsafe fn rt_sigaction(sig: i32, act: *const KernelSigaction) -> i64 {
        let ret: i64;
        asm!(
            "syscall",
            inlateout("rax") SYS_RT_SIGACTION as i64 => ret,
            in("rdi") sig as u64,
            in("rsi") act,
            in("rdx") 0u64,             // no old-action readback
            in("r10") 8u64,             // sigsetsize
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    pub(super) fn install() -> bool {
        let act = KernelSigaction {
            handler: on_signal as extern "C" fn(i32) as usize,
            flags: SA_RESTORER | SA_RESTART,
            restorer: gstm_server_sigreturn as unsafe extern "C" fn() as usize,
            mask: 0,
        };
        // Both signals share the handler; either one starts the drain.
        let a = unsafe { rt_sigaction(SIGINT, &act) };
        let b = unsafe { rt_sigaction(SIGTERM, &act) };
        a == 0 && b == 0
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod imp {
    pub(super) fn install() -> bool {
        false
    }
}

/// Install the SIGINT/SIGTERM handler. Returns `false` where raw signal
/// installation is unsupported (non-x86-64-linux); callers keep running
/// without graceful drain in that case.
pub fn install() -> bool {
    imp::install()
}

#[cfg(test)]
mod tests {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn handler_installs_on_linux_x86_64() {
        assert!(super::install(), "rt_sigaction failed");
    }
}
