package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// pinToCPU locks the calling goroutine to its OS thread and that
// thread to the n-th CPU the process may run on, the way load
// generators are pinned in any benchmark: where the kernel happens to
// place two freshly woken threads must not decide whether two clients
// run side by side. It returns the undo function. On a machine with
// fewer usable CPUs than clients the thread is left unpinned.
func pinToCPU(n int) (undo func()) {
	runtime.LockOSThread()
	var allowed [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return runtime.UnlockOSThread
	}
	var cpus []int
	for w, word := range allowed {
		for b := 0; b < 64; b++ {
			if word&(1<<b) != 0 {
				cpus = append(cpus, w*64+b)
			}
		}
	}
	if n >= len(cpus) {
		return runtime.UnlockOSThread
	}
	var one [16]uint64
	one[cpus[n]/64] = 1 << (cpus[n] % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return runtime.UnlockOSThread
	}
	return func() {
		// Restore the thread's full mask before handing it back to the
		// runtime's pool.
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed)))
		runtime.UnlockOSThread()
	}
}
