package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// preciseTimer sleeps on a Linux timerfd read through the runtime's
// network poller. The runtime's own timers wake up to a millisecond
// late when the process is idle (the poller waits in whole
// milliseconds), which would add a generator delay to every request
// timed from its due time; a timerfd wakes the poller itself, and the
// sleeping goroutine holds no P while it waits.
type preciseTimer struct {
	fd int
	f  *os.File
}

func newPreciseTimer() *preciseTimer {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	return &preciseTimer{fd: int(fd), f: os.NewFile(fd, "timerfd")}
}

// sleep blocks for d; a nil timer falls back to time.Sleep.
func (t *preciseTimer) sleep(d time.Duration) {
	if t == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec: it_interval (zero: one shot), it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte
	if _, err := t.f.Read(buf[:]); err != nil {
		time.Sleep(d)
	}
}

func (t *preciseTimer) close() {
	if t != nil {
		t.f.Close()
	}
}
