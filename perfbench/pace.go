package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits on a Linux timerfd read through the Go netpoller. A
// time.Sleep shorter than a millisecond can overshoot by about a
// millisecond on an idle process, because the runtime's idle poller waits
// in whole milliseconds; a timerfd event wakes the poller as soon as it
// fires, so the pacer keeps its schedule to tens of microseconds.
type sleeper struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

// newSleeper creates a non-blocking monotonic timerfd.
func newSleeper() (*sleeper, error) {
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, os.NewSyscallError("timerfd_create", e)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks for d (d > 0).
func (s *sleeper) sleep(d time.Duration) error {
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(max(d, 1)))} // no interval; one expiry after d
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return os.NewSyscallError("timerfd_settime", e)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

// close releases the timerfd.
func (s *sleeper) close() error { return s.f.Close() }
