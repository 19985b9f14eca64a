//go:build unix

package journal

import (
	"os"
	"syscall"
)

// lockFile takes a non-blocking exclusive flock on the journal so two
// coordinator incarnations can never write the same log: a split-brain
// successor fails Open instead of interleaving frames with a live
// predecessor. The kernel releases the lock when the holder's
// descriptor closes — including by process death, which is the point.
func lockFile(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}

// syncDir makes dir's entries durable: a created or renamed log is
// found after a power loss only once its directory is synced too.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
