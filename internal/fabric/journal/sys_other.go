//go:build !unix

package journal

import "os"

// lockFile is a no-op where flock is unavailable; the epoch token in
// the journal itself still fences worker-visible state across
// incarnations, only same-host double-start protection is lost.
func lockFile(f *os.File) error { return nil }

// syncDir is a no-op where a directory cannot be synced through a file
// handle; a created or renamed log's entry is then as durable as the
// platform makes it on its own.
func syncDir(dir string) error { return nil }
