//go:build !unix

package segment

import "os"

// statSys reports that this platform gives no change time or inode: no
// fingerprint is taken, and every open validates a source by its hash.
func statSys(os.FileInfo) (ctime int64, ino uint64, ok bool) { return 0, 0, false }
