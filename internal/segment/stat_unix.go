//go:build unix && !(darwin || ios || freebsd || netbsd)

package segment

import (
	"os"
	"syscall"
)

// statSys returns fi's change time in nanoseconds and its inode number.
func statSys(fi os.FileInfo) (ctime int64, ino uint64, ok bool) {
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return 0, 0, false
	}
	return st.Ctim.Nano(), uint64(st.Ino), true
}
