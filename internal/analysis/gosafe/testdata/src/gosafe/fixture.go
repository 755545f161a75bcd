package fixture

import (
	"sync"

	"rumble/internal/sched"
)

func bare(work func()) func() {
	return func() { go work() } // want "bare go statement"
}

func contained(wg *sync.WaitGroup, work func() error) {
	sched.Go(wg, work, func(error) {})
}
