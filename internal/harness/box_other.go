//go:build !unix

package harness

import "time"

// processCPU is unknown (-1) where getrusage is unavailable.
func processCPU() time.Duration { return -1 }
