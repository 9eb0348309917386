package cluster

import (
	"fmt"
	"os"
	"runtime/debug"
)

func init() {
	f, err := os.Create(fmt.Sprintf("/root/scratch/crash/crash-%d.txt", os.Getpid()))
	if err == nil {
		debug.SetCrashOutput(f, debug.CrashOptions{})
	}
}
