// Command compi-target exposes the built-in target programs over the COMPI
// pipe protocol: it is the reference out-of-process target, the separate
// binary an engine drives with `compi drive -bin compi-target` or a
// sched.Spec with External set.
//
// The protocol runs over stdin/stdout (stderr stays free for diagnostics):
// on start the binary announces the selected program's manifest in a JSON
// handshake frame, then executes one in-process MPI launch per binary assign
// frame and answers with one binary rank frame per rank: its status, exit
// code, error message and log. It exits 0 when the driver closes its stdin,
// non-zero on a protocol violation.
//
// Usage:
//
//	compi-target                    # serve the stencil target (default)
//	compi-target -target susy-hmc   # serve another registered target
//	compi-target -list              # list the registered targets
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/proto"
	"repro/internal/target"
	_ "repro/internal/targets/hpl"
	_ "repro/internal/targets/imb"
	_ "repro/internal/targets/mworder"
	_ "repro/internal/targets/relay"
	_ "repro/internal/targets/skeleton"
	_ "repro/internal/targets/stencil"
	_ "repro/internal/targets/susy"
)

func main() {
	var (
		name = flag.String("target", "stencil", "registered program to serve")
		list = flag.Bool("list", false, "list the registered targets and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(target.Names(), "\n"))
		return
	}
	prog, ok := target.Lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "compi-target: unknown target %q; available: %s\n",
			*name, strings.Join(target.Names(), ", "))
		os.Exit(2)
	}
	if err := proto.Serve(os.Stdin, os.Stdout, prog); err != nil {
		fmt.Fprintf(os.Stderr, "compi-target: %v\n", err)
		os.Exit(1)
	}
}
