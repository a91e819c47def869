package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/spec"
)

// serveMode is the fleet coordinator. It owns the same campaign grid
// `compi sched` would run (and, with -state-dir, the same store), but leases
// shards to `compi work` processes over the dispatch protocol instead of
// running engines itself, prints the merged summary when the batch resolves,
// and exits.
type serveMode struct {
	fs     *flag.FlagSet
	binder *spec.FlagBinder

	listen    *string
	status    *string
	addrFile  *string
	stateDir  *string
	batchID   *string
	ttl       *time.Duration
	snapEvery *int
	verbose   *bool
}

func newServeMode() *serveMode {
	fs := newFlagSet("serve")
	m := &serveMode{fs: fs, binder: spec.Bind(fs, true, nil)}
	m.listen = fs.String("listen", "127.0.0.1:0", "dispatch address workers connect to")
	m.status = fs.String("status", "", "serve plain-text fleet status on this address (empty = off)")
	m.addrFile = fs.String("addr-file", "", "write the dispatch address to this file once listening (worker discovery)")
	m.stateDir = fs.String("state-dir", "", "campaign store directory: checkpoint shards, resume interrupted batches, reuse setups explored by prior batches")
	m.batchID = fs.String("batch", "", "batch manifest name in the store (default: derived from the spec list)")
	m.ttl = fs.Duration("ttl", 10*time.Second, "lease time-to-live: a lease not renewed within this window is reclaimed and re-leased")
	m.snapEvery = fs.Int("snapshot-every", 8, "iterations between progress snapshots: the resume granularity after a worker death and the status endpoint's update interval")
	m.verbose = fs.Bool("v", false, "log fleet events to stderr")
	return m
}

func (m *serveMode) Name() string { return "serve" }
func (m *serveMode) Synopsis() string {
	return "coordinate a worker fleet: lease campaign shards over the dispatch protocol"
}
func (m *serveMode) Flags() *flag.FlagSet        { return m.fs }
func (m *serveMode) Excluded() map[string]string { return m.binder.Excluded() }

func (m *serveMode) Run(args []string) int {
	m.fs.Parse(args)
	cs, err := m.binder.Campaigns(fixParams())
	if err != nil {
		return usagef("%v", err)
	}
	specs := toSpecs(cs)

	opt := fleet.Options{BatchID: *m.batchID, TTL: *m.ttl,
		SnapshotEvery: *m.snapEvery, Profile: m.binder.Profile()}
	if *m.stateDir != "" {
		st, code := openStateDir(*m.stateDir)
		if st == nil {
			return code
		}
		defer st.Close()
		opt.Store = st
	}
	if *m.verbose {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	ln, err := net.Listen("tcp", *m.listen)
	if err != nil {
		return fatalf("compi serve: %v", err)
	}
	c := fleet.NewCoordinator(specs, opt)
	fmt.Fprintf(os.Stderr, "compi serve: dispatching %d shards on %s\n", len(specs), ln.Addr())
	if *m.addrFile != "" {
		// Write-then-rename so a polling worker launcher never reads a
		// half-written address.
		tmp := *m.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err == nil {
			err = os.Rename(tmp, *m.addrFile)
		}
		if err != nil {
			return fatalf("compi serve: %v", err)
		}
	}
	if *m.status != "" {
		sln, err := net.Listen("tcp", *m.status)
		if err != nil {
			return fatalf("compi serve: status: %v", err)
		}
		fmt.Fprintf(os.Stderr, "compi serve: status on %s\n", sln.Addr())
		go c.ServeStatus(sln)
	}
	go c.Serve(ln)
	return summarize(c.Wait())
}
