package proto_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/target"
)

// TestSnapshotConformance pins the persistence half of the protocol
// contract: a campaign driven over the pipe must snapshot to the same
// persistent state as its in-process twin — in particular the same Prev map,
// which with an external backend is learned from run logs (the engine-side
// variable space never allocated those names itself).
func TestSnapshotConformance(t *testing.T) {
	bin := targetBin(t)
	for _, name := range []string{"skeleton", "stencil"} {
		t.Run(name, func(t *testing.T) {
			prog, ok := target.Lookup(name)
			if !ok {
				t.Fatalf("target %q not registered", name)
			}
			cfg := conformanceConfig()
			cfg.Program = prog
			eIn := core.NewEngine(cfg)
			eIn.Run()
			snapIn := eIn.Snapshot()

			drv, err := proto.Start(bin, proto.Options{Args: []string{"-target", name}})
			if err != nil {
				t.Fatal(err)
			}
			defer drv.Close()
			remote, err := drv.Program()
			if err != nil {
				t.Fatal(err)
			}
			pcfg := conformanceConfig()
			pcfg.Program = remote
			pcfg.Backend = drv
			eExt := core.NewEngine(pcfg)
			eExt.Run()

			// The external snapshot goes through its serialized form, the
			// way the store and -state actually carry it.
			var buf bytes.Buffer
			if err := eExt.Snapshot().Save(&buf); err != nil {
				t.Fatal(err)
			}
			snapExt, err := core.LoadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(snapExt.Prev, snapIn.Prev) {
				t.Fatalf("Prev maps diverged across the pipe:\nin-process: %v\npiped:      %v",
					snapIn.Prev, snapExt.Prev)
			}
			if !reflect.DeepEqual(snapExt.Inputs, snapIn.Inputs) {
				t.Fatalf("inputs diverged: %v vs %v", snapIn.Inputs, snapExt.Inputs)
			}
			if !reflect.DeepEqual(snapExt.Covered, snapIn.Covered) {
				t.Fatalf("coverage diverged: %d vs %d branches",
					len(snapIn.Covered), len(snapExt.Covered))
			}
			if snapExt.Iters != snapIn.Iters || snapExt.RNG != snapIn.RNG {
				t.Fatalf("campaign position diverged: iters %d/%d rng %d/%d",
					snapIn.Iters, snapExt.Iters, snapIn.RNG, snapExt.RNG)
			}
		})
	}
}
