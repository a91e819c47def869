package proto

import (
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/target"
)

// TestMain doubles as the fault-injection target zoo: when re-executed with
// COMPI_PROTO_FAULT set, the test binary plays a misbehaving out-of-process
// target instead of running the tests. The driver tests exec os.Args[0] with
// the mode in the environment, so no extra binaries are needed to exercise
// every failure path across a real process boundary.
func TestMain(m *testing.M) {
	switch mode := os.Getenv("COMPI_PROTO_FAULT"); mode {
	case "":
		os.Exit(m.Run())
	case "exit-mid":
		// Writes the first of the iteration's rank frames and dies, like an
		// instrumented program crashing under mpiexec.
		writeHandshake(Version)
		readAssign()
		writeRank(rankFrame{log: (&conc.Log{Mode: conc.Light}).Encode()})
		os.Exit(3)
	case "garbage":
		// Answers the first iteration with bytes that are not a frame.
		writeHandshake(Version)
		readAssign()
		os.Stdout.Write([]byte{0xff, 0xff, 0xff, 0xff, 'j', 'u', 'n', 'k'})
		os.Exit(0)
	case "stall":
		// Accepts the iteration and never answers: the driver's read
		// deadline must fire.
		writeHandshake(Version)
		readAssign()
		time.Sleep(time.Hour)
		os.Exit(0)
	case "bad-status":
		// A well-framed rank frame whose status no rank can end with.
		writeHandshake(Version)
		readAssign()
		writeRank(rankFrame{status: 9, msg: "rank 0: boom"})
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	case "bad-log":
		// A well-framed rank frame whose log does not decode.
		writeHandshake(Version)
		readAssign()
		writeRank(rankFrame{log: []byte{byte(conc.Light)}})
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	case "extra-frame":
		// Answers every iteration with one rank frame more than it has
		// ranks, all in one write.
		writeHandshake(Version)
		for {
			s := readAssign()
			var out []byte
			for i := 0; i <= s.NProcs; i++ {
				out = append(out, frame(appendRank(nil, rankFrame{log: (&conc.Log{Mode: conc.Light}).Encode()}))...)
			}
			os.Stdout.Write(out)
		}
	case "v2":
		// A target of the previous protocol version.
		writeHandshake(2)
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	default:
		fmt.Fprintf(os.Stderr, "unknown COMPI_PROTO_FAULT mode %q\n", mode)
		os.Exit(2)
	}
}

// fixtureProgram builds the static model the protocol tests speak about —
// the same shape as internal/target's manifest fixture, unregistered.
func fixtureProgram() *target.Program {
	b := target.NewBuilder("mini", 42)
	b.Cond("sanity", "x >= 1")
	b.Cond("solve", "i < x")
	b.InCap("x", 100)
	b.In("seed")
	b.Call("main", "sanity")
	b.Call("main", "solve")
	return b.Build(func(*mpi.Proc) int { return 0 })
}

func writeHandshake(version int) {
	err := WriteFrame(os.Stdout, Frame{Type: FrameHandshake, Handshake: &Handshake{
		Proto:    version,
		Manifest: fixtureProgram().Manifest(),
	}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault target: %v\n", err)
		os.Exit(2)
	}
}

func readAssign() core.LaunchSpec {
	p, err := ReadRaw(os.Stdin)
	if err == io.EOF {
		os.Exit(0) // the driver closed the session
	}
	var s core.LaunchSpec
	if err == nil {
		s, err = decodeAssign(p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault target: expected an assign frame: %v\n", err)
		os.Exit(2)
	}
	return s
}

func writeRank(f rankFrame) {
	if err := WriteRaw(os.Stdout, appendRank(nil, f)); err != nil {
		fmt.Fprintf(os.Stderr, "fault target: %v\n", err)
		os.Exit(2)
	}
}
